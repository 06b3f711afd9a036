//! Process-wide work totals under their older names: one-line reads of
//! [`obs::total`](crate::obs::total), kept only because the `perfbench`
//! benchmark calls them. Code in this workspace reads `obs::total`, so
//! this module can go at the next benchmark change.

use crate::obs::{total, Work};

/// Number of whole-SOC rectangle-menu builds since process start.
pub fn menu_builds() -> u64 {
    total(Work::MenuBuild)
}

/// Always 0: a context builds its menus once and every run reads them
/// under its own cap, so no menu is ever derived from another. Kept
/// because `perfbench` still reports it.
pub fn menu_derives() -> u64 {
    0
}

/// Number of whole [`CompiledSoc`](crate::CompiledSoc) compilations since
/// process start.
pub fn context_compiles() -> u64 {
    total(Work::ContextCompile)
}

/// Number of packer runs [`best_of`](crate::best_of) executed since
/// process start.
pub fn schedule_runs() -> u64 {
    total(Work::ScheduleRun)
}
