//! Compilation instrumentation for the scheduling crate.
//!
//! Process-wide monotone counters of the two SOC-level precomputations a
//! sweep is supposed to perform exactly once per SOC:
//! [`RectangleMenus::build`](crate::RectangleMenus::build) and
//! [`ConstraintSet::compile`](crate::ConstraintSet::compile). The
//! `context_reuse` equivalence suite measures deltas around whole sweeps
//! to pin the amortization promised by [`CompiledSoc`](crate::CompiledSoc);
//! see also `soctam_wrapper::instrument` for the per-core rectangle-set
//! counter.

use std::sync::atomic::{AtomicU64, Ordering};

static MENU_BUILDS: AtomicU64 = AtomicU64::new(0);
static CONSTRAINT_COMPILES: AtomicU64 = AtomicU64::new(0);
static CONTEXT_COMPILES: AtomicU64 = AtomicU64::new(0);
static SCHEDULE_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of whole-SOC rectangle-menu builds since process start.
pub fn menu_builds() -> u64 {
    MENU_BUILDS.load(Ordering::Relaxed)
}

/// Always 0: a context builds its menus once and every run reads them
/// under its own cap, so no menu is ever derived from another. Kept
/// because `perfbench` still reports it.
pub fn menu_derives() -> u64 {
    0
}

/// Number of [`ConstraintSet`](crate::ConstraintSet) compilations since
/// process start.
pub fn constraint_compiles() -> u64 {
    CONSTRAINT_COMPILES.load(Ordering::Relaxed)
}

/// Number of whole [`CompiledSoc`](crate::CompiledSoc) compilations since
/// process start. A well-behaved batch compiles one context per distinct
/// `(SOC, w_max, power budget)` registry key; `perfsnap` and the CI perf
/// smoke gate on this counter.
pub fn context_compiles() -> u64 {
    CONTEXT_COMPILES.load(Ordering::Relaxed)
}

/// Number of packer runs [`best_of`](crate::best_of) executed since
/// process start; a [`ScheduleBuilder::run`](crate::ScheduleBuilder::run)
/// that passes validation is one. The serving tier's warm-path invariant — a repeat request served
/// from a [`SolutionCache`](crate::SolutionCache) never re-solves — is
/// pinned by measuring a zero delta of this counter across a warm pass.
pub fn schedule_runs() -> u64 {
    SCHEDULE_RUNS.load(Ordering::Relaxed)
}

pub(crate) fn note_schedule_run() {
    SCHEDULE_RUNS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_menu_build() {
    MENU_BUILDS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_constraint_compile() {
    CONSTRAINT_COMPILES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_context_compile() {
    CONTEXT_COMPILES.fetch_add(1, Ordering::Relaxed);
}
