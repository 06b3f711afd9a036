//! Shared helpers for the `soctam-bench` table/figure regenerators.
//!
//! Every bin reads its argv with `soctam_core::protocol`'s option reader,
//! the one the `soctam` CLI and the request grammar use: `main` first
//! rejects any word its module doc's `Options:` line does not list
//! (`check_known_args`), then reads those options with `opt_value`,
//! `opt_num`, and `flag`. A bad command line exits 1 before any work.

use soctam_core::flow::{FlowConfig, ParamSweep};
use soctam_core::protocol::Json;

/// The flow configuration used for headline table reproductions: the
/// paper's `(m, d)` best-of search, extended with idle-fill slack values
/// (see EXPERIMENTS.md for the rationale).
pub fn headline_config() -> FlowConfig {
    FlowConfig {
        sweep: ParamSweep::extended(),
        ..FlowConfig::new()
    }
}

/// A cheaper configuration for the wide `W = 1..=80` sweeps behind
/// Figure 9 and Table 2.
pub fn sweep_config() -> FlowConfig {
    FlowConfig {
        sweep: ParamSweep {
            percents: vec![1, 4, 8, 15, 25, 40, 60],
            bumps: vec![0, 2],
            slacks: vec![3, 8],
        },
        ..FlowConfig::new()
    }
}

/// Escapes a string for embedding in a JSON document (the bench bins emit
/// JSON by hand; the workspace is vendored-only, so no serde). One
/// implementation for the whole workspace: the shared protocol module's.
pub use soctam_core::protocol::json_escape;

/// Writes a snapshot bin's JSON report to `path` and prints `wrote
/// <path>`, once the workspace's strict reader ([`Json::parse`]) has
/// accepted it. Exits 1 if the report does not parse (nothing is written)
/// or cannot be written.
pub fn write_report(path: &str, json: &str) {
    if let Err(e) = Json::parse(json) {
        eprintln!("error: not writing `{path}`: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("error: writing `{path}`: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_construct() {
        assert!(headline_config().sweep.runs() > sweep_config().sweep.runs());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\u{1}"), "line\\nbreak\\u0001");
    }
}
