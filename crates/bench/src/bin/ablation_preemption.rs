//! Preemption-budget study — the investigation the paper's §6 explicitly
//! calls for: how do testing time, preemption usage, and scan penalties
//! move as `max_preempts` grows?
//!
//! One `ContextRegistry` backs the whole ablation: each budget variant's
//! context compiles exactly once per SOC and is reused for every width
//! (the `context_reuse` suite pins zero redundant compiles across
//! repeated sweeps of the same variants).
//!
//! Run with: `cargo run --release -p soctam-bench --bin ablation_preemption`
//! Options:  `--soc <name>`, `--width W`.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam_bench::headline_config;
use soctam_core::protocol::{check_known_args, opt_num, opt_value};
use soctam_core::report::{preemption_sweep_with, render_preemption_sweep};
use soctam_core::schedule::ContextRegistry;
use soctam_core::soc::benchmarks;

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--soc", "--width"], &[])?;
    let only = opt_value(&args, "--soc")?;
    let width: Option<u16> = opt_num(&args, "--width")?;
    let budgets = [0u32, 1, 2, 3, 4];
    let cfg = headline_config();
    let registry = ContextRegistry::default();

    writeln!(
        out,
        "Preemption-budget study (larger cores granted max_preempts = budget)"
    )?;
    writeln!(out)?;
    for name in benchmarks::NAMES {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let w = width.unwrap_or(benchmarks::table1_widths(name)[1]);
        match preemption_sweep_with(&registry, &soc, w, &budgets, &cfg) {
            Ok(rows) => writeln!(out, "{}", render_preemption_sweep(name, w, &rows))?,
            Err(e) => eprintln!("{name}: failed: {e}"),
        }
    }
    writeln!(
        out,
        "budget 0 = non-preemptive; time gains beyond budget 2 are usually"
    )?;
    writeln!(
        out,
        "exhausted — each further split costs another scan-in + scan-out"
    )?;
    Ok(())
}
