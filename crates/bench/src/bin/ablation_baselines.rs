//! Baseline comparison (§2's motivation): the paper's flexible-width
//! rectangle packing against fixed-width TAM architectures (\[12, 13\]
//! style, exhaustively optimized) and level-oriented shelf packing
//! (Coffman et al. \[8\]).
//!
//! Run with: `cargo run --release -p soctam-bench --bin ablation_baselines`
//! Options:  `--soc <name>` (default: d695 and p93791, the constraint-free
//! benchmarks).

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam_bench::headline_config;
use soctam_core::baseline::{fixed_width_best, session_schedule, shelf_pack};
use soctam_core::flow::TestFlow;
use soctam_core::protocol::{check_known_args, opt_value};
use soctam_core::soc::benchmarks;

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--soc"], &[])?;
    let socs = match opt_value(&args, "--soc")? {
        Some(s) => vec![s],
        None => vec!["d695", "p93791"],
    };

    writeln!(
        out,
        "Flexible-width rectangle packing vs baselines (testing time, cycles)"
    )?;
    writeln!(
        out,
        "{:<8} {:>3} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "SOC", "W", "LB", "flexible", "fixed(k<=3)", "fixed(k<=2)", "shelf", "sessions"
    )?;

    for name in socs {
        let soc = benchmarks::by_name(name).ok_or_else(|| format!("unknown SOC `{name}`"))?;
        // One compilation feeds the flexible scheduler, the lower-bound
        // column, and every baseline architecture at every width.
        let flow = TestFlow::new(&soc, headline_config());
        let ctx = flow.context();
        for w in benchmarks::table1_widths(name) {
            let lb = ctx.lower_bound(w);
            let flexible = flow.best_schedule(w).expect("schedulable").0.makespan();
            let fixed3 = fixed_width_best(ctx, w, 3).makespan;
            let fixed2 = fixed_width_best(ctx, w, 2).makespan;
            let shelf = shelf_pack(ctx, w, 5, 1).makespan;
            let sessions = session_schedule(ctx, w).makespan;
            writeln!(
                out,
                "{:<8} {:>3} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
                name, w, lb, flexible, fixed3, fixed2, shelf, sessions
            )?;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "fixed(k) = best static partition of W into at most k buses, LPT core assignment"
    )?;
    writeln!(
        out,
        "sessions = classic test-session discipline, optimized session count + wire dealing"
    )?;
    Ok(())
}
