//! Heuristic ablation: quantifies the contribution of each §4 packing
//! heuristic — the Pareto preferred-width bump (`d`), rectangle insertion
//! into idle time (3-bit squeeze), and the width-increase rule — by
//! disabling them one at a time.
//!
//! Run with: `cargo run --release -p soctam-bench --bin ablation_heuristics`
//! Options:  none.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use soctam_core::protocol::check_known_args;
use soctam_core::schedule::{best_of, CompiledSoc, HeuristicToggles, ParamSweep, SchedulerConfig};
use soctam_core::soc::benchmarks;

/// Heuristic toggles are run parameters, so all five toggle sets of one
/// `(SOC, W)` cell share one compiled context instead of recompiling
/// per cell.
fn best_with(ctx: &CompiledSoc, w: u16, toggles: HeuristicToggles) -> u64 {
    let base = SchedulerConfig::new(w).with_toggles(toggles);
    let grid = ParamSweep {
        percents: (1..=10).chain([15, 22, 30, 45, 60]).collect(),
        bumps: (0..=4).collect(),
        slacks: vec![base.idle_fill_slack],
    };
    best_of(ctx, &base, &grid)
        .expect("schedulable")
        .0
        .makespan()
}

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &[], &[])?;
    writeln!(
        out,
        "Heuristic ablation (testing time in cycles; best over m/d sweep)"
    )?;
    writeln!(
        out,
        "{:<8} {:>3} {:>10} {:>12} {:>12} {:>14} {:>10}",
        "SOC", "W", "all on", "no bump", "no idlefill", "no widthincr", "none"
    )?;
    for name in benchmarks::NAMES {
        let soc = Arc::new(benchmarks::by_name(name).expect("known benchmark"));
        for w in benchmarks::table1_widths(name) {
            let ctx = CompiledSoc::compile_arc(
                Arc::clone(&soc),
                SchedulerConfig::new(w).effective_w_max(),
            );
            let all = best_with(&ctx, w, HeuristicToggles::default());
            let no_bump = best_with(
                &ctx,
                w,
                HeuristicToggles {
                    pareto_bump: false,
                    ..HeuristicToggles::default()
                },
            );
            let no_fill = best_with(
                &ctx,
                w,
                HeuristicToggles {
                    idle_fill: false,
                    ..HeuristicToggles::default()
                },
            );
            let no_incr = best_with(
                &ctx,
                w,
                HeuristicToggles {
                    width_increase: false,
                    ..HeuristicToggles::default()
                },
            );
            let none = best_with(&ctx, w, HeuristicToggles::none());
            writeln!(
                out,
                "{:<8} {:>3} {:>10} {:>12} {:>12} {:>14} {:>10}",
                name, w, all, no_bump, no_fill, no_incr, none
            )?;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "columns >= 'all on' show how much each disabled heuristic was contributing"
    )?;
    Ok(())
}
