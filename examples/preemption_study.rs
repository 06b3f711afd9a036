//! Selective test preemption (§4): grant the larger cores a preemption
//! budget, compare against non-preemptive scheduling, and show the
//! per-core preemption counts and scan-penalty accounting.
//!
//! Run with: `cargo run --release --example preemption_study`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam::flow::{FlowConfig, TestFlow};
use soctam::schedule::validate::validate;
use soctam::soc::benchmarks;
use soctam::wrapper::RectangleSet;

fn main() -> ExitCode {
    soctam::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let mut soc = benchmarks::p93791();
    // The paper sets max_preempts = 2 for the larger cores.
    benchmarks::grant_preemption_to_large_cores(&mut soc, 2);

    let width = 48;
    let non_preemptive =
        TestFlow::new(&soc, FlowConfig::quick().without_preemption()).run(width)?;
    let preemptive = TestFlow::new(&soc, FlowConfig::quick()).run(width)?;
    validate(&soc, &non_preemptive.schedule)?;
    validate(&soc, &preemptive.schedule)?;

    let t_np = non_preemptive.schedule.makespan();
    let t_p = preemptive.schedule.makespan();
    writeln!(out, "{} on {width} wires:", soc.name())?;
    writeln!(out, "  non-preemptive: {t_np} cycles")?;
    writeln!(
        out,
        "  preemptive    : {t_p} cycles ({}{:.2}%)",
        if t_p <= t_np { "-" } else { "+" },
        100.0 * t_np.abs_diff(t_p) as f64 / t_np as f64
    )?;
    writeln!(out)?;

    // Which tests were actually preempted, and what did each interruption
    // cost? (One extra scan-in + scan-out per preemption.)
    writeln!(
        out,
        "{:<6} {:>6} {:>10} {:>14}",
        "core", "splits", "preempts", "penalty cycles"
    )?;
    let mut total_penalty = 0u64;
    for idx in 0..soc.len() {
        let stats = preemptive
            .schedule
            .core_stats(idx)
            .expect("all cores scheduled");
        if stats.preemptions == 0 {
            continue;
        }
        let rects = RectangleSet::build(soc.core(idx).test(), stats.width);
        let penalty =
            u64::from(stats.preemptions) * rects.rect_at(stats.width).preemption_penalty();
        total_penalty += penalty;
        writeln!(
            out,
            "{:<6} {:>6} {:>10} {:>14}",
            soc.core(idx).name(),
            stats.preemptions + 1,
            stats.preemptions,
            penalty
        )?;
    }
    writeln!(out, "total preemption overhead: {total_penalty} cycles")?;
    writeln!(
        out,
        "(the schedule still wins when the reclaimed idle time outweighs the overhead;\n\
         the paper notes preemption can lose on SOCs with many short tests)"
    )?;
    Ok(())
}
