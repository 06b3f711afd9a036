//! Quickstart: schedule the d695 benchmark on a 16-wire TAM and print the
//! packed schedule — the textual equivalent of the paper's Figure 2.
//!
//! Run with: `cargo run --release --example quickstart`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam::flow::{FlowConfig, TestFlow};
use soctam::schedule::validate::validate;
use soctam::soc::benchmarks;

fn main() -> ExitCode {
    soctam::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let soc = benchmarks::d695();

    // The flow co-optimizes wrapper designs and the TAM, then packs the
    // rectangle schedule; `quick()` searches a small (m, d, slack) grid.
    let flow = TestFlow::new(&soc, FlowConfig::quick());
    let run = flow.run(16)?;

    writeln!(
        out,
        "{}: tested in {} cycles on 16 wires (lower bound {}, {:.1}% of it)",
        soc.name(),
        run.schedule.makespan(),
        run.lower_bound,
        100.0 * run.schedule.makespan() as f64 / run.lower_bound as f64
    )?;
    writeln!(
        out,
        "tester data volume: {} bits; TAM utilization {:.1}%",
        run.volume,
        run.schedule.utilization() * 100.0
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{}",
        run.schedule.gantt(&|i| soc.core(i).name().to_string(), 90)
    )?;

    // The schedule is re-checked by an independent validator, and the
    // fork-and-merge wire assignment is concrete and verified.
    validate(&soc, &run.schedule)?;
    let stats = run.wires.stats();
    writeln!(
        out,
        "wire assignment: {}/{} slices forked across non-contiguous wires",
        stats.forked_slices, stats.total_slices
    )?;
    Ok(())
}
