//! Power-constrained scheduling: the same SOC, scheduled with and without
//! a power ceiling, showing how the ceiling serializes power-hungry tests
//! (§4 and the last column of Table 1).
//!
//! Run with: `cargo run --release --example power_constrained`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam::flow::{FlowConfig, PowerPolicy, TestFlow};
use soctam::schedule::validate::{validate, validate_power};
use soctam::soc::benchmarks;

fn main() -> ExitCode {
    soctam::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let soc = benchmarks::p22810();
    let width = 48;

    // Paper power model: a core's test dissipates in proportion to its
    // test data bits per pattern; P_max is the largest single rating, so
    // no two "big" cores may burn together.
    let p_max = soc.max_core_power();
    writeln!(out, "{}: per-core power ratings (bits/pattern)", soc.name())?;
    let mut rated: Vec<_> = soc.cores().iter().map(|c| (c.power(), c.name())).collect();
    rated.sort_unstable();
    for (p, name) in rated.iter().rev().take(5) {
        writeln!(out, "  {name:<6} {p}")?;
    }
    writeln!(out, "  ... P_max set to {p_max}")?;
    writeln!(out)?;

    let unconstrained = TestFlow::new(&soc, FlowConfig::quick()).run(width)?;
    let constrained = TestFlow::new(
        &soc,
        FlowConfig::quick().with_power(PowerPolicy::MaxCorePower),
    )
    .run(width)?;

    validate(&soc, &unconstrained.schedule)?;
    validate(&soc, &constrained.schedule)?;
    validate_power(&soc, &constrained.schedule, p_max)?;

    let t0 = unconstrained.schedule.makespan();
    let t1 = constrained.schedule.makespan();
    writeln!(out, "unconstrained : {t0} cycles")?;
    writeln!(
        out,
        "power-limited : {t1} cycles (+{:.1}%)",
        100.0 * (t1 as f64 - t0 as f64) / t0 as f64
    )?;

    // Peak concurrent power with and without the ceiling.
    for (label, run) in [
        ("unconstrained", &unconstrained),
        ("power-limited", &constrained),
    ] {
        let peak = run
            .schedule
            .slices()
            .iter()
            .flat_map(|s| [s.start, s.end.saturating_sub(1)])
            .map(|t| {
                run.schedule
                    .slices()
                    .iter()
                    .filter(|s| s.start <= t && t < s.end)
                    .map(|s| soc.core(s.core).power())
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        writeln!(out, "peak power under {label}: {peak}")?;
    }
    Ok(())
}
