//! Building a custom SOC from scratch: describe cores through the API or
//! the ITC'02-style text format, add hierarchy and constraints, schedule,
//! and inspect the concrete wire assignment.
//!
//! Run with: `cargo run --release --example custom_soc`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam::flow::{FlowConfig, TestFlow};
use soctam::schedule::validate::validate;
use soctam::soc::{itc02, Core, Soc};
use soctam::wrapper::CoreTest;

mod common;

fn main() -> ExitCode {
    common::main(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    // --- option 1: the programmatic API --------------------------------
    let mut soc = Soc::new("camera_soc");
    let isp = soc.add_core(Core::new(
        "isp",
        CoreTest::builder()
            .inputs(64)
            .outputs(64)
            .uniform_scan_chains(12, 96)
            .patterns(220)
            .build()?,
    ));
    let dsp = soc.add_core(
        Core::builder(
            "dsp",
            CoreTest::builder()
                .inputs(48)
                .outputs(32)
                .uniform_scan_chains(8, 128)
                .patterns(180)
                .build()?,
        )
        .max_preemptions(2)
        .build(),
    );
    // An embedded SRAM tested through a shared BIST engine, nested in the
    // DSP subsystem (so it can never test concurrently with its parent).
    let sram = soc.add_core(
        Core::builder(
            "sram",
            CoreTest::builder()
                .inputs(20)
                .outputs(20)
                .patterns(400)
                .build()?,
        )
        .bist_engine(0)
        .parent(dsp)
        .build(),
    );
    // Memories are tested first so later system test can use them.
    soc.add_precedence(sram, isp)?;
    soc.validate()?;

    // --- option 2: the .soc text format round-trips the same model -----
    let text = itc02::to_string(&soc);
    writeln!(out, "--- camera_soc in .soc format ---\n{text}")?;
    assert_eq!(itc02::parse(&text)?, soc);

    // --- schedule and inspect ------------------------------------------
    let run = TestFlow::new(&soc, FlowConfig::quick()).run(24)?;
    validate(&soc, &run.schedule)?;
    writeln!(
        out,
        "schedule on 24 wires: {} cycles (lower bound {})",
        run.schedule.makespan(),
        run.lower_bound
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{}",
        run.schedule.gantt(&|i| soc.core(i).name().to_string(), 80)
    )?;

    for a in run.wires.assignments() {
        writeln!(
            out,
            "{:<5} [{:>6}..{:>6}) wires {:?}",
            soc.core(a.slice.core).name(),
            a.slice.start,
            a.slice.end,
            a.wires
        )?;
    }
    Ok(())
}
