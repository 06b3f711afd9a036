//! Validate the analytic models by simulation: run the phase-accurate
//! scan protocol for a single wrapped core, then replay a whole SOC
//! schedule on the tester and compare against the closed-form testing
//! time and the `V = W·T` memory model.
//!
//! Run with: `cargo run --release --example simulate_tester`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam::flow::{FlowConfig, TestFlow};
use soctam::sim::{ScanTestSim, TesterSim};
use soctam::soc::benchmarks;
use soctam::wrapper::{WrapperDesign, WrapperLayout};

fn main() -> ExitCode {
    soctam::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let soc = benchmarks::d695();

    // --- one core, phase by phase ---------------------------------------
    let idx = soc.core_by_name("s5378").expect("benchmark core");
    let core = soc.core(idx).test();
    let design = WrapperDesign::design(core, 4)?;
    let trace = ScanTestSim::new(&design).run();

    writeln!(out, "s5378 on 4 TAM wires:")?;
    writeln!(out, "  analytic test time : {} cycles", design.test_time())?;
    writeln!(out, "  simulated test time: {} cycles", trace.cycles)?;
    assert_eq!(trace.cycles, design.test_time());
    writeln!(
        out,
        "  moved {} stimulus bits in, {} response bits out, {} captures",
        trace.bits_in, trace.bits_out, trace.captures
    )?;

    // The cell-level wrapper the simulation shifted through:
    writeln!(out)?;
    writeln!(out, "{}", WrapperLayout::build(core, 4)?.render("s5378"))?;

    // --- the whole SOC on the tester -------------------------------------
    let run = TestFlow::new(&soc, FlowConfig::quick()).run(16)?;
    let image = TesterSim::new(&soc, &run.schedule, &run.wires).run();

    writeln!(out, "d695 schedule replayed on the tester (W = 16):")?;
    writeln!(
        out,
        "  per-pin vector depth : {} bits (= makespan)",
        image.depth_per_pin
    )?;
    writeln!(
        out,
        "  total tester memory  : {} bits (analytic V = {})",
        image.total_bits, run.volume
    )?;
    assert_eq!(image.total_bits, run.volume);
    writeln!(
        out,
        "  payload fraction     : {:.1}% ({} padding bits on idle wires)",
        image.payload_fraction() * 100.0,
        image.padding_bits
    )?;
    for d in image.deliveries.iter().take(3) {
        writeln!(
            out,
            "  {}: driven {} cycles, needed {} — exact",
            soc.core(d.core).name(),
            d.cycles_driven,
            d.cycles_needed
        )?;
        assert_eq!(d.cycles_driven, d.cycles_needed);
    }
    writeln!(
        out,
        "  ... (all {} cores delivered exactly)",
        image.deliveries.len()
    )?;
    Ok(())
}
