//! Tester data volume reduction (§5): sweep the SOC TAM width, plot
//! `T(W)`, `V(W) = W·T(W)`, and the normalized cost `C(W)`, and identify
//! the effective TAM width for several trade-off weights `α`.
//!
//! Run with: `cargo run --release --example data_volume_tradeoff`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam::flow::{FlowConfig, TestFlow};
use soctam::report::render_plot;
use soctam::soc::benchmarks;
use soctam::volume::{CostCurve, TesterMemoryModel};

fn main() -> ExitCode {
    soctam::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let soc = benchmarks::d695();
    let flow = TestFlow::new(&soc, FlowConfig::quick());

    // Figure 9(a)/(b): T and V against W.
    let points = flow.sweep_widths(8..=64)?;
    let t_series: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.width as f64, p.time as f64))
        .collect();
    let v_series: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.width as f64, p.volume as f64))
        .collect();
    writeln!(
        out,
        "{}",
        render_plot("testing time T(W)", &t_series, 12, 60)
    )?;
    writeln!(
        out,
        "{}",
        render_plot("tester data volume V(W) = W*T(W)", &v_series, 12, 60)
    )?;

    // Figure 9(c)/(d) and Table 2: the cost function and W_eff per alpha.
    writeln!(
        out,
        "{:>6} {:>6} {:>8} {:>12} {:>14}",
        "alpha", "W_eff", "C_min", "T", "V"
    )?;
    for alpha in [0.1, 0.3, 0.5, 0.75] {
        let curve = CostCurve::new(&points, alpha);
        let eff = curve.effective_point();
        writeln!(
            out,
            "{alpha:>6} {:>6} {:>8.3} {:>12} {:>14}",
            eff.width, eff.cost, eff.time, eff.volume
        )?;
    }

    // The multisite motivation: a narrower TAM lets one tester serve more
    // sites in parallel, so a slower-per-chip width can win on a batch.
    let tester = TesterMemoryModel::new(64 << 20, 64);
    writeln!(out)?;
    writeln!(out, "batch of 1000 SOCs on a 64-channel tester:")?;
    for p in points.iter().filter(|p| [16, 32, 64].contains(&p.width)) {
        if let Some(batch) = tester.batch_time(p.width, p.time, 1000) {
            writeln!(
                out,
                "  W={:>2}: {} sites, batch time {} cycles",
                p.width,
                tester.sites(p.width),
                batch
            )?;
        }
    }
    Ok(())
}
