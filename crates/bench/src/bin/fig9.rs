//! Regenerates **Figure 9** of the paper for SOC p22810:
//!
//! * (a) testing time `T` vs TAM width `W`;
//! * (b) tester data volume `V = W·T` vs `W` (non-monotonic, local minima
//!   at the Pareto-optimal points of the `T` curve);
//! * (c) the normalized cost `C(W)` for `α = 0.5`;
//! * (d) `C(W)` for `α = 0.75`.
//!
//! Run with: `cargo run --release -p soctam-bench --bin fig9`
//! Options:  `--part a|b|c|d` (default: all), `--soc <name>`,
//!           `--min-width A` (default 16), `--max-width B` (default 80).
//!
//! The sweep starts at 16 wires: below that, `V = W·T` degenerates toward
//! the serial-TAM minimum and the paper's non-monotonic structure (local
//! V minima at the Pareto points of the T curve) is swamped.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam_bench::sweep_config;
use soctam_core::flow::TestFlow;
use soctam_core::protocol::{check_known_args, opt_num, opt_value};
use soctam_core::report::render_plot;
use soctam_core::soc::benchmarks;
use soctam_core::volume::CostCurve;

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(
        &args,
        &["--part", "--soc", "--min-width", "--max-width"],
        &[],
    )?;
    let soc_name = opt_value(&args, "--soc")?.unwrap_or("p22810");
    let part = opt_value(&args, "--part")?;
    let min_width: u16 = opt_num(&args, "--min-width")?.unwrap_or(16);
    let max_width: u16 = opt_num(&args, "--max-width")?.unwrap_or(80);

    let soc = benchmarks::by_name(soc_name).ok_or_else(|| format!("unknown SOC `{soc_name}`"))?;
    let flow = TestFlow::new(&soc, sweep_config());
    eprintln!("sweeping {soc_name} over W = {min_width}..={max_width} ...");
    let points = flow
        .sweep_widths(min_width..=max_width)
        .expect("sweep succeeds");

    let want = |p: &str| part.is_none_or(|x| x == p);

    if want("a") {
        let series: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.width as f64, p.time as f64 / 1000.0))
            .collect();
        writeln!(
            out,
            "{}",
            render_plot(
                &format!("Figure 9(a): testing time T (x1000 cycles) vs W, {soc_name}"),
                &series,
                16,
                70
            )
        )?;
    }
    if want("b") {
        let series: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.width as f64, p.volume as f64 / 10_000.0))
            .collect();
        writeln!(
            out,
            "{}",
            render_plot(
                &format!("Figure 9(b): tester memory depth V (x10000 bits) vs W, {soc_name}"),
                &series,
                16,
                70
            )
        )?;
        // The paper's headline observation: the global V minimum does not
        // sit at the width of minimum testing time.
        let v_min = points
            .iter()
            .min_by_key(|p| (p.volume, p.width))
            .expect("points");
        let t_min = points
            .iter()
            .min_by_key(|p| (p.time, p.width))
            .expect("points");
        writeln!(
            out,
            "global V minimum at W = {} (V = {}), while T minimum at W = {} (T = {})",
            v_min.width, v_min.volume, t_min.width, t_min.time
        )?;
        writeln!(out)?;
    }
    for (p, alpha) in [("c", 0.5), ("d", 0.75)] {
        if !want(p) {
            continue;
        }
        let curve = CostCurve::new(&points, alpha);
        let series: Vec<(f64, f64)> = curve
            .points()
            .iter()
            .map(|q| (q.width as f64, q.cost))
            .collect();
        writeln!(
            out,
            "{}",
            render_plot(
                &format!("Figure 9({p}): cost function C(W), alpha = {alpha}, {soc_name}"),
                &series,
                16,
                70
            )
        )?;
        let eff = curve.effective_point();
        writeln!(
            out,
            "W_eff = {} (C_min = {:.3}, T = {}, V = {})",
            eff.width, eff.cost, eff.time, eff.volume
        )?;
        writeln!(out)?;
    }
    Ok(())
}
