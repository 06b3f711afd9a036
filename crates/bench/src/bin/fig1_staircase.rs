//! Regenerates **Figure 1** of the paper: the relationship between testing
//! time and TAM width for Core 6 of SOC p93791 — a staircase that drops
//! only at Pareto-optimal widths.
//!
//! Run with: `cargo run --release -p soctam-bench --bin fig1_staircase`
//! Options:  `--soc <name> --core <core-name>` for any other core.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

use soctam_core::protocol::{check_known_args, opt_value};
use soctam_core::report::{render_plot, staircase};
use soctam_core::soc::benchmarks;

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--soc", "--core"], &[])?;
    let soc_name = opt_value(&args, "--soc")?.unwrap_or("p93791");
    let soc = benchmarks::by_name(soc_name).ok_or_else(|| format!("unknown SOC `{soc_name}`"))?;
    let core_name = opt_value(&args, "--core")?.unwrap_or("c06");
    let idx = soc
        .core_by_name(core_name)
        .ok_or_else(|| format!("no core `{core_name}` in {soc_name}"))?;

    let s = staircase(soc.core(idx).test(), 64);

    writeln!(
        out,
        "Figure 1: testing time vs TAM width for {core_name} of {soc_name}"
    )?;
    writeln!(out)?;
    let series: Vec<(f64, f64)> = s
        .points
        .iter()
        .map(|p| (p.width as f64, p.time as f64))
        .collect();
    writeln!(out, "{}", render_plot("T(w) [cycles]", &series, 16, 64))?;

    writeln!(out, "Pareto-optimal widths: {:?}", s.pareto_widths)?;
    writeln!(out)?;
    writeln!(out, "{:>4} {:>12} {:>8}", "w", "T(w)", "Pareto")?;
    for p in &s.points {
        let mark = if s.pareto_widths.contains(&p.width) {
            "*"
        } else {
            ""
        };
        writeln!(out, "{:>4} {:>12} {:>8}", p.width, p.time, mark)?;
    }

    // The paper's observation on this core: a width of 46 and a width of
    // 47 differ slightly, and 48..64 buy nothing.
    let t46 = s.points[45].time;
    let t47 = s.points[46].time;
    let t64 = s.points[63].time;
    writeln!(out)?;
    writeln!(
        out,
        "T(46) = {t46}, T(47) = {t47}, T(48..64) = {t64} (flat: {})",
        t47 == t64
    )?;
    Ok(())
}
