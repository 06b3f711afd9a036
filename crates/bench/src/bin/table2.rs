//! Regenerates **Table 2** of the paper: TAM widths for tester data volume
//! reduction — `T_min`, `V_min`, and the effective TAM widths `W_eff` for
//! the per-SOC `α` values.
//!
//! Run with: `cargo run --release -p soctam-bench --bin table2`
//! Options:  `--soc <name>`, `--min-width A` (default 16), `--max-width B`
//! (default 64).
//!
//! The sweep starts at 16 wires because `V = W·T` is trivially minimized
//! by a serial one-wire TAM; the paper's Table 2 minima (W = 22..44)
//! only emerge over practical width ranges.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use soctam_bench::sweep_config;
use soctam_core::protocol::{check_known_args, opt_num, opt_value};
use soctam_core::report::{paper_alphas, render_table2, table2};
use soctam_core::soc::benchmarks;

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--soc", "--min-width", "--max-width"], &[])?;
    let only = opt_value(&args, "--soc")?;
    let min_width: u16 = opt_num(&args, "--min-width")?.unwrap_or(16);
    let max_width: u16 = opt_num(&args, "--max-width")?.unwrap_or(64);
    let cfg = sweep_config();

    writeln!(out, "Table 2: TAM widths for tester data volume reduction")?;
    writeln!(out, "(sweep over W = {min_width}..={max_width}; V = W*T)")?;
    writeln!(out)?;

    for name in benchmarks::NAMES {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let alphas = paper_alphas(name);
        let t0 = Instant::now();
        match table2(&soc, min_width..=max_width, &alphas, &cfg) {
            Ok(t) => {
                eprintln!("{name}: {:.1}s", t0.elapsed().as_secs_f32());
                writeln!(out, "{}", render_table2(&t))?;
            }
            Err(e) => eprintln!("{name}: failed: {e}"),
        }
    }
    Ok(())
}
