//! Regenerates **Table 1** of the paper: wrapper/TAM co-optimization and
//! test scheduling results (lower bound, non-preemptive, preemptive, and
//! power-constrained testing times) for the four benchmark SOCs.
//!
//! Run with: `cargo run --release -p soctam-bench --bin table1`
//! Options:  `--soc <name>` restricts to one SOC; `--quick` uses the small
//! parameter sweep; `--json` emits the rows as a JSON document instead of
//! the text table.

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use soctam_bench::{headline_config, json_escape};
use soctam_core::flow::{FlowConfig, ParamSweep};
use soctam_core::protocol::{check_known_args, flag, opt_value};
use soctam_core::report::{render_table1, table1_rows, Table1Row};
use soctam_core::soc::benchmarks;

fn json_table1(sweep: &str, rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"table\": \"table1\",\n");
    out.push_str(&format!("  \"sweep\": \"{}\",\n", json_escape(sweep)));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"soc\": \"{}\", \"width\": {}, \"lower_bound\": {}, \
             \"non_preemptive\": {}, \"preemptive\": {}, \"power_constrained\": {}}}{sep}\n",
            json_escape(&r.soc),
            r.width,
            r.lower_bound,
            r.non_preemptive,
            r.preemptive,
            r.power_constrained
        ));
    }
    out.push_str("  ]\n}");
    out
}

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--soc"], &["--quick", "--json"])?;
    let only = opt_value(&args, "--soc")?;
    let quick = flag(&args, "--quick");
    let json = flag(&args, "--json");
    let cfg = if quick {
        FlowConfig {
            sweep: ParamSweep::quick(),
            ..FlowConfig::new()
        }
    } else {
        headline_config()
    };

    if !json {
        writeln!(
            out,
            "Table 1: wrapper/TAM co-optimization and test scheduling"
        )?;
        writeln!(
            out,
            "(testing time in cycles; best over m/d/slack parameter sweep)"
        )?;
        writeln!(out)?;
    }

    let mut rows = Vec::new();
    for name in benchmarks::NAMES {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let t0 = Instant::now();
        match table1_rows(&soc, &cfg) {
            Ok(mut r) => {
                eprintln!("{name}: {:.1}s", t0.elapsed().as_secs_f32());
                rows.append(&mut r);
            }
            Err(e) => eprintln!("{name}: failed: {e}"),
        }
    }
    if json {
        let sweep = if quick { "quick" } else { "headline" };
        writeln!(out, "{}", json_table1(sweep, &rows))?;
    } else {
        writeln!(out, "{}", render_table1(&rows))?;
    }
    Ok(())
}
