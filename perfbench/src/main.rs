//! `perfbench`: the soctam benchmark. One command runs one workload for a
//! fixed time, checks every answer, and prints its metrics as the last
//! line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` splits the time
//! between an untraced and a traced phase and reports the per-layer
//! breakdown, the tracing overhead, and the verification-pass work
//! counters. See `perfbench/README.md` for the workloads and the layer map.

mod calib;
mod check;
mod cpu;
mod gen;
mod hist;
mod report;
mod trace;
mod workload;

use std::time::Instant;

use workload::{Env, Kind};

/// Set-ups per run; `setup_s` is their median. A fixed count, so every run
/// allocates and frees the same, whatever the host's speed.
const SETUPS: usize = 9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} expects a value"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        )
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<report::Report, String> {
    let catalog = check::Catalog::load();
    let (keys, mode) = args.kind.verification();
    let verified = check::verify(&catalog, &keys, mode);

    // Before set-up, so the daemons' threads inherit the pin.
    let mut rotation = if args.kind.pinned() {
        Some(cpu::Rotation::start()?)
    } else {
        None
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut calibration_ns = Vec::new();
    let mut env = None;
    while setup_s.len() < SETUPS {
        drop(env.take());
        if let Some(r) = rotation.as_mut() {
            r.advance();
        }
        calibration_ns.push(calib::sample_ns());
        let t0 = Instant::now();
        env = Some(Env::setup(args.kind, args.seed, &catalog)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");

    let mut report = report::Report::new(args.kind, verified, setup_s, calibration_ns);
    if args.trace {
        let untraced = env.measure(args.seconds / 2.0, rotation.as_mut());
        let traced = env.measure_traced(args.seconds / 2.0, rotation.as_mut());
        report.add_traced(untraced, traced);
    } else {
        let measured = env.measure(args.seconds, rotation.as_mut());
        report.add_untraced(measured);
    }
    drop(env);
    if let Some(e) = rotation.as_ref().and_then(cpu::Rotation::error) {
        report.add_problem(format!("moving between CPUs: {e}"));
    }
    report.check_samples(&catalog);
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <oneshot|serve_cold|serve_hot|front_hot> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => report.print(args.seed),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
