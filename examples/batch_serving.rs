//! Batch serving: many scheduling requests, one shared context registry.
//!
//! Run with: `cargo run --release --example batch_serving`

use std::error::Error;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

use soctam::engine::{Engine, EngineOutput, EngineRequest};
use soctam::flow::{FlowConfig, PowerPolicy};
use soctam::soc::benchmarks;

mod common;

fn main() -> ExitCode {
    common::main(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    // One engine serves mixed SOCs, widths, modes, and op kinds; each
    // distinct (SOC, w_max, power budget) key compiles exactly once.
    let engine = Engine::new();
    let d695 = Arc::new(benchmarks::d695());
    let p34392 = Arc::new(benchmarks::p34392());

    let requests = vec![
        EngineRequest::schedule(Arc::clone(&d695), FlowConfig::quick(), 16),
        EngineRequest::schedule(Arc::clone(&d695), FlowConfig::quick(), 32),
        EngineRequest::schedule(
            Arc::clone(&d695),
            FlowConfig::quick().with_power(PowerPolicy::MaxCorePower),
            32,
        ),
        EngineRequest::bounds(Arc::clone(&p34392), FlowConfig::quick(), vec![16, 24, 32]),
        EngineRequest::sweep(Arc::clone(&p34392), FlowConfig::quick(), vec![16, 24, 32]),
    ];

    for (req, result) in requests.iter().zip(engine.serve(&requests)) {
        match result {
            Ok(EngineOutput::Schedule(run)) => writeln!(
                out,
                "{:<8} schedule: {} cycles (lower bound {}), volume {} bits",
                req.soc.name(),
                run.schedule.makespan(),
                run.lower_bound,
                run.volume
            )?,
            Ok(EngineOutput::Bounds(bounds)) => {
                writeln!(out, "{:<8} bounds:   {bounds:?}", req.soc.name())?
            }
            Ok(EngineOutput::Sweep(points)) => writeln!(
                out,
                "{:<8} sweep:    {} points, best T = {} cycles",
                req.soc.name(),
                points.len(),
                points.iter().map(|p| p.time).min().unwrap_or(0)
            )?,
            Err(e) => writeln!(out, "{:<8} failed:   {e}", req.soc.name())?,
        }
    }

    let stats = engine.registry().stats();
    writeln!(
        out,
        "registry: {} hits / {} misses (hit rate {:.2}), {} contexts resident",
        stats.hits,
        stats.misses,
        stats.hit_rate(),
        engine.registry().len()
    )?;
    Ok(())
}
