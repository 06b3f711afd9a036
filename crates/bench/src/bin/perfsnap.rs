//! Performance snapshot of the flow's sweep hot path.
//!
//! For each benchmark SOC, times the best-of parameter sweep at the SOC's
//! widest Table 1 TAM width — the quick sweep always, the headline
//! (extended) sweep unless `--quick` — and writes the measurements to
//! `BENCH_sweep.json`, seeding the repo's perf trajectory. A cold section
//! then serves the same width as a fresh daemon would: a new `Engine`, a
//! schedule request with the protocol's flow configuration. Every block
//! records `schedule_runs`, the solver invocations its own trace counted,
//! and the sweep tally: runs executed, deduplicated, cut, and stopped early
//! (`runs_aborted`).
//!
//! Each timing is split into *compile* (obtaining the `CompiledSoc`
//! context from the shared `ContextRegistry`: a real compilation on the
//! first request for a `(SOC, w_max, budget)` key, a cache hit ever after)
//! and *solve* (the actual parameter sweep over the shared context);
//! `seconds` stays as the total for trajectory continuity.
//!
//! The snapshot doubles as the CI perf-smoke gate for the serving tier:
//! it records the registry's hit/miss counters and the process-wide
//! context-compile count in the JSON, and **fails** (exit 1) if the run
//! compiled more than one context per distinct `(SOC, budget)` key —
//! i.e. if cross-request caching ever regresses to recompiling. It also
//! fails if a cold solve builds menus other than once and, unless `--soc`
//! narrows the run, if no cold solve cuts a grid point or none stops a run
//! early.
//!
//! Run with: `cargo run --release -p soctam-bench --bin perfsnap`
//! Options:  `--quick` times only the quick sweep (the CI perf smoke);
//!           `--soc <name>` restricts to one SOC;
//!           `--out <file>` changes the output path.

use std::error::Error;
use std::fmt::Write as _;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use soctam_bench::{headline_config, json_escape, write_report};
use soctam_core::engine::{Engine, EngineOutput, EngineRequest};
use soctam_core::flow::{FlowConfig, ParamSweep, SweepParams, SweepStats, TestFlow};
use soctam_core::protocol::{check_known_args, flag, opt_value, request_flow};
use soctam_core::schedule::obs::{self, Work};
use soctam_core::schedule::ContextRegistry;
use soctam_core::soc::benchmarks;

struct Timing {
    sweep: &'static str,
    compile_seconds: f64,
    solve_seconds: f64,
    makespan: u64,
    params: SweepParams,
    stats: SweepStats,
    schedule_runs: u64,
}

impl Timing {
    fn total_seconds(&self) -> f64 {
        self.compile_seconds + self.solve_seconds
    }
}

fn time_sweep(
    registry: &ContextRegistry,
    soc: &Arc<soctam_core::soc::Soc>,
    width: u16,
    sweep: &'static str,
    cfg: &FlowConfig,
) -> Timing {
    let t0 = Instant::now();
    let ctx = registry.get_or_compile(soc, cfg.w_max, cfg.power.resolve(soc));
    let flow = TestFlow::with_context(ctx, cfg.clone());
    let compile_seconds = t0.elapsed().as_secs_f64();
    obs::trace_begin();
    let t1 = Instant::now();
    let (schedule, params, stats) = flow
        .best_schedule_detailed(width)
        .expect("benchmark SOCs are schedulable");
    let solve_seconds = t1.elapsed().as_secs_f64();
    let trace = obs::trace_end().expect("the recorder armed above");
    Timing {
        sweep,
        compile_seconds,
        solve_seconds,
        makespan: schedule.makespan(),
        params,
        stats,
        schedule_runs: trace.count(Work::ScheduleRun),
    }
}

/// One cold-start measurement: a fresh engine serving its very first
/// request for this SOC, split into phases by the span recorder.
struct ColdTiming {
    name: &'static str,
    width: u16,
    total_seconds: f64,
    compile_seconds: f64,
    solve_seconds: f64,
    /// The full per-phase exclusive split (`{"context_compile": µs, ...}`,
    /// non-zero phases only), straight from the span recorder.
    phases_json: String,
    makespan: u64,
    lower_bound: u64,
    params: SweepParams,
    stats: SweepStats,
    menu_builds: u64,
    schedule_runs: u64,
}

/// Times the served cold path — a fresh `Engine`, first request — for one
/// SOC at its widest Table 1 width, under an armed span recorder. The
/// request is the daemon's `schedule <soc> --width W`, so the sweep is the
/// one the daemon runs, bound cutoff included (p34392 reaches its bound at
/// W=32). The compile/solve split comes from the `context_compile`+
/// `menu_build` (the build nests in the compile) and `sweep` phases the
/// work sites record, not from an ad-hoc stopwatch around call boundaries.
fn time_cold(name: &'static str, width: u16) -> ColdTiming {
    let soc = Arc::new(benchmarks::by_name(name).expect("known benchmark"));
    let request = EngineRequest::schedule(soc, request_flow(false, false), width);
    let engine = Engine::new();

    obs::trace_begin();
    let t0 = Instant::now();
    let (result, _) = engine.serve_one_traced(&request);
    let total_seconds = t0.elapsed().as_secs_f64();
    let trace = obs::trace_end().expect("the recorder armed above");
    let Ok(EngineOutput::Schedule(run)) = result else {
        panic!("{name}: cold schedule request failed: {result:?}");
    };
    let compile_seconds = (trace.phase_total(obs::Phase::ContextCompile)
        + trace.phase_total(obs::Phase::MenuBuild)) as f64
        / 1e6;
    let solve_seconds = trace.phase_total(obs::Phase::Sweep) as f64 / 1e6;
    ColdTiming {
        name,
        width,
        total_seconds,
        compile_seconds,
        solve_seconds,
        phases_json: trace.phases_json(false),
        makespan: run.schedule.makespan(),
        lower_bound: run.lower_bound,
        params: run.params,
        stats: run.sweep,
        menu_builds: trace.count(Work::MenuBuild),
        schedule_runs: trace.count(Work::ScheduleRun),
    }
}

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--soc", "--out"], &["--quick"])?;
    let only = opt_value(&args, "--soc")?;
    let quick = flag(&args, "--quick");
    let out_path = opt_value(&args, "--out")?.unwrap_or("BENCH_sweep.json");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let registry = ContextRegistry::default();
    let compiles_before = obs::total(Work::ContextCompile);

    let mut soc_blocks = Vec::new();
    for name in benchmarks::NAMES {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let soc = Arc::new(benchmarks::by_name(name).expect("known benchmark"));
        let width = *benchmarks::table1_widths(name).last().expect("four widths");

        let mut timings = vec![time_sweep(
            &registry,
            &soc,
            width,
            "quick",
            &FlowConfig {
                sweep: ParamSweep::quick(),
                ..FlowConfig::new()
            },
        )];
        if !quick {
            timings.push(time_sweep(
                &registry,
                &soc,
                width,
                "headline",
                &headline_config(),
            ));
        }
        for t in &timings {
            writeln!(
                out,
                "{name} W={width} {:>8}: {:.3}s ({:.3}s compile + {:.3}s solve), \
                 T = {} (m={}, d={}, slack={}), {} of {} runs ({} deduped, {} cut, {} stopped)",
                t.sweep,
                t.total_seconds(),
                t.compile_seconds,
                t.solve_seconds,
                t.makespan,
                t.params.0,
                t.params.1,
                t.params.2,
                t.stats.runs_executed,
                t.stats.runs_total,
                t.stats.runs_skipped,
                t.stats.runs_cut,
                t.stats.runs_aborted,
            )?;
        }
        soc_blocks.push((name, width, timings));
    }

    // Snapshot the warm section's compile count before the cold section
    // deliberately compiles one fresh context per SOC.
    let context_compiles = obs::total(Work::ContextCompile) - compiles_before;

    // Cold path: a fresh engine's very first request per SOC, the
    // latency a daemon pays before any cache is warm.
    let mut cold_blocks = Vec::new();
    for name in benchmarks::NAMES {
        if only.is_some_and(|o| o != name) {
            continue;
        }
        let width = *benchmarks::table1_widths(name).last().expect("four widths");
        let t = time_cold(name, width);
        writeln!(
            out,
            "{name} W={width}     cold: {:.3}s ({:.3}s compile + {:.3}s solve), \
             T = {} (LB {}, m={}, d={}, slack={}), {} of {} runs ({} deduped, {} cut, \
             {} stopped), {} menu builds",
            t.total_seconds,
            t.compile_seconds,
            t.solve_seconds,
            t.makespan,
            t.lower_bound,
            t.params.0,
            t.params.1,
            t.params.2,
            t.stats.runs_executed,
            t.stats.runs_total,
            t.stats.runs_skipped,
            t.stats.runs_cut,
            t.stats.runs_aborted,
            t.menu_builds,
        )?;
        cold_blocks.push(t);
    }

    // The serving-tier invariant this snapshot gates for CI: every sweep
    // over one (SOC, budget) key shares a single compiled context. The
    // quick+headline pair hits the registry on its second request, and
    // nothing in the process compiles outside the registry.
    let stats = registry.stats();
    let distinct_keys = soc_blocks.len() as u64; // one (SOC, unlimited-power) key each
    writeln!(
        out,
        "registry: {} hits, {} misses, {} contexts compiled ({} distinct keys, hit rate {:.2})",
        stats.hits,
        stats.misses,
        context_compiles,
        distinct_keys,
        stats.hit_rate()
    )?;

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"perfsnap\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"registry\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"context_compiles\": {context_compiles}, \"distinct_keys\": {distinct_keys}, \
         \"hit_rate\": {:.4}}},",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate()
    );
    json.push_str("  \"socs\": [\n");
    for (i, (name, width, timings)) in soc_blocks.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"soc\": \"{}\", \"width\": {width}, \"sweeps\": [",
            json_escape(name)
        );
        for (j, t) in timings.iter().enumerate() {
            let sep = if j + 1 == timings.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "      {{\"sweep\": \"{}\", \"seconds\": {:.6}, \
                 \"compile_seconds\": {:.6}, \"solve_seconds\": {:.6}, \
                 \"makespan\": {}, \
                 \"m\": {}, \"d\": {}, \"slack\": {}, \"runs_total\": {}, \
                 \"runs_executed\": {}, \"runs_skipped\": {}, \"runs_cut\": {}, \
                 \"runs_aborted\": {}, \"schedule_runs\": {}}}{sep}",
                t.sweep,
                t.total_seconds(),
                t.compile_seconds,
                t.solve_seconds,
                t.makespan,
                t.params.0,
                t.params.1,
                t.params.2,
                t.stats.runs_total,
                t.stats.runs_executed,
                t.stats.runs_skipped,
                t.stats.runs_cut,
                t.stats.runs_aborted,
                t.schedule_runs,
            );
        }
        let sep = if i + 1 == soc_blocks.len() { "" } else { "," };
        let _ = writeln!(json, "    ]}}{sep}");
    }
    json.push_str("  ],\n  \"cold\": [\n");
    for (i, t) in cold_blocks.iter().enumerate() {
        let sep = if i + 1 == cold_blocks.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"soc\": \"{}\", \"width\": {}, \
             \"seconds\": {:.6}, \"compile_seconds\": {:.6}, \
             \"solve_seconds\": {:.6}, \"phase_micros\": {}, \
             \"makespan\": {}, \"lower_bound\": {}, \
             \"m\": {}, \"d\": {}, \"slack\": {}, \"runs_total\": {}, \
             \"runs_executed\": {}, \"runs_skipped\": {}, \"runs_cut\": {}, \
             \"runs_aborted\": {}, \"menu_builds\": {}, \"schedule_runs\": {}}}{sep}",
            json_escape(t.name),
            t.width,
            t.total_seconds,
            t.compile_seconds,
            t.solve_seconds,
            t.phases_json,
            t.makespan,
            t.lower_bound,
            t.params.0,
            t.params.1,
            t.params.2,
            t.stats.runs_total,
            t.stats.runs_executed,
            t.stats.runs_skipped,
            t.stats.runs_cut,
            t.stats.runs_aborted,
            t.menu_builds,
            t.schedule_runs,
        );
    }
    json.push_str("  ]\n}\n");

    write_report(out, out_path, &json)?;

    if context_compiles > distinct_keys {
        return Err(format!(
            "{context_compiles} context compiles for {distinct_keys} distinct \
             (SOC, budget) keys — cross-request caching regressed"
        )
        .into());
    }

    // Cold-path gates. (i) A cold solve builds rectangle menus exactly
    // once, when its context compiles; every run reads that build under its
    // cap. A second build means a run regressed to rebuilding; none means
    // the counter went dead.
    for t in &cold_blocks {
        if t.menu_builds != 1 {
            return Err(format!(
                "{} cold solve built rectangle menus {} times, not once — \
                 menu reuse regressed",
                t.name, t.menu_builds
            )
            .into());
        }
    }
    // (ii) The bound-gated cutoff must actually prune somewhere: p34392
    // saturates at its widest Table 1 width, so a full benchmark run with
    // zero cut grid points means the gate went dead. (Skipped under
    // `--soc`, which may select only non-saturating SOCs.)
    if only.is_none() && !cold_blocks.iter().any(|t| t.stats.runs_cut > 0) {
        return Err("no benchmark cut any sweep grid points — the bound gate went dead".into());
    }
    // (iii) Runs that cannot beat the incumbent must actually stop early:
    // p93791 stops most of its runs at its widest Table 1 width, so a
    // full benchmark run in which no cold solve stopped one means the
    // stop test went dead.
    if only.is_none() && !cold_blocks.iter().any(|t| t.stats.runs_aborted > 0) {
        return Err("no cold solve stopped a run early — the incumbent limit went dead".into());
    }
    Ok(())
}
