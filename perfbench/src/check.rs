//! Correctness: response checks, the decomposed miss path, the untimed
//! verification pass with its exact work counters, and the byte-identity
//! sample check against a fresh direct `Engine`.

use std::collections::HashMap;
use std::sync::Arc;

use soctam_core::engine::{Engine, EngineOp, EngineOutput, EngineRequest, EngineResult};
use soctam_core::flow::{FlowRun, SweepStats, TestFlow};
use soctam_core::protocol::{parse_request, render_result};
use soctam_core::schedule::validate::{validate_power, validate_with};
use soctam_core::schedule::{instrument, ContextRegistry, ScheduleError};
use soctam_core::soc::{benchmarks, Soc};
use soctam_core::tam::WireAssignment;
use soctam_core::volume::{volume_of, SweepPoint};
use soctam_core::wrapper;

use crate::gen;
use crate::trace::Recorder;

/// Solution-cache capacity of the daemon's default configuration; the
/// verification engines mirror it.
pub const CACHE_CAPACITY: usize = 1024;

/// The benchmark SOC models, loaded once. Resolving a name is a map read,
/// so every request naming an SOC shares one model, as in the daemon.
#[derive(Clone)]
pub struct Catalog(Arc<HashMap<&'static str, Arc<Soc>>>);

impl Catalog {
    pub fn load() -> Self {
        Self(Arc::new(
            gen::SOCS
                .iter()
                .map(|name| {
                    let soc = benchmarks::by_name(name).expect("built-in benchmark");
                    (*name, Arc::new(soc))
                })
                .collect(),
        ))
    }

    pub fn parse(&self, line: &str) -> Result<EngineRequest, String> {
        parse_request(line, &mut |name: &str| {
            self.0
                .get(name)
                .cloned()
                .ok_or_else(|| format!("unknown SOC `{name}`"))
        })
    }
}

/// An engine configured like the daemon's: a default-capacity context
/// registry under a 1024-entry solution cache.
pub fn daemon_like_engine(registry: Arc<ContextRegistry>) -> Engine {
    Engine::with_registry(registry).with_solution_cache(CACHE_CAPACITY, None)
}

/// A registry sized like the daemon's.
pub fn daemon_like_registry() -> Arc<ContextRegistry> {
    Arc::new(ContextRegistry::new(
        ContextRegistry::DEFAULT_SHARDS,
        ContextRegistry::DEFAULT_CAPACITY,
    ))
}

/// Every number after `"key": ` in a flat JSON response, in order.
fn numbers_after(response: &str, key: &str) -> Vec<u64> {
    let marker = format!("\"{key}\": ");
    response
        .match_indices(&marker)
        .filter_map(|(i, m)| {
            let rest = &response[i + m.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Whether a wire or rendered response is OK and never reports a makespan
/// below its lower bound (schedule: `makespan`; sweep: every point's
/// `time`).
pub fn response_sound(response: &str) -> bool {
    if !soctam_server::client::response_ok(response) {
        return false;
    }
    let times = if response.contains("\"makespan\": ") {
        numbers_after(response, "makespan")
    } else {
        numbers_after(response, "time")
    };
    let bounds = numbers_after(response, "lower_bound");
    times.len() == bounds.len() && times.iter().zip(&bounds).all(|(t, lb)| t >= lb)
}

/// What a daemon reported about its own handling of a `--trace` request.
pub struct DaemonTrace {
    /// Parse to render, as the daemon's worker timed it.
    pub total_us: u64,
    /// The daemon's cache disposition: `hit`, `miss`, ...
    pub cache: String,
}

/// Splits a `--trace` response into the untraced response and the
/// daemon's trace. The daemon splices the `"trace"` member in last.
pub fn split_daemon_trace(response: &str) -> (String, Option<DaemonTrace>) {
    let Some(i) = response.find(", \"trace\": {") else {
        return (response.to_owned(), None);
    };
    let trace = &response[i..];
    let total_us = numbers_after(trace, "total_micros").first().copied();
    let cache = trace
        .split("\"cache\": \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next());
    let parsed = total_us.zip(cache).map(|(total_us, cache)| DaemonTrace {
        total_us,
        cache: cache.to_owned(),
    });
    (format!("{}}}", &response[..i]), parsed)
}

/// Sweep tallies summed over the schedule runs a pass performed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub total: u64,
    pub executed: u64,
    pub skipped: u64,
    pub cut: u64,
}

impl Tally {
    pub fn add(&mut self, s: SweepStats) {
        self.total += s.runs_total as u64;
        self.executed += s.runs_executed as u64;
        self.skipped += s.runs_skipped as u64;
        self.cut += s.runs_cut as u64;
    }
}

/// Process-wide work counters of the solver layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub menu_builds: u64,
    pub menu_derives: u64,
    pub rect_set_builds: u64,
    pub context_compiles: u64,
    pub schedule_runs: u64,
}

impl Work {
    pub fn now() -> Self {
        Self {
            menu_builds: instrument::menu_builds(),
            menu_derives: instrument::menu_derives(),
            rect_set_builds: wrapper::instrument::rectangle_set_builds(),
            context_compiles: instrument::context_compiles(),
            schedule_runs: instrument::schedule_runs(),
        }
    }

    pub fn since(self, before: Self) -> Self {
        Self {
            menu_builds: self.menu_builds - before.menu_builds,
            menu_derives: self.menu_derives - before.menu_derives,
            rect_set_builds: self.rect_set_builds - before.rect_set_builds,
            context_compiles: self.context_compiles - before.context_compiles,
            schedule_runs: self.schedule_runs - before.schedule_runs,
        }
    }

    pub fn merge(&mut self, other: Self) {
        self.menu_builds += other.menu_builds;
        self.menu_derives += other.menu_derives;
        self.rect_set_builds += other.rect_set_builds;
        self.context_compiles += other.context_compiles;
        self.schedule_runs += other.schedule_runs;
    }
}

fn invalid(e: impl std::fmt::Display) -> ScheduleError {
    ScheduleError::Invalid {
        reason: e.to_string(),
    }
}

/// The engine's miss path, decomposed into the public calls it makes, each
/// under its own span: registry lookup, menu builds (including the
/// full-cap build the lower bound forces), the best-of sweep, wire
/// assignment and verification, and the lower bounds. Must produce the
/// engine's answer bit for bit; the caller checks the rendering.
pub fn decompose(
    rec: &mut Recorder,
    request_id: u64,
    registry: &ContextRegistry,
    req: &EngineRequest,
    tally: &mut Tally,
) -> EngineResult {
    let budget = req.flow.power.resolve(&req.soc);
    let ctx = rec.time("registry.get_or_compile", request_id, || {
        registry.get_or_compile(&req.soc, req.flow.w_max, budget)
    });
    let mut cfg = req.flow.clone();
    cfg.w_max = ctx.w_max();
    let flow = TestFlow::with_context(ctx, cfg);
    let full_menus = |rec: &mut Recorder| {
        rec.time("context.menu_build", request_id, || {
            let _ = flow.context().full_menus();
        });
    };
    match &req.op {
        EngineOp::Schedule { width } => {
            let w = *width;
            rec.time("context.menu_build", request_id, || flow.menus_for(w));
            let (schedule, params, sweep) =
                rec.time("flow.sweep", request_id, || flow.best_schedule_detailed(w))?;
            tally.add(sweep);
            let wires = rec.time("tam.wires", request_id, || {
                let wires = WireAssignment::assign(&schedule).map_err(invalid)?;
                wires.verify().map_err(invalid)?;
                Ok::<_, ScheduleError>(wires)
            })?;
            full_menus(rec);
            let lower_bound = rec.time("bounds.lower_bounds", request_id, || {
                flow.context().lower_bounds(&[w])[0]
            });
            Ok(EngineOutput::Schedule(Box::new(FlowRun {
                volume: volume_of(w, schedule.makespan()),
                schedule,
                params,
                lower_bound,
                wires,
                sweep,
            })))
        }
        EngineOp::Sweep { widths } => {
            let mut points = Vec::with_capacity(widths.len());
            for &w in widths {
                rec.time("context.menu_build", request_id, || flow.menus_for(w));
                let (schedule, _, sweep) =
                    rec.time("flow.sweep", request_id, || flow.best_schedule_detailed(w))?;
                tally.add(sweep);
                full_menus(rec);
                let lower_bound = rec.time("bounds.lower_bounds", request_id, || {
                    flow.context().lower_bounds(&[w])[0]
                });
                let time = schedule.makespan();
                points.push(SweepPoint {
                    width: w,
                    time,
                    volume: volume_of(w, time),
                    lower_bound,
                });
            }
            Ok(EngineOutput::Sweep(points))
        }
        EngineOp::Bounds { widths } => {
            if widths.contains(&0) {
                return Err(ScheduleError::InvalidConfig {
                    reason: "lower bounds need at least one wire".to_owned(),
                });
            }
            full_menus(rec);
            Ok(EngineOutput::Bounds(rec.time(
                "bounds.lower_bounds",
                request_id,
                || flow.context().lower_bounds(widths),
            )))
        }
    }
}

/// Checks a schedule result with the independent validator (and the power
/// ceiling, when the request has one) and its makespan against the bound.
fn schedule_valid(checks: &ContextRegistry, req: &EngineRequest, run: &FlowRun) -> bool {
    let budget = req.flow.power.resolve(&req.soc);
    let ctx = checks.get_or_compile(&req.soc, req.flow.w_max, budget);
    validate_with(&ctx, &run.schedule).is_ok()
        && budget.is_none_or(|p| validate_power(&req.soc, &run.schedule, p).is_ok())
        && run.schedule.makespan() >= run.lower_bound
}

/// Compares sampled served responses against a fresh direct `Engine` +
/// `render_result`, and validates each sampled schedule. Returns the
/// number of samples that failed.
pub fn sample_failures(catalog: &Catalog, samples: &[(String, String)]) -> u64 {
    let checks = ContextRegistry::default();
    let mut failed = 0;
    for (line, response) in samples {
        let ok = match catalog.parse(line) {
            Err(_) => false,
            Ok(req) => {
                let fresh = Engine::new().serve_one(&req);
                let same = render_result(&req, &fresh) == *response;
                let valid = match &fresh {
                    Ok(EngineOutput::Schedule(run)) => schedule_valid(&checks, &req, run),
                    Ok(_) => true,
                    Err(_) => false,
                };
                same && valid
            }
        };
        if !ok {
            eprintln!("perfbench: sample check failed for `{line}`: {response}");
            failed += 1;
        }
    }
    failed
}

/// What the verification pass found.
pub struct Verified {
    pub work: Work,
    pub tally: Tally,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub makespan_lb_ratio: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// How a verification pass serves its key list.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// A fresh uncached `Engine` per request (the one-shot path).
    Fresh,
    /// One daemon-like engine with every context compiled first; each key
    /// once (every request misses).
    Cold,
    /// One daemon-like engine; the key list twice (misses, then hits).
    Hot,
}

/// The untimed verification pass over a fixed key list: serves it the way
/// the workload does while nothing else runs, so the process-wide work
/// counters are exact, then checks every response.
pub fn verify(catalog: &Catalog, lines: &[String], mode: VerifyMode) -> Verified {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut requests = Vec::with_capacity(lines.len());
    for line in lines {
        attempted += 1;
        match catalog.parse(line) {
            Ok(req) => requests.push(req),
            Err(e) => {
                eprintln!("perfbench: verification key `{line}` does not parse: {e}");
                failed += 1;
            }
        }
    }
    let shared = (mode != VerifyMode::Fresh).then(|| daemon_like_engine(daemon_like_registry()));
    if let (Some(engine), VerifyMode::Cold) = (&shared, mode) {
        for line in gen::context_warmers() {
            let req = catalog.parse(&line).expect("warmer parses");
            assert!(engine.serve_one(&req).is_ok(), "warmer `{line}` failed");
        }
    }
    let stats_before = shared.as_ref().and_then(Engine::solution_stats);
    let passes = if mode == VerifyMode::Hot { 2 } else { 1 };

    let before = Work::now();
    let mut results = Vec::with_capacity(requests.len() * passes);
    for _ in 0..passes {
        for req in &requests {
            let result = match &shared {
                Some(engine) => engine.serve_one_traced(req).0,
                None => Engine::new().serve_one_traced(req).0,
            };
            results.push((req, result));
        }
    }
    let work = Work::now().since(before);

    let (mut cache_hits, mut cache_misses, mut cache_evictions) = (0, 0, 0);
    if let (Some(after), Some(before)) = (
        shared.as_ref().and_then(Engine::solution_stats),
        stats_before,
    ) {
        cache_hits = after.hits + after.coalesced - before.hits - before.coalesced;
        cache_misses = after.misses - before.misses;
        cache_evictions = after.evictions - before.evictions;
    }

    // A cached engine must answer exactly as a fresh direct one.
    let expected: Vec<String> = match &shared {
        Some(_) => requests
            .iter()
            .map(|req| render_result(req, &Engine::new().serve_one(req)))
            .collect(),
        None => Vec::new(),
    };
    let checks = ContextRegistry::default();
    let mut tally = Tally::default();
    let mut ratio_sum = 0.0;
    let mut ratio_n = 0u64;
    for (i, (req, result)) in results.iter().enumerate() {
        let first_pass = i < requests.len();
        if !first_pass {
            attempted += 1; // the second (hit) pass of a hot list
        }
        let rendered = render_result(req, result);
        let mut ok = response_sound(&rendered);
        if let Some(want) = expected.get(i % requests.len().max(1)) {
            ok &= rendered == *want;
        }
        match result {
            Ok(EngineOutput::Schedule(run)) => {
                if first_pass {
                    tally.add(run.sweep);
                }
                ok &= schedule_valid(&checks, req, run);
                ratio_sum += run.schedule.makespan() as f64 / run.lower_bound as f64;
                ratio_n += 1;
            }
            Ok(EngineOutput::Sweep(points)) => {
                for p in points {
                    ratio_sum += p.time as f64 / p.lower_bound as f64;
                    ratio_n += 1;
                }
            }
            Ok(EngineOutput::Bounds(_)) | Err(_) => {}
        }
        if !ok {
            eprintln!("perfbench: verification failed: {rendered}");
            failed += 1;
        }
    }
    Verified {
        work,
        tally,
        cache_hits,
        cache_misses,
        cache_evictions,
        makespan_lb_ratio: if ratio_n == 0 {
            f64::NAN
        } else {
            ratio_sum / ratio_n as f64
        },
        attempted,
        failed,
    }
}
