//! Observability loopback suite: phase tracing, latency histograms, and
//! the slow log, exercised over real TCP against a live daemon.
//!
//! What this binary pins:
//!
//! * **traced responses** — `--trace` embeds a span tree whose exclusive
//!   phase micros sum within the span total, which in turn sits within
//!   the client-measured wall latency;
//! * **warm-phase zeroing** — a repeat request reports exactly zero
//!   `context_compile` and `menu_build` time, counter-pinned against the
//!   process-wide work totals;
//! * **exact work counts** — a traced response's `counters` are the work
//!   that request did: a cold request's compiles and packer runs match a
//!   direct `Engine` call, a warm repeat reports zeros, and packer runs
//!   another connection does at the same time never show in it;
//! * **presentation-only tracing** — stripping the `"trace"` member off a
//!   traced response yields byte-for-byte the untraced response, and the
//!   traced cold pass warms the cache for untraced repeats;
//! * **metrics** — `/metrics` carries `soctam_request_latency_seconds`
//!   histograms per kind × cache disposition, cumulative
//!   `soctam_phase_seconds_total` counters, and a
//!   `soctam_build_info` gauge;
//! * **slow log** — a zero threshold captures every request as a full
//!   trace record (`"phases"` plus `"spans"`).
//!
//! Tests serialize on one mutex (shared convention with the loopback,
//! chaos, and cluster suites) because the work totals are process-wide.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use soctam_core::engine::{Engine, EngineOutput};
use soctam_core::protocol::{benchmark_resolver, parse_request, Json};
use soctam_core::schedule::obs::{self, Work};
use soctam_server::{client, Server, ServerConfig};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn server(cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", cfg).expect("ephemeral loopback bind")
}

/// Parses one emitted line strictly.
fn json(line: &str) -> Json<'_> {
    Json::parse(line).unwrap_or_else(|e| panic!("{e}:\n{line}"))
}

/// The sum of a `"phases"` object's values.
fn sum_of(phases: &Json) -> u64 {
    phases
        .as_object()
        .expect("a phases object")
        .iter()
        .map(|(phase, micros)| micros.as_u64().unwrap_or_else(|| panic!("phase `{phase}`")))
        .sum()
}

/// Drops the `", \"trace\": {...}}"` tail a traced response carries; the
/// trace is spliced in as the final member, so cutting at its key and
/// re-closing the object recovers the untraced rendering exactly.
fn strip_trace(response: &str) -> String {
    match response.find(", \"trace\": ") {
        Some(at) => format!("{}}}", &response[..at]),
        None => response.to_owned(),
    }
}

#[test]
fn traced_responses_carry_a_phase_tree_and_warm_repeats_report_zero_compiles() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();
    let mut conn = client::Connection::connect(addr).expect("connect");

    // Cold traced pass: the response embeds the span tree.
    let t0 = Instant::now();
    let cold = conn
        .request("schedule d695 --width 16 --trace")
        .expect("cold traced");
    let wall_micros = u64::try_from(t0.elapsed().as_micros()).expect("sane wall clock");
    assert!(client::response_ok(&cold), "{cold}");
    assert!(cold.contains("\"trace\": {"), "{cold}");
    assert!(cold.contains("\"cache\": \"miss\""), "{cold}");
    assert!(cold.contains("\"phase\": \"resolve\""), "{cold}");
    assert!(cold.contains("\"phase\": \"render\""), "{cold}");

    // Exclusive phase micros sum within the span total, which sits
    // within the client-measured wall latency.
    let trace = &json(&cold)["trace"];
    let total = trace["total_micros"].as_u64().expect("a total");
    let phase_sum = sum_of(&trace["phases"]);
    assert!(
        phase_sum <= total,
        "exclusive phases ({phase_sum} µs) exceed the trace total ({total} µs):\n{cold}"
    );
    assert!(
        total <= wall_micros,
        "trace total ({total} µs) exceeds wall latency ({wall_micros} µs):\n{cold}"
    );

    // A cold schedule solve compiled its context and ran the scheduler,
    // and the counter deltas in the trace say so.
    assert!(
        trace["counters"]["context_compiles"].as_u64() >= Some(1),
        "{cold}"
    );
    assert!(
        trace["counters"]["schedule_runs"].as_u64() >= Some(1),
        "{cold}"
    );

    // Tracing is presentation-only: the untraced twin is the traced
    // response minus its `"trace"` member, answered from cache.
    let untraced = conn
        .request("schedule d695 --width 16")
        .expect("untraced twin");
    assert!(!untraced.contains("\"trace\""), "{untraced}");
    assert_eq!(strip_trace(&cold), untraced, "trace must splice cleanly");

    // Warm traced repeat: counter-pinned to zero solver work, and the
    // trace itself reports zero compile and menu phases.
    let compiles_before = obs::total(Work::ContextCompile);
    let menus_before = obs::total(Work::MenuBuild);
    let warm = conn
        .request("schedule d695 --width 16 --trace")
        .expect("warm traced");
    assert_eq!(obs::total(Work::ContextCompile), compiles_before);
    assert_eq!(obs::total(Work::MenuBuild), menus_before);
    assert!(warm.contains("\"cache\": \"hit\""), "{warm}");
    assert!(warm.contains("\"context_compile\": 0"), "{warm}");
    assert!(warm.contains("\"menu_build\": 0"), "{warm}");
    assert!(warm.contains("\"context_compiles\": 0"), "{warm}");
    assert_eq!(strip_trace(&warm), untraced, "warm trace splices too");

    let stats = server.engine().solution_stats().expect("cache enabled");
    assert_eq!(
        (stats.misses, stats.hits),
        (1, 2),
        "traced and untraced share one cache entry"
    );
    server.shutdown();
}

#[test]
fn metrics_expose_latency_histograms_phase_counters_and_build_info() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();

    // One schedule miss, one schedule hit, one bounds miss.
    client::roundtrip(
        addr,
        &[
            "schedule d695 --width 16",
            "schedule d695 --width 16",
            "bounds d695 --widths 16",
        ],
    )
    .expect("traffic");

    let metrics = server.metrics();
    assert!(
        metrics.contains("# TYPE soctam_request_latency_seconds histogram"),
        "{metrics}"
    );
    for series in [
        "soctam_request_latency_seconds_count{kind=\"schedule\",cache=\"miss\"} 1",
        "soctam_request_latency_seconds_count{kind=\"schedule\",cache=\"hit\"} 1",
        "soctam_request_latency_seconds_count{kind=\"bounds\",cache=\"miss\"} 1",
        "soctam_request_latency_seconds_bucket{kind=\"schedule\",cache=\"miss\",le=\"+Inf\"} 1",
    ] {
        assert!(metrics.contains(series), "missing `{series}`:\n{metrics}");
    }

    // The build-info gauge names this crate's version.
    assert!(
        metrics.contains(&format!(
            "soctam_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )),
        "{metrics}"
    );

    // Phase counters: every phase renders (zeros included), and the cold
    // schedule left real context-compile time behind.
    assert!(
        metrics.contains("# TYPE soctam_phase_seconds_total counter"),
        "{metrics}"
    );
    for phase in [
        "resolve",
        "cache_lookup",
        "context_compile",
        "menu_build",
        "sweep",
        "validate",
        "render",
        "proxy",
    ] {
        assert!(
            metrics.contains(&format!("soctam_phase_seconds_total{{phase=\"{phase}\"}}")),
            "missing phase `{phase}`:\n{metrics}"
        );
    }
    let compile_seconds = metrics
        .lines()
        .find_map(|l| l.strip_prefix("soctam_phase_seconds_total{phase=\"context_compile\"} "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("context_compile phase sample");
    assert!(
        compile_seconds > 0.0,
        "a cold schedule must log compile time:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn request_log_records_carry_compact_phase_splits() {
    let _guard = serialize();
    let log_path =
        std::env::temp_dir().join(format!("soctam_obs_log_{}.jsonl", std::process::id()));
    std::fs::remove_file(&log_path).ok();
    let server = server(ServerConfig {
        log_path: Some(log_path.clone()),
        ..ServerConfig::default()
    });

    client::roundtrip(server.local_addr(), &["schedule d695 --width 16"]).expect("traffic");

    let text = std::fs::read_to_string(&log_path).expect("log written");
    let line = text.lines().next().expect("one record");
    assert!(line.contains("\"phases\": {"), "{line}");
    assert!(line.contains("\"context_compile\": "), "{line}");
    // The compact log shape stops at phases — no span tree.
    assert!(!line.contains("\"spans\""), "{line}");
    let record = json(line);
    assert!(
        Some(sum_of(&record["phases"])) <= record["latency_micros"].as_u64(),
        "{line}"
    );

    std::fs::remove_file(&log_path).ok();
    server.shutdown();
}

#[test]
fn a_zero_threshold_slow_log_captures_full_traces_for_every_request() {
    let _guard = serialize();
    let slow_path =
        std::env::temp_dir().join(format!("soctam_obs_slow_{}.jsonl", std::process::id()));
    std::fs::remove_file(&slow_path).ok();
    let server = server(ServerConfig {
        slow_log: Some(Duration::ZERO),
        slow_log_path: Some(slow_path.clone()),
        ..ServerConfig::default()
    });

    client::roundtrip(
        server.local_addr(),
        &["schedule d695 --width 16", "schedule d695 --width 16"],
    )
    .expect("traffic");

    let text = std::fs::read_to_string(&slow_path).expect("slow log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    for line in &lines {
        assert!(
            line.contains("\"request\": \"schedule d695 --width 16\""),
            "{line}"
        );
        assert!(line.contains("\"trace_total_micros\": "), "{line}");
        assert!(line.contains("\"spans\": [{"), "{line}");
        assert!(line.contains("\"phase\": \"resolve\""), "{line}");
    }
    assert!(lines[0].contains("\"cache\": \"miss\""), "{}", lines[0]);
    assert!(lines[1].contains("\"cache\": \"hit\""), "{}", lines[1]);

    std::fs::remove_file(&slow_path).ok();
    server.shutdown();
}

#[test]
fn cold_traced_requests_bill_their_time_to_the_phases_that_ran() {
    let _guard = serialize();
    for request in [
        "schedule d695 --width 16 --trace",
        "sweep d695 --from 16 --to 32 --trace",
        "bounds d695 --widths 16,32 --trace",
    ] {
        // A fresh daemon per request: nothing is cached, not even the
        // compiled context.
        let server = server(ServerConfig::default());
        let mut conn = client::Connection::connect(server.local_addr()).expect("connect");
        let cold = conn.request(request).expect("cold traced");
        assert!(client::response_ok(&cold), "{cold}");
        assert!(cold.contains("\"cache\": \"miss\""), "{cold}");

        // The solve is billed to the phases that ran it, so the cache
        // probe's own exclusive time is small...
        let trace = &json(&cold)["trace"];
        let total = trace["total_micros"].as_u64().expect("a total");
        let lookup = trace["phases"]["cache_lookup"]
            .as_u64()
            .expect("a cache_lookup phase");
        assert!(
            lookup * 10 < total,
            "`{request}` bills {lookup} of {total} µs to cache_lookup:\n{cold}"
        );
        // ...and the phases account for nearly all of the request.
        let phase_sum = sum_of(&trace["phases"]);
        assert!(
            phase_sum * 100 >= total * 95,
            "`{request}`: phases sum to {phase_sum} of {total} µs:\n{cold}"
        );
        server.shutdown();
    }
}

/// A traced response's `counters`, in [`Work::ALL`] order.
fn counters(response: &str) -> [u64; 4] {
    let counters = &json(response)["trace"]["counters"];
    Work::ALL.map(|work| {
        counters[work.label()]
            .as_u64()
            .unwrap_or_else(|| panic!("`{}` counter:\n{response}", work.label()))
    })
}

/// The packer runs a direct, uncached `Engine` executes for a schedule
/// request.
fn direct_runs(request: &str) -> u64 {
    let req = parse_request(request, &mut benchmark_resolver()).expect("a valid request");
    match Engine::new().serve_one(&req) {
        Ok(EngineOutput::Schedule(run)) => run.sweep.runs_executed as u64,
        other => panic!("`{request}`: {other:?}"),
    }
}

#[test]
fn traced_counters_are_the_work_the_request_did() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let mut conn = client::Connection::connect(server.local_addr()).expect("connect");

    // A fresh daemon's first request compiles its context once and runs
    // the packer exactly as often as a direct solve does.
    let cold = conn
        .request("schedule d695 --width 16 --trace")
        .expect("cold schedule");
    assert!(client::response_ok(&cold), "{cold}");
    let runs = direct_runs("schedule d695 --width 16");
    assert!(runs > 0);
    assert_eq!(counters(&cold), [1, 1, 1, runs], "{cold}");

    // A cold sweep over the compiled context runs each width's packer
    // runs and compiles nothing.
    let sweep = conn
        .request("sweep d695 --from 16 --to 18 --trace")
        .expect("cold sweep");
    assert!(sweep.contains("\"cache\": \"miss\""), "{sweep}");
    let sweep_runs: u64 = (16..=18)
        .map(|w| direct_runs(&format!("schedule d695 --width {w}")))
        .sum();
    assert_eq!(counters(&sweep), [0, 0, 0, sweep_runs], "{sweep}");

    // Warm repeats did no work at all.
    for request in [
        "schedule d695 --width 16 --trace",
        "sweep d695 --from 16 --to 18 --trace",
    ] {
        let warm = conn.request(request).expect("warm repeat");
        assert!(warm.contains("\"cache\": \"hit\""), "{warm}");
        assert_eq!(counters(&warm), [0; 4], "{warm}");
    }
    server.shutdown();
}

#[test]
fn concurrent_packer_runs_never_show_in_another_requests_trace() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let (started, first_run) = mpsc::channel();
    std::thread::scope(|scope| {
        // Cold schedule requests over distinct keys keep the packer busy
        // on another worker until the traced requests are done.
        let solver = scope.spawn(|| {
            let mut conn = client::Connection::connect(addr).expect("connect");
            let mut solved = 0u64;
            'keys: for soc in ["d695", "p22810", "p34392", "p93791"] {
                for mode in ["", " --power", " --no-preempt"] {
                    for width in 8..=64 {
                        if stop.load(Ordering::Relaxed) {
                            break 'keys;
                        }
                        let request = format!("schedule {soc} --width {width}{mode}");
                        let response = conn.request(&request).expect("cold schedule");
                        assert!(response.contains("\"ok\""), "{response}");
                        solved += 1;
                        if solved == 1 {
                            started.send(()).expect("the tracing side waits");
                        }
                    }
                }
            }
            solved
        });
        first_run.recv().expect("the solver answered once");
        let mut conn = client::Connection::connect(addr).expect("connect");
        // Bounds requests never run the packer. Stop the solver before
        // checking them, so a failure cannot leave it solving every key.
        let traced: Vec<_> = (0..200u16)
            .map(|i| conn.request(&format!("bounds d695 --widths {} --trace", 8 + i % 57)))
            .collect();
        stop.store(true, Ordering::Relaxed);
        let solved = solver.join().expect("solver connection");
        assert!(solved > 1, "the solver side ran {solved} requests");
        let leaked: Vec<String> = traced
            .into_iter()
            .map(|response| response.expect("traced bounds"))
            .filter(|response| {
                assert!(client::response_ok(response), "{response}");
                counters(response)[3] > 0
            })
            .collect();
        assert!(
            leaked.is_empty(),
            "{} of 200 traced bounds requests report another connection's packer runs:\n{}",
            leaked.len(),
            leaked.join("\n")
        );
    });
    server.shutdown();
}
