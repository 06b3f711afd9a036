//! Serving-tier snapshot: hammer a loopback `soctam-server` daemon and
//! measure wire latency, cold vs. warm.
//!
//! Starts an in-process daemon on an ephemeral loopback port, sends a
//! cold pass (one client, each distinct request once — every request
//! pays its solve), then a warm pass (`--clients` threads × `--iters`
//! iterations over the same mix, started at rotated offsets so identical
//! requests overlap in flight), and writes latency percentiles plus the
//! daemon's cache tallies to `BENCH_serve.json`.
//!
//! The snapshot doubles as the CI gate for the serving tier: it verifies
//! on the spot that every warm response is byte-identical to its cold
//! counterpart, and **fails** (exit 1) if the warm pass reports zero
//! solution-cache hits — i.e. if result caching ever regresses to
//! re-solving repeat traffic.
//!
//! The daemon runs with its JSONL request log enabled; after the warm
//! pass the log is replayed back through `client::replay` (the same path
//! as `soctam client --file`), and the replay's latency percentiles land
//! in a `"replay"` section — exercising the log → replay loop end to end
//! on every snapshot.
//!
//! A final **overload pass** offers load far over capacity to a second,
//! deliberately under-provisioned daemon (one worker, a two-slot pending
//! queue, injected per-request latency) from retrying clients. The
//! `"overload"` section records the shed rate, goodput, and client-side
//! latency percentiles — and the snapshot **fails** (exit 1) if the
//! over-capacity pass sheds nothing (admission control regressed) or if
//! any retrying client ultimately fails (resilience regressed).
//!
//! Run with: `cargo run --release -p soctam-bench --bin servesnap`
//! Options:  `--quick` shrinks the warm pass (the CI smoke);
//!           `--clients <n>` client threads (default 4);
//!           `--iters <n>` warm iterations per client (default 20, quick 5);
//!           `--out <file>` changes the output path.

use std::error::Error;
use std::fmt::Write as _;
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use soctam_bench::{json_escape, write_report};
use soctam_core::fault::FaultPlan;
use soctam_core::protocol::{check_known_args, flag, opt_num, opt_value, Json};
use soctam_server::client::{RetryPolicy, RetryingClient};
use soctam_server::exposition::Scrape;
use soctam_server::{client, Server, ServerConfig};

/// The mixed request set: all three kinds, both scheduling modes, a
/// power-constrained run, three SOCs.
const REQUESTS: [&str; 6] = [
    "schedule d695 --width 16",
    "schedule d695 --width 32 --no-preempt",
    "schedule d695 --width 24 --power",
    "sweep d695 --from 14 --to 18",
    "bounds p34392 --widths 16,24,32",
    "bounds p93791",
];

use client::LatencySummary;

/// Strips the `"trace"` member a `--trace` response carries, recovering
/// the exact untraced response (the trace is always spliced last, before
/// the closing brace).
fn strip_trace(response: &str) -> String {
    match response.find(", \"trace\": ") {
        Some(i) => format!("{}}}", &response[..i]),
        None => response.to_owned(),
    }
}

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--clients", "--iters", "--out"], &["--quick"])?;
    let quick = flag(&args, "--quick");
    let clients: usize = opt_num(&args, "--clients")?.unwrap_or(4).max(1);
    let iters: usize = opt_num(&args, "--iters")?
        .unwrap_or(if quick { 5 } else { 20 })
        .max(1);
    let out_path = opt_value(&args, "--out")?.unwrap_or("BENCH_serve.json");

    // Log every request of the run to a scratch JSONL file, then replay it
    // back at the daemon — the log/replay loop is part of the snapshot.
    let log_path = std::env::temp_dir().join(format!("servesnap-{}.log", std::process::id()));
    std::fs::remove_file(&log_path).ok();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: clients,
            log_path: Some(log_path.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral loopback bind");
    let addr = server.local_addr();
    writeln!(
        out,
        "servesnap: daemon on {addr}, {clients} clients x {iters} warm iterations"
    )?;

    // Cold pass: every distinct request pays its solve exactly once — and
    // runs `--trace`d, so the daemon reports where the cold time went
    // phase by phase instead of a client-side stopwatch guessing. The
    // trace flag is presentation-only (cache identity unchanged), so the
    // warm untraced repeats below still hit the entries these solves
    // populate; the stored responses are trace-stripped for the warm
    // byte-identity check.
    let mut cold_latencies = Vec::new();
    let mut cold_responses = Vec::new();
    let mut cold_phase_micros: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    {
        let mut conn = client::Connection::connect(addr).expect("cold connect");
        for request in REQUESTS {
            let traced = format!("{request} --trace");
            let t0 = Instant::now();
            let response = conn.request(&traced).expect("cold round trip");
            cold_latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(
                client::response_ok(&response),
                "cold request failed: {request} -> {response}"
            );
            let parsed = Json::parse(&response).map_err(|e| format!("{e}: {response}"))?;
            let phases = parsed["trace"]["phases"].as_object().unwrap_or_default();
            assert!(
                !phases.is_empty(),
                "traced cold response carries no phase split: {response}"
            );
            for (phase, micros) in phases {
                let micros = micros
                    .as_u64()
                    .ok_or_else(|| format!("phase `{phase}` is not a count: {response}"))?;
                *cold_phase_micros.entry(phase.to_string()).or_insert(0) += micros;
            }
            cold_responses.push(strip_trace(&response));
        }
    }
    assert!(
        cold_phase_micros.get("sweep").copied().unwrap_or(0) > 0,
        "cold pass reported zero sweep time — phase tracing regressed: {cold_phase_micros:?}"
    );

    // Warm pass: concurrent clients replay the mix; every response must be
    // byte-identical to its cold counterpart, and none may re-solve.
    let warm_t0 = Instant::now();
    let per_client: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|offset| {
                let cold_responses = &cold_responses;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(iters * REQUESTS.len());
                    let mut conn = client::Connection::connect(addr).expect("warm connect");
                    for round in 0..iters {
                        for i in 0..REQUESTS.len() {
                            let at = (i + offset + round) % REQUESTS.len();
                            let t0 = Instant::now();
                            let response = conn.request(REQUESTS[at]).expect("warm round trip");
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                            assert_eq!(
                                response, cold_responses[at],
                                "warm response diverged for `{}`",
                                REQUESTS[at]
                            );
                        }
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let warm_wall_s = warm_t0.elapsed().as_secs_f64();
    let warm_latencies: Vec<f64> = per_client.into_iter().flatten().collect();

    let cold = LatencySummary::of_millis(cold_latencies).expect("cold pass has samples");
    let warm = LatencySummary::of_millis(warm_latencies).expect("warm pass has samples");
    let throughput = warm.count as f64 / warm_wall_s;

    // Replay the run's own request log back at the (now warm) daemon, the
    // way `soctam client --file LOG` would.
    let log_text = std::fs::read_to_string(&log_path).expect("request log written");
    let replay = client::replay(addr, &log_text).expect("replay round trip");
    let replayed = cold.count + warm.count;
    assert_eq!(
        replay.responses.len(),
        replayed,
        "the log replays every cold and warm request"
    );
    assert_eq!(replay.failed, 0, "replayed requests all succeed");
    let replay_latency = replay.latency.clone().expect("replay has samples");
    let sol = server.engine().solution_stats().expect("cache enabled");
    let reg = server.engine().registry().stats();

    writeln!(
        out,
        "cold:  {} requests, mean {:.2} ms, p50 {:.2} ms, max {:.2} ms",
        cold.count, cold.mean_ms, cold.p50_ms, cold.max_ms
    )?;
    writeln!(
        out,
        "warm:  {} requests, mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms ({:.0} req/s)",
        warm.count, warm.mean_ms, warm.p50_ms, warm.p99_ms, throughput
    )?;
    writeln!(
        out,
        "replay: {} logged requests, mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
        replay_latency.count, replay_latency.mean_ms, replay_latency.p50_ms, replay_latency.p99_ms
    )?;
    writeln!(
        out,
        "cache: {} misses, {} hits, {} coalesced (hit rate {:.4}); \
         registry: {} misses, {} hits",
        sol.misses,
        sol.hits,
        sol.coalesced,
        sol.hit_rate(),
        reg.misses,
        reg.hits
    )?;

    // Overload pass: a second, deliberately under-provisioned daemon (one
    // worker, a two-slot pending queue, 5 ms of injected latency per
    // request) is offered eight simultaneous retrying clients — load far
    // over capacity. Sheds are absorbed by the clients' backoff, so the
    // pass measures the resilience contract end to end: non-zero sheds,
    // zero eventual failures, and the goodput the daemon sustains while
    // shedding.
    const OVERLOAD_REQUEST: &str = "bounds d695 --widths 16";
    let overload_clients: usize = 8;
    let overload_iters: usize = if quick { 5 } else { 15 };
    let overload = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 1,
            max_pending: 2,
            fault_plan: Some(Arc::new(
                FaultPlan::parse("io:latency=5ms").expect("static plan parses"),
            )),
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral loopback bind");
    overload.warm_from_text(OVERLOAD_REQUEST); // service time ≈ injected latency
    let overload_addr = overload.local_addr();

    let overload_t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..overload_clients)
            .map(|seed| {
                scope.spawn(move || {
                    let policy = RetryPolicy {
                        retries: 60,
                        backoff: Duration::from_millis(5),
                        seed: seed as u64,
                    };
                    let mut client =
                        RetryingClient::new(overload_addr, policy).expect("loopback resolves");
                    let mut latencies = Vec::with_capacity(overload_iters);
                    let mut failed = 0u64;
                    for _ in 0..overload_iters {
                        let t0 = Instant::now();
                        match client.request(OVERLOAD_REQUEST) {
                            Ok(response) if client::response_ok(&response) => {
                                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                            }
                            _ => failed += 1,
                        }
                    }
                    (latencies, client.retried(), failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("overload client panicked"))
            .collect()
    });
    let overload_wall_s = overload_t0.elapsed().as_secs_f64();
    let overload_metrics = overload.metrics();
    overload.shutdown();

    let sheds = Scrape::parse(&overload_metrics)
        .map_err(|e| e.to_string())?
        .value("soctam_shed_total")
        .ok_or("the overload daemon exports no soctam_shed_total")? as u64;
    let overload_retried: u64 = per_client.iter().map(|(_, r, _)| r).sum();
    let overload_failed: u64 = per_client.iter().map(|(_, _, f)| f).sum();
    let overload_latencies: Vec<f64> = per_client.into_iter().flat_map(|(l, _, _)| l).collect();
    let overload_ok = overload_latencies.len();
    let goodput = overload_ok as f64 / overload_wall_s;
    let offered_rps = (overload_clients * overload_iters) as f64 / overload_wall_s;
    let overload_latency =
        LatencySummary::of_millis(overload_latencies).expect("overload pass has samples");

    writeln!(
        out,
        "overload: {} clients x {} requests at capacity 1 worker + 2 pending: \
         {} sheds, {} retries, {:.0} req/s goodput, p99 {:.1} ms",
        overload_clients, overload_iters, sheds, overload_retried, goodput, overload_latency.p99_ms
    )?;

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"servesnap\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"iterations_per_client\": {iters},");
    json.push_str("  \"requests\": [\n");
    for (i, request) in REQUESTS.iter().enumerate() {
        let sep = if i + 1 == REQUESTS.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{}\"{sep}", json_escape(request));
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"cold\": {},", cold.json());
    let mut phase_obj = String::from("{");
    for (i, (phase, micros)) in cold_phase_micros.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(phase_obj, "{sep}\"{}\": {micros}", json_escape(phase));
    }
    phase_obj.push('}');
    let _ = writeln!(json, "  \"cold_phase_micros\": {phase_obj},");
    let _ = writeln!(json, "  \"warm\": {},", warm.json());
    let _ = writeln!(json, "  \"warm_wall_seconds\": {warm_wall_s:.4},");
    let _ = writeln!(json, "  \"warm_requests_per_second\": {throughput:.1},");
    let _ = writeln!(
        json,
        "  \"replay\": {{\"logged_requests\": {}, \"ok\": {}, \"failed\": {}, \
         \"latency\": {}}},",
        replayed,
        replay.ok,
        replay.failed,
        replay_latency.json()
    );
    let _ = writeln!(
        json,
        "  \"solution_cache\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \
         \"evictions\": {}, \"failures\": {}, \"hit_rate\": {:.4}}},",
        sol.hits,
        sol.misses,
        sol.coalesced,
        sol.evictions,
        sol.failures,
        sol.hit_rate()
    );
    let _ = writeln!(
        json,
        "  \"registry\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}},",
        reg.hits, reg.misses, reg.evictions
    );
    let _ = writeln!(
        json,
        "  \"overload\": {{\"clients\": {overload_clients}, \
         \"requests_per_client\": {overload_iters}, \"workers\": 1, \"max_pending\": 2, \
         \"fault_plan\": \"io:latency=5ms\", \"sheds\": {sheds}, \
         \"retried\": {overload_retried}, \"ok\": {overload_ok}, \
         \"failed\": {overload_failed}, \"wall_seconds\": {overload_wall_s:.4}, \
         \"offered_rps\": {offered_rps:.1}, \"goodput_rps\": {goodput:.1}, \
         \"latency\": {}}}",
        overload_latency.json()
    );
    json.push_str("}\n");

    write_report(out, out_path, &json)?;
    server.shutdown();
    std::fs::remove_file(&log_path).ok();

    // The CI gates: a warm pass that hit the cache zero times means the
    // serving tier re-solved repeat traffic; an over-capacity overload
    // pass that shed nothing means admission control regressed; a client
    // that never succeeded despite its retry budget means the resilience
    // loop regressed.
    if sol.hits == 0 {
        return Err(
            "warm pass recorded zero solution-cache hits — result caching regressed".into(),
        );
    }
    if sheds == 0 {
        return Err(
            "over-capacity offered load recorded zero sheds — admission control regressed".into(),
        );
    }
    if overload_failed > 0 {
        return Err(format!(
            "{overload_failed} overload requests never succeeded despite retries — \
             client resilience regressed"
        )
        .into());
    }
    Ok(())
}
