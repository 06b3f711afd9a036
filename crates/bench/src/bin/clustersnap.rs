//! Cluster snapshot: measure how the consistent-hash front (`soctam
//! balance`) scales the serving tier across backend daemons, and prove
//! the cluster's resilience contract under a mid-replay backend kill.
//!
//! **Scaling section.** For each cluster size in 1, 2, 4: start that many
//! in-process daemons (each with a small injected per-request service
//! time, so throughput is bounded by backend capacity rather than
//! loopback overhead) behind one `Balancer` front, round-trip a set of
//! distinct cheap request keys once cold, then hammer the same keys from
//! concurrent client threads. Per-backend `/metrics` scrapes verify that
//! the consistent hash kept the shard caches **disjoint** (solution-cache
//! misses across backends sum to exactly the key count) and, at two or
//! more backends, that every shard took a share. The snapshot **fails**
//! (exit 1) if two backends do not deliver at least 1.5x the one-backend
//! warm throughput, or if the disjointness accounting is off.
//!
//! **Chaos section.** A fresh two-backend cluster is warmed, then a
//! client thread replays the key set repeatedly through the front while
//! the main thread kills one backend mid-replay. The front must divert
//! the dead shard's keys to the survivor with **zero** client-visible
//! failures and a non-zero `soctam_balance_failover_total`; either
//! regression fails the snapshot.
//!
//! Results land in `BENCH_cluster.json`.
//!
//! Run with: `cargo run --release -p soctam-bench --bin clustersnap`
//! Options:  `--quick` shrinks the warm pass (the CI smoke);
//!           `--clients <n>` client threads (default 16 — enough serial
//!           clients that every shard's pool stays saturated even when
//!           the ring splits demand unevenly at an instant);
//!           `--iters <n>` warm iterations per client (default 12, quick 4);
//!           `--out <file>` changes the output path.

use std::error::Error;
use std::fmt::Write as _;
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use soctam_bench::write_report;
use soctam_core::fault::FaultPlan;
use soctam_core::protocol::{check_known_args, flag, opt_num, opt_value};
use soctam_server::balance::{Balancer, BalancerConfig};
use soctam_server::client::{self, LatencySummary};
use soctam_server::exposition::Scrape;
use soctam_server::{Server, ServerConfig};

/// Distinct cheap request keys: each is its own solution-cache entry and
/// its own point on the ring, so shard disjointness is exactly countable.
const KEY_COUNT: usize = 24;

/// Injected per-request service time on every backend. Cheap `bounds`
/// requests answer in microseconds from a warm cache; the floor makes
/// backend capacity the bottleneck so the throughput curve measures the
/// cluster, not loopback syscall overhead.
const SERVICE_FLOOR: &str = "io:latency=2ms";

fn keys() -> Vec<String> {
    (1..=KEY_COUNT)
        .map(|w| format!("bounds d695 --widths {w}"))
        .collect()
}

/// The front's `soctam_balance_failover_total`, read from a strict parse
/// of its exposition.
fn failovers(front: &Balancer) -> u64 {
    let metrics = front.metrics();
    Scrape::parse(&metrics)
        .unwrap_or_else(|e| panic!("{e} in:\n{metrics}"))
        .value("soctam_balance_failover_total")
        .unwrap_or_else(|| panic!("no soctam_balance_failover_total in:\n{metrics}")) as u64
}

/// One backend daemon for the cluster: enough workers that the front's
/// pooled connections never pin them all (probes and scrapes always find
/// a free worker), plus the injected service-time floor.
fn backend() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 3,
            fault_plan: Some(Arc::new(
                FaultPlan::parse(SERVICE_FLOOR).expect("static plan parses"),
            )),
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral backend bind")
}

fn front(backends: &[SocketAddr], clients: usize) -> Balancer {
    Balancer::bind(
        "127.0.0.1:0",
        backends,
        BalancerConfig {
            // One front worker per client connection, with headroom.
            threads: clients + 4,
            probe_interval: Duration::from_millis(200),
            retries: 8,
            backoff: Duration::from_millis(5),
            backend_conns: 2,
            ..BalancerConfig::default()
        },
    )
    .expect("ephemeral front bind")
}

/// One cluster size's measurements.
struct ScalePoint {
    backends: usize,
    warm_rps: f64,
    warm: LatencySummary,
    wall_s: f64,
    shard_misses: Vec<u64>,
    shard_hits: Vec<u64>,
}

/// Stands up `n` backends behind a front, runs the cold + warm passes,
/// and checks the disjoint-shard accounting on the way out.
fn run_scale_point(n: usize, clients: usize, iters: usize) -> ScalePoint {
    let backends: Vec<Server> = (0..n).map(|_| backend()).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let front = front(&addrs, clients);
    let front_addr = front.local_addr();
    let keys = keys();

    // Cold pass: every key solved exactly once, on exactly one shard.
    let mut conn = client::Connection::connect(front_addr).expect("cold connect");
    for key in &keys {
        let response = conn.request(key).expect("cold round trip");
        assert!(client::response_ok(&response), "cold `{key}`: {response}");
    }

    // Warm pass: concurrent clients hammer the key set at rotated
    // offsets; every answer must come from a warm shard cache.
    let t0 = Instant::now();
    let per_client: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|offset| {
                let keys = &keys;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(iters * keys.len());
                    let mut conn = client::Connection::connect(front_addr).expect("warm connect");
                    for round in 0..iters {
                        for i in 0..keys.len() {
                            let key = &keys[(i + offset + round) % keys.len()];
                            let t0 = Instant::now();
                            let response = conn.request(key).expect("warm round trip");
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                            assert!(client::response_ok(&response), "warm `{key}`: {response}");
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
    let wall_s = t0.elapsed().as_secs_f64();
    let latencies: Vec<f64> = per_client.into_iter().flatten().collect();
    let warm = LatencySummary::of_millis(latencies).expect("warm pass has samples");
    let warm_rps = warm.count as f64 / wall_s;

    // Disjointness: each backend's own solution cache solved exactly the
    // keys it owns — misses across shards sum to the key count, and with
    // multiple backends every shard carries warm traffic.
    let mut shard_misses = Vec::with_capacity(n);
    let mut shard_hits = Vec::with_capacity(n);
    for server in &backends {
        let stats = server.engine().solution_stats().expect("cache enabled");
        shard_misses.push(stats.misses);
        shard_hits.push(stats.hits);
    }
    assert_eq!(
        failovers(&front),
        0,
        "healthy scaling pass must not fail over"
    );

    front.shutdown();
    for server in backends {
        server.shutdown();
    }

    ScalePoint {
        backends: n,
        warm_rps,
        warm,
        wall_s,
        shard_misses,
        shard_hits,
    }
}

/// The chaos pass: kill one of two backends mid-replay; the client must
/// see zero failures and the front must book the diverted keys.
struct ChaosOutcome {
    replayed: usize,
    failed: usize,
    failovers: u64,
}

fn run_chaos_pass(rounds: usize) -> ChaosOutcome {
    let backend_a = backend();
    let backend_b = backend();
    let addrs = [backend_a.local_addr(), backend_b.local_addr()];
    let front = front(&addrs, 4);
    let front_addr = front.local_addr();
    let keys = keys();

    // Warm both shards, then replay the whole key set `rounds` times on a
    // client thread while the main thread kills backend A mid-replay.
    let mut conn = client::Connection::connect(front_addr).expect("chaos warm connect");
    for key in &keys {
        let response = conn.request(key).expect("chaos warm round trip");
        assert!(
            client::response_ok(&response),
            "chaos warm `{key}`: {response}"
        );
    }
    drop(conn);

    let replayer = std::thread::spawn(move || {
        let mut conn = client::Connection::connect(front_addr).expect("replay connect");
        let mut failed = 0usize;
        let mut replayed = 0usize;
        for _ in 0..rounds {
            for key in &keys {
                replayed += 1;
                match conn.request(key) {
                    Ok(response) if client::response_ok(&response) => {}
                    // A reply that is not ok — shed, transient, or a
                    // severed front — is a client-visible failure; the
                    // front's own failover is supposed to absorb these.
                    _ => failed += 1,
                }
            }
        }
        (replayed, failed)
    });

    // Let the replay get going, then pull a backend out from under it.
    std::thread::sleep(Duration::from_millis(rounds as u64 * 2));
    backend_a.shutdown();

    let (replayed, failed) = replayer.join().expect("replay thread panicked");
    let failovers = failovers(&front);

    front.shutdown();
    backend_b.shutdown();

    ChaosOutcome {
        replayed,
        failed,
        failovers,
    }
}

fn main() -> ExitCode {
    soctam_core::run_on_stdout(run)
}

fn run(out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_known_args(&args, &["--clients", "--iters", "--out"], &["--quick"])?;
    let quick = flag(&args, "--quick");
    let clients: usize = opt_num(&args, "--clients")?.unwrap_or(16).max(1);
    let iters: usize = opt_num(&args, "--iters")?
        .unwrap_or(if quick { 4 } else { 12 })
        .max(1);
    let out_path = opt_value(&args, "--out")?.unwrap_or("BENCH_cluster.json");

    writeln!(
        out,
        "clustersnap: {KEY_COUNT} keys, {clients} clients x {iters} warm iterations, \
         backends at {SERVICE_FLOOR}"
    )?;

    let mut points = Vec::new();
    for n in [1usize, 2, 4] {
        let point = run_scale_point(n, clients, iters);
        writeln!(
            out,
            "backends={}: {:.0} req/s warm, p50 {:.2} ms, p99 {:.2} ms, \
             shard misses {:?}, shard hits {:?}",
            point.backends,
            point.warm_rps,
            point.warm.p50_ms,
            point.warm.p99_ms,
            point.shard_misses,
            point.shard_hits
        )?;
        points.push(point);
    }

    let chaos_rounds = if quick { 10 } else { 30 };
    let chaos = run_chaos_pass(chaos_rounds);
    writeln!(
        out,
        "chaos: {} replayed through a mid-replay backend kill, {} failed, {} failovers",
        chaos.replayed, chaos.failed, chaos.failovers
    )?;

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"clustersnap\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"distinct_keys\": {KEY_COUNT},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"iterations_per_client\": {iters},");
    let _ = writeln!(json, "  \"backend_fault_plan\": \"{SERVICE_FLOOR}\",");
    json.push_str("  \"scaling\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let misses: Vec<String> = p.shard_misses.iter().map(u64::to_string).collect();
        let hits: Vec<String> = p.shard_hits.iter().map(u64::to_string).collect();
        let _ = writeln!(
            json,
            "    {{\"backends\": {}, \"warm_requests_per_second\": {:.1}, \
             \"warm_wall_seconds\": {:.4}, \"shard_misses\": [{}], \"shard_hits\": [{}], \
             \"latency\": {}}}{sep}",
            p.backends,
            p.warm_rps,
            p.wall_s,
            misses.join(", "),
            hits.join(", "),
            p.warm.json()
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"chaos\": {{\"backends\": 2, \"replayed\": {}, \"failed\": {}, \
         \"failovers\": {}}}",
        chaos.replayed, chaos.failed, chaos.failovers
    );
    json.push_str("}\n");

    write_report(out, out_path, &json)?;

    // The CI gates.
    for p in &points {
        let total: u64 = p.shard_misses.iter().sum();
        if total != KEY_COUNT as u64 {
            return Err(format!(
                "{} backends solved {} keys for {} distinct requests — \
                 shard caches are not disjoint",
                p.backends, total, KEY_COUNT
            )
            .into());
        }
        if p.backends > 1 && p.shard_hits.contains(&0) {
            return Err(format!(
                "a shard in the {}-backend cluster served zero warm hits — \
                 the ring is not spreading keys: {:?}",
                p.backends, p.shard_hits
            )
            .into());
        }
    }
    let rps_1 = points[0].warm_rps;
    let rps_2 = points[1].warm_rps;
    if rps_2 < 1.5 * rps_1 {
        return Err(format!(
            "two backends delivered {rps_2:.0} req/s vs {rps_1:.0} req/s on one — \
             under the 1.5x scaling gate"
        )
        .into());
    }
    if chaos.failed > 0 {
        return Err(format!(
            "{} of {} replayed requests failed through a backend kill — \
             failover regressed",
            chaos.failed, chaos.replayed
        )
        .into());
    }
    if chaos.failovers == 0 {
        return Err("the chaos pass booked zero failovers — the kill was not exercised".into());
    }
    Ok(())
}
