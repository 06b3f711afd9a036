//! Chaos loopback suite: a live daemon on 127.0.0.1 with deterministic
//! fault injection armed, hammered by real TCP clients.
//!
//! What this binary pins, per the resilience contract:
//!
//! * the daemon **never exits** under injected solver panics, worker
//!   panics, severed connections, or overload — every test ends with a
//!   healthy `/healthz`;
//! * **non-faulted responses stay bit-identical** to direct `Engine`
//!   calls — fault firing is counter-based, so which requests are struck
//!   is knowable in advance;
//! * **every injected fault is visible in `/metrics`**, alongside the
//!   matching recovery counter;
//! * **retrying clients eventually succeed**: sheds, transient errors,
//!   and severed transports are absorbed by the backoff policy.
//!
//! Tests serialize on one mutex (shared convention with the loopback
//! suite): fault counters and the process-wide instrumentation are then
//! attributable to one test at a time.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use soctam_core::engine::Engine;
use soctam_core::fault::FaultPlan;
use soctam_core::protocol::{self, benchmark_resolver};
use soctam_server::client::{self, RetryPolicy, RetryingClient};
use soctam_server::exposition::Scrape;
use soctam_server::{Server, ServerConfig};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A cheap request every chaos test hammers (a bounds computation: no
/// scheduling, so injected latency dominates service time).
const LIGHT: &str = "bounds d695 --widths 16";

/// What the wire MUST return for a non-faulted request: the same parser
/// and renderer over a direct, uncached engine call.
fn direct_response(line: &str) -> String {
    let engine = Engine::new();
    let mut resolver = benchmark_resolver();
    let req = protocol::parse_request(line, &mut resolver).expect("test request parses");
    protocol::render_result(&req, &engine.serve_one(&req))
}

fn server(cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", cfg).expect("ephemeral loopback bind")
}

fn plan(text: &str) -> Option<Arc<FaultPlan>> {
    Some(Arc::new(FaultPlan::parse(text).expect("test plan parses")))
}

/// Silences the default panic-hook report for *injected* panics while
/// held (they are the point of these tests, not noise worth printing);
/// anything else still reports. Restores the default hook on drop.
struct QuietPanics;

fn quiet_injected_panics() -> QuietPanics {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.to_string().contains("injected fault") {
            prev(info);
        }
    }));
    QuietPanics
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        // Restoring from a panicking thread would itself panic (the hook
        // is locked during a panic) — and a panic in a destructor during
        // cleanup aborts the whole test binary.
        if !std::thread::panicking() {
            let _ = std::panic::take_hook(); // back to the default hook
        }
    }
}

#[test]
fn injected_solver_panics_fail_only_the_struck_requests() {
    let _guard = serialize();
    let _quiet = quiet_injected_panics();
    let want = direct_response(LIGHT);
    // No result cache: every request solves, so the strike pattern over
    // the wire is exactly the spec's modulus.
    let server = server(ServerConfig {
        cache_capacity: 0,
        fault_plan: plan("solve:panic:every=3"),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut conn = client::Connection::connect(addr).expect("connect");
    for occurrence in 1..=9u64 {
        let got = conn.request(LIGHT).expect("connection survives the panic");
        if occurrence % 3 == 0 {
            assert!(
                got.contains("\"transient\": true") && got.contains("solver panicked (recovered)"),
                "occurrence {occurrence} should be a recovered panic: {got}"
            );
        } else {
            assert_eq!(got, want, "non-faulted occurrence {occurrence} diverged");
        }
    }

    let metrics = Scrape::parse(&server.metrics()).expect("strict /metrics");
    assert_eq!(
        metrics.value("soctam_fault_injected_total{fault=\"solve:panic\"}"),
        Some(3.0)
    );
    assert_eq!(
        metrics.value("soctam_solver_panics_recovered_total"),
        Some(3.0),
        "every injection shows up as a recovery"
    );
    let (status, body) = client::http_get(addr, "/healthz").expect("healthz");
    assert!(status.contains("200"), "daemon still healthy: {status}");
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn overload_sheds_excess_connections_and_retrying_clients_all_succeed() {
    let _guard = serialize();
    let want = direct_response(LIGHT);
    // One worker, a one-slot queue, and 25 ms of injected latency per
    // request: eight simultaneous clients are offered load far over
    // capacity, so most first attempts are shed.
    let server = server(ServerConfig {
        threads: 1,
        max_pending: 1,
        fault_plan: plan("io:latency=25ms"),
        ..ServerConfig::default()
    });
    server.warm_from_text(LIGHT); // service time ≈ injected latency only
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for seed in 0..8u64 {
            let want = &want;
            scope.spawn(move || {
                let policy = RetryPolicy {
                    retries: 40,
                    backoff: Duration::from_millis(10),
                    seed,
                };
                let mut client = RetryingClient::new(addr, policy).expect("resolve");
                let got = client.request(LIGHT).expect("eventual success");
                assert_eq!(
                    &got, want,
                    "a shed request, once admitted, answers identically"
                );
            });
        }
    });

    let metrics = Scrape::parse(&server.metrics()).expect("strict /metrics");
    assert!(
        metrics.value("soctam_shed_total") > Some(0.0),
        "offered load over capacity must shed: {metrics:?}"
    );
    assert_eq!(metrics.value("soctam_queue_depth"), Some(0.0));
    let (status, _) = client::http_get(addr, "/healthz").expect("healthz");
    assert!(status.contains("200"), "drained daemon healthy: {status}");
    server.shutdown();
}

#[test]
fn saturation_degrades_healthz_and_sheds_carry_structured_busy_answers() {
    let _guard = serialize();
    let want = direct_response(LIGHT);
    // One worker pinned for >1 s per request (solve-site latency, cache
    // off) and a one-slot queue: occupying both saturates the daemon for
    // long enough to probe it deterministically.
    let server = server(ServerConfig {
        threads: 1,
        max_pending: 1,
        cache_capacity: 0,
        fault_plan: plan("solve:latency=1200ms"),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        let slow_responses: Vec<_> = (0..2)
            .map(|_| {
                let handle = scope.spawn(move || {
                    let mut conn = client::Connection::connect(addr).expect("connect");
                    conn.request(LIGHT).expect("slow but served")
                });
                // Let this connection reach the worker (first) or the
                // queue (second) before offering the next.
                std::thread::sleep(Duration::from_millis(300));
                handle
            })
            .collect();

        // Worker busy + queue full: HTTP probes answer 503 and protocol
        // probes get the one-line busy object, straight from the shed
        // path — the daemon stays responsive *about* being overloaded.
        let (status, body) = client::http_get(addr, "/healthz").expect("shed healthz");
        assert!(status.contains("503"), "saturated healthz: {status}");
        assert!(body.contains("busy"), "{body}");
        let mut probe = client::Connection::connect(addr).expect("probe connect");
        let busy = probe.request(LIGHT).expect("busy answer");
        assert!(
            !client::response_ok(&busy)
                && client::response_busy(&busy)
                && client::is_retryable_response(&busy),
            "structured shed answer: {busy}"
        );

        for handle in slow_responses {
            assert_eq!(
                handle.join().expect("no panic"),
                want,
                "admitted requests are stalled, never corrupted"
            );
        }
    });

    let (status, body) = client::http_get(addr, "/healthz").expect("healthz");
    assert!(status.contains("200"), "drained daemon healthy: {status}");
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn severed_connections_are_absorbed_by_the_retry_policy() {
    let _guard = serialize();
    let want = direct_response(LIGHT);
    let server = server(ServerConfig {
        fault_plan: plan("io:error:every=4"),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut client =
        RetryingClient::new(addr, RetryPolicy::new(5, Duration::from_millis(5))).expect("resolve");
    for _ in 0..8 {
        let got = client.request(LIGHT).expect("retries absorb the sever");
        assert_eq!(got, want);
    }
    // Deterministic arithmetic: 8 successes need 10 request-line
    // occurrences (the 4th and 8th are severed mid-request), so the
    // client retried exactly twice and the plan counted exactly two
    // injections.
    assert_eq!(client.retried(), 2);
    assert_eq!(
        Scrape::parse(&server.metrics())
            .expect("strict /metrics")
            .value("soctam_fault_injected_total{fault=\"io:error\"}"),
        Some(2.0)
    );
    server.shutdown();
}

#[test]
fn worker_killing_panics_are_respawned_and_service_continues() {
    let _guard = serialize();
    let _quiet = quiet_injected_panics();
    let want = direct_response(LIGHT);
    let server = server(ServerConfig {
        threads: 2,
        fault_plan: plan("io:panic:every=5"),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut client =
        RetryingClient::new(addr, RetryPolicy::new(8, Duration::from_millis(5))).expect("resolve");
    for _ in 0..12 {
        let got = client.request(LIGHT).expect("respawned pool keeps serving");
        assert_eq!(got, want);
    }
    // Deterministic arithmetic: 12 successes need 14 request-line
    // occurrences — the 5th and 10th each killed a worker.
    assert_eq!(client.retried(), 2);

    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let metrics = Scrape::parse(&server.metrics()).expect("strict /metrics");
        let workers = metrics.value("soctam_worker_threads");
        if workers == Some(2.0) {
            assert_eq!(metrics.value("soctam_worker_panics_total"), Some(2.0));
            assert_eq!(
                metrics.value("soctam_fault_injected_total{fault=\"io:panic\"}"),
                Some(2.0)
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker pool never recovered to full strength:\n{metrics:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, body) = client::http_get(addr, "/healthz").expect("healthz");
    assert!(
        status.contains("200"),
        "daemon survives dead workers: {status}"
    );
    assert_eq!(body, "ok\n");
    server.shutdown();
}

#[test]
fn transient_answers_keep_the_connection_for_their_retries() {
    let _guard = serialize();
    let _quiet = quiet_injected_panics();
    // Every solve panics (recovered): every attempt gets a retryable
    // `"transient": true` answer — delivered over a perfectly healthy
    // keep-alive connection, which the client must keep. Only sheds and
    // transport failures close the socket.
    let server = server(ServerConfig {
        cache_capacity: 0,
        fault_plan: plan("solve:panic"),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut client =
        RetryingClient::new(addr, RetryPolicy::new(3, Duration::from_millis(1))).expect("resolve");
    let response = client.request(LIGHT).expect("final transient answer");
    assert!(client::is_retryable_response(&response), "{response}");
    assert_eq!(client.retried(), 3, "the full retry budget was spent");
    // Four attempts, one connection: a transient answer on a live socket
    // must not force a reconnect per retry.
    assert_eq!(
        Scrape::parse(&server.metrics())
            .expect("strict /metrics")
            .value("soctam_connections_total"),
        Some(1.0),
        "transient retries reconnected"
    );
    server.shutdown();
}

#[test]
fn queue_depth_gauge_is_zeroed_when_shutdown_discards_queued_connections() {
    let _guard = serialize();
    let _quiet = quiet_injected_panics();
    // The one worker reads a request, stalls 500 ms on injected latency,
    // then dies to an injected panic — with the shutdown flag already up,
    // so no respawn. Two more connections sit in the pending queue the
    // whole time and are dropped unserved when the channel closes; the
    // gauge must not keep counting them on the final scrape.
    let server = server(ServerConfig {
        threads: 1,
        fault_plan: plan("io:latency=500ms,io:panic"),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let probe = server.metrics_probe();

    let mut stalled = client::Connection::connect(addr).expect("connect");
    let pump = std::thread::spawn(move || {
        let _ = stalled.request(LIGHT); // severed mid-stall: Err is expected
    });
    let _queued_a = client::Connection::connect(addr).expect("connect");
    let _queued_b = client::Connection::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(2);
    let queue_depth = || {
        Scrape::parse(&server.metrics())
            .expect("strict /metrics")
            .value("soctam_queue_depth")
    };
    while queue_depth() < Some(2.0) {
        assert!(Instant::now() < deadline, "queued connections never showed");
        std::thread::sleep(Duration::from_millis(5));
    }

    server.shutdown(); // during the stall: both queued connections die queued
    pump.join().expect("client thread");
    assert_eq!(
        Scrape::parse(&probe.render())
            .expect("strict /metrics")
            .value("soctam_queue_depth"),
        Some(0.0),
        "shutdown must drain the gauge over discarded queued connections"
    );
}
