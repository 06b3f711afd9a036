//! Cluster loopback suite: real backend daemons on 127.0.0.1 behind a
//! real `Balancer` front, driven by real TCP clients.
//!
//! What this binary pins:
//!
//! * **transparency** — responses through the front are bit-identical to
//!   direct daemon (and direct engine) answers;
//! * **affinity** — one request key always lands on one backend, so
//!   shard caches stay hot and disjoint;
//! * **failover** — killing a backend diverts its keys to ring
//!   successors with zero client-visible failures, and the failover
//!   counter says so;
//! * **rejoin** — a backend that comes (back) up is probed healthy and
//!   takes its keys home;
//! * **placement** — a key's backend depends on the backend's position in
//!   the front's list, not on the port it bound.
//!
//! Tests serialize on one mutex (shared convention with the loopback and
//! chaos suites).

use std::net::{SocketAddr, TcpListener};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use soctam_core::engine::Engine;
use soctam_core::protocol::{self, benchmark_resolver};
use soctam_server::balance::{Balancer, BalancerConfig};
use soctam_server::client::{self, Connection};
use soctam_server::exposition::Scrape;
use soctam_server::{Server, ServerConfig};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Distinct cheap request keys (each is its own solution-cache entry, so
/// each owns its own ring point).
fn keys(n: usize) -> Vec<String> {
    (1..=n)
        .map(|w| format!("bounds d695 --widths {w}"))
        .collect()
}

/// What the wire MUST return, balancer or not: the shared parser and
/// renderer over a direct, uncached engine call.
fn direct_response(line: &str) -> String {
    let engine = Engine::new();
    let mut resolver = benchmark_resolver();
    let req = protocol::parse_request(line, &mut resolver).expect("test request parses");
    protocol::render_result(&req, &engine.serve_one(&req))
}

/// A backend sized for pooled fronts: more workers than the front's
/// pooled connections, so probes and scrapes always find a free worker.
fn backend() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral backend bind")
}

fn front(backends: &[SocketAddr], cfg: BalancerConfig) -> Balancer {
    Balancer::bind("127.0.0.1:0", backends, cfg).expect("ephemeral front bind")
}

/// A config for tests that exercise the *failover* path, not the prober:
/// probes are too infrequent to interfere.
fn failover_cfg() -> BalancerConfig {
    BalancerConfig {
        probe_interval: Duration::from_secs(30),
        retries: 1,
        backoff: Duration::from_millis(1),
        ..BalancerConfig::default()
    }
}

#[test]
fn requests_through_the_front_are_bit_identical_and_key_affine() {
    let _guard = serialize();
    let (backend_a, backend_b) = (backend(), backend());
    let addrs = [backend_a.local_addr(), backend_b.local_addr()];
    let front = front(&addrs, failover_cfg());
    let keys = keys(16);

    // Three passes of every key through one front connection: responses
    // must match direct engine calls bit for bit, every pass.
    let want: Vec<String> = keys.iter().map(|k| direct_response(k)).collect();
    let mut conn = Connection::connect(front.local_addr()).expect("front connect");
    for pass in 0..3 {
        for (key, want) in keys.iter().zip(&want) {
            let got = conn.request(key).expect("proxied answer");
            assert_eq!(&got, want, "pass {pass}, key `{key}` diverged");
        }
    }

    // Affinity: 16 keys × 3 passes landed *somewhere*, and repeats never
    // moved — each backend solved each of its keys exactly once, so
    // misses sum to the key count (disjoint shards) and hits make up the
    // rest.
    let (stats_a, stats_b) = (
        backend_a.engine().solution_stats().unwrap(),
        backend_b.engine().solution_stats().unwrap(),
    );
    assert_eq!(
        stats_a.misses + stats_b.misses,
        16,
        "each key solved on exactly one shard: {stats_a:?} {stats_b:?}"
    );
    assert_eq!(stats_a.hits + stats_b.hits, 32, "repeat passes all hit");
    assert!(
        stats_a.misses > 0 && stats_b.misses > 0,
        "16 keys should spread over both shards: {stats_a:?} {stats_b:?}"
    );

    // The front's own books agree.
    let metrics = Scrape::parse(&front.metrics()).expect("strict front /metrics");
    let routed = |addr: SocketAddr| {
        metrics
            .value(&format!(
                "soctam_balance_routed_total{{backend=\"{addr}\"}}"
            ))
            .expect("a routed sample per backend")
    };
    assert_eq!(routed(addrs[0]) + routed(addrs[1]), 48.0);
    assert_eq!(metrics.value("soctam_balance_failover_total"), Some(0.0));

    front.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

/// The position in `addrs` (the front's backend list) that answered each
/// key, read off the front's `soctam_balance_routed_total` series.
fn routed_positions(front: &Balancer, addrs: &[SocketAddr], keys: &[String]) -> Vec<usize> {
    let routed = || -> Vec<f64> {
        let scrape = Scrape::parse(&front.metrics()).expect("strict front /metrics");
        addrs
            .iter()
            .map(|addr| {
                scrape
                    .value(&format!(
                        "soctam_balance_routed_total{{backend=\"{addr}\"}}"
                    ))
                    .expect("a routed sample per backend")
            })
            .collect()
    };
    let mut conn = Connection::connect(front.local_addr()).expect("front connect");
    keys.iter()
        .map(|key| {
            let before = routed();
            conn.request(key).expect("proxied answer");
            let after = routed();
            let moved: Vec<usize> = (0..addrs.len())
                .filter(|&i| after[i] != before[i])
                .collect();
            assert_eq!(moved.len(), 1, "`{key}`: {before:?} -> {after:?}");
            moved[0]
        })
        .collect()
}

#[test]
fn keys_route_by_backend_position_not_address() {
    let _guard = serialize();
    // Two fronts over two backend pairs on different ephemeral ports: the
    // ring places backends by their position in the list, so both fronts
    // send each key to the same position.
    let backends: Vec<Server> = (0..4).map(|_| backend()).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    let (pair_a, pair_b) = addrs.split_at(2);
    let (front_a, front_b) = (front(pair_a, failover_cfg()), front(pair_b, failover_cfg()));
    let keys = keys(24);
    let at_a = routed_positions(&front_a, pair_a, &keys);
    let at_b = routed_positions(&front_b, pair_b, &keys);
    assert_eq!(at_a, at_b, "each key's position on both fronts");
    assert!(
        at_a.contains(&0) && at_a.contains(&1),
        "24 keys should spread over both positions: {at_a:?}"
    );

    front_a.shutdown();
    front_b.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn front_http_surface_rolls_up_backends_and_answers_parse_errors_locally() {
    let _guard = serialize();
    let (backend_a, backend_b) = (backend(), backend());
    let addrs = [backend_a.local_addr(), backend_b.local_addr()];
    let front = front(&addrs, failover_cfg());
    let front_addr = front.local_addr();

    let mut conn = Connection::connect(front_addr).expect("front connect");
    for key in keys(8) {
        assert!(client::response_ok(&conn.request(&key).expect("answer")));
    }
    // A parse error is answered by the front itself — never forwarded,
    // never counted against a backend.
    let garbage = conn.request("frobnicate d695").expect("parse error");
    assert!(!client::response_ok(&garbage), "{garbage}");
    assert!(garbage.contains("frobnicate"), "{garbage}");

    let (status, body) = client::http_get(front_addr, "/healthz").expect("front healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    let (status, metrics) = client::http_get(front_addr, "/metrics").expect("front metrics");
    assert!(status.contains("200"), "{status}");
    let scrape = Scrape::parse(&metrics).expect("strict front /metrics");
    assert_eq!(scrape.value("soctam_balance_backends"), Some(2.0));
    assert_eq!(scrape.value("soctam_balance_parse_errors_total"), Some(1.0));
    for addr in addrs {
        assert_eq!(
            scrape.value(&format!("soctam_balance_backend_up{{backend=\"{addr}\"}}")),
            Some(1.0)
        );
    }
    // The roll-up sums backend families: 8 proxied requests answered ok
    // across the two shards, none of them parse errors.
    assert_eq!(scrape.value("soctam_responses_ok_total"), Some(8.0));
    assert_eq!(scrape.value("soctam_request_parse_errors_total"), Some(0.0));
    assert!(
        metrics.contains("# TYPE soctam_balance_routed_total counter"),
        "front families carry TYPE lines:\n{metrics}"
    );

    front.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn the_front_rolls_up_latency_histograms_bucket_for_bucket() {
    let _guard = serialize();
    let (backend_a, backend_b) = (backend(), backend());
    let addrs = [backend_a.local_addr(), backend_b.local_addr()];
    let front = front(&addrs, failover_cfg());

    // Two passes of 8 keys through the front: one miss and one hit per
    // key, the keys spread over both shards by affinity.
    let mut conn = Connection::connect(front.local_addr()).expect("front connect");
    for _ in 0..2 {
        for key in keys(8) {
            assert!(client::response_ok(&conn.request(&key).expect("answer")));
        }
    }

    // Scrape each backend directly and sum its histogram samples by full
    // series name. Bucket counts are cumulative per backend, and sums of
    // cumulative counts are cumulative again — so the roll-up can (and
    // must) match series for series.
    let mut want: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    for addr in addrs {
        let (status, body) = client::http_get(addr, "/metrics").expect("backend metrics");
        assert!(status.contains("200"), "{status}");
        let scrape = Scrape::parse(&body).expect("strict backend /metrics");
        let family = scrape
            .family("soctam_request_latency_seconds")
            .expect("the latency histogram family");
        for sample in &family.samples {
            if sample.name().ends_with("_bucket") || sample.name().ends_with("_count") {
                *want.entry(sample.series.clone()).or_default() += sample.value;
            }
        }
    }
    assert!(!want.is_empty(), "backends exposed no latency histograms");

    let metrics = front.metrics();
    assert!(
        metrics.contains("# TYPE soctam_request_latency_seconds histogram"),
        "{metrics}"
    );
    let scrape = Scrape::parse(&metrics).expect("strict front /metrics");
    for (series, value) in &want {
        assert_eq!(
            scrape.value(series),
            Some(*value),
            "roll-up diverged for `{series}`"
        );
    }
    assert_eq!(
        scrape.value("soctam_request_latency_seconds_count{kind=\"bounds\",cache=\"miss\"}"),
        Some(8.0),
        "8 distinct keys solved exactly once across the shards"
    );

    // The front's own books: every proxied line timed, and the front
    // carries its prefixed build-info gauge next to the summed backend
    // one.
    assert_eq!(
        scrape.value("soctam_balance_proxy_latency_seconds_count"),
        Some(16.0)
    );
    assert!(
        metrics.contains("soctam_balance_build_info{version=\""),
        "{metrics}"
    );

    front.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn killing_a_backend_fails_over_with_zero_client_visible_failures() {
    let _guard = serialize();
    let (backend_a, backend_b) = (backend(), backend());
    let addrs = [backend_a.local_addr(), backend_b.local_addr()];
    let front = front(&addrs, failover_cfg());
    let keys = keys(12);
    let want: Vec<String> = keys.iter().map(|k| direct_response(k)).collect();

    // Warm every shard through the front, then kill one backend. The
    // prober is effectively off (30 s interval): every diverted key goes
    // through the failover path itself.
    let mut conn = Connection::connect(front.local_addr()).expect("front connect");
    for key in &keys {
        assert!(client::response_ok(&conn.request(key).expect("warm pass")));
    }
    backend_a.shutdown();

    for (key, want) in keys.iter().zip(&want) {
        let got = conn.request(key).expect("failover answer");
        assert_eq!(&got, want, "key `{key}` diverged after the kill");
    }

    let metrics = front.metrics();
    let scrape = Scrape::parse(&metrics).expect("strict front /metrics");
    assert!(
        scrape.value("soctam_balance_failover_total") > Some(0.0),
        "diverted keys must count as failovers:\n{metrics}"
    );
    assert_eq!(
        scrape.value(&format!(
            "soctam_balance_backend_up{{backend=\"{}\"}}",
            addrs[0]
        )),
        Some(0.0),
        "the dead backend is marked down by its transport failure"
    );
    assert_eq!(scrape.value("soctam_balance_unrouted_total"), Some(0.0));

    // The front stays healthy on one backend.
    let (status, _) = client::http_get(front.local_addr(), "/healthz").expect("healthz");
    assert!(status.contains("200"), "{status}");

    front.shutdown();
    backend_b.shutdown();
}

#[test]
fn a_backend_rejoins_once_the_prober_sees_healthz_recover() {
    let _guard = serialize();
    let backend_a = backend();
    // Reserve an address for the second backend without running one yet:
    // bind an ephemeral listener, note its address, drop it.
    let reserved = {
        let throwaway = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        throwaway.local_addr().expect("reserved addr")
    };
    let addrs = [backend_a.local_addr(), reserved];
    let front = front(
        &addrs,
        BalancerConfig {
            probe_interval: Duration::from_millis(50),
            retries: 0,
            backoff: Duration::ZERO,
            ..BalancerConfig::default()
        },
    );
    let keys = keys(16);

    // With the reserved address dead, everything is served by backend A
    // (its keys directly, the dead shard's by failover) and the prober
    // marks the dead address down.
    let mut conn = Connection::connect(front.local_addr()).expect("front connect");
    for key in &keys {
        assert!(client::response_ok(
            &conn.request(key).expect("one live shard")
        ));
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while front.backends_up() != [true, false] {
        assert!(
            Instant::now() < deadline,
            "prober never marked the dead address down: {:?}",
            front.backends_up()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Bring the second backend up on the reserved address; the prober
    // must mark it healthy again.
    let backend_b = Server::bind(reserved, ServerConfig::default()).expect("rejoin bind");
    let deadline = Instant::now() + Duration::from_secs(5);
    while front.backends_up() != [true, true] {
        assert!(
            Instant::now() < deadline,
            "prober never rejoined the recovered backend: {:?}",
            front.backends_up()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Its keys come home: the rejoined shard now answers (and solves)
    // the subset it owns.
    for key in &keys {
        assert!(client::response_ok(
            &conn.request(key).expect("rejoined pass")
        ));
    }
    let stats_b = backend_b.engine().solution_stats().unwrap();
    assert!(
        stats_b.misses > 0,
        "the rejoined backend should own some of 16 keys: {stats_b:?}"
    );

    front.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn a_saturated_front_sheds_http_with_503_and_protocol_lines_with_busy() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let _guard = serialize();
    let backend = backend();
    let front = front(
        &[backend.local_addr()],
        BalancerConfig {
            threads: 1,
            max_pending: 1,
            ..failover_cfg()
        },
    );
    let addr = front.local_addr();
    let value = |name: &str| {
        Scrape::parse(&front.metrics())
            .expect("strict front /metrics")
            .value(name)
    };
    let wait_for = |name: &str, want: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while value(name) != Some(want as f64) {
            assert!(Instant::now() < deadline, "{name} never reached {want}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // An idle connection holds the one worker, a second holds the one
    // queue slot: every later connection is shed.
    let _held_worker = TcpStream::connect(addr).expect("connect");
    wait_for("soctam_balance_connections_total", 1);
    wait_for("soctam_balance_queue_depth", 0);
    let _held_slot = TcpStream::connect(addr).expect("connect");
    wait_for("soctam_balance_queue_depth", 1);

    // An HTTP probe learns it is refused, and when to come back.
    let mut probe = TcpStream::connect(addr).expect("probe connect");
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: soctam\r\nConnection: close\r\n\r\n")
        .expect("probe write");
    let mut raw = String::new();
    probe.read_to_string(&mut raw).expect("shed answer");
    let (head, _) = raw.split_once("\r\n\r\n").expect("an HTTP response");
    assert!(head.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(head.lines().any(|h| h == "Retry-After: 1"), "{raw}");

    // A protocol peer gets the structured busy line.
    let mut conn = Connection::connect(addr).expect("protocol connect");
    let busy = conn.request(&keys(1)[0]).expect("busy answer");
    assert!(
        !client::response_ok(&busy) && client::response_busy(&busy),
        "structured shed answer: {busy}"
    );
    assert_eq!(value("soctam_balance_shed_total"), Some(2.0));

    front.shutdown();
    backend.shutdown();
}
