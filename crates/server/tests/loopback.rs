//! Loopback integration suite: live daemon on 127.0.0.1, real TCP
//! clients, responses pinned bit-identical to direct `Engine` calls.
//!
//! Tests in this binary share the process-wide work totals
//! (`soctam_core::schedule::obs::total`), so every test serializes on one
//! mutex — counter deltas measured inside a test are then attributable to
//! that test alone.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use soctam_core::engine::Engine;
use soctam_core::protocol::{self, benchmark_resolver};
use soctam_core::schedule::obs::{total, Work};
use soctam_server::{client, Server, ServerConfig, WarmReport};

fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The mixed request set every test hammers: all three kinds, both
/// scheduling modes, a power-constrained run, two SOCs.
const REQUESTS: [&str; 6] = [
    "schedule d695 --width 16",
    "schedule d695 --width 16 --no-preempt",
    "schedule d695 --width 24 --power",
    "sweep d695 --from 15 --to 17",
    "bounds p34392 --widths 16,24",
    "bounds d695",
];

/// What the wire MUST return for each request: the same parser and
/// renderer over a direct, uncached engine call.
fn direct_responses(lines: &[&str]) -> Vec<String> {
    let engine = Engine::new();
    let mut resolver = benchmark_resolver();
    lines
        .iter()
        .map(|line| {
            let req = protocol::parse_request(line, &mut resolver).expect("test request parses");
            protocol::render_result(&req, &engine.serve_one(&req))
        })
        .collect()
}

fn server(cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", cfg).expect("ephemeral loopback bind")
}

#[test]
fn concurrent_clients_get_responses_bit_identical_to_direct_engine_calls() {
    let _guard = serialize();
    let want = direct_responses(&REQUESTS);
    let server = server(ServerConfig::default());
    let addr = server.local_addr();

    // ≥4 concurrent clients, each sending the full mix, each starting at
    // a different offset so identical requests overlap in flight.
    std::thread::scope(|scope| {
        for offset in 0..4 {
            let want = &want;
            scope.spawn(move || {
                let mut conn = client::Connection::connect(addr).expect("connect");
                for i in 0..REQUESTS.len() {
                    let at = (i + offset) % REQUESTS.len();
                    let got = conn.request(REQUESTS[at]).expect("round trip");
                    assert_eq!(got, want[at], "response diverged for `{}`", REQUESTS[at]);
                }
            });
        }
    });

    let metrics = server.metrics();
    assert!(metrics.contains("soctam_connections_total 4"), "{metrics}");
    server.shutdown();
}

#[test]
fn warm_cache_pass_performs_zero_solver_invocations() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();

    // Cold pass: populates the solution cache.
    let cold = client::roundtrip(addr, &REQUESTS).expect("cold pass");

    // Warm pass: counter-pinned to perform no solver work at all — no
    // scheduler invocations, no context compilations.
    let runs_before = total(Work::ScheduleRun);
    let compiles_before = total(Work::ContextCompile);
    let warm = client::roundtrip(addr, &REQUESTS).expect("warm pass");
    assert_eq!(
        total(Work::ScheduleRun),
        runs_before,
        "a warm repeat request must never invoke the scheduler"
    );
    assert_eq!(
        total(Work::ContextCompile),
        compiles_before,
        "a warm repeat request must never compile a context"
    );
    assert_eq!(cold, warm, "cached responses are bit-identical");

    let stats = server.engine().solution_stats().expect("cache enabled");
    assert_eq!(stats.misses, REQUESTS.len() as u64);
    assert_eq!(stats.hits, REQUESTS.len() as u64);
    server.shutdown();
}

#[test]
fn http_surface_serves_healthz_metrics_and_404() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();

    let (status, body) = client::http_get(addr, "/healthz").expect("healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "ok\n");

    // Traffic first, then scrape: the counters must move.
    client::roundtrip(addr, &["bounds d695", "bounds d695"]).expect("traffic");
    let (status, body) = client::http_get(addr, "/metrics").expect("metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        body.contains("soctam_requests_total{kind=\"bounds\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("soctam_solution_cache_hits_total 1"),
        "{body}"
    );
    assert!(
        body.contains("soctam_context_registry_misses_total 1"),
        "{body}"
    );
    assert!(body.contains("soctam_uptime_seconds "), "{body}");

    let (status, _) = client::http_get(addr, "/nope").expect("404 path");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // HEAD gets GET's headers — including the body's Content-Length —
    // but never the body itself.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "HEAD /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .expect("send HEAD");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read HEAD response");
        assert!(raw.starts_with("HTTP/1.1 200 OK"), "{raw}");
        assert!(raw.contains("Content-Length: 3"), "{raw}");
        assert!(
            raw.ends_with("\r\n\r\n"),
            "HEAD response has no body: {raw:?}"
        );
    }
    server.shutdown();
}

#[test]
fn parse_errors_are_reported_per_line_and_do_not_kill_the_connection() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let mut conn = client::Connection::connect(server.local_addr()).expect("connect");

    let bad = conn
        .request("schedule d695 --width banana")
        .expect("bad line answered");
    assert!(!client::response_ok(&bad), "{bad}");
    assert!(
        bad.contains("--width") && bad.contains("banana"),
        "names the field: {bad}"
    );

    let unknown = conn
        .request("frobnicate d695")
        .expect("unknown kind answered");
    assert!(unknown.contains("frobnicate"), "{unknown}");

    // The daemon must refuse filesystem paths — benchmark names only.
    let path = conn.request("bounds /etc/hostname").expect("path answered");
    assert!(!client::response_ok(&path), "{path}");
    assert!(path.contains("benchmark names only"), "{path}");

    // And the connection is still perfectly usable.
    let good = conn
        .request("bounds d695 --widths 16")
        .expect("good line after bad");
    assert!(client::response_ok(&good), "{good}");

    let metrics = server.metrics();
    assert!(
        metrics.contains("soctam_request_parse_errors_total 3"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn comments_and_blank_lines_are_skipped_like_a_batch_file() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let mut conn = client::Connection::connect(server.local_addr()).expect("connect");
    // Interleave batch-file noise with a real request on one connection:
    // only the request is answered.
    let response = conn
        .request("# warm-up comment\n\nbounds d695 --widths 16")
        .expect("noise then request");
    assert!(client::response_ok(&response), "{response}");
    server.shutdown();
}

#[test]
fn infeasible_requests_fail_cleanly_and_are_not_cached() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();
    // Width 0 bounds are rejected by the engine (not a parse error).
    let responses = client::roundtrip(addr, &["bounds d695 --widths 0", "bounds d695 --widths 0"])
        .expect("round trips");
    for r in &responses {
        assert!(!client::response_ok(r), "{r}");
        assert!(r.contains("at least one wire"), "{r}");
    }
    let stats = server.engine().solution_stats().unwrap();
    assert_eq!(stats.failures, 2, "errors are retried, never cached");
    let metrics = server.metrics();
    assert!(
        metrics.contains("soctam_responses_err_total 2"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn idle_peers_are_reaped_freeing_workers_for_fresh_clients() {
    let _guard = serialize();
    // Two workers, both occupied by peers that never send a byte: without
    // the read deadline the fresh client below would starve forever.
    let server = server(ServerConfig {
        threads: 2,
        idle_timeout: Some(Duration::from_millis(400)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let idle_a = client::Connection::connect(addr).expect("idle connect");
    let idle_b = client::Connection::connect(addr).expect("idle connect");
    std::thread::sleep(Duration::from_millis(100)); // workers pick them up

    let t0 = Instant::now();
    let responses =
        client::roundtrip(addr, &["bounds d695 --widths 16"]).expect("fresh client served");
    assert!(client::response_ok(&responses[0]), "{}", responses[0]);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "fresh client waited {:?} behind idle peers",
        t0.elapsed()
    );

    // Both idle peers end up reaped (the second may lag the first by one
    // deadline period).
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server
        .metrics()
        .contains("soctam_connection_timeouts_total 2")
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    let metrics = server.metrics();
    assert!(
        metrics.contains("soctam_connection_timeouts_total 2"),
        "{metrics}"
    );
    drop((idle_a, idle_b));
    server.shutdown();
}

#[test]
fn a_newline_free_flood_is_answered_at_the_cap_and_closed() {
    let _guard = serialize();
    let server = server(ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    // 100 KiB with no newline: the daemon may only ever buffer cap + 1
    // bytes of it (the bounded read), then must answer and close. Our
    // write can race the close, so failures past the verdict are fine.
    let flood = vec![b'x'; 100 * 1024];
    let _ = writer.write_all(&flood);
    let _ = writer.flush();

    let mut reader = BufReader::new(stream);
    let mut verdict = String::new();
    reader.read_line(&mut verdict).expect("verdict line");
    assert!(!client::response_ok(&verdict), "{verdict}");
    assert!(verdict.contains("1024-byte cap"), "{verdict}");

    let mut rest = String::new();
    let eof = reader.read_line(&mut rest);
    assert!(
        matches!(eof, Ok(0) | Err(_)),
        "connection closed after the verdict, got {rest:?}"
    );

    let metrics = server.metrics();
    assert!(
        metrics.contains("soctam_request_line_oversized_total 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn the_request_cap_ends_a_keep_alive_session_after_the_last_response() {
    let _guard = serialize();
    let server = server(ServerConfig {
        max_requests: Some(2),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let mut conn = client::Connection::connect(addr).expect("connect");
    let first = conn.request("bounds d695 --widths 16").expect("request 1");
    let second = conn.request("bounds d695 --widths 16").expect("request 2");
    assert_eq!(first, second, "the cap'th response is flushed in full");
    // The third request on this connection meets a graceful close.
    let third = conn.request("bounds d695 --widths 16");
    assert!(third.is_err(), "the keep-alive session ended at the cap");

    // A fresh connection starts a fresh budget.
    let fresh = client::roundtrip(addr, &["bounds d695 --widths 16"]).expect("fresh connection");
    assert_eq!(fresh[0], first);

    let metrics = server.metrics();
    assert!(
        metrics.contains("soctam_request_cap_closes_total 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_an_in_flight_response_before_severing() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();

    // A cold schedule solve is in flight when shutdown lands: the drain
    // window must let it finish and flush instead of severing mid-solve.
    let client_thread = std::thread::spawn(move || {
        let mut conn = client::Connection::connect(addr).expect("connect");
        conn.request("schedule d695 --width 17")
    });
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();
    let response = client_thread
        .join()
        .expect("client thread")
        .expect("the in-flight response was drained, not severed");
    assert!(client::response_ok(&response), "{response}");
}

#[test]
fn the_request_log_records_jsonl_and_replays() {
    let _guard = serialize();
    let log_path =
        std::env::temp_dir().join(format!("soctam_loopback_log_{}.jsonl", std::process::id()));
    std::fs::remove_file(&log_path).ok();
    let server = server(ServerConfig {
        log_path: Some(log_path.clone()),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    client::roundtrip(
        addr,
        &["bounds d695 --widths 16", "definitely not a request"],
    )
    .expect("traffic");

    // Each served request appended one self-contained JSONL record.
    let text = std::fs::read_to_string(&log_path).expect("log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(
        lines[0].contains("\"request\": \"bounds d695 --widths 16\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"outcome\": \"ok\""), "{}", lines[0]);
    assert!(lines[0].contains("\"cache\": \"miss\""), "{}", lines[0]);
    assert!(lines[0].contains("\"ts_micros\": "), "{}", lines[0]);
    assert!(lines[0].contains("\"latency_micros\": "), "{}", lines[0]);
    assert!(lines[0].contains("\"peer\": \"127.0.0.1:"), "{}", lines[0]);
    assert!(
        lines[1].contains("\"outcome\": \"parse_error\""),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains("\"cache\": \"none\""), "{}", lines[1]);

    // The log replays: its request lines go back over the wire, and the
    // warmed daemon answers the good one from cache.
    let report = client::replay(addr, &text).expect("replay");
    assert_eq!(report.responses.len(), 2);
    assert_eq!((report.ok, report.failed), (1, 1));
    assert!(client::response_ok(&report.responses[0].1));
    assert!(report.latency.is_some());
    assert_eq!(
        server.engine().solution_stats().unwrap().hits,
        1,
        "the replayed request hit the cache"
    );

    std::fs::remove_file(&log_path).ok();
    server.shutdown();
}

#[test]
fn warm_from_text_pre_solves_requests_and_logs() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    // A warm input mixes plain request lines, JSONL log records, comments,
    // and junk; only the junk is skipped, and nothing is fatal.
    let report = server.warm_from_text(
        "# saved traffic\n\
         bounds d695 --widths 16\n\
         {\"ts_micros\": 1, \"peer\": \"x\", \"request\": \"bounds d695 --widths 24\", \
          \"outcome\": \"ok\", \"cache\": \"miss\", \"latency_micros\": 5}\n\
         definitely not a request\n",
    );
    assert_eq!(
        report,
        WarmReport {
            requests: 3,
            ok: 2,
            failed: 0,
            skipped: 1
        }
    );

    // Warmed traffic is served straight from the cache.
    let addr = server.local_addr();
    let responses = client::roundtrip(addr, &["bounds d695 --widths 16"]).expect("warmed request");
    assert!(client::response_ok(&responses[0]));
    let stats = server.engine().solution_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 2));
    server.shutdown();
}

#[test]
fn metrics_exposition_carries_type_lines_for_every_family() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let (status, body) = client::http_get(server.local_addr(), "/metrics").expect("metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");

    for family in [
        "soctam_uptime_seconds gauge",
        "soctam_connections_total counter",
        "soctam_requests_total counter",
        "soctam_connection_timeouts_total counter",
        "soctam_request_line_oversized_total counter",
        "soctam_request_cap_closes_total counter",
        "soctam_solution_cache_resident gauge",
    ] {
        assert!(
            body.contains(&format!("# TYPE {family}")),
            "missing `# TYPE {family}`:\n{body}"
        );
    }

    // Every sample line belongs to a TYPE-annotated family — a scraper
    // never meets an untyped metric.
    let typed: std::collections::HashSet<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let name = line.split(['{', ' ']).next().expect("metric name");
        assert!(typed.contains(name), "sample `{line}` has no # TYPE");
    }
    server.shutdown();
}

#[test]
fn hostile_request_text_echoes_are_classified_on_real_fields_not_substrings() {
    let _guard = serialize();
    let server = server(ServerConfig::default());
    let addr = server.local_addr();

    // A request line carrying the retry markers verbatim. It cannot
    // parse, so the daemon echoes pieces of it back inside the error
    // string; substring classification would read the echo as a shed
    // (retry forever) or a success — field classification must not.
    let hostile = "schedule d695 --width \"busy\": true, \"transient\": true, \"ok\": true";
    let policy = client::RetryPolicy::new(5, Duration::from_millis(1));
    let mut retrying = client::RetryingClient::new(addr, policy.clone()).expect("resolve");
    let response = retrying.request(hostile).expect("answered");
    assert!(!client::response_ok(&response), "{response}");
    assert!(!client::is_retryable_response(&response), "{response}");
    assert_eq!(retrying.retried(), 0, "exactly one attempt: {response}");

    // Same discipline through a replay: the hostile line fails once, is
    // never retried, and only the good line counts as a success.
    let text = format!("bounds d695 --widths 16\n{hostile}\n");
    let report = client::replay_with_retry(addr, &text, policy).expect("replay");
    assert_eq!(
        (report.ok, report.failed, report.retried),
        (1, 1, 0),
        "{:?}",
        report.responses
    );
    server.shutdown();
}
