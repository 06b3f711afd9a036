//! Every line soctam emits parses strictly and keeps its key fields.
//!
//! Each emitter is read back through the one JSON reader
//! (`protocol::Json::parse`) or the one exposition reader
//! (`exposition::Scrape::parse`), never by substring:
//!
//! * `render_result` for each request kind, with ok, error, and transient
//!   outcomes, over the benchmark SOCs and over `soc::synth` SOCs whose
//!   names hold arbitrary characters (quotes, backslashes, control
//!   characters, non-ASCII);
//! * `render_parse_error` over arbitrary text;
//! * a loopback daemon's `--trace` responses, request-log records, and
//!   slow-log records;
//! * `LatencySummary::json` with NaN samples;
//! * daemon and front `/metrics`, and a front whose backend serves a
//!   malformed scrape (left out of the roll-up).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use soctam_core::engine::{Engine, EngineOp, EngineOutput, EngineRequest, EngineResult};
use soctam_core::protocol::{self, benchmark_resolver, request_flow, Json};
use soctam_core::schedule::ScheduleError;
use soctam_core::soc::synth::SynthConfig;
use soctam_core::soc::Soc;
use soctam_server::balance::{Balancer, BalancerConfig};
use soctam_server::client::{self, Connection, LatencySummary};
use soctam_server::exposition::{Kind, Scrape};
use soctam_server::{Server, ServerConfig};

/// Parses one emitted line strictly.
fn json(line: &str) -> Json<'_> {
    Json::parse(line).unwrap_or_else(|e| panic!("{e}:\n{line:?}"))
}

/// A character from an alphabet weighted toward what breaks hand-rolled
/// JSON: control characters, quotes, backslashes, and non-ASCII.
fn pick(code: u32) -> char {
    match code {
        0..=31 => char::from_u32(code).expect("a control character"),
        32..=39 => ['"', '\\', '/', '{', '}', '[', ':', ','][code as usize - 32],
        40..=47 => [
            '\u{7f}',
            '\u{e9}',
            '\u{2028}',
            '\u{1f600}',
            '\u{1d11e}',
            '\u{441}',
            ' ',
            '\t',
        ][code as usize - 40],
        _ => char::from(b'a' + (code % 26) as u8),
    }
}

fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..64, 0..16)
        .prop_map(|codes| codes.into_iter().map(pick).collect())
}

/// `soc` under the name `name`: the same cores and constraints.
fn renamed(soc: &Soc, name: &str) -> Soc {
    let mut out = Soc::new(name);
    for core in soc.cores() {
        out.add_core(core.clone());
    }
    for &(before, after) in soc.precedence() {
        out.add_precedence(before, after).expect("copied edge");
    }
    for &(a, b) in soc.concurrency() {
        out.add_concurrency(a, b).expect("copied edge");
    }
    out
}

/// Checks one rendered response against the request and outcome it
/// renders: every member a reader needs is present, typed, and equal to
/// what was computed.
fn check_rendered(req: &EngineRequest, result: &EngineResult) {
    let line = protocol::render_result(req, result);
    let response = json(&line);
    assert_eq!(response["soc"].as_str(), Some(req.soc.name()), "{line:?}");
    let widths: Vec<u64> = match &req.op {
        EngineOp::Schedule { width } => {
            assert_eq!(response["op"].as_str(), Some("schedule"));
            assert_eq!(response["width"].as_u64(), Some(u64::from(*width)));
            vec![u64::from(*width)]
        }
        EngineOp::Sweep { widths } => {
            assert_eq!(response["op"].as_str(), Some("sweep"));
            assert_eq!(
                response["from"].as_u64(),
                widths.first().map(|&w| u64::from(w))
            );
            assert_eq!(
                response["to"].as_u64(),
                widths.last().map(|&w| u64::from(w))
            );
            widths.iter().map(|&w| u64::from(w)).collect()
        }
        EngineOp::Bounds { widths } => {
            assert_eq!(response["op"].as_str(), Some("bounds"));
            let listed: Vec<u64> = response["widths"]
                .as_array()
                .expect("a widths array")
                .iter()
                .filter_map(Json::as_u64)
                .collect();
            assert_eq!(
                listed,
                widths.iter().map(|&w| u64::from(w)).collect::<Vec<_>>()
            );
            listed
        }
    };
    match result {
        Err(e) => {
            assert_eq!(response["ok"], Json::Bool(false), "{line:?}");
            assert_eq!(response["error"].as_str(), Some(e.to_string().as_str()));
            let transient = e.is_transient().then_some(&Json::Bool(true));
            assert_eq!(response.get("transient"), transient, "{line:?}");
        }
        Ok(output) => {
            assert_eq!(response["ok"], Json::Bool(true), "{line:?}");
            match output {
                EngineOutput::Schedule(run) => {
                    assert_eq!(response["makespan"].as_u64(), Some(run.schedule.makespan()));
                    assert_eq!(response["lower_bound"].as_u64(), Some(run.lower_bound));
                    assert_eq!(response["volume"].as_u64(), Some(run.volume));
                    assert!(
                        response["m"].as_u64().is_some() && response["slack"].as_u64().is_some()
                    );
                }
                EngineOutput::Sweep(points) => {
                    let rendered = response["points"].as_array().expect("a points array");
                    assert_eq!(rendered.len(), points.len());
                    for (json, point) in rendered.iter().zip(points) {
                        assert_eq!(json["width"].as_u64(), Some(u64::from(point.width)));
                        assert_eq!(json["time"].as_u64(), Some(point.time));
                        assert_eq!(json["volume"].as_u64(), Some(point.volume));
                        assert_eq!(json["lower_bound"].as_u64(), Some(point.lower_bound));
                    }
                }
                EngineOutput::Bounds(bounds) => {
                    let rendered: Vec<u64> = response["bounds"]
                        .as_array()
                        .expect("a bounds array")
                        .iter()
                        .filter_map(Json::as_u64)
                        .collect();
                    assert_eq!(&rendered, bounds);
                    assert_eq!(rendered.len(), widths.len());
                }
            }
        }
    }
}

/// Every request kind over `soc`, each rendered with its served outcome,
/// a request error, and a transient failure.
fn check_every_outcome(engine: &Engine, soc: &Arc<Soc>, message: &str) {
    let flow = request_flow(false, false);
    for req in [
        EngineRequest::schedule(Arc::clone(soc), flow.clone(), 12),
        EngineRequest::sweep(Arc::clone(soc), flow.clone(), vec![11, 12]),
        EngineRequest::bounds(Arc::clone(soc), flow.clone(), vec![8, 12, 16]),
    ] {
        check_rendered(&req, &engine.serve_one(&req));
        let error = ScheduleError::InvalidConfig {
            reason: message.to_owned(),
        };
        check_rendered(&req, &Err(error));
        let panic = ScheduleError::SolverPanic {
            message: message.to_owned(),
        };
        check_rendered(&req, &Err(panic));
    }
}

#[test]
fn benchmark_responses_parse_for_every_kind_and_outcome() {
    let engine = Engine::new();
    let mut resolver = benchmark_resolver();
    for line in [
        "schedule d695 --width 16",
        "schedule p22810 --width 32 --power --no-preempt",
        "sweep p34392 --from 30 --to 33",
        "sweep p93791 --from 16 --to 18 --power",
        "bounds p93791",
        "bounds d695 --widths 0",
    ] {
        let req = protocol::parse_request(line, &mut resolver).expect("parses");
        check_rendered(&req, &engine.serve_one(&req));
    }
    let d695 = resolver.get("d695").expect("d695");
    check_every_outcome(&engine, &d695, "a \"quoted\" \\ reason\n\u{1}");
}

#[test]
fn a_soc_name_with_a_control_character_renders_as_valid_json() {
    let synth = SynthConfig::new(3).generate(7);
    let soc = Arc::new(renamed(&synth, "bad\u{1}name"));
    check_every_outcome(&Engine::new(), &soc, "x");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthetic SOCs under arbitrary names: every kind and outcome.
    #[test]
    fn synthetic_socs_with_arbitrary_names_render_valid_json(
        name in arbitrary_text(),
        message in arbitrary_text(),
        seed in 0u64..1_000_000,
        cores in 2usize..5,
    ) {
        let soc = Arc::new(renamed(&SynthConfig::new(cores).generate(seed), &name));
        check_every_outcome(&Engine::new(), &soc, &message);
    }

    /// A parse error echoes arbitrary text, and still parses.
    #[test]
    fn parse_errors_over_arbitrary_text_parse(text in arbitrary_text()) {
        let line = protocol::render_parse_error(&text);
        let response = json(&line);
        prop_assert_eq!(response["ok"], Json::Bool(false));
        prop_assert_eq!(response["error"].as_str(), Some(text.as_str()));
        prop_assert_eq!(response.as_object().map(<[_]>::len), Some(2));
    }
}

#[test]
fn latency_summaries_with_nan_samples_parse() {
    let summary = LatencySummary::of_millis(vec![2.0, f64::NAN, 1.0]).expect("samples");
    let line = summary.json();
    let parsed = json(&line);
    assert_eq!(parsed["count"].as_u64(), Some(3));
    assert_eq!(parsed["p50_ms"], Json::Float(2.0));
    for key in ["mean_ms", "max_ms", "stddev_ms"] {
        assert_eq!(parsed[key], Json::Null, "{key}");
    }
}

#[test]
fn a_loopback_daemon_emits_strict_json_and_metrics() {
    let scratch = std::env::temp_dir().join(format!("soctam_emitted_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let (log, slow) = (scratch.join("requests.jsonl"), scratch.join("slow.jsonl"));
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            log_path: Some(log.clone()),
            slow_log: Some(Duration::ZERO),
            slow_log_path: Some(slow.clone()),
            max_line_bytes: 256,
            fault_plan: Some(Arc::new(
                soctam_core::fault::FaultPlan::parse("io:latency=1ms:every=1000")
                    .expect("plan parses"),
            )),
            ..ServerConfig::default()
        },
    )
    .expect("ephemeral loopback bind");
    let addr = server.local_addr();
    let requests = [
        "schedule d695 --width 16 --trace",
        "sweep d695 --from 16 --to 18 --trace",
        "bounds p34392 --widths 16,24 --trace",
        "schedule d695 --width 16 --trace",
        "frobnicate \"d695\"",
    ];
    let mut conn = Connection::connect(addr).expect("connect");
    for request in requests {
        let line = conn.request(request).expect("answered");
        let response = json(&line);
        if request.starts_with("frobnicate") {
            assert_eq!(response["ok"], Json::Bool(false));
            continue;
        }
        assert_eq!(response["ok"], Json::Bool(true), "{line}");
        let trace = &response["trace"];
        let total = trace["total_micros"].as_u64().expect("a total");
        let cache = trace["cache"].as_str().expect("a cache disposition");
        assert!(["hit", "miss"].contains(&cache), "{line}");
        let phases = trace["phases"].as_object().expect("a phases object");
        let names: Vec<&str> = phases.iter().map(|(phase, _)| phase.as_ref()).collect();
        assert_eq!(
            names,
            [
                "resolve",
                "cache_lookup",
                "context_compile",
                "menu_build",
                "sweep",
                "validate",
                "render",
                "proxy"
            ]
        );
        let sum: u64 = phases
            .iter()
            .filter_map(|(_, micros)| micros.as_u64())
            .sum();
        assert!(sum <= total, "{line}");
        for span in trace["spans"].as_array().expect("a span array") {
            assert!(span["phase"].as_str().is_some() && span["micros"].as_u64().is_some());
        }
        for counter in [
            "menu_builds",
            "constraint_compiles",
            "context_compiles",
            "schedule_runs",
        ] {
            assert!(
                trace["counters"][counter].as_u64().is_some(),
                "{counter}: {line}"
            );
        }
    }
    drop(conn);
    // An oversized line is logged without a `request` member.
    let mut flood = Connection::connect(addr).expect("connect");
    let verdict = flood
        .request(&"x".repeat(300))
        .expect("answered at the cap");
    assert_eq!(json(&verdict)["ok"], Json::Bool(false));
    drop(flood);

    let daemon_metrics = server.metrics();
    let daemon =
        Scrape::parse(&daemon_metrics).unwrap_or_else(|e| panic!("{e}:\n{daemon_metrics}"));
    assert_eq!(
        daemon
            .family("soctam_request_latency_seconds")
            .map(|f| f.kind),
        Some(Kind::Histogram)
    );
    assert_eq!(
        daemon.value("soctam_requests_total{kind=\"schedule\"}"),
        Some(2.0)
    );
    assert!(daemon.family("soctam_fault_injected_total").is_some());
    server.shutdown();

    let log_text = std::fs::read_to_string(&log).expect("request log");
    let records: Vec<Json> = log_text.lines().map(json).collect();
    assert_eq!(records.len(), requests.len() + 1, "{log_text}");
    for (record, request) in records.iter().zip(requests) {
        assert_eq!(record["request"].as_str(), Some(request));
        assert!(
            record["ts_micros"].as_u64().is_some() && record["latency_micros"].as_u64().is_some()
        );
        assert!(record["peer"]
            .as_str()
            .is_some_and(|p| p.starts_with("127.0.0.1:")));
        assert!(record["phases"].as_object().is_some(), "{record:?}");
    }
    let oversized = &records[requests.len()];
    assert_eq!(oversized["outcome"].as_str(), Some("oversized"));
    assert_eq!(oversized.get("request"), None);

    let slow_text = std::fs::read_to_string(&slow).expect("slow log");
    let slow_records: Vec<Json> = slow_text.lines().map(json).collect();
    assert_eq!(slow_records.len(), requests.len(), "{slow_text}");
    for record in &slow_records {
        assert!(
            record["trace_total_micros"].as_u64().is_some(),
            "{record:?}"
        );
        assert!(record["spans"].as_array().is_some(), "{record:?}");
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn front_metrics_parse_strictly_with_the_roll_up() {
    let backends: Vec<Server> = (0..2)
        .map(|_| Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind"))
        .collect();
    let addrs: Vec<_> = backends.iter().map(Server::local_addr).collect();
    let front = Balancer::bind(
        "127.0.0.1:0",
        &addrs,
        BalancerConfig {
            probe_interval: Duration::from_secs(30),
            ..BalancerConfig::default()
        },
    )
    .expect("front bind");
    let responses = client::roundtrip(
        front.local_addr(),
        &[
            "bounds d695 --widths 16",
            "schedule d695 --width 16",
            "bounds d695 --widths 16",
        ],
    )
    .expect("proxied");
    assert!(responses.iter().all(|r| client::response_ok(r)));
    let metrics = front.metrics();
    let scrape = Scrape::parse(&metrics).unwrap_or_else(|e| panic!("{e}:\n{metrics}"));
    assert_eq!(
        scrape.value("soctam_balance_proxy_latency_seconds_count"),
        Some(3.0)
    );
    assert_eq!(
        scrape.value("soctam_responses_ok_total"),
        Some(3.0),
        "the roll-up"
    );
    assert_eq!(
        scrape
            .family("soctam_balance_backend_up")
            .map(|f| f.samples.len()),
        Some(2)
    );
    front.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}

#[test]
fn a_backend_whose_scrape_does_not_parse_is_left_out_of_the_roll_up() {
    use std::io::{Read, Write};
    // A "backend" that answers every GET with 200 and an exposition whose
    // second sample has no `# TYPE` line: healthy to the prober, but its
    // scrape is malformed.
    let fake = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let fake_addr = fake.local_addr().expect("addr");
    std::thread::spawn(move || {
        for stream in fake.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Read the whole request head before answering: closing with
            // unread bytes resets the connection, and the prober would see
            // the reset instead of the 200.
            let mut head = Vec::new();
            let mut buf = [0u8; 1024];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => head.extend_from_slice(&buf[..n]),
                }
            }
            let body = "# TYPE soctam_queue_capacity gauge\nsoctam_queue_capacity 1000\n\
                        soctam_shed_total 5\n";
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
    let backend = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let front = Balancer::bind(
        "127.0.0.1:0",
        &[backend.local_addr(), fake_addr],
        BalancerConfig {
            probe_interval: Duration::from_secs(30),
            ..BalancerConfig::default()
        },
    )
    .expect("front bind");
    let metrics = front.metrics();
    let scrape = Scrape::parse(&metrics).unwrap_or_else(|e| panic!("{e}:\n{metrics}"));
    assert_eq!(
        front.backends_up(),
        [true, true],
        "the prober saw both healthy"
    );
    // Only the real backend's series are summed.
    assert_eq!(
        scrape.value("soctam_queue_capacity"),
        Some(64.0),
        "{metrics}"
    );
    assert_eq!(scrape.value("soctam_shed_total"), Some(0.0), "{metrics}");
    front.shutdown();
    backend.shutdown();
}
