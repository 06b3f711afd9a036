//! The wire's framing, pinned from the peer's side.
//!
//! Every socket is `TCP_NODELAY`, so each `write` leaves as its own
//! segment. A message sent in one `write` reaches a peer's single `read()`
//! whole; a message sent in pieces (a line, then its `\n`) wakes the peer
//! on the first piece. The peers here make exactly one `read()` per
//! message and count every message that did not arrive whole, over
//! hundreds of round trips in each direction: client requests, daemon
//! answers (the front the balancer shares), the oversized-line verdict,
//! and HTTP heads.
//!
//! And the reverse: an answer torn off before its `\n` (the peer died
//! mid-answer) is a transport error, never an answer.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use soctam_server::client::{self, Connection, RetryPolicy, RetryingClient};
use soctam_server::{Server, ServerConfig};

/// Round trips per direction: enough that a split message, which wakes
/// the peer on its first piece most of the time, cannot go unseen.
const ROUND_TRIPS: usize = 250;

/// Exactly one `read()`, into a buffer larger than any message here.
fn read_once(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = vec![0; 1 << 16];
    let n = stream.read(&mut buf).expect("read");
    buf.truncate(n);
    buf
}

/// Reads one message with a single `read()`; if it did not end with
/// `terminator`, records the piece and keeps reading to the terminator, so
/// the conversation stays in step.
fn read_message(stream: &mut TcpStream, terminator: &[u8], torn: &mut Vec<String>) -> Vec<u8> {
    let mut got = read_once(stream);
    if !got.ends_with(terminator) {
        torn.push(String::from_utf8_lossy(&got).into_owned());
        while !got.ends_with(terminator) {
            let more = read_once(stream);
            assert!(!more.is_empty(), "peer closed mid-message");
            got.extend(more);
        }
    }
    got
}

fn assert_whole(torn: &[String], what: &str) {
    assert!(
        torn.is_empty(),
        "{} of {ROUND_TRIPS} {what} reached a single read in pieces; first piece: {:?}",
        torn.len(),
        torn[0].chars().take(80).collect::<String>()
    );
}

#[test]
fn connection_requests_reach_one_read_whole() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let mut torn = Vec::new();
        for i in 0..ROUND_TRIPS {
            let line = read_message(&mut stream, b"\n", &mut torn);
            assert_eq!(
                line,
                format!("schedule d695 --width {}\n", 8 + i % 57).as_bytes()
            );
            let answer = format!("{{\"ok\": true, \"n\": {i}}}\n");
            stream.write_all(answer.as_bytes()).expect("answer");
        }
        torn
    });
    let mut conn = Connection::connect(addr).expect("connect");
    for i in 0..ROUND_TRIPS {
        let got = conn.request(&format!("schedule d695 --width {}", 8 + i % 57));
        assert_eq!(
            got.expect("round trip"),
            format!("{{\"ok\": true, \"n\": {i}}}")
        );
    }
    assert_whole(&peer.join().expect("peer"), "request lines");
}

#[test]
fn daemon_answers_reach_one_read_whole() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Short answers and a long sweep series.
    let requests = [
        "bounds d695 --widths 16",
        "schedule d695 --width 16",
        "sweep d695 --from 16 --to 40",
        "frobnicate d695",
    ];
    let mut torn = Vec::new();
    for i in 0..ROUND_TRIPS {
        let request = requests[i % requests.len()];
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("request");
        let answer = read_message(&mut stream, b"\n", &mut torn);
        let answer = std::str::from_utf8(&answer).expect("utf-8");
        assert_eq!(answer.matches('\n').count(), 1, "{answer}");
        assert_eq!(
            client::response_ok(answer.trim_end()),
            request != "frobnicate d695",
            "{request}: {answer}"
        );
    }
    server.shutdown();
    assert_whole(&torn, "answers");
}

#[test]
fn the_oversized_line_verdict_reaches_one_read_whole() {
    let cfg = ServerConfig {
        max_line_bytes: 64,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let long = format!("bounds d695 --widths {}\n", "16,".repeat(60));
    let mut torn = Vec::new();
    for _ in 0..ROUND_TRIPS {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.write_all(long.as_bytes()).expect("request");
        let verdict = read_message(&mut stream, b"\n", &mut torn);
        let verdict = String::from_utf8(verdict).expect("utf-8");
        assert!(verdict.contains("64-byte cap"), "{verdict}");
    }
    server.shutdown();
    assert_whole(&torn, "verdicts");
}

#[test]
fn http_get_heads_reach_one_read_whole() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let mut torn = Vec::new();
        for _ in 0..ROUND_TRIPS {
            let (mut stream, _) = listener.accept().expect("accept");
            let head = read_message(&mut stream, b"\r\n\r\n", &mut torn);
            assert!(head.starts_with(b"GET /metrics HTTP/1.1\r\n"));
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
                .expect("answer");
        }
        torn
    });
    for _ in 0..ROUND_TRIPS {
        let (status, body) = client::http_get(addr, "/metrics").expect("GET");
        assert_eq!((status.as_str(), body.as_str()), ("HTTP/1.1 200 OK", "ok"));
    }
    assert_whole(&peer.join().expect("peer"), "HTTP heads");
}

/// A fake daemon: for each script entry, accepts one connection, reads
/// one request line, writes the entry's bytes, and closes.
fn fake_daemon(script: &'static [&'static str]) -> (std::net::SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        for answer in script {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = Vec::new();
            while !request.ends_with(b"\n") {
                let more = read_once(&mut stream);
                assert!(!more.is_empty(), "client closed before its request ended");
                request.extend(more);
            }
            stream.write_all(answer.as_bytes()).expect("answer");
        }
    });
    (addr, handle)
}

const TORN: &str = "{\"op\": \"schedule\", \"ok\": tr";
const WHOLE: &str = "{\"op\": \"schedule\", \"ok\": true}\n";

#[test]
fn an_answer_torn_before_its_newline_is_a_transport_error() {
    let (addr, fake) = fake_daemon(&[TORN]);
    let mut conn = Connection::connect(addr).expect("connect");
    let err = conn
        .request("schedule d695 --width 16")
        .expect_err("a torn answer is not an answer");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    fake.join().expect("fake daemon");
}

#[test]
fn a_retrying_client_retries_a_torn_answer_on_a_fresh_connection() {
    let (addr, fake) = fake_daemon(&[TORN, WHOLE]);
    let policy = RetryPolicy {
        retries: 1,
        backoff: Duration::ZERO,
        seed: 0,
    };
    let mut client = RetryingClient::new(addr, policy).expect("client");
    let got = client
        .request("schedule d695 --width 16")
        .expect("the second answer is whole");
    assert_eq!(got, WHOLE.trim_end());
    assert_eq!(client.retried(), 1);
    fake.join().expect("fake daemon");
}
