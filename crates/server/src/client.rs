//! A minimal blocking client for the daemon, shared by `soctam client`,
//! the loopback test suite, and the `servesnap` benchmark.
//!
//! Two calls mirror the daemon's two surfaces: [`roundtrip`] speaks the
//! newline-delimited request protocol (one JSON response line per request
//! line), [`http_get`] speaks the `GET /healthz` / `GET /metrics` HTTP
//! surface. [`replay`] drives a whole request file — or a saved JSONL
//! request log — through one connection and summarizes the observed wire
//! latencies ([`LatencySummary`]), which is what `soctam client --file`
//! and the `servesnap` replay section print.
//!
//! # Resilience
//!
//! The daemon sheds connections under overload (a one-line
//! `{"ok": false, "busy": true, ...}` answer, then close) and renders
//! recovered solver panics as `"transient": true` errors. A
//! [`RetryingClient`] absorbs both, plus plain transport failures:
//! each retryable outcome retries with exponential backoff and
//! *deterministic* jitter (seeded [`rand::rngs::StdRng`], so a chaos
//! run's timing is reproducible), reconnecting only when the socket is
//! actually gone (transport error or shed). Responses are classified on
//! their real top-level JSON fields ([`response_ok`],
//! [`is_retryable_response`]), never by substring. `soctam client
//! --retries N --backoff SECS` and [`replay_with_retry`] ride on it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use soctam_core::protocol::json_bool_field;

/// A connected protocol client: send request lines, read response lines,
/// one connection for any number of requests.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { reader, writer })
    }

    /// Bounds every read and write on this connection (`None` removes the
    /// bound). The balancer sets this on pooled backend connections so a
    /// hung backend surfaces as a transport error — and a failover — not
    /// a front worker blocked forever.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
    }

    /// Sends one request line and reads its one-line JSON response
    /// (without the trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates write/read failures; an empty read (daemon closed the
    /// connection) is reported as [`std::io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_owned())
    }
}

/// Sends each request line over one connection and returns the response
/// lines, in request order.
///
/// # Errors
///
/// Propagates the first transport failure.
pub fn roundtrip(addr: impl ToSocketAddrs, lines: &[&str]) -> std::io::Result<Vec<String>> {
    let mut conn = Connection::connect(addr)?;
    lines.iter().map(|line| conn.request(line)).collect()
}

/// Whether a one-line JSON response reports success: its *top-level*
/// `"ok"` field is `true`. Classification is field-based
/// ([`soctam_core::protocol::json_bool_field`]), never a substring match
/// — a parse-error response echoes the offending request text into its
/// `error` string, so a hostile request line containing `"ok": true`
/// must not count as a success.
#[must_use]
pub fn response_ok(response: &str) -> bool {
    json_bool_field(response, "ok") == Some(true)
}

/// Whether a one-line JSON response is an admission-control shed: its
/// top-level `"busy"` field is `true`. The daemon closes the connection
/// right after writing such an answer, so a busy response also means the
/// transport underneath is gone.
#[must_use]
pub fn response_busy(response: &str) -> bool {
    json_bool_field(response, "busy") == Some(true)
}

/// Whether a one-line JSON response asks to be retried: an admission-
/// control shed (`"busy": true`) or a transient failure such as a
/// recovered solver panic (`"transient": true`). Both are read as real
/// top-level fields, so request text echoed inside an `error` string can
/// never spoof a retry.
#[must_use]
pub fn is_retryable_response(response: &str) -> bool {
    response_busy(response) || json_bool_field(response, "transient") == Some(true)
}

/// Exponential backoff with deterministic jitter.
///
/// Attempt `k` (1-based) sleeps `backoff · 2^(k-1)` scaled by a uniform
/// jitter factor in `[0.5, 1.0)`, capped at [`RetryPolicy::MAX_DELAY`].
/// The jitter stream is seeded, so two runs with equal seeds back off
/// identically — chaos tests stay reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = never retry).
    pub retries: u32,
    /// Base delay before the first retry (doubles each attempt).
    pub backoff: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// Ceiling on any single backoff sleep, whatever the attempt count.
    pub const MAX_DELAY: Duration = Duration::from_secs(5);

    /// A policy that never retries (the plain-client behaviour).
    #[must_use]
    pub fn none() -> Self {
        Self {
            retries: 0,
            backoff: Duration::ZERO,
            seed: 0,
        }
    }

    /// `retries` extra attempts with base delay `backoff` and a default
    /// jitter seed.
    #[must_use]
    pub fn new(retries: u32, backoff: Duration) -> Self {
        Self {
            retries,
            backoff,
            seed: 0x5eed_50c7,
        }
    }

    /// The sleep before (1-based) retry `attempt`, drawing jitter from
    /// `rng`.
    fn delay(&self, rng: &mut StdRng, attempt: u32) -> Duration {
        let doubled = self
            .backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let full = doubled.min(Self::MAX_DELAY);
        if full.is_zero() {
            return full;
        }
        // Uniform jitter factor in [0.5, 1.0): decorrelates a thundering
        // herd of shed clients without ever collapsing the delay to zero.
        let micros = full.as_micros() as u64;
        Duration::from_micros(micros / 2 + rng.gen_range(0..micros.div_ceil(2).max(1)))
    }
}

/// A protocol client that retries: transport failures (including connect
/// refusals), admission-control sheds, and `"transient": true` error
/// responses each trigger a backed-off resend, up to
/// [`RetryPolicy::retries`] extra attempts per request. Reconnecting is
/// reserved for the outcomes that actually kill the socket — transport
/// errors and sheds (the daemon closes right after a busy answer); a
/// transient error response keeps its healthy keep-alive connection.
#[derive(Debug)]
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<Connection>,
    retried: u64,
    io_timeout: Option<Duration>,
}

impl RetryingClient {
    /// Prepares a client for `addr`. Connecting is lazy — and retried —
    /// so constructing against a daemon that is still binding (or
    /// momentarily drowning) succeeds.
    ///
    /// # Errors
    ///
    /// Fails only if `addr` resolves to no address at all.
    pub fn new(addr: impl ToSocketAddrs, policy: RetryPolicy) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        let rng = StdRng::seed_from_u64(policy.seed);
        Ok(Self {
            addr,
            policy,
            rng,
            conn: None,
            retried: 0,
            io_timeout: None,
        })
    }

    /// Bounds every read and write on this client's connections (applied
    /// to the current connection and every reconnect). `None` — the
    /// default — never times out.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.io_timeout = timeout;
        if let Some(conn) = &self.conn {
            conn.set_io_timeout(timeout).ok();
        }
        self
    }

    /// Request attempts made beyond each first try, summed over the
    /// client's lifetime.
    #[must_use]
    pub fn retried(&self) -> u64 {
        self.retried
    }

    /// Sends one request line, retrying per the policy, and returns the
    /// final one-line JSON response.
    ///
    /// # Errors
    ///
    /// The last transport failure, once the attempt budget is spent. A
    /// still-retryable *response* (the daemon kept shedding) is returned
    /// as `Ok` — callers see exactly what the daemon last said.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut attempt = 0;
        loop {
            let outcome = self.request_once(line);
            let retryable = match &outcome {
                Ok(response) => is_retryable_response(response),
                Err(_) => true,
            };
            if !retryable || attempt >= self.policy.retries {
                return outcome;
            }
            attempt += 1;
            self.retried += 1;
            // Only sheds close the socket: a busy answer (and any
            // transport failure, already dropped in `request_once`) means
            // reconnect. A `"transient": true` error — a recovered solver
            // panic — arrives on a healthy keep-alive connection, which
            // stays pooled for the retry.
            if matches!(&outcome, Ok(response) if response_busy(response)) {
                self.conn = None;
            }
            std::thread::sleep(self.policy.delay(&mut self.rng, attempt));
        }
    }

    fn request_once(&mut self, line: &str) -> std::io::Result<String> {
        if self.conn.is_none() {
            let conn = Connection::connect(self.addr)?;
            conn.set_io_timeout(self.io_timeout)?;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connection just established");
        let outcome = conn.request(line);
        if outcome.is_err() {
            self.conn = None;
        }
        outcome
    }
}

/// Issues `GET <path>` against the daemon's HTTP surface, returning the
/// status line and the body.
///
/// # Errors
///
/// Propagates transport failures or a malformed (header-less) response.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> std::io::Result<(String, String)> {
    http_exchange(TcpStream::connect(addr)?, path)
}

/// [`http_get`] with a deadline on connect, reads, and writes — what the
/// balancer's health prober and metrics roll-up use, so one hung backend
/// cannot stall the probe loop or a front `/metrics` scrape.
///
/// # Errors
///
/// Propagates transport failures (timeouts included) or a malformed
/// (header-less) response.
pub fn http_get_timeout(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
) -> std::io::Result<(String, String)> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    http_exchange(stream, path)
}

/// Writes one `GET <path>` on `stream` and reads the whole response.
fn http_exchange(mut stream: TcpStream, path: &str) -> std::io::Result<(String, String)> {
    stream.set_nodelay(true).ok();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: soctam\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response carries no header/body separator",
        )
    })?;
    let status = head.lines().next().unwrap_or_default().to_owned();
    Ok((status, body.to_owned()))
}

/// Latency distribution of one pass of requests, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (nearest-rank on the sorted samples).
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// 99.9th percentile — the deep tail a p99 smooths over.
    pub p999_ms: f64,
    /// Slowest request.
    pub max_ms: f64,
    /// Population standard deviation. 0 for a single sample; NaN only if
    /// a sample was NaN (like the other statistics, surfaced not hidden).
    pub stddev_ms: f64,
}

impl LatencySummary {
    /// Summarizes a batch of per-request latencies (milliseconds).
    /// Returns `None` for an empty batch — there is no distribution to
    /// describe. Never panics: samples are ordered by `f64::total_cmp`,
    /// so even a NaN smuggled in by a broken clock is sorted (last), not
    /// a crash.
    #[must_use]
    pub fn of_millis(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let pct = |p: f64| samples[((p / 100.0) * (samples.len() - 1) as f64).round() as usize];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        Some(Self {
            count: samples.len(),
            mean_ms: mean,
            p50_ms: pct(50.0),
            p90_ms: pct(90.0),
            p99_ms: pct(99.0),
            p999_ms: pct(99.9),
            max_ms: samples[samples.len() - 1],
            stddev_ms: variance.sqrt(),
        })
    }

    /// Renders the summary as one JSON object (the shape `servesnap`
    /// embeds in `BENCH_serve.json`). JSON has no NaN or infinity, so a
    /// non-finite statistic — reachable since `of_millis` tolerates NaN
    /// samples — renders as `null`, keeping the document parseable.
    #[must_use]
    pub fn json(&self) -> String {
        fn ms(value: f64) -> String {
            if value.is_finite() {
                format!("{value:.4}")
            } else {
                "null".to_owned()
            }
        }
        format!(
            "{{\"count\": {}, \"mean_ms\": {}, \"p50_ms\": {}, \
             \"p90_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \
             \"max_ms\": {}, \"stddev_ms\": {}}}",
            self.count,
            ms(self.mean_ms),
            ms(self.p50_ms),
            ms(self.p90_ms),
            ms(self.p99_ms),
            ms(self.p999_ms),
            ms(self.max_ms),
            ms(self.stddev_ms)
        )
    }
}

/// What came back from replaying a request file or saved log.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Each replayed request paired with its one-line JSON response, in
    /// replay order.
    pub responses: Vec<(String, String)>,
    /// Responses reporting `"ok": true`.
    pub ok: usize,
    /// Responses reporting an error (parse or engine).
    pub failed: usize,
    /// Wire-latency distribution over all replayed requests; `None` when
    /// the input held no replayable lines. Each request's latency covers
    /// every attempt it needed, backoff sleeps included — the latency a
    /// caller actually experienced.
    pub latency: Option<LatencySummary>,
    /// Request attempts beyond each first try (0 without a retry policy).
    pub retried: u64,
}

/// Replays `text` — a plain request file, or a JSONL request log written
/// by `soctam serve --log` (see [`soctam_core::protocol::replay_lines`])
/// — against a running daemon over one connection, measuring each
/// request's wire latency.
///
/// # Errors
///
/// Propagates the first transport failure; request-level errors (a
/// response with `"ok": false`) are tallied in
/// [`ReplayReport::failed`], not raised.
pub fn replay(addr: impl ToSocketAddrs, text: &str) -> std::io::Result<ReplayReport> {
    replay_with_retry(addr, text, RetryPolicy::none())
}

/// [`replay`], but through a [`RetryingClient`]: sheds, transient
/// errors, and transport failures are retried per `policy`, so a replay
/// against an overloaded (or fault-injected) daemon can still finish
/// with every request answered.
///
/// # Errors
///
/// Propagates a transport failure only after the policy's attempt
/// budget is spent on it.
pub fn replay_with_retry(
    addr: impl ToSocketAddrs,
    text: &str,
    policy: RetryPolicy,
) -> std::io::Result<ReplayReport> {
    let lines = soctam_core::protocol::replay_lines(text);
    let mut client = RetryingClient::new(addr, policy)?;
    let mut responses = Vec::with_capacity(lines.len());
    let mut latencies = Vec::with_capacity(lines.len());
    let (mut ok, mut failed) = (0, 0);
    for line in lines {
        let t0 = Instant::now();
        let response = client.request(&line)?;
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        if response_ok(&response) {
            ok += 1;
        } else {
            failed += 1;
        }
        responses.push((line, response));
    }
    Ok(ReplayReport {
        responses,
        ok,
        failed,
        latency: LatencySummary::of_millis(latencies),
        retried: client.retried(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_of_an_empty_batch_is_none_not_a_panic() {
        assert_eq!(LatencySummary::of_millis(Vec::new()), None);
    }

    #[test]
    fn latency_summary_survives_non_finite_samples() {
        // total_cmp orders NaN after every finite sample: the summary is
        // produced (NaN surfaces in max_ms, where a reader can see it)
        // instead of panicking mid-replay.
        let summary = LatencySummary::of_millis(vec![2.0, f64::NAN, 1.0]).unwrap();
        assert_eq!(summary.count, 3);
        assert_eq!(summary.p50_ms, 2.0);
        assert!(summary.max_ms.is_nan());
        assert!(summary.p999_ms.is_nan(), "p99.9 lands on the NaN tail");
        assert!(summary.stddev_ms.is_nan(), "a NaN sample poisons stddev");
    }

    #[test]
    fn latency_summary_tail_and_spread_statistics() {
        // 998 identical samples with two 100 ms outliers: p99 smooths the
        // outliers away; p99.9 (nearest-rank index 998) and stddev both
        // see them.
        let mut samples = vec![1.0; 998];
        samples.extend([100.0, 100.0]);
        let summary = LatencySummary::of_millis(samples).unwrap();
        assert_eq!(summary.p99_ms, 1.0);
        assert_eq!(summary.p999_ms, 100.0);
        assert!(
            (summary.stddev_ms - 4.4230).abs() < 0.01,
            "population stddev of 998×1ms + 2×100ms, got {}",
            summary.stddev_ms
        );
        // Degenerate cases stay exact: one sample spreads zero.
        let single = LatencySummary::of_millis(vec![7.0]).unwrap();
        assert_eq!(single.p999_ms, 7.0);
        assert_eq!(single.stddev_ms, 0.0);
    }

    #[test]
    fn latency_summary_json_renders_non_finite_samples_as_null() {
        let summary = LatencySummary::of_millis(vec![2.0, f64::NAN, 1.0]).unwrap();
        let json = summary.json();
        // `{:.4}` would have written a bare `NaN` here — invalid JSON.
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        assert!(json.contains("\"max_ms\": null"), "{json}");
        assert!(json.contains("\"mean_ms\": null"), "{json}");
        assert!(json.contains("\"stddev_ms\": null"), "{json}");
        assert!(json.contains("\"p50_ms\": 2.0000"), "{json}");

        let finite = LatencySummary::of_millis(vec![1.0, 2.0]).unwrap().json();
        assert!(!finite.contains("null"), "{finite}");
    }

    #[test]
    fn retryable_responses_are_sheds_and_transients_only() {
        assert!(is_retryable_response(
            "{\"ok\": false, \"busy\": true, \"transient\": true, \"error\": \"...\"}"
        ));
        assert!(is_retryable_response(
            "{\"ok\": false, \"transient\": true, \"error\": \"solver panicked (recovered)\"}"
        ));
        assert!(!is_retryable_response("{\"ok\": true, \"makespan\": 5}"));
        assert!(!is_retryable_response(
            "{\"ok\": false, \"error\": \"unknown SOC\"}"
        ));
        // A parse error echoing hostile request text must classify on the
        // real top-level fields, not on substrings of the echo.
        let echo = soctam_core::protocol::render_parse_error(
            "unknown request kind `x \"busy\": true, \"transient\": true`",
        );
        assert!(!is_retryable_response(&echo), "{echo}");
        assert!(!response_ok(&echo), "{echo}");
        let echo_ok = soctam_core::protocol::render_parse_error("junk \"ok\": true junk");
        assert!(!response_ok(&echo_ok), "{echo_ok}");
    }

    #[test]
    fn response_classifiers_read_top_level_fields() {
        assert!(response_ok(
            "{\"op\": \"bounds\", \"ok\": true, \"bounds\": []}"
        ));
        assert!(!response_ok("{\"ok\": false, \"error\": \"x\"}"));
        assert!(!response_ok("not json at all"));
        assert!(response_busy(
            "{\"ok\": false, \"busy\": true, \"transient\": true, \"error\": \"x\"}"
        ));
        assert!(!response_busy(
            "{\"ok\": false, \"transient\": true, \"error\": \"solver panicked (recovered)\"}"
        ));
    }

    #[test]
    fn backoff_delays_are_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            retries: 8,
            backoff: Duration::from_millis(100),
            seed: 7,
        };
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        for attempt in 1..=8 {
            let d = policy.delay(&mut a, attempt);
            // Same seed, same stream: the run is reproducible.
            assert_eq!(d, policy.delay(&mut b, attempt));
            let full = policy
                .backoff
                .saturating_mul(1 << (attempt - 1))
                .min(RetryPolicy::MAX_DELAY);
            assert!(d >= full / 2 && d < full, "attempt {attempt}: {d:?}");
        }
        // Far past the doubling horizon the cap still holds.
        assert!(policy.delay(&mut a, 1000) < RetryPolicy::MAX_DELAY);
    }

    #[test]
    fn zero_backoff_never_sleeps() {
        let policy = RetryPolicy::none();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(policy.delay(&mut rng, 1), Duration::ZERO);
    }
}
