//! # soctam-server
//!
//! The networked serving daemon over [`soctam_core::engine::Engine`]: a
//! std-only (no async runtime — the workspace vendors every dependency),
//! multi-threaded TCP listener that turns the DAC 2002 co-optimization
//! flow into a long-lived service.
//!
//! # Wire protocol
//!
//! A connection is a plain TCP byte stream of newline-delimited text.
//! Each request line uses the *same grammar as a `soctam batch` request
//! file* — both run through one parser,
//! [`soctam_core::protocol::parse_request`], so the file format and the
//! wire format can never drift apart:
//!
//! ```text
//! schedule <soc> --width W   [--power] [--no-preempt] [--trace]
//! sweep    <soc> [--from A] [--to B]   [--power] [--no-preempt] [--trace]
//! bounds   <soc> [--widths a,b,c]      [--power] [--no-preempt] [--trace]
//! ```
//!
//! Blank lines and `#` comments are skipped, exactly as in a batch file.
//! `<soc>` must be a benchmark name (`d695`, `p22810`, `p34392`,
//! `p93791`): the daemon never reads filesystem paths on behalf of remote
//! peers. Every request line is answered with exactly one JSON object on
//! one line ([`soctam_core::protocol::render_result`]); a line that fails
//! to parse is answered with `{"ok": false, "error": "..."}` and the
//! connection stays usable. Responses are bit-identical to calling the
//! `Engine` directly — cached or not — which the loopback suite pins.
//!
//! # Phase tracing
//!
//! Every served request line runs under a
//! [`soctam_core::schedule::obs`] span recorder: the daemon opens
//! `resolve` and `render` spans around parsing and response formatting,
//! the engine opens `cache_lookup` around its solution-cache closure, and
//! the solve path nested inside a miss opens `context_compile` (with
//! `menu_build` nested inside it), `sweep`, and `validate` at the actual
//! work sites — so a warm request's compile and menu phases report
//! exactly zero. The trace
//! feeds four exports:
//!
//! * `--trace` (or `trace=1`) on a request line embeds a `"trace"` object
//!   in that response: total and per-phase exclusive microseconds, the
//!   span tree, the cache disposition, and the process-wide solver
//!   counter deltas observed across the solve (concurrent traffic can
//!   inflate the deltas — they are process counters, not request ones).
//!   The flag is presentation-only and never part of the cache identity;
//! * each JSONL request-log record carries a `"phases"` object of the
//!   non-zero exclusive phase micros;
//! * `/metrics` exports `soctam_request_latency_seconds` histograms per
//!   request kind × cache disposition plus cumulative
//!   `soctam_phase_seconds_total{phase="..."}` counters;
//! * with [`ServerConfig::slow_log`] set, any request at or over the
//!   threshold appends a full trace record (request-log fields plus
//!   `"phases"` and `"spans"`) to [`ServerConfig::slow_log_path`], or to
//!   stderr when no path is given.
//!
//! # Connection lifecycle limits
//!
//! The daemon does not trust its peers. Every connection is bounded in
//! three dimensions, each configurable through [`ServerConfig`]:
//!
//! * **time** — [`ServerConfig::idle_timeout`] arms `set_read_timeout` and
//!   `set_write_timeout` on the socket, so an idle peer (or one too slow
//!   to accept its responses) is reaped instead of pinning a pool worker
//!   forever;
//! * **bytes** — [`ServerConfig::max_line_bytes`] caps the length of one
//!   request line (and of each HTTP header line) via bounded reads
//!   (`Read::take`): a peer streaming bytes without a newline can never
//!   grow the daemon's line buffer past the cap. An oversized request
//!   line is answered with a parse-error JSON object and the connection
//!   is closed;
//! * **requests** — [`ServerConfig::max_requests`] caps how many requests
//!   one keep-alive connection may issue; the cap'th response is written
//!   in full, then the connection closes gracefully.
//!
//! On shutdown the daemon drains gracefully: idle connections are severed
//! immediately (there is nothing to flush), while connections with a
//! request in flight get up to five seconds to finish solving and flush
//! their response before being severed.
//!
//! # Admission control
//!
//! Accepted connections queue on a *bounded* channel of capacity
//! [`ServerConfig::max_pending`]. When every worker is busy and the queue
//! is full, the daemon **sheds** instead of queueing without limit: the
//! connection is answered immediately — protocol peers get one structured
//! line, `{"ok": false, "busy": true, "transient": true, ...}`, HTTP peers
//! get `503 Service Unavailable` with `Retry-After` — and closed. Sheds
//! are counted (`soctam_shed_total`), the queue depth is exported as a
//! gauge, and `GET /healthz` degrades to `503` while the queue is
//! saturated so load balancers stop routing to a drowning instance.
//! Shedding keeps tail latency bounded under overload: capacity is spent
//! finishing admitted requests, not growing an unbounded backlog.
//!
//! Admission, shedding, the worker pool, the line loop and its limits, the
//! HTTP framing, and the shutdown drain are one connection front shared
//! with the [`balance`] front; the daemon plugs in only what a request
//! line and an HTTP path mean.
//!
//! # Panic isolation
//!
//! A panic anywhere in a request's solve path is confined to that
//! request. The engine catches solver panics and renders them as
//! transient error responses; the solution cache (which also backs the
//! context registry) publishes panics to coalesced waiters and tears the
//! slot down (waiters retry, never hang); and each pool worker is guarded
//! — if a connection handler panics anyway, the worker is respawned and
//! the daemon keeps serving. Every recovery is visible in `/metrics`
//! (`soctam_worker_panics_total`, `soctam_solver_panics_recovered_total`,
//! cache/registry panic counters). Shared-state mutexes recover from
//! poisoning rather than propagating it: a panic that interleaved with a
//! critical section must not take down every later request that touches
//! the same lock.
//!
//! # Fault injection
//!
//! [`ServerConfig::fault_plan`] arms a deterministic
//! [`soctam_core::fault::FaultPlan`] (`serve --fault-inject
//! "solve:panic:every=97,io:latency=5ms:every=13"`): `solve`-site faults
//! strike inside the engine (under its panic isolation), `io`-site faults
//! strike the daemon's per-request connection handling — latency stalls
//! the response, `error` severs the connection as a dead transport would,
//! `panic` kills the worker mid-request (exercising the respawn guard).
//! Firing is counter-based, not random, so a chaos run is reproducible
//! and non-faulted responses can be pinned bit-identical to a fault-free
//! run. Injections are exported per spec as
//! `soctam_fault_injected_total{fault="..."}`.
//!
//! # Request log
//!
//! With [`ServerConfig::log_path`] set, every served request line appends
//! one JSON object to the log file (JSONL):
//!
//! ```text
//! {"ts_micros": 1722950000000000, "peer": "127.0.0.1:51044",
//!  "request": "schedule d695 --width 16", "outcome": "ok",
//!  "cache": "hit", "latency_micros": 142, "phases": {"resolve": 17}}
//! ```
//!
//! `outcome` is `ok`, `error` (the engine rejected the request),
//! `parse_error`, or `oversized` (the line blew the byte cap; such
//! records carry no `request` field). `cache` is the solution-cache
//! disposition (`hit`/`miss`/`coalesced`/`uncached`), or `none` for
//! lines that never reached the engine. The log doubles as a replay
//! input: `soctam client --file LOG` replays it against a daemon and
//! prints latency percentiles, and `soctam serve --warm LOG`
//! ([`Server::warm_from_text`]) pre-solves its requests at startup so
//! the cache starts hot.
//!
//! # HTTP surface
//!
//! A connection whose first line is an HTTP/1.1 `GET` is served one
//! response and closed:
//!
//! * `GET /healthz` — `200 OK`, body `ok` — or `503 Service Unavailable`,
//!   body `saturated`, while the pending queue is full (see *Admission
//!   control* above);
//! * `GET /metrics` — `200 OK`, Prometheus text exposition (`# TYPE`-
//!   annotated counters and gauges) of request, cache, registry, and
//!   solver counters, rendered through the [`exposition`] writer (whose
//!   strict reader parses it back);
//! * anything else — `404 Not Found`.
//!
//! # Caching
//!
//! The daemon layers a [`soctam_core::schedule::SolutionCache`] between the
//! listener and the engine, keyed by `(SOC content, width cap, power
//! budget, operation, scheduling mode, parameter grid)` — the
//! [`soctam_core::schedule::ContextRegistry`] key plus width, mode, and grid —
//! so a repeat request returns without invoking the solver, and
//! concurrent identical requests coalesce onto one solve. Nothing cached
//! expires: a solution or a compiled context is a function of its key, and
//! each cache is bounded by its LRU capacity alone.
//!
//! # Example
//!
//! ```
//! use soctam_server::{client, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let responses = client::roundtrip(addr, &["bounds d695 --widths 16,32"]).unwrap();
//! assert!(client::response_ok(&responses[0]));
//! let (status, body) = client::http_get(addr, "/healthz").unwrap();
//! assert!(status.contains("200"));
//! assert_eq!(body, "ok\n");
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use soctam_core::engine::{CacheDisposition, Engine, EngineOp};
use soctam_core::fault::{FaultAction, FaultPlan, FaultSite};
use soctam_core::protocol;
use soctam_core::schedule::obs;
use soctam_core::schedule::{instrument, lock_unpoisoned, ContextRegistry};

use front::{Conn, Front, FrontStats, Handler, Limits};

pub mod balance;
pub mod client;
pub mod exposition;
mod front;

/// Configuration of a serving daemon.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections (each serves one connection at
    /// a time; clamped to at least 1).
    pub threads: usize,
    /// Total solution-cache capacity in results; 0 disables result
    /// caching (every request re-solves).
    pub cache_capacity: usize,
    /// Per-connection read/write deadline (`set_read_timeout` /
    /// `set_write_timeout`): a peer idle (or unwriteable) for this long is
    /// reaped, freeing its pool worker. `None` trusts peers to hang up —
    /// appropriate only behind a front end that enforces its own deadlines.
    pub idle_timeout: Option<Duration>,
    /// Most requests one keep-alive connection may issue; the last
    /// response is written in full, then the connection closes
    /// gracefully. `None` means unlimited.
    pub max_requests: Option<u64>,
    /// Byte cap on one request line (and each HTTP header line), enforced
    /// with bounded reads so a newline-free byte stream can never grow the
    /// daemon's line buffer past it. Oversized request lines are answered
    /// with a parse-error JSON object and the connection is closed.
    /// Clamped to at least 64.
    pub max_line_bytes: usize,
    /// Append a JSONL record per served request line to this file (see
    /// the [module docs](self) for the schema). `None` disables logging.
    pub log_path: Option<PathBuf>,
    /// Most accepted connections that may wait for a free worker before
    /// the daemon starts shedding (see *Admission control* in the
    /// [module docs](self)). Clamped to at least 1.
    pub max_pending: usize,
    /// Deterministic fault-injection plan for chaos testing (see *Fault
    /// injection* in the [module docs](self)). `None` — the production
    /// default — injects nothing.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Slow-request threshold: a served request line whose wall latency
    /// meets or exceeds it emits a full trace JSONL record (the request-log
    /// fields plus `"phases"` and `"spans"`). `None` disables the slow log.
    pub slow_log: Option<Duration>,
    /// Where slow-request records are appended. With [`Self::slow_log`]
    /// set and no path, records go to stderr.
    pub slow_log_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    /// Four workers, a 1024-result cache; 30-second peer
    /// deadlines, unlimited requests per connection, 64 KiB line cap, no
    /// log; a 64-connection pending queue, no fault injection.
    fn default() -> Self {
        Self {
            threads: 4,
            cache_capacity: 1024,
            idle_timeout: Some(Duration::from_secs(30)),
            max_requests: None,
            max_line_bytes: 64 * 1024,
            log_path: None,
            max_pending: 64,
            fault_plan: None,
            slow_log: None,
            slow_log_path: None,
        }
    }
}

/// Request-kind labels, indexed like [`Shared::latency`]'s outer axis.
const KIND_LABELS: [&str; 3] = ["schedule", "sweep", "bounds"];

/// Cache-disposition labels, indexed like [`Shared::latency`]'s inner
/// axis (matching [`kind_and_cache_indices`]).
const CACHE_LABELS: [&str; 4] = ["hit", "miss", "coalesced", "uncached"];

/// Maps an op and a disposition onto [`Shared::latency`] indices.
fn kind_and_cache_indices(op: &EngineOp, disposition: CacheDisposition) -> (usize, usize) {
    let kind = match op {
        EngineOp::Schedule { .. } => 0,
        EngineOp::Sweep { .. } => 1,
        EngineOp::Bounds { .. } => 2,
    };
    let cache = match disposition {
        CacheDisposition::Hit => 0,
        CacheDisposition::Miss => 1,
        CacheDisposition::Coalesced => 2,
        CacheDisposition::Uncached => 3,
    };
    (kind, cache)
}

/// Request/response traffic counters, exported through `/metrics` next to
/// the front's connection counters.
#[derive(Debug, Default)]
struct Counters {
    schedule_requests: AtomicU64,
    sweep_requests: AtomicU64,
    bounds_requests: AtomicU64,
    parse_errors: AtomicU64,
    responses_ok: AtomicU64,
    responses_err: AtomicU64,
}

/// The daemon's request handler: the engine behind the shared connection
/// front, plus everything the daemon records about each request.
struct Shared {
    engine: Engine,
    cfg: ServerConfig,
    counters: Counters,
    /// The front's connection counters and gauges.
    front: Arc<FrontStats>,
    catalog: protocol::BenchmarkCatalog,
    started: Instant,
    /// The JSONL request log, when configured.
    log: Option<Mutex<std::fs::File>>,
    /// The slow-request trace log file, when a path is configured
    /// (threshold set with no path falls back to stderr).
    slow_log: Option<Mutex<std::fs::File>>,
    /// Request-latency histograms: kind ([`KIND_LABELS`]) × cache
    /// disposition ([`CACHE_LABELS`]). Only lines that reached the engine
    /// are recorded — parse errors have no kind or disposition.
    latency: [[obs::Histogram; CACHE_LABELS.len()]; KIND_LABELS.len()],
    /// Cumulative exclusive per-phase time in microseconds, indexed like
    /// [`obs::Phase::ALL`].
    phase_micros: [AtomicU64; obs::Phase::ALL.len()],
}

impl Shared {
    /// Whether the pending queue is saturated (admission control is
    /// shedding and `/healthz` should degrade).
    fn saturated(&self) -> bool {
        self.front.queue_depth.load(Ordering::SeqCst) >= self.cfg.max_pending as u64
    }

    /// Appends one JSONL record to the request log, if configured. The
    /// `request` field is omitted when `request` is `None` (oversized
    /// lines never parsed into a request), which also keeps such records
    /// out of replay inputs. `trace` adds a compact `"phases"` object of
    /// the non-zero exclusive phase micros.
    fn log_request(
        &self,
        peer: &str,
        request: Option<&str>,
        outcome: &str,
        cache: &str,
        latency: Duration,
        trace: Option<&obs::TraceTree>,
    ) {
        let Some(log) = &self.log else { return };
        let line = request_record(peer, request, outcome, cache, latency, trace, false);
        let mut file = lock_unpoisoned(log);
        let _ = file.write_all(line.as_bytes());
    }

    /// Folds one served line into the latency histograms and the
    /// cumulative phase counters, and emits a slow-log record when the
    /// wall latency meets the configured threshold.
    fn observe_request(&self, peer: &str, request: &str, served: &ServedLine, latency: Duration) {
        if let Some((kind, cache)) = served.indices {
            self.latency[kind][cache].record(latency);
        }
        if let Some(trace) = &served.trace {
            for (i, (_, micros)) in trace.phase_micros().iter().enumerate() {
                if *micros > 0 {
                    self.phase_micros[i].fetch_add(*micros, Ordering::Relaxed);
                }
            }
        }
        let Some(threshold) = self.cfg.slow_log else {
            return;
        };
        if latency < threshold {
            return;
        }
        let line = request_record(
            peer,
            Some(request),
            served.outcome,
            served.cache,
            latency,
            served.trace.as_ref(),
            true,
        );
        match &self.slow_log {
            Some(file) => {
                let mut file = lock_unpoisoned(file);
                let _ = file.write_all(line.as_bytes());
            }
            None => eprint!("{line}"),
        }
    }
}

impl Handler for Shared {
    fn line(&self, conn: &Conn<'_>, request: &str) -> Option<String> {
        // `io`-site fault injection fires once per protocol request line,
        // before the request counts as in flight: latency stalls compose,
        // then `error` severs the connection (a dead transport) and
        // `panic` kills this worker mid-request (the front's respawn guard
        // recovers the pool).
        if let Some(plan) = &self.cfg.fault_plan {
            for action in plan.fire(FaultSite::Io) {
                match action {
                    FaultAction::Latency(d) => std::thread::sleep(d),
                    FaultAction::Error => return None,
                    FaultAction::Panic => panic!("injected fault: io panic"),
                }
            }
        }
        // In flight from here until the front flushes the response:
        // shutdown's drain waits for this window instead of severing
        // mid-solve.
        conn.begin_request();
        let t0 = Instant::now();
        let line = serve_request_line(self, request);
        let latency = t0.elapsed();
        self.observe_request(conn.peer, request, &line, latency);
        // Log before the response flushes: once the peer reads its reply,
        // the record is already durable.
        self.log_request(
            conn.peer,
            Some(request),
            line.outcome,
            line.cache,
            latency,
            line.trace.as_ref(),
        );
        Some(line.response)
    }

    /// The minimal HTTP/1.1 GET surface: `/healthz`, `/metrics`, 404.
    fn http(&self, path: &str) -> (&'static str, String) {
        match path {
            // Load-aware health: a saturated instance reports 503 so load
            // balancers stop routing to it until the queue drains.
            "/healthz" if self.saturated() => (
                "503 Service Unavailable",
                "saturated: the pending queue is full\n".to_owned(),
            ),
            "/healthz" => ("200 OK", "ok\n".to_owned()),
            "/metrics" => ("200 OK", metrics_text(self)),
            _ => ("404 Not Found", "not found\n".to_owned()),
        }
    }

    fn oversized(&self, conn: &Conn<'_>) {
        self.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
        self.counters.responses_err.fetch_add(1, Ordering::Relaxed);
        self.log_request(conn.peer, None, "oversized", "none", Duration::ZERO, None);
    }
}

/// Renders one request-log JSONL record. `full` additionally embeds the
/// span tree — the slow-log shape; the regular log keeps only the compact
/// non-zero `"phases"` object.
fn request_record(
    peer: &str,
    request: Option<&str>,
    outcome: &str,
    cache: &str,
    latency: Duration,
    trace: Option<&obs::TraceTree>,
    full: bool,
) -> String {
    let ts_micros = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros());
    let request_field = request.map_or(String::new(), |r| {
        format!("\"request\": \"{}\", ", protocol::json_escape(r))
    });
    let trace_fields = trace.map_or(String::new(), |t| {
        let mut fields = format!(", \"phases\": {}", t.phases_json(false));
        if full {
            let _ = write!(
                fields,
                ", \"trace_total_micros\": {}, \"spans\": {}",
                t.total_micros,
                t.spans_json()
            );
        }
        fields
    });
    format!(
        "{{\"ts_micros\": {ts_micros}, \"peer\": \"{}\", {request_field}\
         \"outcome\": \"{outcome}\", \"cache\": \"{cache}\", \
         \"latency_micros\": {}{trace_fields}}}\n",
        protocol::json_escape(peer),
        latency.as_micros(),
    )
}

/// Summary of a cache-warming pass ([`Server::warm_from_text`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmReport {
    /// Replayable request lines found in the input.
    pub requests: usize,
    /// Requests solved (or already cached) successfully.
    pub ok: usize,
    /// Requests the engine rejected (infeasible configs are reported, not
    /// fatal — the daemon still starts).
    pub failed: usize,
    /// Lines that did not parse as requests (e.g. a log recorded against a
    /// benchmark set this daemon does not serve).
    pub skipped: usize,
}

/// Shutdown grace for connections with a request in flight: the drain
/// window in which their solve may finish and the response flush before
/// the socket is severed. Idle connections are severed immediately.
const DRAIN: Duration = Duration::from_secs(5);

/// A running serving daemon: the shared connection front over one cached
/// [`Engine`]. Dropping (or calling [`Server::shutdown`]) stops accepting,
/// drains in-flight responses (severing idle peers immediately), and
/// joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    front: Front<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:3777"`, or port 0 for an ephemeral
    /// port) and starts the acceptor and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …) and
    /// request-log open failures.
    pub fn bind(addr: impl ToSocketAddrs, mut cfg: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        cfg.max_line_bytes = cfg.max_line_bytes.max(64);
        cfg.max_pending = cfg.max_pending.max(1);

        let mut engine = Engine::with_registry(Arc::new(ContextRegistry::default()))
            .with_solution_cache(cfg.cache_capacity, None);
        if let Some(plan) = &cfg.fault_plan {
            engine = engine.with_fault_plan(Arc::clone(plan));
        }

        // The request log and the slow log: appended to, never truncated.
        let open_append = |path: &Option<PathBuf>| {
            path.as_ref()
                .map(|p| OpenOptions::new().create(true).append(true).open(p))
                .transpose()
                .map(|file| file.map(Mutex::new))
        };
        let log = open_append(&cfg.log_path)?;
        let slow_log = open_append(&cfg.slow_log_path)?;

        let limits = Limits {
            name: "server",
            threads: cfg.threads,
            max_pending: cfg.max_pending,
            max_line_bytes: cfg.max_line_bytes,
            idle_timeout: cfg.idle_timeout,
            max_requests: cfg.max_requests,
            drain: DRAIN,
        };
        let shared = Arc::new(Shared {
            engine,
            cfg,
            counters: Counters::default(),
            front: Arc::default(),
            catalog: protocol::benchmark_resolver(),
            started: Instant::now(),
            log,
            slow_log,
            latency: std::array::from_fn(|_| std::array::from_fn(|_| obs::Histogram::new())),
            phase_micros: std::array::from_fn(|_| AtomicU64::new(0)),
        });
        let front = Front::start(
            listener,
            limits,
            Arc::clone(&shared.front),
            Arc::clone(&shared),
        )?;
        Ok(Self { shared, front })
    }

    /// The address the daemon is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The engine serving this daemon's requests (for inspecting cache and
    /// registry stats from tests and benchmarks).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// The current Prometheus text exposition, exactly as `GET /metrics`
    /// returns it.
    pub fn metrics(&self) -> String {
        metrics_text(&self.shared)
    }

    /// A handle that can render this daemon's metrics even after the
    /// daemon has shut down — the final scrape a supervisor takes to
    /// verify gauges (queue depth, worker threads) drained to zero.
    #[must_use]
    pub fn metrics_probe(&self) -> MetricsProbe {
        MetricsProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Pre-solves every replayable request in `text` — a plain request
    /// file or a saved JSONL request log
    /// ([`soctam_core::protocol::replay_lines`]) — through the daemon's
    /// own engine and resolver, so the solution cache starts hot before
    /// real traffic arrives. Lines that fail to parse are skipped, not
    /// fatal: a warming input must never keep the daemon from starting.
    pub fn warm_from_text(&self, text: &str) -> WarmReport {
        let lines = protocol::replay_lines(text);
        let mut report = WarmReport {
            requests: lines.len(),
            ..WarmReport::default()
        };
        for line in &lines {
            let parsed =
                protocol::parse_request(line, &mut |name: &str| self.shared.catalog.get(name));
            match parsed {
                Err(_) => report.skipped += 1,
                Ok(req) => match self.shared.engine.serve_one(&req) {
                    Ok(_) => report.ok += 1,
                    Err(_) => report.failed += 1,
                },
            }
        }
        report
    }

    /// Stops accepting, drains in-flight responses, and joins every
    /// thread. Equivalent to dropping the server, but explicit at call
    /// sites that care about ordering.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks until the daemon stops accepting (i.e. forever, for a
    /// daemon only a signal will stop) — the foreground mode `soctam
    /// serve` uses.
    pub fn join(mut self) {
        self.front.join();
    }
}

/// A scrape handle detached from the [`Server`]'s lifetime (see
/// [`Server::metrics_probe`]): it holds the shared state alive, so the
/// exposition stays renderable across — and after — shutdown.
#[derive(Clone)]
pub struct MetricsProbe {
    shared: Arc<Shared>,
}

impl MetricsProbe {
    /// Renders the Prometheus text exposition from the daemon's current
    /// (or final, post-shutdown) counter state.
    #[must_use]
    pub fn render(&self) -> String {
        metrics_text(&self.shared)
    }
}

impl std::fmt::Debug for MetricsProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsProbe").finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr())
            .field("workers", &self.shared.cfg.threads.max(1))
            .finish_non_exhaustive()
    }
}

/// One served protocol request line: the JSON response object (without
/// the trailing newline) plus everything the connection loop folds into
/// the request log, the latency histograms, and the slow log.
struct ServedLine {
    response: String,
    outcome: &'static str,
    cache: &'static str,
    /// `(kind, cache)` histogram indices; `None` for lines that never
    /// reached the engine (parse errors have no kind or disposition).
    indices: Option<(usize, usize)>,
    /// The request's phase trace. Present for every served line — the
    /// recorder is armed unconditionally because an unarmed span is
    /// nearly free but a missing trace would blind the phase counters.
    trace: Option<obs::TraceTree>,
}

/// Snapshot of the process-wide solver counters, for the `--trace`
/// response's deltas.
#[derive(Clone, Copy)]
struct SolverCounters {
    menu_builds: u64,
    constraint_compiles: u64,
    context_compiles: u64,
    schedule_runs: u64,
}

impl SolverCounters {
    fn now() -> Self {
        Self {
            menu_builds: instrument::menu_builds(),
            constraint_compiles: instrument::constraint_compiles(),
            context_compiles: instrument::context_compiles(),
            schedule_runs: instrument::schedule_runs(),
        }
    }

    /// Renders `self - before` as a JSON object. Process counters, not
    /// request ones: concurrent traffic can inflate the deltas.
    fn delta_json(&self, before: &Self) -> String {
        format!(
            "{{\"menu_builds\": {}, \"constraint_compiles\": {}, \
             \"context_compiles\": {}, \"schedule_runs\": {}}}",
            self.menu_builds - before.menu_builds,
            self.constraint_compiles - before.constraint_compiles,
            self.context_compiles - before.context_compiles,
            self.schedule_runs - before.schedule_runs,
        )
    }
}

/// Parses and serves one protocol request line under an armed span
/// recorder. For a `--trace` request the response gains a `"trace"`
/// member: total and per-phase exclusive micros (zeros explicit, so a
/// warm request visibly reports `"context_compile": 0`), the span tree,
/// the cache disposition, and the solver-counter deltas.
fn serve_request_line(shared: &Shared, request: &str) -> ServedLine {
    obs::trace_begin();
    let parsed = {
        let _span = obs::span(obs::Phase::Resolve);
        protocol::parse_request(request, &mut |name: &str| shared.catalog.get(name))
    };
    match parsed {
        Err(e) => {
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .responses_err
                .fetch_add(1, Ordering::Relaxed);
            ServedLine {
                response: protocol::render_parse_error(&e),
                outcome: "parse_error",
                cache: "none",
                indices: None,
                trace: obs::trace_end(),
            }
        }
        Ok(req) => {
            let kind_counter = match &req.op {
                EngineOp::Schedule { .. } => &shared.counters.schedule_requests,
                EngineOp::Sweep { .. } => &shared.counters.sweep_requests,
                EngineOp::Bounds { .. } => &shared.counters.bounds_requests,
            };
            kind_counter.fetch_add(1, Ordering::Relaxed);
            let before = req.trace.then(SolverCounters::now);
            let (result, disposition) = shared.engine.serve_one_traced(&req);
            let (outcome_counter, outcome) = if result.is_ok() {
                (&shared.counters.responses_ok, "ok")
            } else {
                (&shared.counters.responses_err, "error")
            };
            outcome_counter.fetch_add(1, Ordering::Relaxed);
            let cache = disposition.label();
            let mut response = {
                let _span = obs::span(obs::Phase::Render);
                protocol::render_result(&req, &result)
            };
            let trace = obs::trace_end();
            if let (Some(before), Some(tree)) = (before, trace.as_ref()) {
                if response.ends_with('}') {
                    response.pop();
                    let _ = write!(
                        response,
                        ", \"trace\": {{\"total_micros\": {}, \"cache\": \"{cache}\", \
                         \"phases\": {}, \"spans\": {}, \"counters\": {}}}}}",
                        tree.total_micros,
                        tree.phases_json(true),
                        tree.spans_json(),
                        SolverCounters::now().delta_json(&before),
                    );
                }
            }
            ServedLine {
                response,
                outcome,
                cache,
                indices: Some(kind_and_cache_indices(&req.op, disposition)),
                trace,
            }
        }
    }
}

/// Renders the Prometheus text exposition of the daemon's counters
/// through the [`exposition::Writer`]. Every metric family carries its
/// `# TYPE` line (counter or gauge) so real scrapers ingest the
/// exposition, not just `grep`.
fn metrics_text(shared: &Shared) -> String {
    let (c, front) = (&shared.counters, &shared.front);
    let (registry, engine) = (shared.engine.registry(), &shared.engine);
    let reg = registry.stats();
    let sol = engine.solution_stats().unwrap_or_default();
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let gauge = |value: &AtomicU64| value.load(Ordering::SeqCst);
    let mut w = exposition::Writer::default();
    let uptime = shared.started.elapsed().as_secs_f64();
    w.scalar("soctam_uptime_seconds", uptime);
    w.scalar("soctam_connections_total", load(&front.connections));
    w.scalar("soctam_http_requests_total", load(&front.http_requests));
    w.family("soctam_requests_total", exposition::Kind::Counter);
    for (kind, counter) in [
        ("schedule", &c.schedule_requests),
        ("sweep", &c.sweep_requests),
        ("bounds", &c.bounds_requests),
    ] {
        w.sample("soctam_requests_total", &[("kind", kind)], load(counter));
    }
    // The family table: one unlabelled sample per family, counters named
    // `_total`, gauges not. The `process_` counters cover every engine in
    // the process (the instrument counters are process-wide).
    for (name, value) in [
        ("soctam_request_parse_errors_total", load(&c.parse_errors)),
        ("soctam_responses_ok_total", load(&c.responses_ok)),
        ("soctam_responses_err_total", load(&c.responses_err)),
        ("soctam_connection_timeouts_total", load(&front.timeouts)),
        (
            "soctam_request_line_oversized_total",
            load(&front.oversized_lines),
        ),
        (
            "soctam_request_cap_closes_total",
            load(&front.request_cap_closes),
        ),
        ("soctam_shed_total", load(&front.sheds)),
        ("soctam_queue_depth", gauge(&front.queue_depth)),
        ("soctam_queue_capacity", shared.cfg.max_pending as u64),
        ("soctam_worker_threads", gauge(&front.worker_threads)),
        ("soctam_worker_panics_total", load(&front.worker_panics)),
        (
            "soctam_solver_panics_recovered_total",
            engine.recovered_panics(),
        ),
        ("soctam_solution_cache_panics_total", sol.panics),
        ("soctam_context_registry_panics_total", reg.panics),
        ("soctam_solution_cache_hits_total", sol.hits),
        ("soctam_solution_cache_misses_total", sol.misses),
        ("soctam_solution_cache_coalesced_total", sol.coalesced),
        ("soctam_solution_cache_evictions_total", sol.evictions),
        ("soctam_solution_cache_failures_total", sol.failures),
        (
            "soctam_solution_cache_resident",
            engine.solutions_len() as u64,
        ),
        ("soctam_context_registry_hits_total", reg.hits),
        ("soctam_context_registry_misses_total", reg.misses),
        ("soctam_context_registry_evictions_total", reg.evictions),
        ("soctam_context_registry_resident", registry.len() as u64),
        (
            "soctam_process_schedule_runs_total",
            instrument::schedule_runs(),
        ),
        (
            "soctam_process_context_compiles_total",
            instrument::context_compiles(),
        ),
    ] {
        w.scalar(name, value);
    }
    let version = [("version", env!("CARGO_PKG_VERSION"))];
    w.family("soctam_build_info", exposition::Kind::Gauge)
        .sample("soctam_build_info", &version, 1);
    // Cumulative exclusive time per phase, in seconds. Every phase is
    // rendered (zeros included) so a balancer roll-up sums a stable
    // series set.
    w.family("soctam_phase_seconds_total", exposition::Kind::Counter);
    for (phase, micros) in obs::Phase::ALL.iter().zip(&shared.phase_micros) {
        let seconds = format_args!("{:.6}", load(micros) as f64 / 1e6);
        w.sample(
            "soctam_phase_seconds_total",
            &[("phase", phase.label())],
            seconds,
        );
    }
    // Request-latency histograms per kind × cache disposition. Only
    // populated cells render series (an exposition of 12 empty histograms
    // would drown the real ones), but the `# TYPE` header is
    // unconditional so scrapers and smoke tests can gate on the family.
    let latency = "soctam_request_latency_seconds";
    w.family(latency, exposition::Kind::Histogram);
    for (kind, row) in KIND_LABELS.iter().zip(&shared.latency) {
        for (cache, histogram) in CACHE_LABELS.iter().zip(row) {
            let snapshot = histogram.snapshot();
            if snapshot.count > 0 {
                w.histogram(latency, &[("kind", kind), ("cache", cache)], &snapshot);
            }
        }
    }
    // Fault-injection counts, one sample per armed spec. Only rendered
    // when a plan is armed: a production daemon's exposition carries no
    // chaos-harness rows.
    if let Some(plan) = &shared.cfg.fault_plan {
        w.family("soctam_fault_injected_total", exposition::Kind::Counter);
        for (label, count) in plan.injected() {
            w.sample("soctam_fault_injected_total", &[("fault", &label)], count);
        }
    }
    w.finish()
}
