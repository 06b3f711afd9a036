//! The four workloads: set-up, the untraced measurement loop, and the
//! traced loop that records spans around every layer call. The one client
//! is closed loop: it sends its next request only after the previous
//! answer arrived.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use soctam_core::engine::{CacheDisposition, Engine};
use soctam_core::protocol::render_result;
use soctam_core::schedule::{ContextRegistry, SolutionCacheStats};
use soctam_server::balance::{Balancer, BalancerConfig};
use soctam_server::client::Connection;
use soctam_server::{Server, ServerConfig};

use crate::calib;
use crate::check::{self, Catalog, Tally, Work};
use crate::cpu::Rotation;
use crate::gen;
use crate::hist::{Compact, Hist};
use crate::trace::{Recorder, Span};

/// Distinct keys in the `serve_hot` / `front_hot` working set: one whole
/// stratified block, so every seed serves the same mix of kinds, SOCs,
/// and modes, and only the widths change.
pub const HOT_KEYS: usize = 48;

/// Responses kept for the byte-identity sample check.
const SAMPLES: usize = 16;

/// How long a pinned run stays on one CPU before it moves to the next
/// (see [`crate::cpu`]), and how often a run reads the host's speed (see
/// [`crate::calib`]).
const CPU_SLICE: Duration = Duration::from_millis(100);

/// Stratified blocks in the `oneshot` stream (48 requests each).
const ONESHOT_BLOCKS: usize = 128;

/// In a traced run, every this-many-th daemon request carries `--trace`,
/// so the daemon reports its own cache disposition and parse-to-render
/// time, to be checked against the in-process mirror.
const DAEMON_TRACE_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Oneshot,
    ServeCold,
    ServeHot,
    FrontHot,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Oneshot,
        Kind::ServeCold,
        Kind::ServeHot,
        Kind::FrontHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Oneshot => "oneshot",
            Kind::ServeCold => "serve_cold",
            Kind::ServeHot => "serve_hot",
            Kind::FrontHot => "front_hot",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the run is pinned to one CPU at a time (see [`crate::cpu`]): every
    /// daemon workload, whose single client makes each request a chain of
    /// thread hand-offs. `oneshot` stays unpinned, so its context compile
    /// builds menus on every CPU, as the CLI does.
    pub fn pinned(self) -> bool {
        self != Kind::Oneshot
    }

    /// The windows a run is split into; the end-to-end timings come from
    /// the fastest quarter of them (see [`Measured::fastest_quarter`]). A
    /// pinned run's window is its CPU slice, so each window sees one CPU
    /// in one host state; `oneshot`'s holds about ten stratified blocks of
    /// requests.
    fn window(self) -> Duration {
        if self.pinned() {
            CPU_SLICE
        } else {
            Duration::from_secs(1)
        }
    }

    /// The fixed verification key list and how to serve it.
    pub fn verification(self) -> (Vec<String>, check::VerifyMode) {
        match self {
            Kind::Oneshot => (gen::verify_oneshot(), check::VerifyMode::Fresh),
            Kind::ServeCold => (gen::verify_cold(), check::VerifyMode::Cold),
            Kind::ServeHot | Kind::FrontHot => (gen::verify_hot(), check::VerifyMode::Hot),
        }
    }
}

/// A set-up workload: its seeded request lines and its running daemons.
pub struct Env {
    kind: Kind,
    catalog: Catalog,
    /// The request lines the client cycles through. `oneshot`: the
    /// request stream; `serve_cold`: the key cycle; `serve_hot` /
    /// `front_hot`: the hot key set, in seeded order.
    lines: Vec<String>,
    /// Next position in `lines`, carried across phases so a cold cycle
    /// never revisits a recently cached key.
    cursor: usize,
    servers: Vec<Server>,
    front: Option<Balancer>,
}

fn warm(server: &Server, lines: &[String]) -> Result<(), String> {
    let report = server.warm_from_text(&lines.join("\n"));
    if report.ok == lines.len() {
        Ok(())
    } else {
        Err(format!(
            "pre-warm solved {} of {} requests",
            report.ok,
            lines.len()
        ))
    }
}

fn bind(threads: usize) -> Result<Server, String> {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("loopback bind: {e}"))
}

impl Env {
    /// Binds the workload's daemons, generates its seeded request lines,
    /// and pre-warms: this is what `setup_s` times.
    pub fn setup(kind: Kind, seed: u64, catalog: &Catalog) -> Result<Self, String> {
        let mut env = Self {
            kind,
            catalog: catalog.clone(),
            lines: Vec::new(),
            cursor: 0,
            servers: Vec::new(),
            front: None,
        };
        match kind {
            Kind::Oneshot => {
                env.lines = gen::oneshot_stream(seed, ONESHOT_BLOCKS);
                // One cold solve per SOC: code and thread start-up, not caching.
                for soc in gen::SOCS {
                    let req = catalog.parse(&format!("bounds {soc} --widths 16"))?;
                    Engine::new()
                        .serve_one(&req)
                        .map_err(|e| format!("pre-warm: {e}"))?;
                }
            }
            Kind::ServeCold => {
                let server = bind(2)?;
                warm(&server, &gen::context_warmers())?;
                env.servers.push(server);
                env.lines = gen::cold_cycle(seed);
            }
            Kind::ServeHot => {
                let server = bind(2)?;
                env.lines = gen::hot_keys(seed, HOT_KEYS);
                warm(&server, &env.lines)?;
                env.servers.push(server);
            }
            Kind::FrontHot => {
                env.lines = gen::hot_keys(seed, HOT_KEYS);
                // Each backend holds every hot key, so the front's route
                // and a direct request to either backend are both hits.
                // Four workers: the front's pooled connections (at most
                // two), the traced run's direct connection, and the probes.
                for _ in 0..2 {
                    let server = bind(4)?;
                    warm(&server, &env.lines)?;
                    env.servers.push(server);
                }
                let addrs: Vec<SocketAddr> = env.servers.iter().map(Server::local_addr).collect();
                let front = Balancer::bind(
                    "127.0.0.1:0",
                    &addrs,
                    BalancerConfig {
                        threads: 2,
                        ..BalancerConfig::default()
                    },
                )
                .map_err(|e| format!("balancer bind: {e}"))?;
                // Route every key once: fills the front's backend pools.
                let mut conn =
                    Connection::connect(front.local_addr()).map_err(|e| format!("connect: {e}"))?;
                for line in &env.lines {
                    let response = conn.request(line).map_err(|e| format!("pre-warm: {e}"))?;
                    if !check::response_sound(&response) {
                        return Err(format!("pre-warm through the front failed: {response}"));
                    }
                }
                env.front = Some(front);
            }
        }
        Ok(env)
    }

    /// Where the client sends its requests.
    fn target(&self) -> SocketAddr {
        match &self.front {
            Some(front) => front.local_addr(),
            None => self.servers[0].local_addr(),
        }
    }

    fn solution_stats(&self) -> SolutionCacheStats {
        let mut sum = SolutionCacheStats::default();
        for s in &self.servers {
            let st = s.engine().solution_stats().unwrap_or_default();
            sum.hits += st.hits;
            sum.misses += st.misses;
            sum.coalesced += st.coalesced;
            sum.evictions += st.evictions;
        }
        sum
    }

    fn server_counter(&self, name: &str) -> u64 {
        self.servers
            .iter()
            .map(|s| metric(&s.metrics(), name).unwrap_or(0))
            .sum()
    }

    /// The daemons' shed count and the front's failover count so far.
    /// Both must stay flat during a measurement: no workload opens more
    /// connections than there are workers, and no backend fails.
    fn fault_counts(&self) -> (u64, u64) {
        let failovers = self.front.as_ref().map_or(0, |f| {
            metric(&f.metrics(), "soctam_balance_failover_total").unwrap_or(0)
        });
        (self.server_counter("soctam_shed_total"), failovers)
    }

    fn connect(&self, addr: SocketAddr) -> Option<Connection> {
        Connection::connect(addr)
            .map_err(|e| eprintln!("perfbench: connect {addr}: {e}"))
            .ok()
    }

    /// Measures for `seconds` with no tracing: the closed-loop client
    /// times every request it sends and keeps its first responses for the
    /// byte-identity check. At the end of every CPU slice a pinned run
    /// moves to the next CPU, and every run reads the host's speed.
    pub fn measure(&mut self, seconds: f64, mut rotation: Option<&mut Rotation>) -> Measured {
        let (sheds_before, failovers_before) = self.fault_counts();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut out = Measured::default();
        let mut conn = None;
        if self.kind != Kind::Oneshot {
            conn = self.connect(self.target());
            if conn.is_none() {
                out.hist.record_failure();
                return out;
            }
        }
        let (hist, samples, windows) = (&mut out.hist, &mut out.samples, &mut out.windows);
        let mut window = Hist::default();
        let (mut window_start, mut slice_start) = (start, start);
        while Instant::now() < deadline {
            let window_due = window_start.elapsed() >= self.kind.window();
            if window_due {
                Window::close(windows, &window, window_start);
                window = Hist::default();
            }
            if slice_start.elapsed() >= CPU_SLICE {
                if let Some(r) = rotation.as_deref_mut() {
                    r.advance();
                }
                out.calibration_ns.push(calib::sample_ns());
                slice_start = Instant::now();
            }
            if window_due {
                window_start = Instant::now();
            }
            let line = &self.lines[self.cursor % self.lines.len()];
            self.cursor += 1;
            let t0 = Instant::now();
            let response = match conn.as_mut() {
                None => self.catalog.parse(line).map(|req| {
                    let (result, _) = Engine::new().serve_one_traced(&req);
                    render_result(&req, &result)
                }),
                Some(conn) => conn.request(line).map_err(|e| e.to_string()),
            };
            let ns = t0.elapsed().as_nanos() as u64;
            match response {
                Ok(response) if check::response_sound(&response) => {
                    hist.record_ns(ns);
                    window.record_ns(ns);
                    if samples.len() < SAMPLES {
                        samples.push((line.clone(), response));
                    }
                }
                other => {
                    eprintln!("perfbench: request `{line}` failed: {other:?}");
                    hist.record_failure();
                    window.record_failure();
                }
            }
        }
        Window::close(windows, &window, window_start);
        out.wall_s = start.elapsed().as_secs_f64();
        let (sheds, failovers) = self.fault_counts();
        out.sheds = sheds - sheds_before;
        out.failovers = failovers - failovers_before;
        out
    }

    /// Measures for `seconds` with spans around every layer call. Each
    /// request is sent as in [`Env::measure`]; afterwards, outside its
    /// timed span, the same request goes straight to a backend (front
    /// only), through an in-process mirror of the daemon's engine, and, on
    /// a miss, through the decomposed miss path.
    pub fn measure_traced(&mut self, seconds: f64, rotation: Option<&mut Rotation>) -> Traced {
        let epoch = Instant::now();

        // The mirror answers the same requests in the same state as the
        // daemon; the replay registry is warmed the same way, so the
        // decomposed path finds what the mirror's own registry had.
        let mirror = check::daemon_like_engine(check::daemon_like_registry());
        let replay_registry = check::daemon_like_registry();
        let warmers = match self.kind {
            Kind::Oneshot => Vec::new(),
            Kind::ServeCold => gen::context_warmers(),
            Kind::ServeHot | Kind::FrontHot => self.lines.clone(),
        };
        for line in &warmers {
            let req = self.catalog.parse(line).expect("warm request parses");
            let _ = mirror.serve_one(&req);
            if self.kind == Kind::ServeCold {
                let mut unused = Recorder::new(epoch);
                let _ = check::decompose(
                    &mut unused,
                    0,
                    &replay_registry,
                    &req,
                    &mut Tally::default(),
                );
            }
        }

        let stats_before = self.solution_stats();
        let sheds_before = self.server_counter("soctam_shed_total");
        let conns_before = self.server_counter("soctam_connections_total");
        let front_before = self.front.as_ref().map(|f| FrontCounts::of(&f.metrics()));
        let registry_before = replay_registry.stats();

        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut out = Traced::default();
        let mut rec = Recorder::new(epoch);
        self.traced_loop(
            &mut out,
            &mut rec,
            deadline,
            rotation,
            &mirror,
            &replay_registry,
        );
        out.spans = rec.spans;

        let stats = self.solution_stats();
        let registry = replay_registry.stats();
        out.sheds = self.server_counter("soctam_shed_total") - sheds_before;
        out.connections = self.server_counter("soctam_connections_total") - conns_before;
        out.cache_hits = stats.hits + stats.coalesced - stats_before.hits - stats_before.coalesced;
        out.cache_misses = stats.misses - stats_before.misses;
        out.cache_evictions = stats.evictions - stats_before.evictions;
        out.registry_hits += registry.hits - registry_before.hits;
        out.registry_misses += registry.misses - registry_before.misses;
        if let (Some(front), Some(before)) = (&self.front, front_before) {
            let after = FrontCounts::of(&front.metrics());
            out.failovers = after.failovers - before.failovers;
            let routed: Vec<u64> = after
                .routed
                .iter()
                .zip(&before.routed)
                .map(|(a, b)| a - b)
                .collect();
            let mean = routed.iter().sum::<u64>() as f64 / routed.len().max(1) as f64;
            out.route_imbalance = routed.iter().copied().max().unwrap_or(0) as f64 / mean;
        }
        out
    }

    fn traced_loop(
        &mut self,
        out: &mut Traced,
        rec: &mut Recorder,
        deadline: Instant,
        mut rotation: Option<&mut Rotation>,
        mirror: &Engine,
        replay_registry: &ContextRegistry,
    ) {
        let hist = &mut out.hist;
        let mut conn = None;
        let mut direct = Vec::new();
        if self.kind != Kind::Oneshot {
            conn = self.connect(self.target());
            if self.front.is_some() {
                direct = self
                    .servers
                    .iter()
                    .filter_map(|s| self.connect(s.local_addr()))
                    .collect();
            }
            if conn.is_none()
                || direct.len() != self.front.as_ref().map_or(0, |_| self.servers.len())
            {
                hist.record_failure();
                return;
            }
        }
        let mut next_rid = 0u64;
        let mut slice_end = Instant::now() + CPU_SLICE;
        while Instant::now() < deadline {
            if Instant::now() >= slice_end {
                if let Some(r) = rotation.as_deref_mut() {
                    r.advance();
                }
                slice_end = Instant::now() + CPU_SLICE;
            }
            let line = &self.lines[self.cursor % self.lines.len()];
            self.cursor += 1;
            let rid = next_rid;
            next_rid += 1;
            // Every few daemon requests ask the daemon for its own trace.
            let daemon_traced = conn.is_some() && rid.is_multiple_of(DAEMON_TRACE_EVERY);

            // The request as its caller sees it.
            let root = rec.open("request", rid);
            let (served, oneshot) = match conn.as_mut() {
                Some(conn) => {
                    let wire = if self.front.is_some() {
                        "balance.wire"
                    } else {
                        "server.wire"
                    };
                    let with_trace;
                    let sent = if daemon_traced {
                        with_trace = format!("{line} --trace");
                        &with_trace
                    } else {
                        line
                    };
                    (
                        rec.time(wire, rid, || conn.request(sent).map_err(|e| e.to_string())),
                        None,
                    )
                }
                None => match rec.time("protocol.parse", rid, || self.catalog.parse(line)) {
                    Err(e) => (Err(e), None),
                    Ok(req) => {
                        let id = rec.open("engine.serve", rid);
                        let (result, disposition) = Engine::new().serve_one_traced(&req);
                        rec.close(id);
                        rec.rename(id, serve_span_name(disposition));
                        let response =
                            rec.time("protocol.render", rid, || render_result(&req, &result));
                        (Ok(response.clone()), Some((req, response, disposition)))
                    }
                },
            };
            rec.close(root);
            let (served, daemon) = match served {
                Ok(response) if daemon_traced => {
                    let (response, daemon) = check::split_daemon_trace(&response);
                    (Ok(response), daemon)
                }
                other => (other, None),
            };
            let served = match served {
                Ok(response) if check::response_sound(&response) => response,
                other => {
                    eprintln!("perfbench: request `{line}` failed: {other:?}");
                    hist.record_failure();
                    continue;
                }
            };
            let request_ns = rec.spans[root].end_ns - rec.spans[root].start_ns;
            hist.record_ns(request_ns);

            let (req, answer, disposition, mirror_us) = match oneshot {
                Some((req, answer, disposition)) => (req, answer, disposition, 0.0),
                None => {
                    if !direct.is_empty() {
                        let d = rec.open("direct", rid);
                        let which = rid as usize % direct.len();
                        let backend = &mut direct[which];
                        let response = rec.time("server.wire", rid, || {
                            backend.request(line).map_err(|e| e.to_string())
                        });
                        rec.close(d);
                        if response.as_deref() != Ok(served.as_str()) {
                            out.mismatches += 1;
                        }
                    }
                    let m = rec.open("mirror", rid);
                    let req = rec
                        .time("protocol.parse", rid, || self.catalog.parse(line))
                        .expect("a served line parses");
                    let id = rec.open("engine.serve", rid);
                    let (result, disposition) = mirror.serve_one_traced(&req);
                    rec.close(id);
                    rec.rename(id, serve_span_name(disposition));
                    let response =
                        rec.time("protocol.render", rid, || render_result(&req, &result));
                    rec.close(m);
                    (req, response, disposition, rec.spans[m].micros())
                }
            };
            if answer != served {
                out.mismatches += 1;
            }

            // The daemon's own account of a sampled request must match the
            // mirror's: the same cache disposition, and a parse-to-render
            // time within the wire time the client saw.
            if daemon_traced {
                match daemon {
                    Some(d)
                        if d.cache == disposition.label()
                            && d.total_us as f64 <= request_ns as f64 / 1e3 =>
                    {
                        out.daemon_samples += 1;
                        out.daemon_us += d.total_us as f64;
                        out.mirror_us += mirror_us;
                    }
                    Some(d) => {
                        eprintln!(
                            "perfbench: daemon trace of `{line}` disagrees: cache {} \
                             (mirror {}), {} us of a {} ns request",
                            d.cache,
                            disposition.label(),
                            d.total_us,
                            request_ns
                        );
                        out.mismatches += 1;
                    }
                    None => {
                        eprintln!("perfbench: no daemon trace in the answer to `{line}`");
                        out.mismatches += 1;
                    }
                }
            }

            // A miss replays through the decomposed public calls, on a
            // registry in the state the engine's own registry had: a fresh
            // one for `oneshot`, the warmed replay registry otherwise.
            if disposition != CacheDisposition::Hit {
                let fresh = ContextRegistry::default();
                let registry = if self.kind == Kind::Oneshot {
                    &fresh
                } else {
                    replay_registry
                };
                let r = rec.open("replay", rid);
                let before = Work::now();
                let result = check::decompose(rec, rid, registry, &req, &mut out.tally);
                out.work.merge(Work::now().since(before));
                rec.close(r);
                if self.kind == Kind::Oneshot {
                    let st = fresh.stats();
                    out.registry_hits += st.hits;
                    out.registry_misses += st.misses;
                }
                if render_result(&req, &result) != answer {
                    out.mismatches += 1;
                }
            }
        }
    }
}

fn serve_span_name(disposition: CacheDisposition) -> &'static str {
    match disposition {
        CacheDisposition::Hit => "solution_cache.hit",
        CacheDisposition::Miss | CacheDisposition::Coalesced | CacheDisposition::Uncached => {
            "engine.miss"
        }
    }
}

/// Reads one unlabelled sample from a Prometheus exposition.
fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// The front's routing counters.
struct FrontCounts {
    routed: Vec<u64>,
    failovers: u64,
}

impl FrontCounts {
    fn of(text: &str) -> Self {
        Self {
            routed: text
                .lines()
                .filter(|l| l.starts_with("soctam_balance_routed_total{"))
                .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
                .collect(),
            failovers: metric(text, "soctam_balance_failover_total").unwrap_or(0),
        }
    }
}

/// One [`Kind::window`] of an untraced run.
#[derive(Debug)]
pub struct Window {
    p50_ms: f64,
    secs: f64,
    hist: Compact,
}

impl Window {
    /// Ends the window begun at `start` that recorded `hist`, keeping it
    /// if it saw a request.
    fn close(windows: &mut Vec<Window>, hist: &Hist, start: Instant) {
        if hist.samples() > 0 {
            windows.push(Window {
                p50_ms: hist.quantile_ms(0.5),
                secs: start.elapsed().as_secs_f64(),
                hist: hist.compact(),
            });
        }
    }
}

/// Client-side outcome of an untraced measurement.
#[derive(Debug, Default)]
pub struct Measured {
    pub hist: Hist,
    pub windows: Vec<Window>,
    /// One [`calib::sample_ns`] reading per CPU slice.
    pub calibration_ns: Vec<f64>,
    pub wall_s: f64,
    /// `(request line, response)` pairs for the byte-identity check.
    pub samples: Vec<(String, String)>,
    pub sheds: u64,
    pub failovers: u64,
}

impl Measured {
    /// The quarter of the run's windows with the lowest median latency:
    /// their merged latencies and their summed length in seconds.
    pub fn fastest_quarter(&self) -> (Hist, f64) {
        let mut order: Vec<&Window> = self.windows.iter().collect();
        order.sort_by(|a, b| a.p50_ms.total_cmp(&b.p50_ms));
        let mut hist = Hist::default();
        let mut secs = 0.0;
        for w in &order[..self.windows.len().div_ceil(4)] {
            hist.merge(&w.hist);
            secs += w.secs;
        }
        (hist, secs)
    }
}

/// Outcome of a traced measurement.
#[derive(Default)]
pub struct Traced {
    pub hist: Hist,
    pub spans: Vec<Span>,
    /// Sweep tallies and work counters of the decomposed miss path.
    pub tally: Tally,
    pub work: Work,
    /// Responses that differ between the wire, the mirror engine, the
    /// direct backend, or the decomposed path.
    pub mismatches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub registry_hits: u64,
    pub registry_misses: u64,
    /// Daemon requests sent with `--trace`, and the summed parse-to-render
    /// time the daemon reported for them and the mirror took for them.
    pub daemon_samples: u64,
    pub daemon_us: f64,
    pub mirror_us: f64,
    pub sheds: u64,
    pub connections: u64,
    pub failovers: u64,
    pub route_imbalance: f64,
}
