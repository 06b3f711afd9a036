//! `soctam balance`: a consistent-hash front over a ring of backend
//! daemons.
//!
//! One [`Server`](crate::Server) process saturates at the loopback
//! throughput `BENCH_serve.json` records; scaling past it means N
//! processes — but a round-robin front would smear each request key
//! across every backend's `SolutionCache`, multiplying solver work N-fold
//! and capping every shard's hit rate. The balancer instead routes on the
//! *solution-cache identity* of each request
//! ([`soctam_core::protocol::route_key`]): it speaks the same
//! newline-delimited protocol, parses every request line with the shared
//! grammar, hashes the parsed request's cache key onto a ring of virtual
//! nodes, and proxies the raw line to the owning backend over a pooled
//! [`RetryingClient`]. Requests the backends would cache as one entry
//! land on one shard — caches stay hot and mutually disjoint.
//!
//! # Placement
//!
//! Each backend owns 64 virtual nodes, placed by the backend's position
//! in the `--backends` list, not by its address: the same list splits the
//! keys the same way whichever ports the backends bind. Appending a
//! backend moves about 1/n of the keys (n counting the newcomer) onto it
//! and leaves the rest in place; reordering the list reshuffles them.
//!
//! # Failover
//!
//! Candidate backends are tried in ring order from the key's point: the
//! owner first, then each successor. A transport failure marks the
//! backend down (the request moves on, and so does every later request,
//! until the prober sees it healthy again); an admission-control shed
//! (`"busy": true`, read as a real top-level field) moves the request on
//! without marking the backend down — it is saturated, not dead. If every
//! backend fails, the client gets the last busy answer, or a structured
//! `{"ok": false, "transient": true, ...}` line it can retry against.
//! Requests served by any backend but the ring owner count into
//! `soctam_balance_failover_total`.
//!
//! # Health probing
//!
//! A background prober issues `GET /healthz` to every backend each
//! interval. The daemon's health endpoint is load-aware (`503` while its
//! pending queue is saturated), so a drowning backend sheds its *new*
//! traffic onto its ring successors and rejoins automatically once it
//! drains — the same signal any external load balancer would use.
//!
//! # HTTP surface
//!
//! The front answers `GET /healthz` (`200` while at least one backend is
//! up, else `503`) and `GET /metrics`: its own `soctam_balance_*`
//! families — including a `soctam_balance_proxy_latency_seconds`
//! histogram over every proxied request line — plus a roll-up: the sum,
//! per series, of every live backend's exposition, so one scrape sees
//! cluster-wide cache hits, sheds, solver counters, and latency
//! histograms (bucket counts are integral, so summing series merges the
//! backends' histograms bucket-wise, exactly). Both halves render through
//! the [`exposition`] writer, and each backend scrape
//! is read with its strict reader: a backend whose scrape does not parse
//! is left out of the roll-up, like one that is down.
//!
//! # Client connections
//!
//! The front takes client connections through the daemon's own connection
//! front: the same bounded admission (`503` + `Retry-After` for HTTP
//! peers, a structured busy line for protocol peers once the queue is
//! full), worker respawn, line caps, and idle deadlines. It has no drain
//! window: a proxied request is bounded by the pooled clients' I/O
//! deadline, so shutdown severs client connections at once.
//!
//! # Sizing the connection pool
//!
//! Each backend worker serves one connection until it closes, and pooled
//! connections are long-lived: a backend must be run with more worker
//! threads than the front's `backend_conns`, or the pool would pin every
//! worker and starve the backend's own health endpoint. The defaults
//! (`backend_conns = 2` against the daemon's 4 workers) leave headroom
//! for probes, scrapes, and direct clients.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use soctam_core::protocol;
use soctam_core::schedule::lock_unpoisoned;
use soctam_core::schedule::obs;

use crate::client::{self, RetryPolicy, RetryingClient};
use crate::exposition;
use crate::front::{Conn, Front, FrontStats, Handler, Limits};

/// Configuration of a balancer front.
#[derive(Debug, Clone)]
pub struct BalancerConfig {
    /// Worker threads proxying client connections (each serves one
    /// connection at a time; clamped to at least 1).
    pub threads: usize,
    /// Most accepted connections that may wait for a free worker before
    /// the front starts shedding (clamped to at least 1).
    pub max_pending: usize,
    /// Byte cap on one request line (and each HTTP header line); clamped
    /// to at least 64. Should match the backends' cap — a line the front
    /// accepts but a backend rejects is answered with the backend's
    /// parse error either way.
    pub max_line_bytes: usize,
    /// Per-client-connection read/write deadline; `None` trusts peers to
    /// hang up.
    pub idle_timeout: Option<Duration>,
    /// How often the prober sweeps every backend's `/healthz`; clamped to
    /// at least 10 ms.
    pub probe_interval: Duration,
    /// Deadline on each probe (and each roll-up scrape), so one hung
    /// backend cannot stall the sweep.
    pub probe_timeout: Duration,
    /// Retry policy of each pooled backend client: extra attempts per
    /// proxied request before the front fails over to the next backend.
    pub retries: u32,
    /// Base backoff of the pooled clients' retry policy.
    pub backoff: Duration,
    /// Pooled connections per backend — the front's concurrency ceiling
    /// toward one shard. Must stay *below* the backends' worker-thread
    /// count (see the module docs); clamped to at least 1.
    pub backend_conns: usize,
}

impl Default for BalancerConfig {
    /// Eight workers, a 64-connection pending queue, 64 KiB lines,
    /// 30-second peer deadlines; 1-second probes with 1-second deadlines;
    /// one retry at 25 ms base backoff, two pooled connections per
    /// backend.
    fn default() -> Self {
        Self {
            threads: 8,
            max_pending: 64,
            max_line_bytes: 64 * 1024,
            idle_timeout: Some(Duration::from_secs(30)),
            probe_interval: Duration::from_secs(1),
            probe_timeout: Duration::from_secs(1),
            retries: 1,
            backoff: Duration::from_millis(25),
            backend_conns: 2,
        }
    }
}

/// The answer written when every candidate backend failed without even a
/// busy line to relay: structured, transient, retryable — a
/// [`RetryingClient`] absorbs a whole-cluster blip the same way it
/// absorbs one daemon's shed.
const NO_BACKEND_RESPONSE: &str =
    "{\"ok\": false, \"transient\": true, \"error\": \"no backend available; retry with backoff\"}";

/// The idle/outstanding accounting of one backend's connection pool.
#[derive(Default)]
struct PoolInner {
    idle: Vec<RetryingClient>,
    /// Connections checked out or being established; `idle.len() +
    /// outstanding` never exceeds `backend_conns`.
    outstanding: usize,
}

/// Read/write deadline on pooled backend connections: a backend that
/// stops answering surfaces as a failover, not a front worker blocked
/// forever.
const BACKEND_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One backend daemon: its routing state and its connection pool.
struct Backend {
    addr: SocketAddr,
    /// The `backend="..."` label value on this backend's metric samples.
    label: String,
    /// Routing eligibility: cleared on transport failure or a 503/dead
    /// probe, restored by a healthy probe (or by answering a desperation
    /// pass). Starts `true` so the front serves before the first sweep.
    up: AtomicBool,
    /// Requests this backend answered through the front.
    routed: AtomicU64,
    pool: Mutex<PoolInner>,
    available: Condvar,
}

impl Backend {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            label: addr.to_string(),
            up: AtomicBool::new(true),
            routed: AtomicU64::new(0),
            pool: Mutex::new(PoolInner::default()),
            available: Condvar::new(),
        }
    }

    /// Takes a pooled client, establishing one if the pool is under its
    /// cap, else waiting (shutdown-aware) for a checkin. `None` on
    /// shutdown or connect-policy failure.
    fn checkout(&self, shared: &Proxy) -> Option<RetryingClient> {
        let mut pool = lock_unpoisoned(&self.pool);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(conn) = pool.idle.pop() {
                pool.outstanding += 1;
                return Some(conn);
            }
            if pool.outstanding < shared.cfg.backend_conns {
                pool.outstanding += 1;
                drop(pool);
                // Decorrelated jitter per pooled connection: a failover
                // herd toward one backend must not back off in lockstep.
                let seq = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                let policy = RetryPolicy {
                    retries: shared.cfg.retries,
                    backoff: shared.cfg.backoff,
                    seed: 0x50c7_ba1a ^ seq,
                };
                return match RetryingClient::new(self.addr, policy) {
                    Ok(conn) => Some(conn.with_io_timeout(Some(BACKEND_IO_TIMEOUT))),
                    Err(_) => {
                        self.discard();
                        None
                    }
                };
            }
            let (guard, _) = self
                .available
                .wait_timeout(pool, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            pool = guard;
        }
    }

    /// Returns a healthy client to the pool.
    fn checkin(&self, conn: RetryingClient) {
        let mut pool = lock_unpoisoned(&self.pool);
        pool.outstanding -= 1;
        pool.idle.push(conn);
        drop(pool);
        self.available.notify_one();
    }

    /// Drops a checked-out client whose transport (or backend) died,
    /// freeing its pool slot.
    fn discard(&self) {
        let mut pool = lock_unpoisoned(&self.pool);
        pool.outstanding -= 1;
        drop(pool);
        self.available.notify_one();
    }
}

/// Virtual nodes per backend on the hash ring; more replicas smooth the
/// key distribution.
const REPLICAS: usize = 64;

/// The consistent-hash ring: sorted virtual-node points, each owned by a
/// backend index.
struct Ring {
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl Ring {
    /// Places `replicas` points for each of `backends` backends, hashing
    /// each point's `(position, replica)` — not the backend's address, so
    /// the same backend list splits keys the same way whatever ports it
    /// binds.
    fn new(backends: usize, replicas: usize) -> Self {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut points = Vec::with_capacity(backends * replicas);
        for index in 0..backends {
            for replica in 0..replicas {
                // DefaultHasher uses fixed SipHash keys: the ring layout,
                // like the route key, is stable across processes.
                let mut h = DefaultHasher::new();
                (index as u64, replica as u64).hash(&mut h);
                points.push((h.finish(), index));
            }
        }
        points.sort_unstable();
        Self { points, backends }
    }

    /// Every backend index in ring order from `key`'s point: the owner
    /// first, then each distinct successor — the failover order.
    fn candidates(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(point, _)| point < key);
        let mut seen = vec![false; self.backends];
        let mut order = Vec::with_capacity(self.backends);
        for offset in 0..self.points.len() {
            let (_, index) = self.points[(start + offset) % self.points.len()];
            if !seen[index] {
                seen[index] = true;
                order.push(index);
                if order.len() == self.backends {
                    break;
                }
            }
        }
        order
    }
}

/// Proxy-side traffic counters (`soctam_balance_*` families, next to the
/// front's connection counters).
#[derive(Default)]
struct ProxyCounters {
    parse_errors: AtomicU64,
    /// Requests answered by a backend other than their ring owner.
    failovers: AtomicU64,
    /// Requests no backend could answer.
    unrouted: AtomicU64,
    /// Completed prober sweeps over the whole backend set.
    probes: AtomicU64,
}

/// The balancer's request handler: parse, route, and proxy over the
/// backend pools, shared with the prober and the scrape path.
struct Proxy {
    cfg: BalancerConfig,
    backends: Vec<Backend>,
    ring: Ring,
    catalog: protocol::BenchmarkCatalog,
    counters: ProxyCounters,
    /// The front's connection counters and gauges.
    front: Arc<FrontStats>,
    started: Instant,
    /// Stops the prober and any worker waiting on a full backend pool.
    shutdown: AtomicBool,
    conn_seq: AtomicU64,
    /// Wall latency of each proxied request line (parse, route, forward,
    /// and failover passes included) — `soctam_balance_proxy_latency_seconds`.
    proxy_latency: obs::Histogram,
}

impl Proxy {
    fn any_backend_up(&self) -> bool {
        self.backends.iter().any(|b| b.up.load(Ordering::SeqCst))
    }
}

impl Handler for Proxy {
    fn line(&self, conn: &Conn<'_>, line: &str) -> Option<String> {
        conn.begin_request();
        let t0 = Instant::now();
        let response = proxy_request(self, line);
        self.proxy_latency.record(t0.elapsed());
        Some(response)
    }

    /// `/healthz` (cluster-aware), `/metrics` (front families + roll-up),
    /// 404.
    fn http(&self, path: &str) -> (&'static str, String) {
        match path {
            "/healthz" if !self.any_backend_up() => (
                "503 Service Unavailable",
                "no backend available\n".to_owned(),
            ),
            "/healthz" => ("200 OK", "ok\n".to_owned()),
            "/metrics" => ("200 OK", front_metrics(self)),
            _ => ("404 Not Found", "not found\n".to_owned()),
        }
    }

    fn oversized(&self, _conn: &Conn<'_>) {
        self.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running balancer front. Dropping (or [`Balancer::shutdown`]) stops
/// accepting, severs client connections, and joins every thread.
pub struct Balancer {
    shared: Arc<Proxy>,
    front: Front<Proxy>,
    prober: Option<JoinHandle<()>>,
}

impl Balancer {
    /// Binds `addr` and starts the acceptor, worker, and prober threads
    /// over the given backend ring.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, and rejects an empty backend list —
    /// a front with nothing behind it is a misconfiguration, not a
    /// degraded state.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: &[SocketAddr],
        mut cfg: BalancerConfig,
    ) -> io::Result<Self> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a balancer needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        cfg.threads = cfg.threads.max(1);
        cfg.max_pending = cfg.max_pending.max(1);
        cfg.max_line_bytes = cfg.max_line_bytes.max(64);
        cfg.backend_conns = cfg.backend_conns.max(1);
        cfg.probe_interval = cfg.probe_interval.max(Duration::from_millis(10));

        let backends: Vec<Backend> = backends.iter().copied().map(Backend::new).collect();
        // No drain window: front requests are bounded by the pooled
        // clients' I/O deadline, so severing client connections at once
        // unblocks every worker promptly without corrupting backend state.
        let limits = Limits {
            name: "balancer",
            threads: cfg.threads,
            max_pending: cfg.max_pending,
            max_line_bytes: cfg.max_line_bytes,
            idle_timeout: cfg.idle_timeout,
            max_requests: None,
            drain: Duration::ZERO,
        };
        let shared = Arc::new(Proxy {
            ring: Ring::new(backends.len(), REPLICAS),
            cfg,
            backends,
            catalog: protocol::benchmark_resolver(),
            counters: ProxyCounters::default(),
            front: Arc::default(),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            proxy_latency: obs::Histogram::new(),
        });
        let front = Front::start(
            listener,
            limits,
            Arc::clone(&shared.front),
            Arc::clone(&shared),
        )?;
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || probe_loop(&shared))
        };
        Ok(Self {
            shared,
            front,
            prober: Some(prober),
        })
    }

    /// The address the front is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Per-backend health, in construction order — what the prober (and
    /// failover path) currently believe.
    #[must_use]
    pub fn backends_up(&self) -> Vec<bool> {
        self.shared
            .backends
            .iter()
            .map(|b| b.up.load(Ordering::SeqCst))
            .collect()
    }

    /// The current front exposition, exactly as `GET /metrics` returns
    /// it: `soctam_balance_*` families plus the backend roll-up.
    pub fn metrics(&self) -> String {
        front_metrics(&self.shared)
    }

    /// Stops accepting, severs client connections, and joins every
    /// thread. Pooled backend connections close; the backends stay up.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks until the front stops accepting (i.e. forever, for a front
    /// only a signal will stop) — the foreground mode `soctam balance`
    /// uses.
    pub fn join(mut self) {
        self.front.join();
    }
}

impl Drop for Balancer {
    fn drop(&mut self) {
        // First release workers waiting on a full backend pool, then stop
        // the front, then the prober.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.front.shutdown();
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }
}

impl std::fmt::Debug for Balancer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Balancer")
            .field("addr", &self.local_addr())
            .field("backends", &self.shared.backends.len())
            .finish_non_exhaustive()
    }
}

/// The prober: sweeps every backend's `/healthz` each interval, marking
/// 200s up and everything else (503, refused, hung) down.
fn probe_loop(shared: &Proxy) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        for backend in &shared.backends {
            let healthy = matches!(
                client::http_get_timeout(backend.addr, "/healthz", shared.cfg.probe_timeout),
                Ok((status, _)) if status.contains("200")
            );
            backend.up.store(healthy, Ordering::SeqCst);
        }
        shared.counters.probes.fetch_add(1, Ordering::Relaxed);
        // Sleep in slices so shutdown never waits out a long interval.
        let deadline = Instant::now() + shared.cfg.probe_interval;
        while Instant::now() < deadline {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// What one forwarding attempt toward one backend produced.
enum Forward {
    /// A real answer (ok, engine error, or parse error — the backend
    /// spoke; the front relays verbatim).
    Answered(String),
    /// The backend shed the request: saturated, not dead — fail over but
    /// keep it routable.
    Busy(String),
    /// Transport-dead (connect refused, severed, hung past the deadline):
    /// marked down until the prober sees it healthy.
    Dead,
}

/// Forwards one raw request line to one backend over its pool.
fn forward(shared: &Proxy, backend: &Backend, line: &str) -> Forward {
    let Some(mut conn) = backend.checkout(shared) else {
        return Forward::Dead;
    };
    match conn.request_classified(line) {
        Ok((response, flags)) => {
            if flags.busy {
                // The daemon closes right after a busy answer: the pooled
                // transport is gone with it.
                backend.discard();
                Forward::Busy(response)
            } else {
                backend.checkin(conn);
                Forward::Answered(response)
            }
        }
        Err(_) => {
            backend.discard();
            backend.up.store(false, Ordering::SeqCst);
            Forward::Dead
        }
    }
}

/// Routes one request line: parse with the shared grammar (a parse error
/// is answered locally — never forwarded, never hashed), hash the
/// solution-cache key, and walk the ring from its owner. Two passes:
/// believed-up backends first, then — total-outage desperation — the
/// marked-down ones, in case the prober's view is stale.
fn proxy_request(shared: &Proxy, line: &str) -> String {
    let parsed = protocol::parse_request(line, &mut |name: &str| shared.catalog.get(name));
    let request = match parsed {
        Err(e) => {
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            return protocol::render_parse_error(&e);
        }
        Ok(request) => request,
    };
    // A proxy span: a no-op unless the calling thread armed a recorder
    // (the front itself never does — the histogram above is its export),
    // but an embedding test or tool that traces through `proxy_request`
    // sees the forwarding time attributed to its phase.
    let _span = obs::span(obs::Phase::Proxy);
    let order = shared.ring.candidates(protocol::route_key(&request));
    let owner = order[0];
    let mut last_busy = None;
    for desperation in [false, true] {
        for &index in &order {
            let backend = &shared.backends[index];
            if backend.up.load(Ordering::SeqCst) == desperation {
                continue; // pass 1: up only; pass 2: the rest
            }
            match forward(shared, backend, line) {
                Forward::Answered(response) => {
                    backend.routed.fetch_add(1, Ordering::Relaxed);
                    if index != owner {
                        shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    if desperation {
                        backend.up.store(true, Ordering::SeqCst); // it answered
                    }
                    return response;
                }
                Forward::Busy(response) => last_busy = Some(response),
                Forward::Dead => {}
            }
        }
    }
    shared.counters.unrouted.fetch_add(1, Ordering::Relaxed);
    last_busy.unwrap_or_else(|| NO_BACKEND_RESPONSE.to_owned())
}

/// Renders the front's Prometheus exposition through the
/// [`exposition::Writer`]: `soctam_balance_*` families, then the roll-up
/// summing every live backend's families.
fn front_metrics(shared: &Proxy) -> String {
    use exposition::Kind::{Counter, Gauge, Histogram};
    let (c, front) = (&shared.counters, &shared.front);
    let mut w = exposition::Writer::default();
    w.scalar("soctam_balance_backends", shared.backends.len());
    for (name, kind) in [
        ("soctam_balance_backend_up", Gauge),
        ("soctam_balance_routed_total", Counter),
    ] {
        w.family(name, kind);
        for b in &shared.backends {
            let value = match kind {
                Gauge => u64::from(b.up.load(Ordering::SeqCst)),
                _ => b.routed.load(Ordering::Relaxed),
            };
            w.sample(name, &[("backend", &b.label)], value);
        }
    }
    for (name, value) in [
        ("soctam_balance_failover_total", &c.failovers),
        ("soctam_balance_unrouted_total", &c.unrouted),
        ("soctam_balance_connections_total", &front.connections),
        ("soctam_balance_http_requests_total", &front.http_requests),
        ("soctam_balance_parse_errors_total", &c.parse_errors),
        ("soctam_balance_shed_total", &front.sheds),
        ("soctam_balance_timeouts_total", &front.timeouts),
        ("soctam_balance_probes_total", &c.probes),
        ("soctam_balance_queue_depth", &front.queue_depth),
    ] {
        w.scalar(name, value.load(Ordering::SeqCst));
    }
    let uptime = shared.started.elapsed().as_secs_f64();
    w.scalar("soctam_balance_uptime_seconds", format_args!("{uptime:.3}"));
    // `balance_`-prefixed, unlike the daemon's `soctam_build_info`: the
    // roll-up below sums the backends' build-info series into this same
    // exposition, and one scrape must not carry two families of one name.
    let version = [("version", env!("CARGO_PKG_VERSION"))];
    w.family("soctam_balance_build_info", Gauge)
        .sample("soctam_balance_build_info", &version, 1);
    let proxy = "soctam_balance_proxy_latency_seconds";
    w.family(proxy, Histogram);
    let snapshot = shared.proxy_latency.snapshot();
    if snapshot.count > 0 {
        w.histogram(proxy, &[], &snapshot);
    }
    w.families(&exposition::rollup(&backend_scrapes(shared)));
    w.finish()
}

/// Scrapes every believed-up backend's `/metrics`, the input of the
/// roll-up. Counters sum naturally; summed gauges read as cluster totals
/// (queue depths add; uptimes become aggregate process-seconds). A
/// backend whose scrape fails, or does not parse strictly, is left out
/// like a backend that is down.
fn backend_scrapes(shared: &Proxy) -> Vec<exposition::Scrape> {
    shared
        .backends
        .iter()
        .filter(|backend| backend.up.load(Ordering::SeqCst))
        .filter_map(|backend| {
            let (status, body) =
                client::http_get_timeout(backend.addr, "/metrics", shared.cfg.probe_timeout)
                    .ok()?;
            if !status.contains("200") {
                return None;
            }
            exposition::Scrape::parse(&body).ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_candidates_cover_every_backend_exactly_once() {
        let ring = Ring::new(4, 64);
        for key in [0u64, 1, u64::MAX, 0xdead_beef, 42] {
            let order = ring.candidates(key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "key {key}: {order:?}");
        }
    }

    #[test]
    fn ring_routing_is_deterministic_and_balanced() {
        let ring_a = Ring::new(3, 64);
        let ring_b = Ring::new(3, 64);
        let mut per_backend = [0usize; 3];
        for key in 0..3000u64 {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let a = ring_a.candidates(key);
            assert_eq!(a, ring_b.candidates(key), "same ring, same order");
            per_backend[a[0]] += 1;
        }
        for (index, &count) in per_backend.iter().enumerate() {
            // 64 virtual nodes keep the worst shard within a loose factor
            // of fair share (1000): this guards gross imbalance, not
            // perfection.
            assert!(
                (400..=1800).contains(&count),
                "backend {index} owns {count} of 3000 keys: {per_backend:?}"
            );
        }
    }

    #[test]
    fn ring_ownership_is_stable_when_a_backend_joins() {
        // Consistent hashing's point: adding a backend moves only the keys
        // the newcomer now owns; everything else keeps its shard.
        let three = Ring::new(3, 64);
        let four = Ring::new(4, 64);
        let (mut moved, total) = (0usize, 2000u64);
        for key in 0..total {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let before = three.candidates(key)[0];
            let after = four.candidates(key)[0];
            if after != before {
                assert_eq!(after, 3, "keys may move only onto the newcomer");
                moved += 1;
            }
        }
        assert!(
            moved > 0 && moved < total as usize / 2,
            "roughly 1/4 of keys should move, not {moved}/{total}"
        );
    }
}
