//! The batch-serving facade: many scheduling requests, one registry.
//!
//! [`Engine`] is the entry point for serving *traffic* rather than running
//! one experiment: it accepts a batch of [`EngineRequest`]s — mixed SOCs,
//! TAM widths, scheduling modes, and operation kinds (best-of schedule,
//! width sweep, lower bounds) — and executes them on scoped worker
//! threads. Every request draws its
//! [`CompiledSoc`] from a shared
//! [`ContextRegistry`], so a batch (and any later batch over the same
//! engine) compiles each distinct `(SOC, w_max, power budget)` key exactly
//! once, no matter how many requests or threads touch it.
//!
//! Results come back in request order and are bit-identical to serving
//! the same requests sequentially, one private flow each — pinned by the
//! `sweep_equivalence` suite.
//!
//! For serving *repeat* traffic, [`Engine::with_solution_cache`] layers a
//! [`SolutionCache`] of whole request outcomes over the registry: a
//! repeat `(SOC, width cap, budget, op, mode, grid)` request returns the
//! cached result without invoking the solver at all, and concurrent
//! identical requests coalesce onto one solve. `soctam-server` runs an
//! engine configured this way behind its TCP listener.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use soctam_core::engine::{Engine, EngineOutput, EngineRequest};
//! use soctam_core::flow::FlowConfig;
//! use soctam_core::soc::benchmarks;
//!
//! let engine = Engine::new();
//! let soc = Arc::new(benchmarks::d695());
//! let results = engine.serve(&[
//!     EngineRequest::schedule(Arc::clone(&soc), FlowConfig::quick(), 16),
//!     EngineRequest::bounds(Arc::clone(&soc), FlowConfig::quick(), vec![16, 32]),
//! ]);
//! assert_eq!(results.len(), 2);
//! let EngineOutput::Schedule(run) = results[0].as_ref().unwrap() else {
//!     panic!("first request was a schedule");
//! };
//! assert!(run.schedule.makespan() >= run.lower_bound);
//! // Both requests shared one compiled context.
//! assert_eq!(engine.registry().stats().misses, 1);
//! ```

use std::hash::{DefaultHasher, Hash, Hasher};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use soctam_schedule::obs;
use soctam_schedule::{
    panic_message, CacheLookup, CompiledSoc, ContextKey, ContextRegistry, Cycles, ScheduleError,
    SolutionCache, SolutionCacheStats, TamWidth,
};
use soctam_soc::Soc;
use soctam_volume::SweepPoint;

use crate::fault::{FaultAction, FaultPlan, FaultSite};
use crate::flow::{FlowConfig, FlowRun, ParamSweep, TestFlow};

/// What one request asks the engine to compute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EngineOp {
    /// Best-of-sweep schedule, wires, bound, and volume at one width
    /// ([`TestFlow::run`]).
    Schedule {
        /// SOC TAM width `W`.
        width: TamWidth,
    },
    /// The `T(W)`/`V(W)` series over several widths
    /// ([`TestFlow::sweep_widths`]).
    Sweep {
        /// Widths to sweep, in order.
        widths: Vec<TamWidth>,
    },
    /// Testing-time lower bounds at several widths
    /// ([`CompiledSoc::lower_bounds`](soctam_schedule::CompiledSoc::lower_bounds)).
    Bounds {
        /// Widths to bound, in order.
        widths: Vec<TamWidth>,
    },
}

impl EngineOp {
    /// Every request kind's label (a response's `op`), indexed by [`EngineOp::kind`].
    pub const KINDS: [&'static str; 3] = ["schedule", "sweep", "bounds"];

    /// This op's index into [`EngineOp::KINDS`].
    #[must_use]
    pub fn kind(&self) -> usize {
        match self {
            Self::Schedule { .. } => 0,
            Self::Sweep { .. } => 1,
            Self::Bounds { .. } => 2,
        }
    }
}

/// One unit of engine work: an SOC, a flow configuration (width cap,
/// parameter sweep, power policy, preemption mode), and an operation.
#[derive(Debug, Clone)]
pub struct EngineRequest {
    /// The SOC under test (shared, so a thousand requests over one SOC
    /// carry one model).
    pub soc: Arc<Soc>,
    /// Flow configuration; `w_max` and the resolved power budget select
    /// the registry key.
    pub flow: FlowConfig,
    /// The operation to perform.
    pub op: EngineOp,
    /// Whether the caller asked for the phase trace in the response
    /// (`--trace` / `trace=1`). Presentation-only: *excluded* from
    /// [`solution_cache_digest`] and the solution key, so traced and
    /// untraced twins share one cache entry and one balancer shard.
    pub trace: bool,
}

impl EngineRequest {
    /// A best-of-schedule request at one width.
    pub fn schedule(soc: Arc<Soc>, flow: FlowConfig, width: TamWidth) -> Self {
        Self {
            soc,
            flow,
            op: EngineOp::Schedule { width },
            trace: false,
        }
    }

    /// A width-sweep request.
    pub fn sweep(soc: Arc<Soc>, flow: FlowConfig, widths: Vec<TamWidth>) -> Self {
        Self {
            soc,
            flow,
            op: EngineOp::Sweep { widths },
            trace: false,
        }
    }

    /// A lower-bounds request.
    pub fn bounds(soc: Arc<Soc>, flow: FlowConfig, widths: Vec<TamWidth>) -> Self {
        Self {
            soc,
            flow,
            op: EngineOp::Bounds { widths },
            trace: false,
        }
    }
}

/// The successful payload of one request.
#[derive(Debug, Clone)]
pub enum EngineOutput {
    /// Result of an [`EngineOp::Schedule`] request.
    Schedule(Box<FlowRun>),
    /// Result of an [`EngineOp::Sweep`] request.
    Sweep(Vec<SweepPoint>),
    /// Result of an [`EngineOp::Bounds`] request.
    Bounds(Vec<Cycles>),
}

/// Outcome of one request: requests fail independently (an infeasible
/// power ceiling on one SOC does not poison the batch).
pub type EngineResult = Result<EngineOutput, ScheduleError>;

/// How the solution cache disposed of one request — reported by
/// [`Engine::serve_one_traced`] so a serving tier can log the cache
/// outcome per request instead of diffing racy global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from a completed cached result; the solver never ran.
    Hit,
    /// No usable cached entry; this request ran the solve.
    Miss,
    /// Joined a solve already in flight for an identical request.
    Coalesced,
    /// The engine has no solution cache; every request solves.
    Uncached,
}

impl CacheDisposition {
    /// Every disposition, in declaration order: `d as usize` indexes it.
    pub const ALL: [CacheDisposition; 4] = [Self::Hit, Self::Miss, Self::Coalesced, Self::Uncached];

    /// The disposition as a lowercase label
    /// (`hit`/`miss`/`coalesced`/`uncached`), the form request logs use.
    pub fn label(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Coalesced => "coalesced",
            Self::Uncached => "uncached",
        }
    }
}

impl From<CacheLookup> for CacheDisposition {
    fn from(lookup: CacheLookup) -> Self {
        match lookup {
            CacheLookup::Hit => Self::Hit,
            CacheLookup::Miss => Self::Miss,
            CacheLookup::Coalesced => Self::Coalesced,
        }
    }
}

/// The identity of one cacheable request outcome: everything that can
/// change the result. That is the [`ContextRegistry`]'s [`ContextKey`] —
/// SOC content, width cap, resolved power budget — plus the operation
/// (kind and widths), the scheduling mode, and the parameter grid
/// searched. The engine's thread count is *excluded*: the equivalence
/// suites pin that it never changes an output bit. A miss probes the
/// registry with the carried context key, whose SOC hash is the model's
/// memo ([`Soc::content_hash`]): a request over a resolver's shared model
/// walks none of it.
#[derive(Debug, Clone)]
struct SolutionKey {
    context: ContextKey,
    preemption: bool,
    op: EngineOp,
    sweep: ParamSweep,
}

impl SolutionKey {
    fn new(request: &EngineRequest, budget: Option<u64>) -> Self {
        Self {
            context: ContextKey::new(&request.soc, request.flow.w_max, budget),
            preemption: request.flow.allow_preemption,
            op: request.op.clone(),
            sweep: request.flow.sweep.clone(),
        }
    }
}

impl PartialEq for SolutionKey {
    fn eq(&self, other: &Self) -> bool {
        // The context key last: it compares full SOC content, and only on
        // a hash match.
        self.preemption == other.preemption
            && self.op == other.op
            && self.sweep == other.sweep
            && self.context == other.context
    }
}

impl Eq for SolutionKey {}

impl Hash for SolutionKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal keys have equal SOC content and therefore equal cached
        // hashes, so skipping the model upholds the Hash/Eq contract. The
        // order is fixed: it is the routing digest's, and moving a field
        // would move every request's shard.
        self.context.w_max().hash(state);
        self.context.power_budget().hash(state);
        self.preemption.hash(state);
        self.context.soc_hash().hash(state);
        self.op.hash(state);
        self.sweep.hash(state);
    }
}

/// A stable 64-bit digest of `request`'s solution-cache identity: the
/// exact fields the engine's solution-cache key hashes (SOC content, width
/// cap, resolved power budget, preemption mode, operation, parameter
/// grid), fed through the same `DefaultHasher`. Two requests digest
/// equally exactly when the solution cache would hash them onto the same
/// entry, which is what a cluster front needs to pin each cache key to
/// one backend shard — see
/// [`protocol::route_key`](crate::protocol::route_key). `DefaultHasher`
/// uses fixed SipHash keys, so the digest is stable across processes and
/// runs of the same build.
#[must_use]
pub fn solution_cache_digest(request: &EngineRequest) -> u64 {
    let budget = request.flow.power.resolve(&request.soc);
    let mut h = DefaultHasher::new();
    SolutionKey::new(request, budget).hash(&mut h);
    h.finish()
}

/// Concurrent batch-serving facade over a shared [`ContextRegistry`].
///
/// Construction is cheap; the engine is `Sync`, so one instance can serve
/// overlapping batches from many caller threads — the registry below it
/// is the single source of compiled contexts.
#[derive(Debug)]
pub struct Engine {
    registry: Arc<ContextRegistry>,
    solutions: Option<Arc<SolutionCache<SolutionKey, EngineOutput, ScheduleError>>>,
    threads: Option<NonZeroUsize>,
    faults: Option<Arc<FaultPlan>>,
    recovered_panics: AtomicU64,
}

impl Engine {
    /// An engine over a fresh default registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(ContextRegistry::default()))
    }

    /// An engine over an existing (possibly shared) registry.
    pub fn with_registry(registry: Arc<ContextRegistry>) -> Self {
        Self {
            registry,
            solutions: None,
            threads: None,
            faults: None,
            recovered_panics: AtomicU64::new(0),
        }
    }

    /// Layers a [`SolutionCache`] over the engine: repeat requests with
    /// the same result-relevant fields (SOC content, width cap, resolved
    /// power budget, operation, scheduling mode, parameter grid — the
    /// registry key plus width, mode, and grid) return the cached result
    /// without invoking the solver, and concurrent identical requests
    /// coalesce onto one solve. `capacity` bounds resident results (0
    /// disables caching entirely); nothing expires, since a result is a
    /// function of its key.
    ///
    /// Cached or not, responses are bit-identical: the cache key covers
    /// every result-relevant request field, and the equivalence suites pin
    /// warm responses against direct solves.
    ///
    /// # Panics
    ///
    /// If `ttl` is `Some`. The parameter must be `None` and is kept only
    /// because `perfbench` still passes it.
    pub fn with_solution_cache(mut self, capacity: usize, ttl: Option<Duration>) -> Self {
        assert!(ttl.is_none(), "cached results never expire");
        self.solutions = (capacity > 0).then(|| {
            Arc::new(SolutionCache::new(
                SolutionCache::<SolutionKey, EngineOutput, ScheduleError>::DEFAULT_SHARDS,
                capacity,
            ))
        });
        self
    }

    /// Caps the worker-thread count (default: available parallelism).
    /// `1` forces fully sequential serving.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = NonZeroUsize::new(threads.max(1));
        self
    }

    /// Arms a deterministic [`FaultPlan`]: `solve`-site faults fire
    /// inside this engine's panic-isolation boundary, so an injected
    /// panic exercises exactly the recovery path a genuine solver bug
    /// would. Chaos suites and the `serve --fault-inject` flag use this;
    /// production engines never arm one.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// How many solver panics this engine has caught and converted into
    /// [`ScheduleError::SolverPanic`] responses.
    pub fn recovered_panics(&self) -> u64 {
        self.recovered_panics.load(Ordering::Relaxed)
    }

    /// The registry serving this engine's contexts.
    pub fn registry(&self) -> &Arc<ContextRegistry> {
        &self.registry
    }

    /// Traffic counters of the solution cache, or `None` when result
    /// caching is disabled.
    pub fn solution_stats(&self) -> Option<SolutionCacheStats> {
        self.solutions.as_ref().map(|c| c.stats())
    }

    /// Number of solved results currently resident (0 when result caching
    /// is disabled).
    pub fn solutions_len(&self) -> usize {
        self.solutions.as_ref().map_or(0, |c| c.len())
    }

    /// Serves a batch: results are returned in request order and are
    /// bit-identical to calling [`Engine::serve_one`] per request in
    /// sequence (each request's work is independent; the winner rules and
    /// grid orders inside a request never depend on batch scheduling).
    ///
    /// Requests are distributed over scoped worker threads, one request
    /// per worker at a time; each request's parameter grid runs
    /// sequentially on the worker that took it.
    pub fn serve(&self, requests: &[EngineRequest]) -> Vec<EngineResult> {
        let n = requests.len();
        let threads = self
            .threads
            .or_else(|| std::thread::available_parallelism().ok())
            .map_or(1, NonZeroUsize::get)
            .min(n.max(1));
        if threads <= 1 {
            return requests.iter().map(|r| self.serve_one(r)).collect();
        }

        // Work-stealing over an atomic cursor: long requests (headline
        // sweeps) don't leave a statically chunked worker idle. Each
        // worker tags results with the request index, so the merge below
        // restores request order deterministically.
        let cursor = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, EngineResult)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, self.serve_one(&requests[i])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked"))
                .collect()
        });

        let mut slots: Vec<Option<EngineResult>> = (0..n).map(|_| None).collect();
        for (i, result) in per_worker.into_iter().flatten() {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every request served"))
            .collect()
    }

    /// Serves a single request through the registry.
    pub fn serve_one(&self, request: &EngineRequest) -> EngineResult {
        self.serve_one_traced(request).0
    }

    /// [`Engine::serve_one`], additionally reporting how the solution
    /// cache disposed of the request (hit / miss / coalesced, or
    /// [`CacheDisposition::Uncached`] when no cache is configured).
    pub fn serve_one_traced(&self, request: &EngineRequest) -> (EngineResult, CacheDisposition) {
        let budget = request.flow.power.resolve(&request.soc);
        match &self.solutions {
            Some(cache) => {
                // The span covers the whole cache interaction: a hit or a
                // coalesced wait is all cache_lookup; a miss nests the
                // solve's compile/menu/sweep spans inside it (the closure
                // runs on this thread).
                let _lookup_span = obs::span(obs::Phase::CacheLookup);
                let key = SolutionKey::new(request, budget);
                let context = key.context.clone();
                let (result, lookup) =
                    cache.get_or_compute_traced(key, || self.solve(request, context));
                (result, lookup.into())
            }
            None => (
                self.solve(
                    request,
                    ContextKey::new(&request.soc, request.flow.w_max, budget),
                ),
                CacheDisposition::Uncached,
            ),
        }
    }

    /// The uncached solve, under the engine's panic-isolation boundary:
    /// a panic anywhere below — the registry compile, the scheduler, the
    /// wire assigner, an armed `solve`-site fault — is caught here and
    /// rendered as a per-request [`ScheduleError::SolverPanic`] instead
    /// of unwinding through the caller's worker thread. Because this
    /// boundary sits *inside* the solution cache's solve closure, a
    /// panicking solve publishes an error into the rendezvous cell like
    /// any other failure: coalesced waiters receive it and the entry is
    /// torn down, never cached.
    fn solve(&self, request: &EngineRequest, context: ContextKey) -> EngineResult {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.fire_solve_faults()?;
            self.solve_unguarded(request, context)
        }));
        match outcome {
            Ok(result) => result,
            Err(payload) => {
                self.recovered_panics.fetch_add(1, Ordering::Relaxed);
                Err(ScheduleError::SolverPanic {
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }

    /// Applies any armed `solve`-site faults: latency stalls compose,
    /// then the first panic/error action strikes.
    fn fire_solve_faults(&self) -> Result<(), ScheduleError> {
        let Some(plan) = &self.faults else {
            return Ok(());
        };
        let mut strike = None;
        for action in plan.fire(FaultSite::Solve) {
            match action {
                FaultAction::Latency(d) => std::thread::sleep(d),
                other => strike = strike.or(Some(other)),
            }
        }
        match strike {
            Some(FaultAction::Panic) => panic!("injected fault: solver panic"),
            Some(FaultAction::Error) => Err(ScheduleError::SolverPanic {
                message: "injected fault: solver error".to_owned(),
            }),
            _ => Ok(()),
        }
    }

    /// The solve body proper: context from the registry, then the
    /// requested operation over it. Bounds read the context alone; the
    /// packer runs through a [`TestFlow`] over it.
    fn solve_unguarded(&self, request: &EngineRequest, context: ContextKey) -> EngineResult {
        let ctx = self.registry.get_or_compile_key(context);
        let flow = |ctx: Arc<CompiledSoc>| {
            let mut cfg = request.flow.clone();
            cfg.w_max = ctx.w_max(); // the registry clamps w_max to >= 1
            TestFlow::with_context(ctx, cfg)
        };
        match &request.op {
            EngineOp::Schedule { width } => flow(ctx)
                .run(*width)
                .map(|run| EngineOutput::Schedule(Box::new(run))),
            EngineOp::Sweep { widths } => flow(ctx)
                .sweep_widths(widths.iter().copied())
                .map(EngineOutput::Sweep),
            EngineOp::Bounds { widths } => {
                if widths.contains(&0) {
                    return Err(ScheduleError::InvalidConfig {
                        reason: "lower bounds need at least one wire".to_owned(),
                    });
                }
                Ok(EngineOutput::Bounds(ctx.lower_bounds(widths)))
            }
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{ParamSweep, PowerPolicy};
    use soctam_soc::benchmarks;

    fn quick() -> FlowConfig {
        FlowConfig {
            sweep: ParamSweep::quick(),
            ..FlowConfig::new()
        }
    }

    fn mixed_batch() -> Vec<EngineRequest> {
        let d695 = Arc::new(benchmarks::d695());
        let p34392 = Arc::new(benchmarks::p34392());
        vec![
            EngineRequest::schedule(Arc::clone(&d695), quick(), 16),
            EngineRequest::bounds(Arc::clone(&p34392), quick(), vec![16, 24, 32]),
            EngineRequest::schedule(Arc::clone(&d695), quick().without_preemption(), 32),
            EngineRequest::sweep(p34392, quick(), vec![16, 24]),
            EngineRequest::schedule(d695, quick().with_power(PowerPolicy::MaxCorePower), 24),
        ]
    }

    #[test]
    fn batch_matches_sequential_single_flows() {
        let requests = mixed_batch();
        let engine = Engine::new();
        let batch = engine.serve(&requests);
        for (req, result) in requests.iter().zip(&batch) {
            let private = TestFlow::new(&req.soc, req.flow.clone());
            match (&req.op, result.as_ref().unwrap()) {
                (EngineOp::Schedule { width }, EngineOutput::Schedule(run)) => {
                    let want = private.run(*width).unwrap();
                    assert_eq!(run.schedule, want.schedule);
                    assert_eq!(run.params, want.params);
                    assert_eq!(run.lower_bound, want.lower_bound);
                    assert_eq!(run.volume, want.volume);
                }
                (EngineOp::Sweep { widths }, EngineOutput::Sweep(points)) => {
                    let want = private.sweep_widths(widths.iter().copied()).unwrap();
                    assert_eq!(*points, want);
                }
                (EngineOp::Bounds { widths }, EngineOutput::Bounds(bounds)) => {
                    assert_eq!(*bounds, private.context().lower_bounds(widths));
                }
                (op, out) => panic!("op {op:?} produced mismatched output {out:?}"),
            }
        }
    }

    #[test]
    fn one_compile_per_key_across_a_batch() {
        let requests = mixed_batch();
        let engine = Engine::new();
        let _ = engine.serve(&requests);
        // Keys: (d695, 64, None) shared by two requests, (d695, 64,
        // Some(P)) for the power-constrained one, (p34392, 64, None)
        // shared by two requests.
        let stats = engine.registry().stats();
        assert_eq!(stats.misses, 3, "one compile per (SOC, w_max, budget)");
        assert_eq!(stats.hits, 2, "repeat keys served from the registry");
        // A second identical batch compiles nothing.
        let _ = engine.serve(&requests);
        assert_eq!(engine.registry().stats().misses, 3);
    }

    #[test]
    fn sequential_engine_matches_parallel_engine() {
        let requests = mixed_batch();
        let par = Engine::new().serve(&requests);
        let seq = Engine::new().with_threads(1).serve(&requests);
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            match (a.as_ref().unwrap(), b.as_ref().unwrap()) {
                (EngineOutput::Schedule(x), EngineOutput::Schedule(y)) => {
                    assert_eq!(x.schedule, y.schedule);
                    assert_eq!(x.params, y.params);
                }
                (EngineOutput::Sweep(x), EngineOutput::Sweep(y)) => assert_eq!(x, y),
                (EngineOutput::Bounds(x), EngineOutput::Bounds(y)) => assert_eq!(x, y),
                _ => panic!("output kinds diverged between parallel and sequential"),
            }
        }
    }

    #[test]
    fn failures_are_per_request() {
        let d695 = Arc::new(benchmarks::d695());
        let impossible = quick().with_power(PowerPolicy::Absolute(1));
        let requests = vec![
            EngineRequest::schedule(Arc::clone(&d695), impossible, 16),
            EngineRequest::schedule(Arc::clone(&d695), quick(), 16),
            EngineRequest::bounds(d695, quick(), vec![0]),
        ];
        let results = Engine::new().serve(&requests);
        assert!(results[0].is_err(), "1-unit power ceiling is infeasible");
        assert!(results[1].is_ok(), "healthy request unaffected");
        assert!(results[2].is_err(), "zero-wire bound rejected, not a panic");
    }

    fn assert_same_output(a: &EngineOutput, b: &EngineOutput) {
        match (a, b) {
            (EngineOutput::Schedule(x), EngineOutput::Schedule(y)) => {
                assert_eq!(x.schedule, y.schedule);
                assert_eq!(x.params, y.params);
                assert_eq!(x.lower_bound, y.lower_bound);
                assert_eq!(x.volume, y.volume);
            }
            (EngineOutput::Sweep(x), EngineOutput::Sweep(y)) => assert_eq!(x, y),
            (EngineOutput::Bounds(x), EngineOutput::Bounds(y)) => assert_eq!(x, y),
            _ => panic!("output kinds diverged between cached and uncached"),
        }
    }

    #[test]
    fn cached_engine_matches_uncached_bit_for_bit() {
        let requests = mixed_batch();
        let cached = Engine::new().with_solution_cache(64, None);
        let plain = Engine::new();
        let cold = cached.serve(&requests);
        let warm = cached.serve(&requests);
        let want = plain.serve(&requests);
        for ((c, w), p) in cold.iter().zip(&warm).zip(&want) {
            assert_same_output(c.as_ref().unwrap(), p.as_ref().unwrap());
            assert_same_output(w.as_ref().unwrap(), p.as_ref().unwrap());
        }
        let stats = cached.solution_stats().unwrap();
        assert_eq!(stats.misses, requests.len() as u64, "cold pass solves all");
        assert_eq!(
            stats.hits,
            requests.len() as u64,
            "warm pass solves nothing"
        );
        // The warm pass never touched the registry either: solution hits
        // short-circuit before context lookup.
        assert_eq!(cached.registry().stats().misses, 3);
        assert_eq!(cached.solutions_len(), requests.len());
    }

    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_solve() {
        let engine = Arc::new(Engine::new().with_solution_cache(16, None));
        let d695 = Arc::new(benchmarks::d695());
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let soc = Arc::clone(&d695);
                    scope
                        .spawn(move || engine.serve_one(&EngineRequest::schedule(soc, quick(), 16)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in results.windows(2) {
            assert_same_output(pair[0].as_ref().unwrap(), pair[1].as_ref().unwrap());
        }
        let stats = engine.solution_stats().unwrap();
        assert_eq!(stats.misses, 1, "four identical requests, one solve");
        assert_eq!(stats.hits + stats.coalesced, 3);
    }

    #[test]
    fn traced_serving_reports_cache_dispositions() {
        let engine = Engine::new().with_solution_cache(16, None);
        let d695 = Arc::new(benchmarks::d695());
        let req = EngineRequest::bounds(Arc::clone(&d695), quick(), vec![16]);
        let (first, d1) = engine.serve_one_traced(&req);
        let (second, d2) = engine.serve_one_traced(&req);
        assert_same_output(first.as_ref().unwrap(), second.as_ref().unwrap());
        assert_eq!(d1, CacheDisposition::Miss);
        assert_eq!(d2, CacheDisposition::Hit);

        let plain = Engine::new();
        let (result, d) = plain.serve_one_traced(&req);
        assert!(result.is_ok());
        assert_eq!(d, CacheDisposition::Uncached);
        assert_eq!(d.label(), "uncached");
    }

    #[test]
    fn failed_requests_are_not_cached() {
        let engine = Engine::new().with_solution_cache(16, None);
        let d695 = Arc::new(benchmarks::d695());
        let bad = EngineRequest::bounds(Arc::clone(&d695), quick(), vec![0]);
        assert!(engine.serve_one(&bad).is_err());
        assert!(engine.serve_one(&bad).is_err());
        let stats = engine.solution_stats().unwrap();
        assert_eq!(stats.misses, 2, "errors are retried, not cached");
        assert_eq!(stats.failures, 2);
        assert_eq!(engine.solutions_len(), 0);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let engine = Engine::new().with_solution_cache(0, None);
        assert!(engine.solution_stats().is_none());
        let d695 = Arc::new(benchmarks::d695());
        let req = EngineRequest::bounds(d695, quick(), vec![16]);
        assert!(engine.serve_one(&req).is_ok());
        assert_eq!(engine.solutions_len(), 0);
    }

    #[test]
    fn injected_solver_panics_become_transient_errors_and_are_not_cached() {
        let plan = Arc::new(FaultPlan::parse("solve:panic:every=2").unwrap());
        let engine = Engine::new()
            .with_solution_cache(16, None)
            .with_fault_plan(Arc::clone(&plan));
        let d695 = Arc::new(benchmarks::d695());
        let req = EngineRequest::bounds(Arc::clone(&d695), quick(), vec![16]);

        // Solve #1 is clean and caches; evict it so solve #2 happens.
        assert!(engine.serve_one(&req).is_ok());
        engine.solutions.as_ref().unwrap().clear();
        // Solve #2 hits the fault: the panic is caught, rendered as a
        // transient SolverPanic, and the worker thread survives.
        let err = engine.serve_one(&req).unwrap_err();
        assert!(err.is_transient(), "recovered panic is transient: {err}");
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(engine.recovered_panics(), 1);
        assert_eq!(plan.injected_total(), 1);
        // The failure was not cached: solve #3 retries and succeeds.
        assert!(engine.serve_one(&req).is_ok());
        assert_eq!(engine.solutions_len(), 1);
        // The cache never saw a raw panic — the engine caught it first.
        assert_eq!(engine.solution_stats().unwrap().panics, 0);
    }

    #[test]
    fn concurrent_identical_requests_all_receive_the_recovered_panic() {
        // Coalesced waiters on a panicking solve must get the error, not
        // hang: the engine's catch_unwind sits inside the cache's solve
        // closure, so the panic is published into the rendezvous cell as
        // an ordinary failed result.
        let plan = Arc::new(FaultPlan::parse("solve:panic").unwrap());
        let engine = Arc::new(
            Engine::new()
                .with_solution_cache(16, None)
                .with_fault_plan(plan),
        );
        let d695 = Arc::new(benchmarks::d695());
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let soc = Arc::clone(&d695);
                    scope
                        .spawn(move || engine.serve_one(&EngineRequest::schedule(soc, quick(), 16)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in results {
            assert!(result.unwrap_err().is_transient(), "every request errored");
        }
        assert_eq!(engine.solutions_len(), 0, "no panicked result was cached");
    }

    #[test]
    fn batch_with_injected_faults_fails_only_the_struck_requests() {
        // Deterministic plan: solves 2 and 4 are struck. With a
        // single-threaded engine the solve order equals request order.
        let plan = Arc::new(FaultPlan::parse("solve:error:every=2").unwrap());
        let engine = Engine::new().with_threads(1).with_fault_plan(plan);
        let d695 = Arc::new(benchmarks::d695());
        let req = |w| EngineRequest::bounds(Arc::clone(&d695), quick(), vec![w]);
        let results = engine.serve(&[req(8), req(16), req(24), req(32)]);
        assert!(results[0].is_ok());
        assert!(results[1].as_ref().is_err_and(ScheduleError::is_transient));
        assert!(results[2].is_ok());
        assert!(results[3].as_ref().is_err_and(ScheduleError::is_transient));
    }

    #[test]
    fn injected_latency_delays_but_does_not_corrupt() {
        let plan = Arc::new(FaultPlan::parse("solve:latency=1ms").unwrap());
        let faulted = Engine::new().with_fault_plan(plan);
        let clean = Engine::new();
        let d695 = Arc::new(benchmarks::d695());
        let req = EngineRequest::bounds(Arc::clone(&d695), quick(), vec![16, 32]);
        assert_same_output(
            &faulted.serve_one(&req).unwrap(),
            &clean.serve_one(&req).unwrap(),
        );
    }

    #[test]
    fn the_digest_hashes_the_key_fields_in_their_fixed_order() {
        // The cluster front routes on this digest: its inputs and their
        // order must not move, or every request changes shard.
        let d695 = Arc::new(benchmarks::d695());
        let p22810 = Arc::new(benchmarks::p22810());
        for req in [
            EngineRequest::schedule(Arc::clone(&d695), quick(), 16),
            EngineRequest::schedule(Arc::clone(&d695), quick().without_preemption(), 0),
            EngineRequest::sweep(Arc::clone(&p22810), quick(), vec![16, 17, 18]),
            EngineRequest::bounds(
                p22810,
                quick().with_power(PowerPolicy::MaxCorePower),
                vec![8, 64],
            ),
        ] {
            let mut soc = DefaultHasher::new();
            req.soc.hash(&mut soc);
            let mut h = DefaultHasher::new();
            req.flow.w_max.max(1).hash(&mut h);
            req.flow.power.resolve(&req.soc).hash(&mut h);
            req.flow.allow_preemption.hash(&mut h);
            soc.finish().hash(&mut h);
            req.op.hash(&mut h);
            req.flow.sweep.hash(&mut h);
            assert_eq!(solution_cache_digest(&req), h.finish(), "{:?}", req.op);
        }
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        let engine = Arc::new(Engine::new());
        let d695 = Arc::new(benchmarks::d695());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let soc = Arc::clone(&d695);
            handles.push(std::thread::spawn(move || {
                engine.serve(&[EngineRequest::bounds(soc, quick(), vec![16, 32])])
            }));
        }
        for h in handles {
            let results = h.join().unwrap();
            let EngineOutput::Bounds(b) = results[0].as_ref().unwrap() else {
                panic!("bounds request");
            };
            assert_eq!(b.len(), 2);
        }
        assert_eq!(
            engine.registry().stats().misses,
            1,
            "four threads, one compile"
        );
    }
}
