//! A thread-safe registry of compiled schedule contexts.
//!
//! [`CompiledSoc`] made one *sweep* cheap; [`ContextRegistry`] makes one
//! *service* cheap: a long-lived, concurrently shared cache of
//! `Arc<CompiledSoc>` keyed by SOC content, per-core width cap, and the
//! constraint-relevant run configuration (the power budget), so that any
//! number of scheduling/sweep/bounds requests — mixed SOCs, widths, and
//! modes, from any number of threads — compile each distinct key exactly
//! once.
//!
//! # Keying
//!
//! The key is `(SOC content, w_max, power budget)`:
//!
//! * **SOC content** — the full model value (name, cores, constraints),
//!   compared by equality under the hood, so two structurally identical
//!   SOCs share a context no matter how they were loaded, and a 64-bit
//!   hash collision can never alias two different SOCs;
//! * **`w_max`** — menus and lower-bound ingredients are compiled per cap;
//! * **power budget** — the resolved `P_max`, kept in the key so batch
//!   accounting ("one compile per (SOC, budget)") holds even though the
//!   compiled tables themselves are budget-independent.
//!
//! # Caching
//!
//! The registry is a typed key over a [`SolutionCache`]: sharding, the LRU
//! bound, in-flight coalescing (concurrent same-key requests wait on
//! one compile), and panic teardown are the cache's. Hits, misses, and
//! evictions are counted on the registry ([`ContextRegistry::stats`]);
//! whole-process compile counts are in
//! [`instrument::context_compiles`](crate::instrument::context_compiles).

use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use soctam_soc::Soc;
use soctam_wrapper::TamWidth;

use crate::context::CompiledSoc;
use crate::solution_cache::SolutionCache;

/// The identity of one compiled context: SOC content, width cap, and the
/// constraint-relevant configuration (power budget).
///
/// The SOC's content hash is read from the model's memo
/// ([`Soc::content_hash`]) and kept here, so building a key over a shared,
/// already-hashed model walks none of it, and shard selection and map
/// probing hash a `u64`; equality short-circuits on the cheap fields and
/// falls back to full content comparison only on a hash match (derived
/// `PartialEq` compares fields in declaration order), so a 64-bit
/// collision can never alias two different SOCs. A caller that keys more
/// than the context (the engine's solution cache) carries one of these and
/// probes the registry with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextKey {
    w_max: TamWidth,
    power_budget: Option<u64>,
    soc_hash: u64,
    soc: Arc<Soc>,
}

impl ContextKey {
    /// The key of `(soc, w_max, power_budget)`, `w_max` clamped to at
    /// least 1 as [`CompiledSoc::compile`] clamps it.
    pub fn new(soc: &Arc<Soc>, w_max: TamWidth, power_budget: Option<u64>) -> Self {
        Self {
            w_max: w_max.max(1),
            power_budget,
            soc_hash: soc.content_hash(),
            soc: Arc::clone(soc),
        }
    }

    /// The (clamped) width cap.
    pub fn w_max(&self) -> TamWidth {
        self.w_max
    }

    /// The resolved power budget.
    pub fn power_budget(&self) -> Option<u64> {
        self.power_budget
    }

    /// The SOC model's content hash.
    pub fn soc_hash(&self) -> u64 {
        self.soc_hash
    }
}

impl Hash for ContextKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal keys have equal SOC content and therefore equal cached
        // hashes, so skipping the model here upholds the Hash/Eq contract.
        self.w_max.hash(state);
        self.power_budget.hash(state);
        self.soc_hash.hash(state);
    }
}

/// Cumulative counters of one registry's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Requests served without compiling: from the cache, or by waiting on
    /// a same-key compile already in flight.
    pub hits: u64,
    /// Requests that had to compile a context.
    pub misses: u64,
    /// Entries dropped by the bounded-size LRU policy.
    pub evictions: u64,
    /// Compiles that panicked (caught, torn down, and re-raised in the
    /// panicking thread; waiting requests retried instead of hanging).
    pub panics: u64,
}

impl RegistryStats {
    /// Hit rate in `[0, 1]`; `0` when no request has been served.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded, bounded, thread-safe cache of [`CompiledSoc`] contexts.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use soctam_schedule::ContextRegistry;
/// use soctam_soc::benchmarks;
///
/// let registry = ContextRegistry::default();
/// let soc = Arc::new(benchmarks::d695());
/// let a = registry.get_or_compile(&soc, 64, None);
/// let b = registry.get_or_compile(&soc, 64, None);
/// assert!(Arc::ptr_eq(&a, &b)); // one compile, shared ever after
/// assert_eq!(registry.stats().misses, 1);
/// assert_eq!(registry.stats().hits, 1);
/// ```
pub struct ContextRegistry {
    cache: SolutionCache<ContextKey, Arc<CompiledSoc>, Infallible>,
}

impl ContextRegistry {
    /// Default shard count: enough to keep a busy batch from serializing
    /// on one lock without scattering a small cache too thin.
    pub const DEFAULT_SHARDS: usize = 8;
    /// Default total capacity (contexts are heavyweight; a serving tier
    /// rarely needs more than a few dozen hot SOC variants resident).
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Creates a registry with `shards` independently locked shards and
    /// room for `capacity` contexts in total (each shard holds at most
    /// `capacity / shards`, minimum one). Both arguments are clamped to at
    /// least 1.
    pub fn new(shards: usize, capacity: usize) -> Self {
        Self {
            cache: SolutionCache::new(shards, capacity),
        }
    }

    /// The context for `(soc, w_max, power_budget)`: served from the cache
    /// when present, compiled (and cached) otherwise.
    ///
    /// `w_max` is clamped to at least 1, mirroring
    /// [`CompiledSoc::compile`], so a clamped and an unclamped request for
    /// the same cap share one entry. Concurrent callers with the same key
    /// get the same `Arc`: exactly one of them compiles, and no lock is
    /// held across the compile.
    pub fn get_or_compile(
        &self,
        soc: &Arc<Soc>,
        w_max: TamWidth,
        power_budget: Option<u64>,
    ) -> Arc<CompiledSoc> {
        self.get_or_compile_key(ContextKey::new(soc, w_max, power_budget))
    }

    /// [`ContextRegistry::get_or_compile`] by a key the caller already
    /// built, so a request's SOC is hashed once however many caches it
    /// probes.
    pub fn get_or_compile_key(&self, key: ContextKey) -> Arc<CompiledSoc> {
        let (soc, cap) = (Arc::clone(&key.soc), key.w_max);
        self.get_or_compile_with(key, || Arc::new(CompiledSoc::compile_arc(soc, cap)))
    }

    /// [`ContextRegistry::get_or_compile`] over a caller-supplied compile
    /// step, so tests can exercise panic isolation without a genuinely
    /// crashing compiler.
    fn get_or_compile_with(
        &self,
        key: ContextKey,
        compile: impl FnOnce() -> Arc<CompiledSoc>,
    ) -> Arc<CompiledSoc> {
        let Ok(ctx) = self.cache.get_or_compute(key, || Ok(compile()));
        ctx
    }

    /// Like [`ContextRegistry::get_or_compile`], but only returns a cached
    /// context, never compiling. Counts neither a hit nor a miss.
    pub fn peek(
        &self,
        soc: &Arc<Soc>,
        w_max: TamWidth,
        power_budget: Option<u64>,
    ) -> Option<Arc<CompiledSoc>> {
        self.cache.peek(&ContextKey::new(soc, w_max, power_budget))
    }

    /// Number of contexts currently resident.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the registry holds no contexts.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Total capacity (shards × per-shard bound).
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Drops every cached context (stats are kept).
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> RegistryStats {
        let s = self.cache.stats();
        RegistryStats {
            hits: s.hits + s.coalesced,
            misses: s.misses,
            evictions: s.evictions,
            panics: s.panics,
        }
    }
}

impl Default for ContextRegistry {
    /// A registry with [`ContextRegistry::DEFAULT_SHARDS`] shards and
    /// [`ContextRegistry::DEFAULT_CAPACITY`] total capacity.
    fn default() -> Self {
        Self::new(Self::DEFAULT_SHARDS, Self::DEFAULT_CAPACITY)
    }
}

impl std::fmt::Debug for ContextRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextRegistry")
            .field("cache", &self.cache)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_soc::benchmarks;

    #[test]
    fn same_key_compiles_once() {
        let reg = ContextRegistry::default();
        let soc = Arc::new(benchmarks::d695());
        let a = reg.get_or_compile(&soc, 64, None);
        let b = reg.get_or_compile(&soc, 64, None);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            reg.stats(),
            RegistryStats {
                hits: 1,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_budgets_and_caps_are_distinct_keys() {
        let reg = ContextRegistry::default();
        let soc = Arc::new(benchmarks::d695());
        let plain = reg.get_or_compile(&soc, 64, None);
        let budgeted = reg.get_or_compile(&soc, 64, Some(1000));
        let narrow = reg.get_or_compile(&soc, 32, None);
        assert!(!Arc::ptr_eq(&plain, &budgeted));
        assert!(!Arc::ptr_eq(&plain, &narrow));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.stats().misses, 3);
    }

    #[test]
    fn concurrent_same_key_requests_compile_once() {
        let reg = ContextRegistry::new(1, 4);
        let soc = Arc::new(benchmarks::d695());
        let ctxs: Vec<Arc<CompiledSoc>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| reg.get_or_compile(&soc, 64, None)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in ctxs.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "every racer gets the one compiled context"
            );
        }
        let stats = reg.stats();
        assert_eq!(stats.misses, 1, "exactly one racer published the cell");
        assert_eq!(stats.hits, 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn equal_value_socs_share_one_context() {
        let reg = ContextRegistry::default();
        let a = Arc::new(benchmarks::d695());
        let b = Arc::new(benchmarks::d695()); // different allocation, same value
        assert!(!Arc::ptr_eq(&a, &b));
        let ca = reg.get_or_compile(&a, 64, None);
        let cb = reg.get_or_compile(&b, 64, None);
        assert!(Arc::ptr_eq(&ca, &cb));
        assert_eq!(reg.stats().hits, 1);
    }

    #[test]
    fn w_max_is_clamped_in_the_key() {
        let reg = ContextRegistry::default();
        let soc = Arc::new(benchmarks::d695());
        let a = reg.get_or_compile(&soc, 0, None);
        let b = reg.get_or_compile(&soc, 1, None);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.w_max(), 1);
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        // One shard, capacity 2 → fully deterministic eviction order.
        let reg = ContextRegistry::new(1, 2);
        let d695 = Arc::new(benchmarks::d695());
        let soc = |budget| (Arc::clone(&d695), budget);
        let (s, b0) = soc(Some(0));
        reg.get_or_compile(&s, 8, b0); // stamp 0
        reg.get_or_compile(&s, 8, Some(1)); // stamp 1
        reg.get_or_compile(&s, 8, b0); // touch budget-0 → stamp 2
        reg.get_or_compile(&s, 8, Some(2)); // full → evicts budget-1 (coldest)
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.stats().evictions, 1);
        assert!(reg.peek(&s, 8, Some(0)).is_some(), "recently used survives");
        assert!(reg.peek(&s, 8, Some(1)).is_none(), "LRU entry evicted");
        assert!(reg.peek(&s, 8, Some(2)).is_some(), "new entry resident");
        // Re-requesting the evicted key recompiles.
        reg.get_or_compile(&s, 8, Some(1));
        assert_eq!(reg.stats().misses, 4);
        assert_eq!(reg.stats().evictions, 2);
    }

    #[test]
    fn panicking_compile_neither_poisons_shards_nor_hangs_waiters() {
        use std::sync::Barrier;

        let reg = ContextRegistry::new(1, 4);
        let soc = Arc::new(benchmarks::d695());
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                reg.get_or_compile_with(ContextKey::new(&soc, 8, None), || {
                    entered.wait();
                    release.wait();
                    panic!("compiler died mid-flight");
                })
            });
            entered.wait();
            // A waiter rendezvouses on the in-flight cell before the
            // compile panics (the registry counts the rendezvous as a
            // hit), then must be released and retry with its own
            // (working) compile instead of hanging or dying of poison.
            let waiter = scope.spawn(|| reg.get_or_compile(&soc, 8, None));
            while reg.stats().hits == 0 {
                std::thread::yield_now();
            }
            release.wait();
            assert!(panicker.join().is_err(), "panic re-raised in its thread");
            let ctx = waiter.join().expect("waiter released, not hung");
            assert_eq!(ctx.w_max(), 8);
        });
        assert_eq!(reg.stats().panics, 1);
        // No shard is poisoned and the dead entry was torn down: the key
        // serves normally ever after.
        let again = reg.get_or_compile(&soc, 8, None);
        assert_eq!(again.w_max(), 8);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let reg = ContextRegistry::default();
        let soc = Arc::new(benchmarks::d695());
        reg.get_or_compile(&soc, 16, None);
        assert!(!reg.is_empty());
        reg.clear();
        assert!(reg.is_empty());
        assert_eq!(reg.stats().misses, 1);
    }

    #[test]
    fn capacity_and_shards_clamp_to_one() {
        let reg = ContextRegistry::new(0, 0);
        assert_eq!(reg.capacity(), 1);
        let soc = Arc::new(benchmarks::d695());
        reg.get_or_compile(&soc, 4, None);
        reg.get_or_compile(&soc, 8, None);
        assert_eq!(reg.len(), 1, "capacity-1 registry keeps one context");
        assert_eq!(reg.stats().evictions, 1);
    }

    #[test]
    fn hit_rate_reports() {
        let s = RegistryStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(RegistryStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn registry_is_send_sync_static() {
        fn takes<T: Send + Sync + 'static>(_: &T) {}
        takes(&ContextRegistry::default());
    }
}
