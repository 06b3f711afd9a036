//! A sharded, bounded cache with in-flight coalescing.
//!
//! [`SolutionCache`] is the crate's one cache. A serving tier memoizes
//! whole request *outcomes* in it, keyed by whatever identifies a request
//! (`soctam_core`'s engine keys on the context key plus width, mode, and
//! parameter grid), so a repeat request returns without invoking the
//! solver at all. [`ContextRegistry`](crate::ContextRegistry) is a typed
//! key over the same cache that memoizes *compiled contexts* instead.
//!
//! The cache is deliberately generic over key, value, and error type: this
//! crate knows nothing about the flow-level result types layered above it,
//! and the test suite exercises the concurrency discipline with cheap
//! stand-ins.
//!
//! # Concurrency discipline
//!
//! Entries live in independently locked shards selected by key hash; the
//! shard lock covers only the map probe, never a solve. A miss publishes
//! an empty per-entry cell and releases the shard; concurrent requests
//! for the *same* key rendezvous on that cell — exactly one runs the
//! solver, the rest block until the result is published
//! ([`SolutionCacheStats::coalesced`] counts them) — while requests for
//! other keys proceed immediately.
//!
//! # Errors are not cached
//!
//! A failed solve is returned to every request that joined it, but the
//! entry is removed so the next request retries; transient failures do not
//! poison a key for the cache's lifetime
//! ([`SolutionCacheStats::failures`] counts them).
//!
//! # Panics are isolated
//!
//! A solve that *panics* is caught inside the rendezvous cell, so the
//! cell is always published and coalesced waiters never hang on an
//! abandoned in-flight slot. The panicked entry is torn down
//! ([`SolutionCacheStats::panics`] counts it), the panic is re-raised in
//! the thread whose solve panicked, and every coalesced waiter retries
//! with its own solve closure as if it had missed. Shard locks recover
//! from poisoning ([`lock_unpoisoned`](crate::sync::lock_unpoisoned))
//! rather than cascading a panic across unrelated requests.
//!
//! # Bounds
//!
//! Entry *count* is bounded per shard with LRU eviction that never picks
//! an in-flight entry; a shard whose slots are all in flight admits one
//! more and gives the room back when a solve completes. Nothing expires:
//! a cached value is a function of its key, so it cannot go stale, and
//! the capacity is the cache's only bound.
//!
//! # Example
//!
//! ```
//! use soctam_schedule::SolutionCache;
//!
//! let cache: SolutionCache<u32, u64, String> = SolutionCache::new(4, 64);
//! let a = cache.get_or_compute(7, || Ok(7 * 7)).unwrap();
//! let b = cache.get_or_compute(7, || panic!("never re-solved")).unwrap();
//! assert_eq!((a, b), (49, 49));
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sync::{lock_unpoisoned, panic_message};

/// What a rendezvous cell ends up holding: the solve's result, or the
/// rendered payload of the panic that killed it. Publishing the panic
/// instead of abandoning the cell is what keeps coalesced waiters from
/// blocking forever on a slot whose solver died.
enum SlotOutcome<V, E> {
    Done(Result<V, E>),
    Panicked(String),
}

/// One cache slot. The result lives behind a `OnceLock` cell so the solve
/// happens outside the shard lock and same-key requests rendezvous on the
/// cell.
struct Slot<V, E> {
    cell: Arc<OnceLock<SlotOutcome<V, E>>>,
    last_used: u64,
}

/// How one [`SolutionCache::get_or_compute_traced`] request was disposed
/// of — the per-request counterpart of the cumulative
/// [`SolutionCacheStats`], so a serving tier can log each request's cache
/// outcome without diffing racy global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Served from a completed cached result; the solver never ran.
    Hit,
    /// No usable entry; this request ran (or was first in line to run)
    /// the solve.
    Miss,
    /// Joined a solve already in flight for the same key.
    Coalesced,
}

impl CacheLookup {
    /// The lookup as a lowercase label (`hit`/`miss`/`coalesced`), the
    /// form request logs use.
    pub fn label(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Coalesced => "coalesced",
        }
    }
}

/// Cumulative counters of one solution cache's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolutionCacheStats {
    /// Requests served from a completed cached result.
    pub hits: u64,
    /// Requests that started a solve.
    pub misses: u64,
    /// Requests that joined a solve already in flight for their key
    /// (the dogpile the cache prevents: N identical concurrent requests
    /// cost one solve, not N).
    pub coalesced: u64,
    /// Entries dropped by the bounded-size LRU policy.
    pub evictions: u64,
    /// Solves that returned an error (the entry is removed, not cached).
    pub failures: u64,
    /// Solves that panicked (caught, torn down, and re-raised in the
    /// panicking thread; coalesced waiters retried instead of hanging).
    pub panics: u64,
}

impl SolutionCacheStats {
    /// Fraction of requests that skipped the solver (hit or coalesced);
    /// `0` when no request has been served.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.coalesced;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// Sharded, LRU-bounded, thread-safe cache of solved results with
/// in-flight request coalescing: concurrent same-key requests wait on one
/// solve, errors are not cached, and a panicking solve is torn down
/// without poisoning a shard.
pub struct SolutionCache<K, V, E> {
    shards: Vec<Mutex<HashMap<K, Slot<V, E>>>>,
    per_shard_capacity: usize,
    hasher: RandomState,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    failures: AtomicU64,
    panics: AtomicU64,
}

impl<K, V, E> SolutionCache<K, V, E>
where
    K: Hash + Eq + Clone,
    V: Clone,
    E: Clone,
{
    /// Default shard count, matching the registry's.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Creates a cache with `shards` independently locked shards, room for
    /// `capacity` results in total (each shard holds at most
    /// `capacity / shards`, minimum one; both arguments clamp to at least
    /// 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.max(1).div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity,
            hasher: RandomState::new(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// The cached result for `key`, solving (and caching) via `solve` on a
    /// miss.
    ///
    /// Exactly one of any set of concurrent same-key requests runs
    /// `solve`; the rest block on the entry's cell and receive a clone of
    /// the published result. `Err` results are returned to every joined
    /// request but removed from the cache, so a later request retries.
    ///
    /// # Errors
    ///
    /// Whatever `solve` (or the solve this request coalesced onto)
    /// returned.
    pub fn get_or_compute(&self, key: K, solve: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        self.get_or_compute_traced(key, solve).0
    }

    /// [`SolutionCache::get_or_compute`], additionally reporting how this
    /// request was disposed of (hit / miss / coalesced) so callers can log
    /// per-request cache outcomes.
    ///
    /// # Errors
    ///
    /// As [`SolutionCache::get_or_compute`].
    pub fn get_or_compute_traced(
        &self,
        key: K,
        solve: impl FnOnce() -> Result<V, E>,
    ) -> (Result<V, E>, CacheLookup) {
        let shard = &self.shards[self.shard_of(&key)];
        // `solve` is consumed only by the request that actually runs it;
        // a waiter whose in-flight solver panicked still holds its own
        // closure and retries with it instead of hanging or giving up.
        let mut solve = Some(solve);

        loop {
            let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
            let (cell, lookup) = {
                let mut map = lock_unpoisoned(shard);
                // An entry whose solve panicked is dead: its publisher
                // tears it down, but a racing probe may see it first and
                // must not serve it; treat the access as a miss.
                let mut resident = None;
                if let Some(slot) = map.get_mut(&key) {
                    let completed = slot.cell.get();
                    if matches!(completed, Some(SlotOutcome::Panicked(_))) {
                        map.remove(&key);
                    } else {
                        slot.last_used = stamp;
                        let lookup = if completed.is_some() {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            CacheLookup::Hit
                        } else {
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                            CacheLookup::Coalesced
                        };
                        resident = Some((Arc::clone(&slot.cell), lookup));
                    }
                }
                match resident {
                    Some(found) => found,
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        if map.len() >= self.per_shard_capacity {
                            // When every slot is in flight the shard
                            // over-admits by one; the solve that completes
                            // trims it back (below).
                            self.evict_lru(&mut map, None);
                        }
                        let cell = Arc::new(OnceLock::new());
                        map.insert(
                            key.clone(),
                            Slot {
                                cell: Arc::clone(&cell),
                                last_used: stamp,
                            },
                        );
                        (cell, CacheLookup::Miss)
                    }
                }
            };

            // Outside the shard lock: `get_or_init` guarantees exactly one
            // closure runs per cell no matter how many requests rendezvous
            // on it — usually the inserting request's, but a coalesced
            // request that arrives at an empty cell first solves in its
            // stead, which is just as correct (every request carries the
            // same work). `ran` tells us whether ours ran, so exactly one
            // request handles a failure. The solve runs under
            // `catch_unwind` so a panicking solver still publishes the
            // cell: waiters blocked on it are released instead of hanging
            // on an abandoned slot, and `get_or_init` itself is never
            // poisoned.
            let mut ran = false;
            let outcome = cell.get_or_init(|| {
                ran = true;
                let solve = solve.take().expect("solve closure still available");
                match catch_unwind(AssertUnwindSafe(solve)) {
                    Ok(result) => SlotOutcome::Done(result),
                    Err(payload) => SlotOutcome::Panicked(panic_message(payload.as_ref())),
                }
            });

            // Only ever remove the entry this cell published — the key may
            // already hold a newer entry from a later request — so the
            // removal is idempotent when racing probes remove it too.
            let remove_own_entry = || {
                let mut map = lock_unpoisoned(shard);
                if map.get(&key).is_some_and(|s| Arc::ptr_eq(&s.cell, &cell)) {
                    map.remove(&key);
                }
            };
            match outcome {
                SlotOutcome::Done(result) => {
                    let result = result.clone();
                    if ran && result.is_err() {
                        self.failures.fetch_add(1, Ordering::Relaxed);
                        remove_own_entry();
                    } else if ran {
                        // Give back any room over-admitted while every
                        // slot was in flight, sparing the fresh result.
                        let mut map = lock_unpoisoned(shard);
                        while map.len() > self.per_shard_capacity
                            && self.evict_lru(&mut map, Some(&key))
                        {}
                    }
                    return (result, lookup);
                }
                SlotOutcome::Panicked(message) => {
                    // Tear the dead slot down so later requests re-solve
                    // instead of rendezvousing with a corpse.
                    remove_own_entry();
                    if ran {
                        // The panic was ours: re-raise it now that the
                        // cell is published and the entry torn down, so
                        // the caller's own isolation layer (the engine's
                        // catch_unwind) sees it exactly once.
                        self.panics.fetch_add(1, Ordering::Relaxed);
                        panic!("solution-cache solve panicked: {message}");
                    }
                    // A waiter: the solve we coalesced onto died, but our
                    // own closure is untouched — retry as a fresh miss.
                }
            }
        }
    }

    /// Only returns a completed cached result; never solves, never blocks
    /// on an in-flight solve, counts neither hit nor miss.
    pub fn peek(&self, key: &K) -> Option<V> {
        let map = lock_unpoisoned(&self.shards[self.shard_of(key)]);
        match map.get(key)?.cell.get()? {
            SlotOutcome::Done(r) => r.as_ref().ok().cloned(),
            SlotOutcome::Panicked(_) => None,
        }
    }

    /// Number of results currently resident (including solves still in
    /// flight).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_unpoisoned(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (shards × per-shard bound).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.per_shard_capacity
    }

    /// Drops every cached result (stats are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_unpoisoned(shard).clear();
        }
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> SolutionCacheStats {
        SolutionCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// Evicts the least recently used completed entry of one shard, other
    /// than `spare`; returns whether one was evicted. In-flight slots are
    /// never victims: evicting a slot whose cell is unset would discard
    /// the solve in progress and detach later same-key requests from it
    /// (re-solving instead of coalescing).
    fn evict_lru(&self, map: &mut HashMap<K, Slot<V, E>>, spare: Option<&K>) -> bool {
        let lru = map
            .iter()
            .filter(|(k, slot)| slot.cell.get().is_some() && Some(*k) != spare)
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(k, _)| k.clone());
        let Some(lru) = lru else {
            return false;
        };
        map.remove(&lru);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn shard_of(&self, key: &K) -> usize {
        (self.hasher.hash_one(key) % self.shards.len() as u64) as usize
    }
}

impl<K, V, E> std::fmt::Debug for SolutionCache<K, V, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    type Cache = SolutionCache<u32, u64, String>;

    #[test]
    fn repeat_requests_solve_once() {
        let cache = Cache::new(4, 16);
        let solves = AtomicUsize::new(0);
        for _ in 0..5 {
            let got = cache
                .get_or_compute(3, || {
                    solves.fetch_add(1, Ordering::Relaxed);
                    Ok(30)
                })
                .unwrap();
            assert_eq!(got, 30);
        }
        assert_eq!(solves.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 4));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_identical_requests_coalesce_onto_one_solve() {
        const THREADS: usize = 8;
        let cache = Cache::new(1, 16);
        let solves = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let got = cache
                        .get_or_compute(9, || {
                            solves.fetch_add(1, Ordering::Relaxed);
                            // Long enough that every barrier-released peer
                            // arrives while the solve is in flight.
                            std::thread::sleep(Duration::from_millis(300));
                            Ok(99)
                        })
                        .unwrap();
                    assert_eq!(got, 99);
                });
            }
        });
        // The pinned invariant: N identical concurrent requests, one solve.
        assert_eq!(solves.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(
            stats.hits + stats.coalesced,
            (THREADS - 1) as u64,
            "every other request was served without solving"
        );
        assert!(
            stats.coalesced >= 1,
            "at least one request joined the in-flight solve"
        );
    }

    #[test]
    fn errors_are_returned_but_not_cached() {
        let cache = Cache::new(2, 8);
        let solves = AtomicUsize::new(0);
        let err = cache.get_or_compute(5, || {
            solves.fetch_add(1, Ordering::Relaxed);
            Err::<u64, _>("boom".to_owned())
        });
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(cache.len(), 0, "failed entry removed");
        assert_eq!(cache.stats().failures, 1);
        // The next request retries.
        let ok = cache.get_or_compute(5, || {
            solves.fetch_add(1, Ordering::Relaxed);
            Ok(50)
        });
        assert_eq!(ok.unwrap(), 50);
        assert_eq!(solves.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        let cache = Cache::new(1, 2);
        cache.get_or_compute(1, || Ok(10)).unwrap(); // stamp 0
        cache.get_or_compute(2, || Ok(20)).unwrap(); // stamp 1
        cache.get_or_compute(1, || Ok(10)).unwrap(); // touch 1 → stamp 2
        cache.get_or_compute(3, || Ok(30)).unwrap(); // full → evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.peek(&1), Some(10), "recently used survives");
        assert_eq!(cache.peek(&2), None, "LRU entry evicted");
        assert_eq!(cache.peek(&3), Some(30));
    }

    #[test]
    fn lru_never_evicts_an_in_flight_slot() {
        // Capacity-1 shard: while key 1's solve is in flight, a request
        // for key 2 is at capacity and must over-admit rather than evict
        // the in-flight slot — evicting it would discard the solve in
        // progress and break same-key coalescing under capacity pressure.
        let cache = Cache::new(1, 1);
        let solves_of_1 = AtomicUsize::new(0);
        // Two rendezvous points with the in-flight solver: `entered` proves
        // the solve is in flight before the pressure request runs;
        // `release` holds it in flight until the coalescing request joined.
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let got = cache
                    .get_or_compute(1, || {
                        solves_of_1.fetch_add(1, Ordering::Relaxed);
                        entered.wait();
                        release.wait();
                        Ok(10)
                    })
                    .unwrap();
                assert_eq!(got, 10);
            });
            entered.wait();

            // Capacity pressure while key 1 is in flight: over-admit.
            let (got, lookup) = cache.get_or_compute_traced(2, || Ok(20));
            assert_eq!(got.unwrap(), 20);
            assert_eq!(lookup, CacheLookup::Miss);
            assert_eq!(cache.len(), 2, "over-admitted past capacity by one");
            assert_eq!(cache.stats().evictions, 0, "in-flight slot spared");

            // A same-key request must still coalesce onto the in-flight
            // solve, not start its own.
            let joiner = scope.spawn(|| cache.get_or_compute_traced(1, || panic!("must coalesce")));
            // The joiner observes the unset cell under the shard lock and
            // blocks on it; release the solver once it has registered.
            while cache.stats().coalesced == 0 {
                std::thread::yield_now();
            }
            release.wait();
            let (joined, lookup) = joiner.join().unwrap();
            assert_eq!(joined.unwrap(), 10);
            assert_eq!(lookup, CacheLookup::Coalesced);
        });
        assert_eq!(solves_of_1.load(Ordering::Relaxed), 1, "one solve of key 1");
        assert_eq!(cache.len(), 1, "key 1 gave the over-admitted room back");
        // With key 1 completed, the next capacity pressure evicts normally.
        cache.get_or_compute(3, || Ok(30)).unwrap();
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn panicking_solve_does_not_hang_coalesced_waiters() {
        // The resilience invariant this cache pins: a solver that panics
        // mid-flight must release every request coalesced onto its slot.
        // Before the `SlotOutcome` cell, the panic escaped `get_or_init`
        // with the cell unset — waiters blocked on it were stuck forever
        // (or killed by `Once` poisoning).
        const WAITERS: usize = 4;
        let cache = Cache::new(1, 16);
        let entered = Barrier::new(2);
        let release = Barrier::new(2);
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                cache.get_or_compute(9, || {
                    entered.wait();
                    release.wait();
                    panic!("solver died mid-flight");
                })
            });
            entered.wait();
            // Every waiter joins the in-flight solve before it panics.
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| scope.spawn(|| cache.get_or_compute(9, || Ok(99))))
                .collect();
            while cache.stats().coalesced < WAITERS as u64 {
                std::thread::yield_now();
            }
            release.wait();
            // The panicking thread re-raises; its join reports the panic.
            assert!(panicker.join().is_err(), "panic re-raised in its thread");
            // Waiters retry with their own closures and complete.
            for w in waiters {
                assert_eq!(w.join().unwrap().unwrap(), 99, "waiter released");
            }
        });
        assert_eq!(cache.stats().panics, 1);
        // The dead slot was torn down and replaced by a retry's entry.
        assert_eq!(cache.peek(&9), Some(99));
        // The shard survived: later traffic behaves normally.
        assert_eq!(cache.get_or_compute(9, || Ok(0)).unwrap(), 99);
    }

    #[test]
    fn panicked_entry_is_removed_and_next_request_resolves() {
        let cache = Cache::new(2, 8);
        let died = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_compute(5, || -> Result<u64, String> { panic!("boom") })
        }));
        assert!(died.is_err());
        assert_eq!(cache.len(), 0, "panicked entry torn down");
        assert_eq!(cache.stats().panics, 1);
        assert_eq!(cache.get_or_compute(5, || Ok(50)).unwrap(), 50);
        assert_eq!(cache.stats().panics, 1, "clean retry counts no panic");
    }

    #[test]
    fn traced_lookups_label_every_disposition() {
        let cache = Cache::new(1, 4);
        let (_, first) = cache.get_or_compute_traced(1, || Ok(10));
        let (_, second) = cache.get_or_compute_traced(1, || Ok(10));
        assert_eq!(first, CacheLookup::Miss);
        assert_eq!(second, CacheLookup::Hit);
        assert_eq!(CacheLookup::Miss.label(), "miss");
        assert_eq!(CacheLookup::Hit.label(), "hit");
        assert_eq!(CacheLookup::Coalesced.label(), "coalesced");
    }

    #[test]
    fn clear_and_capacity() {
        let cache = Cache::new(0, 0);
        assert_eq!(cache.capacity(), 1);
        cache.get_or_compute(1, || Ok(1)).unwrap();
        cache.get_or_compute(2, || Ok(2)).unwrap();
        assert_eq!(cache.len(), 1, "capacity-1 cache keeps one entry");
        assert_eq!(cache.stats().evictions, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2, "stats survive clear");
    }

    #[test]
    fn hit_rate_counts_coalesced_as_served() {
        let s = SolutionCacheStats {
            hits: 2,
            misses: 1,
            coalesced: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SolutionCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn cache_is_send_sync_static() {
        fn takes<T: Send + Sync + 'static>(_: &T) {}
        takes(&Cache::new(2, 8));
    }
}
