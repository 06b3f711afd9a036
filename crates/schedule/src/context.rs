//! One precompiled, owned schedule context per SOC.
//!
//! A parameter sweep — the paper's "best result over all integer values of
//! `m` and `d`", crossed with TAM widths and scheduling modes — re-derives
//! the same SOC-level data on every run: per-core Pareto-optimal rectangle
//! menus, the compiled constraint tables, and the lower-bound ingredients
//! (per-core minimum areas and the full-cap staircase). [`CompiledSoc`]
//! computes all of it exactly once per SOC and hands shared references to
//! the scheduler ([`ScheduleBuilder::with_context`](crate::ScheduleBuilder::with_context)),
//! the bounds ([`CompiledSoc::lower_bound`]), the validator
//! ([`validate_with`](crate::validate::validate_with)), and the baseline
//! architectures (`soctam-baseline`), so a whole `(m, d, slack) × width`
//! sweep compiles the SOC once and only solves from then on.
//!
//! The context *owns* its SOC (`Arc<Soc>`), so it is lifetime-free: it can
//! be cached in a [`ContextRegistry`](crate::ContextRegistry), moved across
//! threads, and outlive the request that compiled it — the substrate for
//! long-lived batch serving (`soctam_core`'s `Engine`).
//!
//! Rectangle menus depend on the *effective* per-core width cap
//! (`min(W, w_max)`), so the context keeps a small per-cap cache behind a
//! mutex. The full-cap build itself is *lazy* (a `OnceLock` filled on the
//! first bound query or menu read), and every smaller cap is a cheap prefix
//! *derivation* of it ([`RectangleMenus::prefix`]), so a context builds
//! menus exactly once. Everything else is immutable shared data, and the
//! whole context is `Sync` — the engine's batch workers share one context
//! across threads.
//!
//! # Example
//!
//! ```
//! use soctam_schedule::{CompiledSoc, ScheduleBuilder, SchedulerConfig};
//! use soctam_soc::benchmarks;
//!
//! # fn main() -> Result<(), soctam_schedule::ScheduleError> {
//! let soc = benchmarks::d695();
//! let ctx = CompiledSoc::compile(&soc, 64);
//! // Many runs share one compilation.
//! for m in 1..=10 {
//!     let cfg = SchedulerConfig::new(32).with_percent(m);
//!     let s = ScheduleBuilder::new(&soc, cfg).with_context(&ctx).run()?;
//!     assert!(s.makespan() >= ctx.lower_bound(32));
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use soctam_soc::{CoreIdx, Soc};
use soctam_wrapper::{Cycles, RectangleSet, TamWidth};

use crate::bounds;
use crate::constraints::ConstraintSet;
use crate::menus::RectangleMenus;
use crate::sync::lock_unpoisoned;
use crate::SchedulerConfig;

/// The deferred full-cap compilation products: the `w_max`-wide menus (the
/// lower-bound staircase and the widest Pareto sets) and the summed
/// per-core minimum areas (the work term of the bound).
#[derive(Clone)]
struct FullCap {
    menus: Arc<RectangleMenus>,
    total_min_area: u128,
}

/// Precompiled, shareable schedule context for one SOC: the owned SOC
/// model, compiled constraint tables, per-core Pareto rectangle menus
/// (cached per effective width cap), and the cached lower-bound
/// ingredients.
///
/// Build one per SOC with [`CompiledSoc::compile`] (or
/// [`CompiledSoc::compile_arc`] to share an existing `Arc<Soc>` without
/// cloning the model) and share it across every scheduler run, bound
/// query, validation, and baseline evaluation of a sweep — or cache it in
/// a [`ContextRegistry`](crate::ContextRegistry) and share it across
/// *requests*. All shared paths are bit-identical to their
/// rebuild-per-call equivalents (pinned by the `context_reuse` and
/// `sweep_equivalence` suites).
pub struct CompiledSoc {
    soc: Arc<Soc>,
    w_max: TamWidth,
    constraints: ConstraintSet,
    /// The full-cap (`w_max`-wide) menus and bound ingredients, built
    /// lazily on the first path that needs them — bound queries, Pareto /
    /// full-menu reads, or a `menus_at` request at any cap up to `w_max`.
    /// Compiling a context that is never queried skips this cost entirely.
    full: OnceLock<FullCap>,
    menu_cache: Mutex<HashMap<TamWidth, Arc<RectangleMenus>>>,
}

impl CompiledSoc {
    /// Compiles the context: constraint tables immediately, rectangle
    /// menus at the per-core width cap `w_max` (the paper's 64; clamped to
    /// at least 1) lazily on first use.
    ///
    /// Clones the SOC into shared ownership; callers that already hold an
    /// `Arc<Soc>` should use [`CompiledSoc::compile_arc`].
    pub fn compile(soc: &Soc, w_max: TamWidth) -> Self {
        Self::compile_arc(Arc::new(soc.clone()), w_max)
    }

    /// [`CompiledSoc::compile`] over an SOC that is already shared,
    /// avoiding the model clone.
    pub fn compile_arc(soc: Arc<Soc>, w_max: TamWidth) -> Self {
        crate::instrument::note_context_compile();
        let _span = crate::obs::span(crate::obs::Phase::ContextCompile);
        let w_max = w_max.max(1);
        let constraints = ConstraintSet::compile(&soc);
        Self {
            soc,
            w_max,
            constraints,
            full: OnceLock::new(),
            menu_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The full-cap products, building them on first use. `OnceLock`
    /// publishes exactly one winner, so concurrent first readers still
    /// observe a single build per context (the registry's one-build-per-key
    /// counter pins rely on this).
    fn full_cap(&self) -> &FullCap {
        self.full.get_or_init(|| {
            let _span = crate::obs::span(crate::obs::Phase::MenuBuild);
            let menus = Arc::new(RectangleMenus::build(&self.soc, self.w_max));
            let total_min_area = menus.menus().iter().map(RectangleSet::min_area).sum();
            FullCap {
                menus,
                total_min_area,
            }
        })
    }

    /// The SOC this context was compiled from.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    /// Shared handle on the owned SOC model; cloning it is refcount-cheap.
    pub fn soc_arc(&self) -> &Arc<Soc> {
        &self.soc
    }

    /// The per-core width cap the context was compiled for.
    pub fn w_max(&self) -> TamWidth {
        self.w_max
    }

    /// Number of cores covered.
    pub fn len(&self) -> usize {
        self.soc.len()
    }

    /// Whether the SOC has no cores.
    pub fn is_empty(&self) -> bool {
        self.soc.is_empty()
    }

    /// The compiled constraint tables (precedence, concurrency, BIST,
    /// power), shared by every run.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The per-core Pareto-optimal rectangle set at the full cap — the
    /// staircase the lower bound and the width-increase heuristic read.
    /// Forces the lazy full-cap build.
    pub fn pareto(&self, core: CoreIdx) -> &RectangleSet {
        self.full_cap().menus.menu(core)
    }

    /// The rectangle menus at the full cap `w_max`. Forces the lazy
    /// full-cap build.
    pub fn full_menus(&self) -> &RectangleMenus {
        &self.full_cap().menus
    }

    /// The effective per-core cap a run at SOC width `w` uses — the same
    /// clamp as [`SchedulerConfig::effective_w_max`].
    pub fn effective_cap(&self, w: TamWidth) -> TamWidth {
        self.w_max.min(w).max(1)
    }

    /// The rectangle menus for an arbitrary width cap, made on first use
    /// and cached. The full cap is the lazy full-cap build; every smaller
    /// cap is prefix-derived from it ([`RectangleMenus::prefix`] —
    /// bit-identical to a fresh build, no wrapper-design reruns). Every
    /// served schedule and sweep also asks for the lower bound, which needs
    /// the full cap anyway, so forcing it here costs nothing extra and a
    /// context builds menus once. Caps above `w_max` (only reachable by
    /// calling this directly with an unclamped value) fall back to a fresh
    /// build. A width sweep touches one cap per distinct `min(W, w_max)`,
    /// so the cache stays tiny.
    pub fn menus_at(&self, cap: TamWidth) -> Arc<RectangleMenus> {
        let cap = cap.max(1);
        if cap == self.w_max {
            return Arc::clone(&self.full_cap().menus);
        }
        // Force the full cap before taking the cache lock, so a first build
        // never blocks readers of other caps.
        let full = (cap < self.w_max).then(|| &self.full_cap().menus);
        let mut cache = lock_unpoisoned(&self.menu_cache);
        Arc::clone(cache.entry(cap).or_insert_with(|| {
            let _span = crate::obs::span(crate::obs::Phase::MenuBuild);
            Arc::new(match full {
                Some(full) => full.prefix(cap),
                None => RectangleMenus::build(&self.soc, cap),
            })
        }))
    }

    /// The menus a configuration's run uses (`cfg.effective_w_max()` wide).
    pub fn menus_for_config(&self, cfg: &SchedulerConfig) -> Arc<RectangleMenus> {
        self.menus_at(cfg.effective_w_max())
    }

    /// Testing-time lower bound at SOC width `w` — bit-identical to
    /// [`bounds::lower_bound`]`(soc, w, w_max)`, without rebuilding any
    /// rectangle set.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn lower_bound(&self, w: TamWidth) -> Cycles {
        let full = self.full_cap();
        bounds::lower_bound_from_menus(&full.menus, full.total_min_area, w)
    }

    /// Lower bounds for several widths at once; see
    /// [`CompiledSoc::lower_bound`].
    pub fn lower_bounds(&self, widths: &[TamWidth]) -> Vec<Cycles> {
        widths.iter().map(|&w| self.lower_bound(w)).collect()
    }

    /// Number of distinct width caps with cached menus, counting the lazy
    /// full-cap build once it exists (diagnostic).
    pub fn cached_caps(&self) -> usize {
        lock_unpoisoned(&self.menu_cache).len() + usize::from(self.full.get().is_some())
    }
}

impl Clone for CompiledSoc {
    fn clone(&self) -> Self {
        let cache = lock_unpoisoned(&self.menu_cache);
        let full = OnceLock::new();
        if let Some(f) = self.full.get() {
            let _ = full.set(f.clone());
        }
        Self {
            soc: Arc::clone(&self.soc),
            w_max: self.w_max,
            constraints: self.constraints.clone(),
            full,
            menu_cache: Mutex::new(cache.clone()),
        }
    }
}

impl fmt::Debug for CompiledSoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSoc")
            .field("soc", &self.soc.name())
            .field("w_max", &self.w_max)
            .field("cores", &self.len())
            .field("cached_caps", &self.cached_caps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{lower_bound, lower_bounds};
    use soctam_soc::benchmarks;

    #[test]
    fn compile_defers_full_cap_menus() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        assert_eq!(ctx.w_max(), 64);
        assert_eq!(ctx.len(), soc.len());
        // Compile built nothing; the first full-cap read builds once.
        assert_eq!(ctx.cached_caps(), 0);
        assert_eq!(ctx.full_menus().w_max(), 64);
        assert_eq!(ctx.cached_caps(), 1);
        // Requesting the full cap reuses the lazy build.
        let m = ctx.menus_at(64);
        assert_eq!(ctx.cached_caps(), 1);
        assert_eq!(m.w_max(), 64);
    }

    #[test]
    fn narrow_request_derives_from_the_full_cap() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let derives = crate::instrument::menu_derives();
        let m = ctx.menus_at(16);
        assert_eq!(m.w_max(), 16);
        // The first narrow request builds the full cap and derives from it.
        assert!(ctx.full.get().is_some());
        assert!(crate::instrument::menu_derives() > derives);
        assert_eq!(ctx.cached_caps(), 2);
        assert_eq!(*m, RectangleMenus::build(&soc, 16));
        assert_eq!(*m, ctx.full_menus().prefix(16));
        // The bound reuses that build instead of making another.
        let _ = ctx.lower_bound(32);
        assert_eq!(ctx.cached_caps(), 2);
    }

    #[test]
    fn compile_arc_shares_the_model() {
        let soc = Arc::new(benchmarks::d695());
        let ctx = CompiledSoc::compile_arc(Arc::clone(&soc), 64);
        assert!(Arc::ptr_eq(ctx.soc_arc(), &soc));
        assert_eq!(ctx.soc(), &*soc);
    }

    #[test]
    fn context_is_send_and_sync_and_static() {
        fn takes<T: Send + Sync + 'static>(_: &T) {}
        let ctx = CompiledSoc::compile(&benchmarks::d695(), 16);
        takes(&ctx);
    }

    #[test]
    fn menus_cached_per_cap() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let a = ctx.menus_at(16);
        let b = ctx.menus_at(16);
        assert!(Arc::ptr_eq(&a, &b));
        // The full cap it derives from, plus the cap itself.
        assert_eq!(ctx.cached_caps(), 2);
        assert_eq!(*a, RectangleMenus::build(&soc, 16));
        // The full cap was already there; another narrow cap adds one.
        let _ = ctx.menus_at(64);
        assert_eq!(ctx.cached_caps(), 2);
        let _ = ctx.menus_at(32);
        assert_eq!(ctx.cached_caps(), 3);
    }

    #[test]
    fn smaller_caps_are_derived_once_the_full_cap_exists() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let _ = ctx.full_menus(); // force the full-cap build
        let derives = crate::instrument::menu_derives();
        let m = ctx.menus_at(16);
        assert_eq!(*m, RectangleMenus::build(&soc, 16)); // this build is the reference
        assert!(crate::instrument::menu_derives() > derives);
        // A cap above w_max falls back to a fresh build.
        let wide = ctx.menus_at(80);
        assert_eq!(wide.w_max(), 80);
    }

    #[test]
    fn menu_cache_recovers_from_poison() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ctx.menu_cache.lock().unwrap();
            panic!("poison the menu cache");
        }));
        assert!(ctx.menu_cache.lock().is_err(), "cache should be poisoned");
        // Every cache path shrugs the poison off instead of panicking.
        let m = ctx.menus_at(16);
        assert_eq!(*m, RectangleMenus::build(&soc, 16));
        assert_eq!(ctx.cached_caps(), 2);
        let cloned = ctx.clone();
        assert_eq!(cloned.cached_caps(), 2);
        assert!(Arc::ptr_eq(&cloned.menus_at(16), &m));
    }

    #[test]
    fn lower_bounds_match_free_functions() {
        let soc = benchmarks::p22810();
        let ctx = CompiledSoc::compile(&soc, 64);
        let widths = [1u16, 7, 16, 32, 48, 64, 80];
        assert_eq!(ctx.lower_bounds(&widths), lower_bounds(&soc, &widths, 64));
        for &w in &widths {
            assert_eq!(ctx.lower_bound(w), lower_bound(&soc, w, 64));
        }
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 0);
        assert_eq!(ctx.w_max(), 1);
        assert_eq!(ctx.effective_cap(0), 1);
        assert_eq!(ctx.lower_bound(1), lower_bound(&soc, 1, 1));
    }

    #[test]
    #[should_panic(expected = "at least one wire")]
    fn zero_width_bound_panics() {
        let soc = benchmarks::d695();
        let _ = CompiledSoc::compile(&soc, 64).lower_bound(0);
    }
}
