//! One precompiled, owned schedule context per SOC.
//!
//! A parameter sweep — the paper's "best result over all integer values of
//! `m` and `d`", crossed with TAM widths and scheduling modes — re-derives
//! the same SOC-level data on every run: per-core Pareto-optimal rectangle
//! menus, the compiled constraint tables, and the lower-bound ingredients
//! (per-core minimum areas and the full-cap staircase). [`CompiledSoc`]
//! computes all of it exactly once per SOC and hands shared references to
//! the scheduler ([`best_of`](crate::best_of), which every
//! [`ScheduleBuilder`](crate::ScheduleBuilder) run goes through), the
//! bounds ([`CompiledSoc::lower_bound`]), the validator
//! ([`validate_with`](crate::validate::validate_with)), and the baseline
//! architectures (`soctam-baseline`), so a whole `(m, d, slack) × width`
//! sweep compiles the SOC once and only solves from then on.
//!
//! The context *owns* its SOC (`Arc<Soc>`), so it is lifetime-free: it can
//! be cached in a [`ContextRegistry`](crate::ContextRegistry), moved across
//! threads, and outlive the request that compiled it — the substrate for
//! long-lived batch serving (`soctam_core`'s `Engine`).
//!
//! The context builds every core's rectangle menu once, when it compiles,
//! for widths `1..=w_max` (the paper's `Initialize` over `Design_wrapper`).
//! A run at SOC width `W` reads that one build under its own cap
//! `min(W, w_max)` ([`CompiledSoc::effective_cap`]): the rectangle at each
//! width never depends on the cap a menu was built for, so a capped read
//! answers exactly as a build at that cap would. Everything in the context
//! is immutable shared data, and the whole context is `Sync` — the
//! engine's batch workers share one context across threads.
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

use std::fmt;
use std::sync::Arc;

use soctam_soc::Soc;
use soctam_wrapper::{Cycles, RectangleSet, TamWidth};

use crate::bounds;
use crate::constraints::ConstraintSet;
use crate::menus::RectangleMenus;

/// Precompiled, shareable schedule context for one SOC: the owned SOC
/// model, compiled constraint tables, per-core Pareto rectangle menus
/// built at the context's cap `w_max`, and the cached lower-bound
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
#[derive(Clone)]
pub struct CompiledSoc {
    soc: Arc<Soc>,
    w_max: TamWidth,
    constraints: ConstraintSet,
    menus: RectangleMenus,
    /// The summed per-core minimum areas: the work term of the bound.
    total_min_area: u128,
}

impl CompiledSoc {
    /// Compiles the context: constraint tables and the rectangle menus at
    /// the per-core width cap `w_max` (the paper's 64; clamped to at least
    /// 1).
    ///
    /// Clones the SOC into shared ownership; callers that already hold an
    /// `Arc<Soc>` should use [`CompiledSoc::compile_arc`].
    pub fn compile(soc: &Soc, w_max: TamWidth) -> Self {
        Self::compile_arc(Arc::new(soc.clone()), w_max)
    }

    /// [`CompiledSoc::compile`] over an SOC that is already shared,
    /// avoiding the model clone. The menu build is a `menu_build` span
    /// nested in this call's `context_compile` span.
    pub fn compile_arc(soc: Arc<Soc>, w_max: TamWidth) -> Self {
        crate::instrument::note_context_compile();
        let _span = crate::obs::span(crate::obs::Phase::ContextCompile);
        let w_max = w_max.max(1);
        let constraints = ConstraintSet::compile(&soc);
        let menus = {
            let _span = crate::obs::span(crate::obs::Phase::MenuBuild);
            RectangleMenus::build(&soc, w_max)
        };
        let total_min_area = menus.menus().iter().map(RectangleSet::min_area).sum();
        Self {
            soc,
            w_max,
            constraints,
            menus,
            total_min_area,
        }
    }

    /// The SOC this context was compiled from.
    pub fn soc(&self) -> &Soc {
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

    /// The context's one menu build, at its cap `w_max`. A run at SOC
    /// width `w` reads it under [`CompiledSoc::effective_cap`]`(w)`.
    pub fn full_menus(&self) -> &RectangleMenus {
        &self.menus
    }

    /// The effective per-core cap a run at SOC width `w` uses — the same
    /// clamp as
    /// [`SchedulerConfig::effective_w_max`](crate::SchedulerConfig::effective_w_max).
    pub fn effective_cap(&self, w: TamWidth) -> TamWidth {
        self.w_max.min(w).max(1)
    }

    /// Testing-time lower bound at SOC width `w` — bit-identical to
    /// [`bounds::lower_bound`]`(soc, w, w_max)`, without rebuilding any
    /// rectangle set.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn lower_bound(&self, w: TamWidth) -> Cycles {
        bounds::lower_bound_from_menus(&self.menus, self.total_min_area, w)
    }

    /// Lower bounds for several widths at once; see
    /// [`CompiledSoc::lower_bound`].
    pub fn lower_bounds(&self, widths: &[TamWidth]) -> Vec<Cycles> {
        widths.iter().map(|&w| self.lower_bound(w)).collect()
    }
}

impl fmt::Debug for CompiledSoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSoc")
            .field("soc", &self.soc.name())
            .field("w_max", &self.w_max)
            .field("cores", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{lower_bound, lower_bounds};
    use soctam_soc::benchmarks;

    #[test]
    fn compile_builds_the_menus_once() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        assert_eq!(ctx.w_max(), 64);
        assert_eq!(ctx.len(), soc.len());
        // One build at the context's cap; every read returns that build.
        assert_eq!(*ctx.full_menus(), RectangleMenus::build(&soc, 64));
        assert!(std::ptr::eq(ctx.full_menus(), ctx.full_menus()));
        assert_eq!(ctx.clone().full_menus(), ctx.full_menus());
    }

    #[test]
    fn compile_arc_shares_the_model() {
        let soc = Arc::new(benchmarks::d695());
        let ctx = CompiledSoc::compile_arc(Arc::clone(&soc), 64);
        assert!(std::ptr::eq(ctx.soc(), Arc::as_ptr(&soc)));
        assert_eq!(ctx.soc(), &*soc);
    }

    #[test]
    fn context_is_send_and_sync_and_static() {
        fn takes<T: Send + Sync + 'static>(_: &T) {}
        let ctx = CompiledSoc::compile(&benchmarks::d695(), 16);
        takes(&ctx);
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
