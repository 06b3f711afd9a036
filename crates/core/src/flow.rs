//! The one-stop test automation flow: SOC in, schedule + wires + trade-off
//! data out.
//!
//! The flow's `(m, d, slack)` best-of search is the system's hot path: one
//! table reproduction executes the scheduler hundreds of times per TAM
//! width. Every width runs the one sequential sweep, [`best_of`], whose
//! sweep-scale optimizations keep it fast without changing a single
//! output bit:
//!
//! 1. **One compilation per SOC** — every SOC-level precomputation
//!    (rectangle menus, constraint tables, lower-bound ingredients) lives
//!    in a shared [`CompiledSoc`]; a whole `(m, d, slack) × width` sweep
//!    compiles the SOC exactly once, and several flows over the same SOC
//!    (e.g. the three Table 1 scheduling modes) can share one context via
//!    [`TestFlow::with_context`];
//! 2. **Deduplication** — `(m, d)` pairs that resolve to identical per-core
//!    preferred-width vectors schedule identically and run once;
//! 3. **Bound cutoff** — once the incumbent meets the width's lower bound,
//!    no later grid point can be strictly better, so none runs;
//! 4. **Running cores keep running** — the packer keeps the incomplete
//!    cores in three lists (running, waiting to resume, unstarted in
//!    priority order). A core with no preemption budget left stays
//!    scheduled until it completes instead of being descheduled at every
//!    update and resumed by Priority 1, and each instant's contention is
//!    one walk in priority order instead of a rescan after every
//!    assignment; both give the paper's schedule exactly;
//! 5. **Stopped runs** — after each update, a run stops once its clock
//!    plus what it provably still needs (its longest remaining test, or
//!    its remaining area over `W` wires) reaches the incumbent's
//!    makespan: it could only tie or lose;
//! 6. **Winner-only schedule** — runs pack raw slices into a reused
//!    buffer, and only the winner's are assembled into a [`Schedule`].

use std::sync::Arc;

use soctam_schedule::obs;
use soctam_schedule::{
    best_of, CompiledSoc, RectangleMenus, Schedule, ScheduleError, SchedulerConfig, TamWidth,
};
use soctam_soc::Soc;
use soctam_tam::WireAssignment;
use soctam_volume::{volume_of, SweepPoint};

/// How the flow derives the power ceiling `P_max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerPolicy {
    /// No power constraint.
    Unlimited,
    /// `P_max` = the largest single-core power rating — the tightest
    /// feasible ceiling; used for the Table 1 power-constrained column.
    MaxCorePower,
    /// `P_max` = an absolute value.
    Absolute(u64),
}

impl PowerPolicy {
    /// Resolves the policy against an SOC.
    pub fn resolve(self, soc: &Soc) -> Option<u64> {
        match self {
            PowerPolicy::Unlimited => None,
            PowerPolicy::MaxCorePower => Some(soc.max_core_power()),
            PowerPolicy::Absolute(v) => Some(v),
        }
    }
}

/// Configuration of the integrated flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowConfig {
    /// Per-core width cap (the paper's `W_max = 64`).
    pub w_max: TamWidth,
    /// The parameter grid searched per width.
    pub sweep: ParamSweep,
    /// Power policy.
    pub power: PowerPolicy,
    /// Whether per-core preemption budgets are honoured.
    pub allow_preemption: bool,
}

impl FlowConfig {
    /// Paper-faithful defaults with the extended sweep.
    pub fn new() -> Self {
        Self {
            w_max: 64,
            sweep: ParamSweep::extended(),
            power: PowerPolicy::Unlimited,
            allow_preemption: true,
        }
    }

    /// Cheap configuration for tests and examples.
    pub fn quick() -> Self {
        Self {
            sweep: ParamSweep::quick(),
            ..Self::new()
        }
    }

    /// Sets the power policy.
    pub fn with_power(mut self, power: PowerPolicy) -> Self {
        self.power = power;
        self
    }

    /// Disables preemption.
    pub fn without_preemption(mut self) -> Self {
        self.allow_preemption = false;
        self
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self::new()
    }
}

pub use soctam_schedule::{ParamSweep, SweepParams, SweepStats};

/// Result of one flow run at one TAM width.
#[derive(Debug, Clone)]
pub struct FlowRun {
    /// The winning schedule.
    pub schedule: Schedule,
    /// Parameters that won the sweep: `(m, d, slack)`.
    pub params: SweepParams,
    /// Testing-time lower bound at this width.
    pub lower_bound: u64,
    /// Concrete fork-and-merge wire assignment (verified).
    pub wires: WireAssignment,
    /// Tester data volume `W · T`.
    pub volume: u64,
    /// Sweep tally: points run, deduplicated, and cut, and runs stopped
    /// early.
    pub sweep: SweepStats,
}

/// The integrated framework entry point.
///
/// Owns (a shared handle on) a [`CompiledSoc`] — the once-per-SOC
/// precomputation, which itself owns the SOC model — plus a
/// configuration, and runs the three framework components on demand.
/// Lifetime-free: flows can be built per request, moved across threads,
/// and share one registry-cached context (see
/// [`Engine`](crate::engine::Engine)).
#[derive(Debug, Clone)]
pub struct TestFlow {
    cfg: FlowConfig,
    ctx: Arc<CompiledSoc>,
}

impl TestFlow {
    /// Creates a flow over `soc` with the given configuration, compiling a
    /// private schedule context for it (cloning the model into shared
    /// ownership).
    pub fn new(soc: &Soc, cfg: FlowConfig) -> Self {
        let ctx = Arc::new(CompiledSoc::compile(soc, cfg.w_max));
        Self { cfg, ctx }
    }

    /// Creates a flow over an existing context, sharing its compiled
    /// menus/constraints instead of recompiling. Use this when several
    /// flow configurations (scheduling modes, power policies) sweep the
    /// same SOC, or when a [`ContextRegistry`](soctam_schedule::ContextRegistry)
    /// serves contexts across requests. Accepts an `Arc<CompiledSoc>` (a
    /// refcount-cheap clone of a cached handle) or a `CompiledSoc` by
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.w_max` differs from the context's cap — the
    /// lower-bound ingredients are compiled per cap.
    pub fn with_context(ctx: impl Into<Arc<CompiledSoc>>, cfg: FlowConfig) -> Self {
        let ctx = ctx.into();
        assert_eq!(
            cfg.w_max.max(1),
            ctx.w_max(),
            "flow w_max must match the compiled context"
        );
        Self { cfg, ctx }
    }

    /// The SOC under test (owned by the flow's context).
    pub fn soc(&self) -> &Soc {
        self.ctx.soc()
    }

    /// The configuration in use.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// The schedule context in use.
    pub fn context(&self) -> &CompiledSoc {
        &self.ctx
    }

    /// The scheduler configuration a sweep at SOC width `w` starts from;
    /// the grid supplies `m`, `d`, and the slack.
    fn scheduler_config(&self, w: TamWidth) -> SchedulerConfig {
        let mut cfg = SchedulerConfig::new(w);
        cfg.w_max = self.cfg.w_max;
        cfg.allow_preemption = self.cfg.allow_preemption;
        cfg.p_max = self.cfg.power.resolve(self.soc());
        cfg
    }

    /// The rectangle menus a sweep at SOC width `w` reads: the context's
    /// one build, and the cap the sweep reads it under
    /// (`SchedulerConfig::effective_w_max`).
    pub fn menus_for(&self, w: TamWidth) -> (&RectangleMenus, TamWidth) {
        (
            self.context().full_menus(),
            self.scheduler_config(w).effective_w_max(),
        )
    }

    /// Finds the best schedule at `w` over the configured parameter sweep.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors if every parameter combination fails
    /// (e.g. an infeasible power ceiling).
    pub fn best_schedule(&self, w: TamWidth) -> Result<(Schedule, SweepParams), ScheduleError> {
        self.best_schedule_detailed(w)
            .map(|(schedule, params, _)| (schedule, params))
    }

    /// [`TestFlow::best_schedule`] plus the sweep tally (points run,
    /// deduplicated, and cut, and runs stopped early).
    ///
    /// # Errors
    ///
    /// As for [`TestFlow::best_schedule`].
    pub fn best_schedule_detailed(
        &self,
        w: TamWidth,
    ) -> Result<(Schedule, SweepParams, SweepStats), ScheduleError> {
        best_of(self.context(), &self.scheduler_config(w), &self.cfg.sweep)
    }

    /// Runs the full flow at one width: best schedule, lower bound, wire
    /// assignment, data volume.
    ///
    /// # Errors
    ///
    /// Scheduling errors as in [`TestFlow::best_schedule`]; wire assignment
    /// cannot fail for schedules this flow produces.
    pub fn run(&self, w: TamWidth) -> Result<FlowRun, ScheduleError> {
        let (schedule, params, sweep) = self.best_schedule_detailed(w)?;
        let _validate = obs::span(obs::Phase::Validate);
        let wires = WireAssignment::assign(&schedule).map_err(|e| ScheduleError::Invalid {
            reason: e.to_string(),
        })?;
        wires.verify().map_err(|e| ScheduleError::Invalid {
            reason: e.to_string(),
        })?;
        let volume = volume_of(w, schedule.makespan());
        Ok(FlowRun {
            lower_bound: self.context().lower_bound(w),
            volume,
            schedule,
            params,
            wires,
            sweep,
        })
    }

    /// Sweeps a range of SOC TAM widths, producing the `T(W)`/`V(W)` series
    /// behind Figures 9(a)–(b) and Table 2.
    ///
    /// # Errors
    ///
    /// Fails on the first width whose entire parameter sweep fails.
    pub fn sweep_widths(
        &self,
        widths: impl IntoIterator<Item = TamWidth>,
    ) -> Result<Vec<SweepPoint>, ScheduleError> {
        // Every width reads the context's one menu build under its own cap
        // (widths above `w_max` all read it whole), so the whole width
        // sweep, and any later sweep over the same context, builds nothing.
        let mut out = Vec::new();
        for w in widths {
            let (schedule, _, _) = self.best_schedule_detailed(w)?;
            let time = schedule.makespan();
            out.push(SweepPoint {
                width: w,
                time,
                volume: volume_of(w, time),
                lower_bound: self.context().lower_bound(w),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_schedule::validate::{validate, validate_power};
    use soctam_schedule::ScheduleBuilder;
    use soctam_soc::benchmarks;

    #[test]
    fn quick_flow_runs_and_validates() {
        let soc = benchmarks::d695();
        let flow = TestFlow::new(&soc, FlowConfig::quick());
        let run = flow.run(16).unwrap();
        assert!(run.schedule.makespan() >= run.lower_bound);
        assert_eq!(run.volume, 16 * run.schedule.makespan());
        validate(&soc, &run.schedule).unwrap();
        run.wires.verify().unwrap();
    }

    #[test]
    fn power_policy_resolves() {
        let soc = benchmarks::d695();
        assert_eq!(PowerPolicy::Unlimited.resolve(&soc), None);
        assert_eq!(
            PowerPolicy::MaxCorePower.resolve(&soc),
            Some(soc.max_core_power())
        );
        assert_eq!(PowerPolicy::Absolute(7).resolve(&soc), Some(7));
    }

    #[test]
    fn power_constrained_flow_respects_ceiling() {
        let soc = benchmarks::d695();
        let cfg = FlowConfig::quick().with_power(PowerPolicy::MaxCorePower);
        let flow = TestFlow::new(&soc, cfg);
        let run = flow.run(32).unwrap();
        validate(&soc, &run.schedule).unwrap();
        validate_power(&soc, &run.schedule, soc.max_core_power()).unwrap();
    }

    #[test]
    fn sweep_produces_monotone_trend() {
        let soc = benchmarks::d695();
        let flow = TestFlow::new(&soc, FlowConfig::quick());
        let pts = flow.sweep_widths([8u16, 16, 32, 64]).unwrap();
        assert!(pts.last().unwrap().time < pts.first().unwrap().time);
        for p in &pts {
            assert!(p.time >= p.lower_bound);
        }
    }

    #[test]
    fn best_schedule_beats_or_ties_every_single_run() {
        let soc = benchmarks::d695();
        let flow = TestFlow::new(&soc, FlowConfig::quick());
        let (best, _) = flow.best_schedule(24).unwrap();
        let single = ScheduleBuilder::new(&soc, SchedulerConfig::new(24))
            .run()
            .unwrap();
        assert!(best.makespan() <= single.makespan());
    }

    #[test]
    fn param_sweep_run_counts() {
        assert_eq!(ParamSweep::paper().runs(), 10 * 5);
        assert!(ParamSweep::extended().runs() > ParamSweep::paper().runs());
        assert_eq!(ParamSweep::quick().runs(), 5 * 3 * 2);
    }

    #[test]
    fn dedup_skips_runs_and_reports_them() {
        let soc = benchmarks::d695();
        let flow = TestFlow::new(&soc, FlowConfig::quick());
        let (_, _, stats) = flow.best_schedule_detailed(16).unwrap();
        assert_eq!(stats.runs_total, ParamSweep::quick().runs());
        assert_eq!(stats.runs_executed + stats.runs_skipped, stats.runs_total);
        // The quick grid's coarse m values collapse heavily.
        assert!(stats.runs_skipped > 0, "expected duplicate grid points");
    }

    #[test]
    fn shared_context_matches_private_compilation() {
        let soc = benchmarks::d695();
        let ctx = Arc::new(CompiledSoc::compile(&soc, FlowConfig::quick().w_max));
        for cfg in [
            FlowConfig::quick(),
            FlowConfig::quick().without_preemption(),
            FlowConfig::quick().with_power(PowerPolicy::MaxCorePower),
        ] {
            let shared = TestFlow::with_context(Arc::clone(&ctx), cfg.clone());
            let private = TestFlow::new(&soc, cfg);
            let (ss, ps, sts) = shared.best_schedule_detailed(24).unwrap();
            let (sp, pp, stp) = private.best_schedule_detailed(24).unwrap();
            assert_eq!(ss, sp);
            assert_eq!(ps, pp);
            assert_eq!(sts, stp);
            assert_eq!(shared.context().lower_bound(24), ctx.lower_bound(24));
        }
    }

    #[test]
    #[should_panic(expected = "must match the compiled context")]
    fn mismatched_context_cap_panics() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 32);
        let _ = TestFlow::with_context(ctx, FlowConfig::quick()); // w_max 64
    }

    #[test]
    fn flow_is_lifetime_free_and_sendable() {
        fn takes<T: Send + Sync + 'static>(_: &T) {}
        let flow = {
            // The borrowed SOC dies here; the flow owns its own model.
            let soc = benchmarks::d695();
            TestFlow::new(&soc, FlowConfig::quick())
        };
        takes(&flow);
        assert_eq!(flow.soc().name(), "d695");
        let run = std::thread::spawn(move || flow.run(16).unwrap())
            .join()
            .unwrap();
        assert!(run.schedule.makespan() >= run.lower_bound);
    }

    #[test]
    fn flow_reuses_one_menu_build_per_cap() {
        let soc = benchmarks::d695();
        let flow = TestFlow::new(&soc, FlowConfig::quick());
        // Every width reads the context's one build, under its own cap;
        // 100 clamps to w_max = 64.
        for (w, cap) in [(16u16, 16u16), (64, 64), (100, 64)] {
            let (menus, read_cap) = flow.menus_for(w);
            assert!(std::ptr::eq(menus, flow.context().full_menus()), "W={w}");
            assert_eq!(menus.w_max(), 64);
            assert_eq!(read_cap, cap, "W={w}");
        }
    }

    /// One grid point, `SchedulerConfig::new`'s defaults: the flow runs
    /// the scheduler once per width.
    fn single_run() -> FlowConfig {
        FlowConfig {
            sweep: ParamSweep {
                percents: vec![5],
                bumps: vec![1],
                slacks: vec![3],
            },
            ..FlowConfig::new()
        }
    }

    #[test]
    fn sweep_times_are_roughly_staircase() {
        let soc = benchmarks::d695();
        let flow = TestFlow::new(&soc, single_run());
        let pts = flow.sweep_widths((8..=32).step_by(4)).unwrap();
        assert_eq!(pts.len(), 7);
        // Heuristic times may wobble a little, but the broad trend must
        // fall: the widest point is well below the narrowest.
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(last.time < first.time);
        for p in &pts {
            assert!(p.time >= p.lower_bound);
            assert_eq!(p.volume, u64::from(p.width) * p.time);
        }
    }

    #[test]
    fn volume_dips_at_pareto_drops() {
        // Where T stays flat between consecutive widths, V must rise;
        // local V minima therefore sit at time-staircase drops.
        let soc = benchmarks::d695();
        let pts = TestFlow::new(&soc, single_run())
            .sweep_widths(8..=40)
            .unwrap();
        let mut rises_on_flat = true;
        for pair in pts.windows(2) {
            if pair[1].time == pair[0].time && pair[1].volume <= pair[0].volume {
                rises_on_flat = false;
            }
        }
        assert!(rises_on_flat);
    }
}
