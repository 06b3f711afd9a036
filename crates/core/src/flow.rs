//! The one-stop test automation flow: SOC in, schedule + wires + trade-off
//! data out.
//!
//! The flow's `(m, d, slack)` best-of search is the system's hot path: one
//! table reproduction executes the scheduler hundreds of times per TAM
//! width. Three sweep-scale optimizations keep it fast without changing a
//! single output bit:
//!
//! 1. **Shared menus** — rectangle menus are invariant across the grid, so
//!    one [`RectangleMenus`] build per width feeds every run;
//! 2. **Deduplication** — `(m, d)` pairs that resolve to identical per-core
//!    preferred-width vectors schedule identically and run once;
//! 3. **Parallelism** — the surviving runs execute on scoped threads, and
//!    the winner is reduced in grid order, bit-identical to the
//!    sequential sweep.
//! 4. **One compilation per SOC** — every SOC-level precomputation
//!    (rectangle menus, constraint tables, lower-bound ingredients) lives
//!    in a shared [`CompiledSoc`]; a whole `(m, d, slack) × width` sweep
//!    compiles the SOC exactly once, and several flows over the same SOC
//!    (e.g. the three Table 1 scheduling modes) can share one context via
//!    [`TestFlow::with_context`].

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::Arc;

use soctam_schedule::obs;
use soctam_schedule::{
    CompiledSoc, RectangleMenus, Schedule, ScheduleBuilder, ScheduleError, SchedulerConfig,
    TamWidth,
};
use soctam_soc::Soc;
use soctam_tam::WireAssignment;
use soctam_volume::{volume_of, CostCurve, SweepPoint};

/// The parameter grid the flow searches per width, mirroring the paper's
/// "best result over all integer values of m and d" methodology, extended
/// with the idle-fill slack (which the paper fixes at 3 but explicitly
/// allows the system integrator to retune).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamSweep {
    /// Preferred-width percentages `m` to try.
    pub percents: Vec<u32>,
    /// Pareto bump distances `d` to try.
    pub bumps: Vec<TamWidth>,
    /// Idle-fill slack values to try.
    pub slacks: Vec<TamWidth>,
}

impl ParamSweep {
    /// The paper's sweep: `1 ≤ m ≤ 10`, `0 ≤ d ≤ 4`, slack fixed at 3.
    pub fn paper() -> Self {
        Self {
            percents: (1..=10).collect(),
            bumps: (0..=4).collect(),
            slacks: vec![3],
        }
    }

    /// An extended sweep that also explores coarser preferred widths and
    /// wider idle-fill slack; used for the headline table reproductions.
    pub fn extended() -> Self {
        Self {
            percents: (1..=10)
                .chain([12, 15, 18, 22, 26, 30, 35, 40, 45, 52, 60])
                .collect(),
            bumps: (0..=4).collect(),
            slacks: vec![3, 5, 8, 12],
        }
    }

    /// A small sweep for unit tests and interactive use.
    pub fn quick() -> Self {
        Self {
            percents: vec![1, 5, 10, 25, 45],
            bumps: vec![0, 1, 3],
            slacks: vec![3, 8],
        }
    }

    /// Number of scheduler runs one width costs under this sweep.
    pub fn runs(&self) -> usize {
        self.percents.len() * self.bumps.len() * self.slacks.len()
    }
}

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
    /// Run the parameter grid on scoped threads (`true`, the default) or
    /// sequentially. Results are bit-identical either way; the switch
    /// exists for debugging and for the equivalence test suite.
    pub parallel: bool,
}

impl FlowConfig {
    /// Paper-faithful defaults with the extended sweep.
    pub fn new() -> Self {
        Self {
            w_max: 64,
            sweep: ParamSweep::extended(),
            power: PowerPolicy::Unlimited,
            allow_preemption: true,
            parallel: true,
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

    /// Selects parallel or sequential sweep execution.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Winning sweep parameters: `(m, d, slack)`.
pub type SweepParams = (u32, TamWidth, TamWidth);

pub use soctam_schedule::SweepStats;

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
    /// Sweep dedup tally.
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

    /// Shared handle on the schedule context, for handing the same
    /// compilation to another flow or thread.
    pub fn context_arc(&self) -> &Arc<CompiledSoc> {
        &self.ctx
    }

    /// Builds the scheduler configuration for one `(width, m, d, slack)`
    /// point.
    fn scheduler_config(
        &self,
        w: TamWidth,
        m: u32,
        d: TamWidth,
        slack: TamWidth,
    ) -> SchedulerConfig {
        let mut cfg = SchedulerConfig::new(w).with_percent(m).with_bump(d);
        cfg.w_max = self.cfg.w_max;
        cfg.idle_fill_slack = slack;
        cfg.allow_preemption = self.cfg.allow_preemption;
        cfg.p_max = self.cfg.power.resolve(self.soc());
        cfg
    }

    /// The per-core width cap a run at SOC width `w` uses. Delegates to
    /// `SchedulerConfig::effective_w_max` (the clamp the scheduler checks
    /// shared menus against) so the two can never drift apart; the sweep
    /// parameters passed here don't affect the cap.
    fn effective_w_max(&self, w: TamWidth) -> TamWidth {
        self.scheduler_config(w, 1, 0, 3).effective_w_max()
    }

    /// The shared rectangle menus for one SOC width, from the context's
    /// per-cap cache (built on first use, reused ever after).
    pub fn menus_for(&self, w: TamWidth) -> Arc<RectangleMenus> {
        self.context().menus_at(self.effective_w_max(w))
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

    /// [`TestFlow::best_schedule`] plus the sweep dedup tally.
    ///
    /// # Errors
    ///
    /// As for [`TestFlow::best_schedule`].
    pub fn best_schedule_detailed(
        &self,
        w: TamWidth,
    ) -> Result<(Schedule, SweepParams, SweepStats), ScheduleError> {
        let menus = self.menus_for(w);
        let _sweep = obs::span(obs::Phase::Sweep);
        self.best_schedule_with_menus(w, &menus)
    }

    /// The sweep proper, over caller-provided menus (so a width sweep can
    /// reuse one build across widths with the same effective cap).
    fn best_schedule_with_menus(
        &self,
        w: TamWidth,
        menus: &RectangleMenus,
    ) -> Result<(Schedule, SweepParams, SweepStats), ScheduleError> {
        // Preferred widths depend only on (m, d), never on slack; compute
        // each vector once instead of once per slack value.
        let prefs_by_md: Vec<Vec<TamWidth>> = self
            .cfg
            .sweep
            .percents
            .iter()
            .flat_map(|&m| {
                self.cfg.sweep.bumps.iter().map(move |&d| {
                    // The slack knob is irrelevant to preferred widths.
                    menus.preferred_widths(&self.scheduler_config(w, m, d, 0))
                })
            })
            .collect();

        // Enumerate the grid in its canonical order (slack, then m, then d)
        // and drop points whose (slack, preferred-width vector) was already
        // seen: m and d influence a run only through the preferred widths,
        // so such points schedule identically to their representative, and
        // the strict `<` winner rule means skipping them cannot change the
        // winning schedule or the reported parameters.
        let mut unique: Vec<(SchedulerConfig, SweepParams)> = Vec::new();
        let mut seen: HashSet<(TamWidth, &[TamWidth])> = HashSet::new();
        let mut runs_total = 0usize;
        for &slack in &self.cfg.sweep.slacks {
            for (mi, &m) in self.cfg.sweep.percents.iter().enumerate() {
                for (di, &d) in self.cfg.sweep.bumps.iter().enumerate() {
                    runs_total += 1;
                    let prefs = &prefs_by_md[mi * self.cfg.sweep.bumps.len() + di];
                    if seen.insert((slack, prefs)) {
                        unique.push((self.scheduler_config(w, m, d, slack), (m, d, slack)));
                    }
                }
            }
        }
        let stats = SweepStats {
            runs_total,
            runs_executed: unique.len(),
            runs_skipped: runs_total - unique.len(),
            runs_cut: 0,
        };

        // Execute the surviving runs, in parallel when configured. Each
        // slot is written by exactly one thread; the reduction below walks
        // the slots in grid order, so the winner (first strictly smaller
        // makespan) and the reported error (first failing grid point) are
        // bit-identical to the sequential sweep. Menus and constraint
        // tables come from the shared context: zero per-run compilation.
        let ctx = self.context();
        let run_one = |cfg: &SchedulerConfig| {
            ScheduleBuilder::new(ctx.soc(), cfg.clone())
                .with_menus(menus)
                .with_context(ctx)
                .run()
        };
        let mut results: Vec<Option<Result<Schedule, ScheduleError>>> =
            (0..unique.len()).map(|_| None).collect();
        let threads = if self.cfg.parallel {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
                .min(unique.len().max(1))
        } else {
            1
        };
        if threads <= 1 {
            for (slot, (cfg, _)) in results.iter_mut().zip(&unique) {
                *slot = Some(run_one(cfg));
            }
        } else {
            let chunk = unique.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (slots, cfgs) in results.chunks_mut(chunk).zip(unique.chunks(chunk)) {
                    scope.spawn(move || {
                        for (slot, (cfg, _)) in slots.iter_mut().zip(cfgs) {
                            *slot = Some(run_one(cfg));
                        }
                    });
                }
            });
        }

        let mut best: Option<(Schedule, SweepParams)> = None;
        let mut first_err = None;
        for ((_, params), result) in unique.iter().zip(results) {
            match result.expect("every slot filled") {
                Ok(s) => {
                    if best
                        .as_ref()
                        .is_none_or(|(b, _)| s.makespan() < b.makespan())
                    {
                        best = Some((s, *params));
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        best.map(|(schedule, params)| (schedule, params, stats))
            .ok_or_else(|| {
                first_err.unwrap_or(ScheduleError::InvalidConfig {
                    reason: "empty parameter sweep".to_owned(),
                })
            })
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
        // Widths above `w_max` share one effective cap and hence one menu
        // build; the context's per-cap cache covers the whole width sweep
        // (and any later sweep over the same context).
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

    /// Evaluates the normalized cost function over a sweep for one `α` —
    /// the effective-TAM-width analysis of §5.
    pub fn cost_curve(points: &[SweepPoint], alpha: f64) -> CostCurve {
        CostCurve::new(points, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_schedule::validate::{validate, validate_power};
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
        let a = flow.menus_for(16);
        let b = flow.menus_for(16);
        assert!(Arc::ptr_eq(&a, &b), "same cap must share one build");
        // 16 and 64 are distinct caps; 100 clamps to w_max = 64.
        let c = flow.menus_for(100);
        assert_eq!(c.w_max(), 64);
        assert!(Arc::ptr_eq(&c, &flow.menus_for(64)));
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let soc = benchmarks::d695();
        let par = TestFlow::new(&soc, FlowConfig::quick());
        let seq = TestFlow::new(&soc, FlowConfig::quick().with_parallel(false));
        let (sp, pp, statp) = par.best_schedule_detailed(24).unwrap();
        let (ss, ps, stats) = seq.best_schedule_detailed(24).unwrap();
        assert_eq!(sp, ss);
        assert_eq!(pp, ps);
        assert_eq!(statp, stats);
    }
}
