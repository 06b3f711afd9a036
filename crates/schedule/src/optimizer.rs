//! `TAM_schedule_optimizer` — the integrated wrapper/TAM co-optimization
//! and constraint-driven test scheduling algorithm (paper Figures 4–8).

use std::cmp::Reverse;
use std::collections::HashSet;

use soctam_soc::{CoreIdx, Soc};
use soctam_wrapper::{Cycles, TamWidth};

use crate::bitset::BitSet;
use crate::constraints::ConstraintSet;
use crate::context::CompiledSoc;
use crate::menus::RectangleMenus;
use crate::schedule::{Schedule, Slice};
use crate::state::CoreState;
use crate::{ScheduleError, SchedulerConfig};

/// Runs the paper's scheduling algorithm on one SOC for one configuration.
///
/// A run is [`best_of`] over the one-point grid `(cfg.percent, cfg.bump,
/// cfg.idle_fill_slack)`, so it packs exactly as every served sweep does.
/// By default it compiles a private [`CompiledSoc`] at the run's cap
/// (`cfg.effective_w_max()`); runs that share an SOC should compile one
/// context and pass it via [`ScheduleBuilder::with_context`]. The paper's
/// best-of search over `(m, d, slack)` is [`best_of`] over a wider grid.
///
/// # Example
///
/// ```
/// use soctam_schedule::{ScheduleBuilder, SchedulerConfig};
/// use soctam_soc::benchmarks;
///
/// # fn main() -> Result<(), soctam_schedule::ScheduleError> {
/// let soc = benchmarks::d695();
/// let schedule = ScheduleBuilder::new(&soc, SchedulerConfig::new(32)).run()?;
/// assert!(schedule.utilization() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ScheduleBuilder<'a> {
    soc: &'a Soc,
    cfg: SchedulerConfig,
    ctx: Option<&'a CompiledSoc>,
}

impl<'a> ScheduleBuilder<'a> {
    /// Prepares a run of the optimizer.
    pub fn new(soc: &'a Soc, cfg: SchedulerConfig) -> Self {
        Self {
            soc,
            cfg,
            ctx: None,
        }
    }

    /// Runs against a precompiled schedule context: its constraint tables
    /// and its one menu build ([`CompiledSoc::full_menus`]), read under the
    /// run's cap `effective_w_max()`.
    ///
    /// The context must have been compiled from the same SOC, with a
    /// `w_max` at least the run's `effective_w_max()`; `run` rejects
    /// mismatches.
    pub fn with_context(mut self, ctx: &'a CompiledSoc) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Executes `TAM_schedule_optimizer` and returns the packed schedule.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidConfig`] — `tam_width == 0`, the SOC has
    ///   no cores, or a shared context was compiled from another SOC or
    ///   for a narrower cap than the run's;
    /// * [`ScheduleError::Soc`] — the SOC model fails validation;
    /// * [`ScheduleError::Stuck`] — constraints make some core permanently
    ///   unschedulable (e.g. its power rating alone exceeds `P_max`).
    pub fn run(self) -> Result<Schedule, ScheduleError> {
        let cfg = &self.cfg;
        let private;
        let ctx = match self.ctx {
            // Pointer check first (the overwhelmingly common case), value
            // equality as the slow fallback for contexts compiled from a
            // clone of the same model.
            Some(ctx) if !std::ptr::eq(ctx.soc(), self.soc) && ctx.soc() != self.soc => {
                return Err(ScheduleError::InvalidConfig {
                    reason: format!(
                        "shared context was compiled for SOC `{}`, not `{}`",
                        ctx.soc().name(),
                        self.soc.name()
                    ),
                });
            }
            Some(ctx) => ctx,
            None => {
                private = CompiledSoc::compile(self.soc, cfg.effective_w_max());
                &private
            }
        };
        let one_point = ParamSweep {
            percents: vec![cfg.percent],
            bumps: vec![cfg.bump],
            slacks: vec![cfg.idle_fill_slack],
        };
        best_of(ctx, cfg, &one_point).map(|(schedule, _, _)| schedule)
    }
}

/// The packer's per-run buffers, allocated once per sweep and *cleared*
/// (not reallocated) between runs.
///
/// `running`, `waiting` and `pending` partition the incomplete cores, so
/// no scan walks a complete core and none walks a list it cannot pick
/// from: `update` walks `running` only, and each instant's contention is
/// one merge-walk of `waiting` and `pending` in priority order.
struct PackScratch<'m> {
    states: Vec<CoreState<'m>>,
    /// The scheduled cores. A core with no preemption budget left stays
    /// here from its start to its completion.
    running: Vec<CoreIdx>,
    /// Begun cores descheduled with preemption budget left, waiting to
    /// resume. Empty unless some core has a live budget.
    waiting: Vec<CoreIdx>,
    /// The unstarted cores in contention order: most `time_left` first,
    /// lowest index on ties. An unstarted core's `time_left` is its time
    /// at its preferred width, fixed until it starts, so `reset` sorts
    /// this list once per run.
    pending: Vec<CoreIdx>,
    complete: BitSet,
    scheduled: BitSet,
    bist_load: Vec<u32>,
    /// The run's raw slices, in emission order: one per continuous run of
    /// a core.
    slices: Vec<Slice>,
}

/// A core's place in contention order: most `time_left` first, lowest
/// index on ties (Figure 4's max-time-remaining priorities).
fn contention_key(states: &[CoreState<'_>], i: CoreIdx) -> (Reverse<Cycles>, CoreIdx) {
    (Reverse(states[i].time_left), i)
}

impl<'m> PackScratch<'m> {
    fn for_soc(cores: usize, bist_engines: usize) -> Self {
        Self {
            states: Vec::with_capacity(cores),
            running: Vec::with_capacity(cores),
            waiting: Vec::with_capacity(cores),
            pending: Vec::with_capacity(cores),
            complete: BitSet::new(cores),
            scheduled: BitSet::new(cores),
            bist_load: vec![0; bist_engines],
            slices: Vec::new(),
        }
    }

    /// Procedure `Initialize` (Figure 5) over the shared rectangle menus
    /// and the run's preferred widths (`menus.preferred_widths(cfg)`),
    /// plus a wipe of the incremental occupancy state and every core
    /// listed as pending, in contention order.
    fn reset(
        &mut self,
        soc: &Soc,
        cfg: &SchedulerConfig,
        menus: &'m RectangleMenus,
        prefs: &[TamWidth],
    ) {
        self.states.clear();
        self.states
            .extend(soc.cores().iter().zip(menus.menus()).zip(prefs).map(
                |((core, rects), &width_pref)| {
                    let budget = if cfg.allow_preemption {
                        core.max_preemptions()
                    } else {
                        0
                    };
                    let mut state = CoreState::new(rects, width_pref, budget);
                    // Unstarted cores advertise their preferred-width
                    // testing time so the max-time-remaining priorities can
                    // rank them.
                    state.time_left = state.time_at(width_pref);
                    state
                },
            ));
        self.running.clear();
        self.waiting.clear();
        self.pending.clear();
        self.pending.extend(0..self.states.len());
        let states = &self.states;
        self.pending
            .sort_unstable_by_key(|&i| contention_key(states, i));
        self.complete.clear();
        self.scheduled.clear();
        self.bist_load.fill(0);
        self.slices.clear();
    }

    /// Packs the reset states into `self.slices`. Returns the final clock
    /// (the schedule's makespan), or `None` if the run stopped because it
    /// provably could not finish before `limit`.
    fn pack(
        &mut self,
        cfg: &SchedulerConfig,
        constraints: &ConstraintSet,
        limit: Option<Limit<'_>>,
    ) -> Result<Option<Cycles>, ScheduleError> {
        let PackScratch {
            states,
            running,
            waiting,
            pending,
            complete,
            scheduled,
            bist_load,
            slices,
        } = self;
        Packer {
            cfg,
            constraints,
            limit,
            states,
            running,
            waiting,
            pending,
            w_avail: cfg.tam_width,
            scheduled_power: 0,
            now: 0,
            slices,
            complete,
            scheduled,
            bist_load,
        }
        .pack()
    }
}

/// The incumbent makespan a sweep's later run must strictly beat, and the
/// per-core floors that prove when it cannot.
#[derive(Clone, Copy)]
struct Limit<'f> {
    makespan: Cycles,
    /// Per core: the least time and the least wire·cycle area an unstarted
    /// core can take — its menu's `min_time()` and `min_area()`, read at
    /// the build's cap. Those are at most the floors under any run's cap,
    /// so they stay a sound bound for every run that reads the build.
    floors: &'f [(Cycles, u128)],
}

/// One run of Figure 4 over the three core lists of [`PackScratch`].
///
/// The paper's `Update` (Figure 8) deschedules every test at each
/// completion, and Priority 1 (Figure 4, line 5) then resumes every
/// budget-exhausted test in the same instant. This packer leaves those
/// tests scheduled instead, which changes nothing:
///
/// * Priority 1 runs before anything else in an instant, takes the cores
///   in index order at their fixed widths, charges no preemption and
///   checks no conflict. They always all fit, because they ran together
///   the instant before, so their widths sum to at most `W`. After it,
///   the scheduled set, `w_avail`, scheduled power and BIST occupancy are
///   what they were before the descheduling;
/// * a resume changes only `run_begin`, the start of the core's next
///   slice, and `Schedule::from_slices` merges contiguous equal-width
///   slices of one core, so one slice per continuous run yields the same
///   [`Schedule`];
/// * a resume would set `end = now + time_left`, which `end` already
///   holds: the sum is invariant while the core runs;
/// * the core's `first_begin` lies before `now` either way, which keeps
///   it out of width increase;
/// * `cannot_beat` reads its `time_left` and `width_assigned`, and a
///   resume changes neither.
struct Packer<'a, 'm> {
    cfg: &'a SchedulerConfig,
    constraints: &'a ConstraintSet,
    limit: Option<Limit<'a>>,
    states: &'a mut Vec<CoreState<'m>>,
    running: &'a mut Vec<CoreIdx>,
    waiting: &'a mut Vec<CoreIdx>,
    pending: &'a mut Vec<CoreIdx>,
    w_avail: TamWidth,
    scheduled_power: u64,
    now: Cycles,
    slices: &'a mut Vec<Slice>,
    /// Incremental mirrors of the per-core `complete`/`scheduled` flags,
    /// maintained on assign/retire so `Conflict` never materializes them.
    /// Borrowed from the sweep-owned [`PackScratch`].
    complete: &'a mut BitSet,
    scheduled: &'a mut BitSet,
    /// Scheduled-test count per BIST engine.
    bist_load: &'a mut Vec<u32>,
}

impl Packer<'_, '_> {
    fn pack(mut self) -> Result<Option<Cycles>, ScheduleError> {
        while !(self.running.is_empty() && self.waiting.is_empty() && self.pending.is_empty()) {
            self.debug_check_incremental_state();
            self.fill();
            self.debug_check_incremental_state();
            if self.running.is_empty() {
                let mut remaining: Vec<CoreIdx> = self
                    .waiting
                    .iter()
                    .chain(self.pending.iter())
                    .copied()
                    .collect();
                remaining.sort_unstable();
                return Err(ScheduleError::Stuck {
                    remaining,
                    at_time: self.now,
                });
            }
            self.update();
            if self.limit.is_some_and(|limit| self.cannot_beat(limit)) {
                return Ok(None);
            }
        }
        Ok(Some(self.now))
    }

    /// Whether the run provably cannot finish before `limit.makespan`.
    /// Called after an update: from `now`, the run still needs its longest
    /// remaining test, and its remaining area cannot pass through `W`
    /// wires any faster. A begun core — running, or waiting to resume —
    /// has a fixed width (it began at an earlier instant) and preemption
    /// only adds time, so it needs at least `time_left` at
    /// `width_assigned`; an unstarted core needs at least its floors. Once
    /// every core has completed, this asks whether the final clock reached
    /// the limit.
    fn cannot_beat(&self, limit: Limit<'_>) -> bool {
        let mut longest: Cycles = 0;
        let mut area: u128 = 0;
        for &i in self.running.iter().chain(self.waiting.iter()) {
            let s = &self.states[i];
            longest = longest.max(s.time_left);
            area += u128::from(s.width_assigned) * u128::from(s.time_left);
        }
        for &i in self.pending.iter() {
            let (time, core_area) = limit.floors[i];
            longest = longest.max(time);
            area += core_area;
        }
        let area_time = area.div_ceil(u128::from(self.cfg.tam_width)) as Cycles;
        self.now + longest.max(area_time) >= limit.makespan
    }

    /// Debug-build invariant: the three lists partition the incomplete
    /// cores by state, `pending` is in contention order, and the
    /// incremental bitsets, BIST occupancy, scheduled power and `w_avail`
    /// equal the state recomputed from scratch. The `incremental_state`
    /// proptest suite drives random SOCs through the packer to exercise
    /// this.
    fn debug_check_incremental_state(&self) {
        if cfg!(debug_assertions) {
            let mut bist_load = vec![0u32; self.constraints.num_bist_engines()];
            let mut scheduled_power = 0;
            let mut width_in_use = 0;
            let mut listed = vec![0u8; self.states.len()];
            for (&i, place) in self
                .running
                .iter()
                .map(|i| (i, 1))
                .chain(self.waiting.iter().map(|i| (i, 2)))
                .chain(self.pending.iter().map(|i| (i, 3)))
            {
                debug_assert_eq!(listed[i], 0, "core {i} listed twice");
                listed[i] = place;
            }
            for (i, s) in self.states.iter().enumerate() {
                debug_assert_eq!(self.complete.contains(i), s.complete, "complete[{i}]");
                debug_assert_eq!(self.scheduled.contains(i), s.scheduled, "scheduled[{i}]");
                let place = match (s.complete, s.scheduled, s.begun) {
                    (true, _, _) => 0,
                    (false, true, _) => 1,
                    (false, false, true) => 2,
                    (false, false, false) => 3,
                };
                debug_assert_eq!(listed[i], place, "list of core {i}");
                if place == 2 {
                    debug_assert!(s.preempts < s.max_preempts, "core {i} waits without budget");
                }
                if s.scheduled {
                    width_in_use += s.width_assigned;
                    scheduled_power += self.constraints.power(i);
                    if let Some(e) = self.constraints.bist_engine(i) {
                        bist_load[e] += 1;
                    }
                }
            }
            debug_assert!(
                self.pending
                    .windows(2)
                    .all(|w| contention_key(self.states, w[0]) < contention_key(self.states, w[1])),
                "pending out of contention order"
            );
            debug_assert_eq!(self.w_avail, self.cfg.tam_width - width_in_use, "w_avail");
            debug_assert_eq!(self.scheduled_power, scheduled_power, "scheduled power");
            debug_assert_eq!(*self.bist_load, bist_load);
        }
    }

    /// Figure 4 lines 7–16 at the current instant, after Priority 1 (whose
    /// cores never left `running`): the Priority 2/3 contention, then idle
    /// fill, then width increase.
    fn fill(&mut self) {
        self.contend();
        // Idle fill runs at most once per instant: it takes all of
        // `w_avail`.
        if self.w_avail > 0 && self.cfg.toggles.idle_fill {
            self.idle_fill();
        }
        // After a width increase no contender or idle-fill candidate can
        // appear: each one's width window only moves down as `w_avail`
        // falls, and the conflicts do not change. So width increases
        // repeat until none applies, and nothing else runs between them.
        while self.w_avail > 0 && self.cfg.toggles.width_increase && self.try_width_increase() {}
    }

    fn conflict(&self, core: CoreIdx) -> bool {
        self.constraints.conflicts(
            core,
            self.complete,
            self.scheduled,
            self.bist_load,
            self.scheduled_power,
            self.cfg.p_max,
        )
    }

    /// Priorities 2 and 3 (Figure 4 lines 7–12): every incomplete,
    /// unscheduled test contends for the available width, ranked by
    /// remaining testing time. A begun core resumes at its fixed width; an
    /// unstarted core begins at its preferred width. A begun core that
    /// loses waits — that wait is exactly a preemption, possible only
    /// while the core still has budget.
    ///
    /// The paper repeatedly picks the eligible core with the most
    /// `time_left` (lowest index on ties). Within an instant eligibility
    /// only shrinks — `w_avail` falls; the scheduled set, scheduled power
    /// and BIST occupancy only grow; `complete` is fixed — and no
    /// unscheduled core's key changes. So one walk in key order that
    /// assigns every core still eligible when the walk reaches it makes
    /// the same assignments. `pending` is kept in key order and `waiting`
    /// (whose keys are fixed while a core waits) is sorted here, so the
    /// walk is a merge of the two.
    fn contend(&mut self) {
        let mut pending = std::mem::take(self.pending);
        let mut waiting = std::mem::take(self.waiting);
        waiting.sort_unstable_by_key(|&i| contention_key(self.states, i));
        // Each list is compacted in place: the cores not assigned keep
        // their relative order.
        let (mut p, mut p_kept, mut w, mut w_kept) = (0, 0, 0, 0);
        while self.w_avail > 0 {
            let from_pending = match (pending.get(p), waiting.get(w)) {
                (Some(&a), Some(&b)) => {
                    contention_key(self.states, a) < contention_key(self.states, b)
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if from_pending {
                let i = pending[p];
                p += 1;
                let width = self.states[i].width_pref;
                if width <= self.w_avail && !self.conflict(i) {
                    self.assign(i, width, false);
                } else {
                    pending[p_kept] = i;
                    p_kept += 1;
                }
            } else {
                let i = waiting[w];
                w += 1;
                let s = &self.states[i];
                let width = s.width_assigned;
                if width <= self.w_avail && !self.conflict(i) {
                    // A core descheduled at this instant resumes
                    // seamlessly; one that waited through an earlier
                    // instant was preempted.
                    let preempt = s.end < self.now;
                    self.assign(i, width, preempt);
                } else {
                    waiting[w_kept] = i;
                    w_kept += 1;
                }
            }
        }
        // The walk stops early once no width is left; the cores it did not
        // reach keep their places behind the ones it kept.
        pending.copy_within(p.., p_kept);
        pending.truncate(p_kept + pending.len() - p);
        waiting.copy_within(w.., w_kept);
        waiting.truncate(w_kept + waiting.len() - w);
        *self.pending = pending;
        *self.waiting = waiting;
    }

    /// Idle fill (Figure 4 lines 13–14): squeeze the unstarted core whose
    /// preferred width exceeds the idle width by the fewest wires, at most
    /// `idle_fill_slack`, into the idle width; the contention already took
    /// every core that fits at its preferred width.
    fn idle_fill(&mut self) {
        let mut best: Option<(TamWidth, usize)> = None;
        for (k, &i) in self.pending.iter().enumerate() {
            let w = self.states[i].width_pref;
            if w > self.w_avail
                && w <= self.w_avail + self.cfg.idle_fill_slack
                && best.is_none_or(|(bw, bk)| (w, i) < (bw, self.pending[bk]))
                && !self.conflict(i)
            {
                best = Some((w, k));
            }
        }
        if let Some((_, k)) = best {
            let i = self.pending.remove(k);
            self.assign(i, self.w_avail, false);
        }
    }

    /// Figure 4 lines 15–16: find the rectangle beginning at the current
    /// instant that benefits most from the leftover wires; widen it to the
    /// highest Pareto-optimal width not exceeding `assigned + w_avail`.
    fn try_width_increase(&mut self) -> bool {
        let w_cap = self.cfg.effective_w_max();
        let mut best: Option<(Cycles, CoreIdx, TamWidth)> = None;
        for &i in self.running.iter() {
            let s = &self.states[i];
            if s.first_begin != Some(self.now) || s.run_begin != self.now {
                continue;
            }
            let reach = s.width_assigned.saturating_add(self.w_avail).min(w_cap);
            let Some(new_w) = s.rects.highest_pareto_width_at_most(reach) else {
                continue;
            };
            if new_w <= s.width_assigned {
                continue;
            }
            let gain = s.time_at(s.width_assigned) - s.time_at(new_w);
            if gain == 0 {
                continue;
            }
            if best.is_none_or(|(g, j, _)| gain > g || (gain == g && i < j)) {
                best = Some((gain, i, new_w));
            }
        }
        let Some((_, i, new_w)) = best else {
            return false;
        };
        let s = &mut self.states[i];
        self.w_avail -= new_w - s.width_assigned;
        s.width_assigned = new_w;
        s.time_left = s.rects.time_at(new_w);
        s.end = self.now + s.time_left;
        true
    }

    /// Procedure `Assign` (Figure 6); the caller has taken `i` off its
    /// list, and `assign` puts it on `running`.
    fn assign(&mut self, i: CoreIdx, width: TamWidth, preempt: bool) {
        let s = &mut self.states[i];
        debug_assert!(width >= 1 && width <= self.w_avail);
        debug_assert!(!s.scheduled && !s.complete);

        s.width_assigned = width;
        self.w_avail -= width;
        s.scheduled = true;
        self.scheduled.insert(i);
        self.running.push(i);
        if let Some(e) = self.constraints.bist_engine(i) {
            self.bist_load[e] += 1;
        }
        if preempt {
            s.preempts += 1;
            s.time_left += s.rects.rect_at(width).preemption_penalty();
        }
        if !s.begun {
            s.begun = true;
            s.first_begin = Some(self.now);
            s.time_left = s.rects.time_at(width);
        }
        s.run_begin = self.now;
        s.end = self.now + s.time_left;
        self.scheduled_power += self.constraints.power(i);
    }

    /// Procedure `Update` (Figure 8): advance to the earliest completion
    /// among the running tests. A completed test, and one with preemption
    /// budget left, emits its slice and is descheduled; a test with no
    /// budget left stays scheduled (see [`Packer`] for why that is the
    /// paper's schedule) and emits its slice only when it completes.
    fn update(&mut self) {
        let dt = self
            .running
            .iter()
            .map(|&i| self.states[i].time_left)
            .min()
            .expect("update requires a scheduled core");
        let new_time = self.now + dt;
        let mut kept = 0;
        for k in 0..self.running.len() {
            let i = self.running[k];
            let s = &mut self.states[i];
            s.time_left -= dt;
            if s.time_left > 0 && s.preempts >= s.max_preempts {
                // Priority 1 would resume it at once, unchanged.
                self.running[kept] = i;
                kept += 1;
                continue;
            }
            self.slices.push(Slice {
                core: i,
                width: s.width_assigned,
                start: s.run_begin,
                end: new_time,
            });
            s.scheduled = false;
            self.scheduled.remove(i);
            if let Some(e) = self.constraints.bist_engine(i) {
                self.bist_load[e] -= 1;
            }
            self.w_avail += s.width_assigned;
            s.end = new_time;
            self.scheduled_power -= self.constraints.power(i);
            if s.time_left == 0 {
                s.complete = true;
                self.complete.insert(i);
            } else {
                self.waiting.push(i);
            }
        }
        self.running.truncate(kept);
        self.now = new_time;
    }
}

/// The parameter grid a best-of sweep searches at one TAM width, mirroring
/// the paper's "best result over all integer values of m and d"
/// methodology, extended with the idle-fill slack (which the paper fixes
/// at 3 but explicitly allows the system integrator to retune).
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

/// Winning sweep parameters: `(m, d, slack)`.
pub type SweepParams = (u32, TamWidth, TamWidth);

/// Tally of one parameter sweep: how many grid points there were, how many
/// actually ran, how many were skipped without running, and how many runs
/// stopped early. `runs_executed + runs_skipped + runs_cut == runs_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points in the configured sweep.
    pub runs_total: usize,
    /// Scheduler runs actually executed.
    pub runs_executed: usize,
    /// Grid points skipped because an earlier point had the same slack and
    /// per-core preferred-width vector (identical schedule guaranteed).
    pub runs_skipped: usize,
    /// Grid points cut because the incumbent makespan already met the
    /// width's testing-time lower bound (no remaining point can win).
    pub runs_cut: usize,
    /// Executed runs stopped before packing every core, because they
    /// provably could not beat the incumbent (a subset of
    /// `runs_executed`).
    pub runs_aborted: usize,
}

/// The best schedule at `base.tam_width` over every `(slack, m, d)` point
/// of `grid` — the paper's best-of search. `base` supplies everything
/// else (width cap, power ceiling, preemption mode, heuristic toggles).
///
/// Points are visited in grid order (slack, then `m`, then `d`) and the
/// first strictly smaller makespan wins. Every run shares the context's
/// menus and constraint tables, one vector of preferred widths per
/// `(m, d)`, and one set of packer buffers. Two kinds of point never run,
/// and neither can change the winner:
///
/// * a point whose slack and per-core preferred widths repeat an earlier
///   point's schedules identically (`runs_skipped`);
/// * once the incumbent meets the context's lower bound at this width, no
///   later point can be strictly better (`runs_cut`).
///
/// A run that does execute stops between instants once its clock plus
/// what it provably still needs — its longest remaining test, or its
/// remaining area over `W` wires — reaches the incumbent's makespan
/// (`runs_aborted`): it could only tie or lose. Runs pack raw slices into
/// a reused buffer, and only the winner's become a [`Schedule`].
///
/// The whole call, validation included, is one `sweep` span. The runs
/// read the context's one menu build under the run's cap; building it is
/// the context's job, so no menu is built here.
///
/// # Errors
///
/// * [`ScheduleError::InvalidConfig`] — zero width, an SOC without cores,
///   a `base` whose effective cap exceeds the context's (the bound would
///   be computed for narrower rectangles than the runs use), or an empty
///   grid;
/// * [`ScheduleError::Soc`] — the SOC model fails validation;
/// * otherwise the first failing point's error, if *every* point fails.
pub fn best_of(
    ctx: &CompiledSoc,
    base: &SchedulerConfig,
    grid: &ParamSweep,
) -> Result<(Schedule, SweepParams, SweepStats), ScheduleError> {
    let _sweep = crate::obs::span(crate::obs::Phase::Sweep);
    let soc = ctx.soc();
    // Grid-invariant validation, done once; the error values match what
    // every run would have reported.
    if base.tam_width == 0 {
        return Err(ScheduleError::InvalidConfig {
            reason: "TAM width must be at least one wire".to_owned(),
        });
    }
    if soc.is_empty() {
        return Err(ScheduleError::InvalidConfig {
            reason: "SOC has no cores".to_owned(),
        });
    }
    let cap = base.effective_w_max();
    if cap > ctx.w_max() {
        return Err(ScheduleError::InvalidConfig {
            reason: format!(
                "sweep cap {cap} exceeds the context's w_max {}",
                ctx.w_max()
            ),
        });
    }
    soc.validate()?;

    let menus = ctx.full_menus();
    let bound = ctx.lower_bound(base.tam_width);
    let constraints = ctx.constraints();
    let floors: Vec<(Cycles, u128)> = menus
        .menus()
        .iter()
        .map(|rects| (rects.min_time(), rects.min_area()))
        .collect();
    let point = |m, d, slack| {
        let mut cfg = base.clone().with_percent(m).with_bump(d);
        cfg.idle_fill_slack = slack;
        cfg
    };
    // Preferred widths are the only way (m, d) enter a run, and slack
    // never changes them: one vector per (m, d), shared across slacks.
    let mut md_prefs = Vec::with_capacity(grid.percents.len() * grid.bumps.len());
    for &m in &grid.percents {
        for &d in &grid.bumps {
            md_prefs.push(((m, d), menus.preferred_widths(&point(m, d, 0))));
        }
    }
    let mut seen = HashSet::new();
    let mut scratch = PackScratch::for_soc(soc.len(), constraints.num_bist_engines());
    // The incumbent's makespan and parameters; its raw slices swap places
    // with the packer's buffer whenever a run beats it.
    let mut best: Option<(Cycles, SweepParams)> = None;
    let mut best_slices = Vec::new();
    let mut first_err = None;
    let mut stats = SweepStats::default();
    for &slack in &grid.slacks {
        for ((m, d), prefs) in &md_prefs {
            stats.runs_total += 1;
            if !seen.insert((slack, prefs.as_slice())) {
                stats.runs_skipped += 1;
                continue;
            }
            if best.is_some_and(|(makespan, _)| makespan <= bound) {
                stats.runs_cut += 1;
                continue;
            }
            stats.runs_executed += 1;
            crate::instrument::note_schedule_run();
            let cfg = point(*m, *d, slack);
            scratch.reset(soc, &cfg, menus, prefs);
            let limit = best.map(|(makespan, _)| Limit {
                makespan,
                floors: &floors,
            });
            match scratch.pack(&cfg, constraints, limit) {
                // A run that finishes under a limit finished below it.
                Ok(Some(makespan)) => {
                    best = Some((makespan, (*m, *d, slack)));
                    std::mem::swap(&mut scratch.slices, &mut best_slices);
                }
                Ok(None) => stats.runs_aborted += 1,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
    }
    let Some((makespan, params)) = best else {
        return Err(first_err.unwrap_or(ScheduleError::InvalidConfig {
            reason: "empty parameter sweep".to_owned(),
        }));
    };
    let schedule = Schedule::from_slices(soc.name(), base.tam_width, best_slices);
    debug_assert_eq!(schedule.makespan(), makespan);
    Ok((schedule, params, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use proptest::prelude::*;
    use soctam_soc::synth::SynthConfig;
    use soctam_soc::{benchmarks, Core, Soc};
    use soctam_wrapper::{CoreTest, RectangleSet};

    fn simple_core(name: &str, chains: Vec<u32>, patterns: u64) -> Core {
        Core::new(name, CoreTest::new(4, 4, 0, chains, patterns).unwrap())
    }

    fn two_core_soc() -> Soc {
        let mut soc = Soc::new("two");
        soc.add_core(simple_core("a", vec![20, 20], 50));
        soc.add_core(simple_core("b", vec![10, 10, 10], 30));
        soc
    }

    #[test]
    fn rejects_zero_width() {
        let soc = two_core_soc();
        let err = ScheduleBuilder::new(&soc, SchedulerConfig::new(0)).run();
        assert!(matches!(err, Err(ScheduleError::InvalidConfig { .. })));
    }

    #[test]
    fn rejects_empty_soc() {
        let soc = Soc::new("empty");
        let err = ScheduleBuilder::new(&soc, SchedulerConfig::new(8)).run();
        assert!(matches!(err, Err(ScheduleError::InvalidConfig { .. })));
    }

    #[test]
    fn single_core_runs_alone() {
        let mut soc = Soc::new("one");
        soc.add_core(simple_core("a", vec![16], 10));
        let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(8))
            .run()
            .unwrap();
        assert_eq!(s.cores(), vec![0]);
        validate(&soc, &s).unwrap();
        let stats = s.core_stats(0).unwrap();
        assert_eq!(stats.start, 0);
        assert_eq!(stats.end, s.makespan());
    }

    #[test]
    fn schedules_all_cores_and_validates() {
        let soc = two_core_soc();
        let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(8))
            .run()
            .unwrap();
        assert_eq!(s.cores(), vec![0, 1]);
        validate(&soc, &s).unwrap();
    }

    #[test]
    fn precedence_orders_tests() {
        let mut soc = two_core_soc();
        soc.add_precedence(1, 0).unwrap();
        let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(8))
            .run()
            .unwrap();
        let a = s.core_stats(0).unwrap();
        let b = s.core_stats(1).unwrap();
        assert!(b.end <= a.start, "b must finish before a starts");
        validate(&soc, &s).unwrap();
    }

    #[test]
    fn concurrency_separates_tests() {
        let mut soc = two_core_soc();
        soc.add_concurrency(0, 1).unwrap();
        let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(64))
            .run()
            .unwrap();
        for sa in s.core_slices(0) {
            for sb in s.core_slices(1) {
                assert!(!sa.overlaps(&sb));
            }
        }
        validate(&soc, &s).unwrap();
    }

    #[test]
    fn power_limit_serializes_hungry_cores() {
        let mut soc = Soc::new("p");
        soc.add_core(simple_core("a", vec![40], 20));
        soc.add_core(simple_core("b", vec![40], 20));
        let p = soc.core(0).power();
        let cfg = SchedulerConfig::new(64).with_power_limit(p); // only one at a time
        let s = ScheduleBuilder::new(&soc, cfg).run().unwrap();
        for sa in s.core_slices(0) {
            for sb in s.core_slices(1) {
                assert!(!sa.overlaps(&sb));
            }
        }
        validate(&soc, &s).unwrap();
    }

    #[test]
    fn impossible_power_is_stuck_not_loop() {
        let mut soc = Soc::new("p");
        soc.add_core(simple_core("a", vec![40], 20));
        let cfg = SchedulerConfig::new(64).with_power_limit(1);
        let err = ScheduleBuilder::new(&soc, cfg).run();
        assert!(matches!(err, Err(ScheduleError::Stuck { .. })));
    }

    #[test]
    fn wider_tam_is_never_worse_on_benchmarks() {
        let soc = benchmarks::d695();
        let t16 = ScheduleBuilder::new(&soc, SchedulerConfig::new(16))
            .run()
            .unwrap()
            .makespan();
        let t64 = ScheduleBuilder::new(&soc, SchedulerConfig::new(64))
            .run()
            .unwrap()
            .makespan();
        assert!(t64 <= t16);
    }

    #[test]
    fn d695_beats_trivial_serial_schedule() {
        let soc = benchmarks::d695();
        let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(32))
            .run()
            .unwrap();
        let serial: u64 = soc
            .cores()
            .iter()
            .map(|c| RectangleSet::build(c.test(), 32).min_time())
            .sum();
        assert!(s.makespan() < serial);
        validate(&soc, &s).unwrap();
    }

    #[test]
    fn preemption_budget_respected_on_benchmarks() {
        let mut soc = benchmarks::d695();
        benchmarks::grant_preemption_to_large_cores(&mut soc, 2);
        let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(16))
            .run()
            .unwrap();
        validate(&soc, &s).unwrap();
        for idx in 0..soc.len() {
            let stats = s.core_stats(idx).unwrap();
            assert!(
                stats.preemptions <= soc.core(idx).max_preemptions(),
                "core {idx} preempted {} times, budget {}",
                stats.preemptions,
                soc.core(idx).max_preemptions()
            );
        }
    }

    #[test]
    fn no_preemption_flag_forces_single_slices() {
        let mut soc = benchmarks::d695();
        benchmarks::grant_preemption_to_large_cores(&mut soc, 2);
        let cfg = SchedulerConfig::new(16).without_preemption();
        let s = ScheduleBuilder::new(&soc, cfg).run().unwrap();
        for idx in 0..soc.len() {
            assert_eq!(s.core_slices(idx).len(), 1, "core {idx} split");
        }
    }

    /// A core with no preemption budget stays scheduled from its start to
    /// its completion, so a run without preemption emits exactly one raw
    /// slice per core, before `Schedule::from_slices` merges anything.
    #[test]
    fn a_run_without_preemption_emits_one_raw_slice_per_core() {
        for (soc, width) in [(benchmarks::p93791(), 64), (benchmarks::p22810(), 32)] {
            let cfg = SchedulerConfig::new(width).without_preemption();
            let menus = RectangleMenus::build(&soc, cfg.effective_w_max());
            let constraints = ConstraintSet::compile(&soc);
            let prefs = menus.preferred_widths(&cfg);
            let mut scratch = PackScratch::for_soc(soc.len(), constraints.num_bist_engines());
            scratch.reset(&soc, &cfg, &menus, &prefs);
            let end = scratch.pack(&cfg, &constraints, None).unwrap();
            assert!(end.is_some(), "a run without a limit finishes");
            let mut cores: Vec<CoreIdx> = scratch.slices.iter().map(|s| s.core).collect();
            cores.sort_unstable();
            assert_eq!(cores, (0..soc.len()).collect::<Vec<_>>(), "{}", soc.name());
        }
    }

    /// Every grid point run on its own through the reference packer, on a
    /// menu build at the run's cap, in grid order, first strictly smaller
    /// makespan wins: what [`best_of`] must reproduce exactly.
    fn run_every_point(
        soc: &Soc,
        base: &SchedulerConfig,
        grid: &ParamSweep,
    ) -> (Schedule, SweepParams) {
        let menus = RectangleMenus::build(soc, base.effective_w_max());
        let constraints = ConstraintSet::compile(soc);
        let mut best: Option<(Schedule, SweepParams)> = None;
        for &slack in &grid.slacks {
            for &m in &grid.percents {
                for &d in &grid.bumps {
                    let mut cfg = base.clone().with_percent(m).with_bump(d);
                    cfg.idle_fill_slack = slack;
                    let s = reference::run(soc, &cfg, &menus, &constraints).unwrap();
                    if best
                        .as_ref()
                        .is_none_or(|(b, _)| s.makespan() < b.makespan())
                    {
                        best = Some((s, (m, d, slack)));
                    }
                }
            }
        }
        best.unwrap()
    }

    #[test]
    fn best_of_sweeps_parameters() {
        let soc = benchmarks::d695();
        let base = SchedulerConfig::new(16);
        let ctx = CompiledSoc::compile(&soc, 64);
        let (best, (m, d, slack), _) = best_of(&ctx, &base, &ParamSweep::paper()).unwrap();
        assert!((1..=10).contains(&m));
        assert!(d <= 4);
        assert_eq!(slack, 3);
        // Best-of can only improve on the default single run.
        let single = ScheduleBuilder::new(&soc, base).run().unwrap();
        assert!(best.makespan() <= single.makespan());
    }

    #[test]
    fn cutoff_preserves_winner_and_reports_cuts() {
        let soc = benchmarks::d695();
        let base = SchedulerConfig::new(16);
        let ctx = CompiledSoc::compile(&soc, base.effective_w_max());
        let grid = ParamSweep::paper();
        let (s, params, stats) = best_of(&ctx, &base, &grid).unwrap();
        assert_eq!((s, params), run_every_point(&soc, &base, &grid));
        // Every point is accounted for: executed, skipped, or cut.
        assert_eq!(stats.runs_total, 50);
        assert_eq!(
            stats.runs_executed + stats.runs_skipped + stats.runs_cut,
            50
        );
    }

    #[test]
    fn best_of_rejects_a_base_wider_than_its_context() {
        // The context's bound covers cap-8 rectangles only; a W=48 sweep
        // at cap 48 could beat it, so the cutoff would be unsound.
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 8);
        let err = best_of(&ctx, &SchedulerConfig::new(48), &ParamSweep::paper());
        assert!(matches!(err, Err(ScheduleError::InvalidConfig { .. })));
    }

    #[test]
    fn shared_menus_match_rebuild_per_run() {
        let soc = benchmarks::p22810();
        let cfg = SchedulerConfig::new(24).with_percent(7).with_bump(2);
        let ctx = CompiledSoc::compile(&soc, 64);
        let shared = ScheduleBuilder::new(&soc, cfg.clone())
            .with_context(&ctx)
            .run()
            .unwrap();
        let rebuilt = ScheduleBuilder::new(&soc, cfg).run().unwrap();
        assert_eq!(shared, rebuilt);
    }

    #[test]
    fn mismatched_menus_rejected() {
        let soc = benchmarks::d695();
        let narrow = CompiledSoc::compile(&soc, 8);
        let err = ScheduleBuilder::new(&soc, SchedulerConfig::new(24))
            .with_context(&narrow)
            .run();
        assert!(matches!(err, Err(ScheduleError::InvalidConfig { .. })));

        let other = benchmarks::p22810();
        let foreign = CompiledSoc::compile(&other, 24);
        let err = ScheduleBuilder::new(&soc, SchedulerConfig::new(24))
            .with_context(&foreign)
            .run();
        assert!(matches!(err, Err(ScheduleError::InvalidConfig { .. })));
    }

    #[test]
    fn deterministic_output() {
        let soc = benchmarks::p22810();
        let a = ScheduleBuilder::new(&soc, SchedulerConfig::new(32))
            .run()
            .unwrap();
        let b = ScheduleBuilder::new(&soc, SchedulerConfig::new(32))
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn width_budget_never_exceeded_at_any_instant() {
        let soc = benchmarks::d695();
        let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(24))
            .run()
            .unwrap();
        let mut events: Vec<u64> = s
            .slices()
            .iter()
            .flat_map(|sl| [sl.start, sl.end])
            .collect();
        events.sort_unstable();
        events.dedup();
        for &t in &events {
            assert!(s.width_in_use_at(t) <= 24, "overflow at {t}");
        }
    }

    /// A constrained synthetic SOC and one configuration on it, with
    /// preemption and a `MaxCorePower` ceiling switched by `modes` and the
    /// grid point `(m, d, slack)`: the input space of the exactness
    /// proptests below. The first `twins` cores get an unconstrained copy
    /// appended, so equal testing times put the packer's lower-index
    /// tie-breaks to the test.
    fn synth_point(
        (cores, twins, seed): (usize, usize, u64),
        width: TamWidth,
        (preempt, power): (bool, bool),
        (m, d, slack): SweepParams,
    ) -> (Soc, SchedulerConfig) {
        let mut soc = SynthConfig::new(cores)
            .with_constraints()
            .with_preemption(2)
            .generate(seed);
        for i in 0..twins.min(cores) {
            let core = soc.core(i);
            let twin = Core::new(format!("{}_twin", core.name()), core.test().clone())
                .with_max_preemptions(core.max_preemptions());
            soc.add_core(twin);
        }
        let mut cfg = SchedulerConfig::new(width).with_percent(m).with_bump(d);
        cfg.idle_fill_slack = slack;
        cfg.allow_preemption = preempt;
        if power {
            cfg = cfg.with_power_limit(soc.max_core_power());
        }
        (soc, cfg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The packer, reading a build at least as wide as the run's cap
        /// under that cap, schedules exactly as the reference does on a
        /// build at the cap, slice for slice, and fails the same way.
        #[test]
        fn packer_matches_the_reference_packer(
            soc_shape in (2usize..14, 0usize..4, 0u64..1000),
            width in 1u16..72,
            modes in (proptest::bool::ANY, proptest::bool::ANY),
            grid_point in (1u32..60, 0u16..5, 0u16..13),
            wider in 0u16..9,
        ) {
            let (soc, cfg) = synth_point(soc_shape, width, modes, grid_point);
            let menus = RectangleMenus::build(&soc, cfg.effective_w_max());
            let want = reference::run(&soc, &cfg, &menus, &ConstraintSet::compile(&soc));
            let ctx = CompiledSoc::compile(&soc, cfg.effective_w_max() + wider);
            prop_assert_eq!(ScheduleBuilder::new(&soc, cfg).with_context(&ctx).run(), want);
        }

        /// Under a limit `L`, a run either finishes below `L` with exactly
        /// the reference's makespan and slices, or stops; it stops only if
        /// the reference's makespan is at least `L`, and then always.
        #[test]
        fn a_limited_run_finishes_exactly_or_stops_only_when_it_cannot_win(
            soc_shape in (2usize..14, 0usize..4, 0u64..1000),
            width in 1u16..72,
            modes in (proptest::bool::ANY, proptest::bool::ANY),
            grid_point in (1u32..60, 0u16..5, 0u16..13),
            permille in 500u64..1500,
        ) {
            let (soc, cfg) = synth_point(soc_shape, width, modes, grid_point);
            let menus = RectangleMenus::build(&soc, cfg.effective_w_max());
            let constraints = ConstraintSet::compile(&soc);
            let want = reference::run(&soc, &cfg, &menus, &constraints)
                .expect("schedulable");
            let floors: Vec<(Cycles, u128)> = menus
                .menus()
                .iter()
                .map(|rects| (rects.min_time(), rects.min_area()))
                .collect();
            let prefs = menus.preferred_widths(&cfg);
            let mut scratch = PackScratch::for_soc(soc.len(), constraints.num_bist_engines());
            let random = (want.makespan() * permille / 1000).max(1);
            for makespan in [random, want.makespan(), want.makespan() + 1] {
                scratch.reset(&soc, &cfg, &menus, &prefs);
                let limit = Limit { makespan, floors: &floors };
                match scratch.pack(&cfg, &constraints, Some(limit)).expect("schedulable") {
                    Some(end) => {
                        prop_assert!(end < makespan, "finished at {} under {}", end, makespan);
                        prop_assert_eq!(end, want.makespan());
                        let slices = scratch.slices.clone();
                        let got = Schedule::from_slices(soc.name(), cfg.tam_width, slices);
                        prop_assert_eq!(&got, &want);
                    }
                    None => prop_assert!(
                        want.makespan() >= makespan,
                        "stopped under limit {} though the reference finishes at {}",
                        makespan,
                        want.makespan()
                    ),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `best_of` over a context compiled wider than the cap — its
        /// deduplication, bound cutoff, stopped runs and packer together —
        /// returns the schedule and parameters of every quick-grid point
        /// run through the reference, where the first strictly smaller
        /// makespan wins.
        #[test]
        fn best_of_matches_every_point_through_the_reference(
            soc_shape in (2usize..14, 0usize..4, 0u64..1000),
            width in 1u16..72,
            modes in (proptest::bool::ANY, proptest::bool::ANY),
            wider in 0u16..9,
        ) {
            let (soc, base) = synth_point(soc_shape, width, modes, (1, 0, 3));
            let grid = ParamSweep::quick();
            let ctx = CompiledSoc::compile(&soc, base.effective_w_max() + wider);
            let (schedule, params, _) = best_of(&ctx, &base, &grid).expect("schedulable");
            prop_assert_eq!((schedule, params), run_every_point(&soc, &base, &grid));
        }
    }

    /// The paper's Figure 4 loop as written, kept as the exactness
    /// reference for the packer: every `Update` deschedules every test and
    /// Priority 1 resumes the budget-exhausted ones, each pass assigns one
    /// core after a scan of every core, and every run builds its own
    /// `Schedule`. It predates the packer's core lists, stopped runs and
    /// reused slice buffer.
    mod reference {
        use super::super::*;

        pub(super) fn run(
            soc: &Soc,
            cfg: &SchedulerConfig,
            menus: &RectangleMenus,
            constraints: &ConstraintSet,
        ) -> Result<Schedule, ScheduleError> {
            let mut scratch = PackScratch::for_soc(soc.len(), constraints.num_bist_engines());
            scratch.reset(soc, cfg, menus);
            let PackScratch {
                states,
                complete,
                scheduled,
                bist_load,
            } = &mut scratch;
            Packer {
                cfg,
                constraints,
                states,
                w_avail: cfg.tam_width,
                scheduled_power: 0,
                now: 0,
                slices: Vec::new(),
                complete,
                scheduled,
                bist_load,
                scheduled_count: 0,
            }
            .pack()
            .map(|slices| Schedule::from_slices(soc.name(), cfg.tam_width, slices))
        }

        /// The packer's per-run buffers, allocated once per sweep and *cleared*
        /// (not reallocated) between runs.
        struct PackScratch<'m> {
            states: Vec<CoreState<'m>>,
            complete: BitSet,
            scheduled: BitSet,
            bist_load: Vec<u32>,
        }

        impl<'m> PackScratch<'m> {
            fn for_soc(cores: usize, bist_engines: usize) -> Self {
                Self {
                    states: Vec::with_capacity(cores),
                    complete: BitSet::new(cores),
                    scheduled: BitSet::new(cores),
                    bist_load: vec![0; bist_engines],
                }
            }

            /// Procedure `Initialize` (Figure 5): preferred widths over the shared
            /// rectangle menus, plus a wipe of the incremental occupancy state.
            fn reset(&mut self, soc: &Soc, cfg: &SchedulerConfig, menus: &'m RectangleMenus) {
                let prefs = menus.preferred_widths(cfg);
                self.states.clear();
                self.states
                    .extend(soc.cores().iter().zip(menus.menus()).zip(prefs).map(
                        |((core, rects), width_pref)| {
                            let budget = if cfg.allow_preemption {
                                core.max_preemptions()
                            } else {
                                0
                            };
                            let mut state = CoreState::new(rects, width_pref, budget);
                            // Unstarted cores advertise their preferred-width
                            // testing time so the max-time-remaining priorities can
                            // rank them.
                            state.time_left = state.time_at(width_pref);
                            state
                        },
                    ));
                self.complete.clear();
                self.scheduled.clear();
                self.bist_load.fill(0);
            }
        }

        struct Packer<'a, 'm> {
            cfg: &'a SchedulerConfig,
            constraints: &'a ConstraintSet,
            states: &'a mut Vec<CoreState<'m>>,
            w_avail: TamWidth,
            scheduled_power: u64,
            now: Cycles,
            slices: Vec<Slice>,
            /// Incremental mirrors of the per-core `complete`/`scheduled` flags,
            /// maintained on assign/retire so `Conflict` never materializes them.
            /// Borrowed from the sweep-owned [`PackScratch`].
            complete: &'a mut BitSet,
            scheduled: &'a mut BitSet,
            /// Scheduled-test count per BIST engine.
            bist_load: &'a mut Vec<u32>,
            /// Number of currently scheduled cores.
            scheduled_count: usize,
        }

        impl Packer<'_, '_> {
            fn pack(mut self) -> Result<Vec<Slice>, ScheduleError> {
                let mut remaining = self.states.len();
                while remaining > 0 {
                    if self.w_avail > 0 && self.try_assign_one() {
                        continue;
                    }
                    if self.scheduled_count == 0 {
                        let stuck: Vec<CoreIdx> = self
                            .states
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| !s.complete)
                            .map(|(i, _)| i)
                            .collect();
                        return Err(ScheduleError::Stuck {
                            remaining: stuck,
                            at_time: self.now,
                        });
                    }
                    remaining -= self.update();
                }
                Ok(self.slices)
            }

            /// One pass of Figure 4 lines 4–16: returns `true` if some assignment
            /// (or width increase) happened.
            fn try_assign_one(&mut self) -> bool {
                // Priority 1 (line 5): resume budget-exhausted cores unconditionally.
                if let Some(i) = self.find_priority1() {
                    // A budget-exhausted core is resumed seamlessly in the same
                    // instant it was descheduled, so no preemption is charged.
                    self.assign(i, self.states[i].width_assigned, false);
                    return true;
                }
                // Priorities 2 and 3 (lines 7–12): all incomplete tests contend for
                // the available width, ranked by remaining testing time. A begun
                // core resumes at its fixed width; an unstarted core begins at its
                // preferred width. A begun core that loses this contention waits —
                // that wait is exactly a preemption, possible only while the core
                // still has budget (Priority 1 pins budget-exhausted cores first,
                // so non-preemptable tests always resume seamlessly).
                if let Some(i) = self.find_contender() {
                    let s = &self.states[i];
                    if s.begun {
                        let preempt = s.end < self.now;
                        self.assign(i, s.width_assigned, preempt);
                    } else {
                        self.assign(i, s.width_pref, false);
                    }
                    return true;
                }
                // Idle fill (lines 13–14): squeeze a near-fit core into the slack.
                if self.cfg.toggles.idle_fill {
                    if let Some(i) = self.find_idle_fill() {
                        self.assign(i, self.w_avail, false);
                        return true;
                    }
                }
                // Width increase (lines 15–16): widen a rectangle that begins now.
                if self.cfg.toggles.width_increase && self.try_width_increase() {
                    return true;
                }
                false
            }

            fn conflict(&self, core: CoreIdx) -> bool {
                self.constraints.conflicts(
                    core,
                    self.complete,
                    self.scheduled,
                    self.bist_load,
                    self.scheduled_power,
                    self.cfg.p_max,
                )
            }

            fn find_priority1(&self) -> Option<CoreIdx> {
                self.states
                    .iter()
                    .enumerate()
                    .find(|(_, s)| s.must_continue() && s.width_assigned <= self.w_avail)
                    .map(|(i, _)| i)
            }

            /// The merged Priority 2/3 contention: the eligible core (begun at its
            /// assigned width, or fresh at its preferred width) with the largest
            /// remaining testing time.
            fn find_contender(&self) -> Option<CoreIdx> {
                let mut best: Option<(Cycles, CoreIdx)> = None;
                for (i, s) in self.states.iter().enumerate() {
                    let eligible = if s.can_resume() {
                        s.width_assigned <= self.w_avail
                    } else if s.unstarted() {
                        s.width_pref <= self.w_avail
                    } else {
                        false
                    };
                    if eligible && !self.conflict(i) {
                        let key = (s.time_left, i);
                        if best.is_none_or(|(t, j)| key.0 > t || (key.0 == t && i < j)) {
                            best = Some((s.time_left, i));
                        }
                    }
                }
                best.map(|(_, i)| i)
            }

            fn find_idle_fill(&self) -> Option<CoreIdx> {
                // Cores whose preferred width exceeds the idle width by at most
                // `idle_fill_slack` wires; Priority 3 already handled the rest.
                let mut best: Option<(TamWidth, CoreIdx)> = None;
                for (i, s) in self.states.iter().enumerate() {
                    if s.unstarted()
                        && s.width_pref > self.w_avail
                        && s.width_pref <= self.w_avail + self.cfg.idle_fill_slack
                        && !self.conflict(i)
                        && best
                            .is_none_or(|(w, j)| s.width_pref < w || (s.width_pref == w && i < j))
                    {
                        best = Some((s.width_pref, i));
                    }
                }
                best.map(|(_, i)| i)
            }

            /// Figure 4 lines 15–16: find the rectangle beginning at the current
            /// instant that benefits most from the leftover wires; widen it to the
            /// highest Pareto-optimal width not exceeding `assigned + w_avail`.
            fn try_width_increase(&mut self) -> bool {
                let w_cap = self.cfg.effective_w_max();
                let mut best: Option<(Cycles, CoreIdx, TamWidth)> = None;
                for (i, s) in self.states.iter().enumerate() {
                    if !s.scheduled || s.first_begin != Some(self.now) || s.run_begin != self.now {
                        continue;
                    }
                    let reach = s.width_assigned.saturating_add(self.w_avail).min(w_cap);
                    let Some(new_w) = s.rects.highest_pareto_width_at_most(reach) else {
                        continue;
                    };
                    if new_w <= s.width_assigned {
                        continue;
                    }
                    let gain = s.time_at(s.width_assigned) - s.time_at(new_w);
                    if gain == 0 {
                        continue;
                    }
                    if best.is_none_or(|(g, j, _)| gain > g || (gain == g && i < j)) {
                        best = Some((gain, i, new_w));
                    }
                }
                let Some((_, i, new_w)) = best else {
                    return false;
                };
                let s = &mut self.states[i];
                self.w_avail -= new_w - s.width_assigned;
                s.width_assigned = new_w;
                s.time_left = s.rects.time_at(new_w);
                s.end = self.now + s.time_left;
                true
            }

            /// Procedure `Assign` (Figure 6).
            fn assign(&mut self, i: CoreIdx, width: TamWidth, preempt: bool) {
                let s = &mut self.states[i];
                debug_assert!(width >= 1 && width <= self.w_avail);
                debug_assert!(!s.scheduled && !s.complete);

                s.width_assigned = width;
                self.w_avail -= width;
                s.scheduled = true;
                self.scheduled.insert(i);
                self.scheduled_count += 1;
                if let Some(e) = self.constraints.bist_engine(i) {
                    self.bist_load[e] += 1;
                }
                if preempt {
                    s.preempts += 1;
                    s.time_left += s.rects.rect_at(width).preemption_penalty();
                }
                if !s.begun {
                    s.begun = true;
                    s.first_begin = Some(self.now);
                    s.time_left = s.rects.time_at(width);
                }
                s.run_begin = self.now;
                s.end = self.now + s.time_left;
                self.scheduled_power += self.constraints.power(i);
            }

            /// Procedure `Update` (Figure 8): advance to the earliest completion
            /// among scheduled tests, deschedule everything, and mark completions.
            /// Returns the number of cores that completed.
            fn update(&mut self) -> usize {
                let dt = self
                    .states
                    .iter()
                    .filter(|s| s.scheduled)
                    .map(|s| s.time_left)
                    .min()
                    .expect("update requires a scheduled core");
                let new_time = self.now + dt;
                let mut completed = 0;
                for (i, s) in self.states.iter_mut().enumerate() {
                    if !s.scheduled {
                        continue;
                    }
                    self.slices.push(Slice {
                        core: i,
                        width: s.width_assigned,
                        start: s.run_begin,
                        end: new_time,
                    });
                    s.scheduled = false;
                    self.scheduled.remove(i);
                    self.scheduled_count -= 1;
                    if let Some(e) = self.constraints.bist_engine(i) {
                        self.bist_load[e] -= 1;
                    }
                    s.time_left -= dt;
                    s.end = new_time;
                    self.scheduled_power -= self.constraints.power(i);
                    if s.time_left == 0 {
                        s.complete = true;
                        self.complete.insert(i);
                        completed += 1;
                    }
                }
                self.now = new_time;
                self.w_avail = self.cfg.tam_width;
                completed
            }
        }
    }
}
