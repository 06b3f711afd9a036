//! The per-core scheduling state of Figure 3.

use soctam_wrapper::{Cycles, RectangleSet, TamWidth};

/// Mutable scheduling state of one core, mirroring the paper's Figure 3
/// data structure field for field.
///
/// One difference in lifetime: the paper's `Update` clears `scheduled[i]`
/// for every test and Priority 1 sets it again for each test with no
/// preemption budget left. The packer leaves those tests scheduled, so
/// for them `scheduled[i]` holds across an update, from the test's start
/// to its completion.
///
/// The rectangle menu is borrowed from a shared
/// [`RectangleMenus`](crate::RectangleMenus) so that a whole parameter
/// sweep reuses one menu build instead of cloning per run.
#[derive(Debug, Clone)]
pub(crate) struct CoreState<'m> {
    /// `width_pref[i]` — preferred TAM width.
    pub width_pref: TamWidth,
    /// `width_assigned[i]` — TAM width in force (fixed once begun).
    pub width_assigned: TamWidth,
    /// `first_begin_time[i]` — when the core first started testing.
    pub first_begin: Option<Cycles>,
    /// `end[i]` — projected end of the current run while scheduled; after a
    /// descheduling, the time the core last ran.
    pub end: Cycles,
    /// `sched_times[i]` — begin time of the current run (slice emission).
    pub run_begin: Cycles,
    /// `time_left[i]` — remaining testing time, including accrued
    /// preemption penalties.
    pub time_left: Cycles,
    /// `begun[i]`.
    pub begun: bool,
    /// `scheduled[i]`.
    pub scheduled: bool,
    /// `complete[i]`.
    pub complete: bool,
    /// `preempts[i]` — preemptions suffered so far.
    pub preempts: u32,
    /// `max_preempts[i]` — preemption budget.
    pub max_preempts: u32,
    /// The rectangle menu for this core (shared across runs).
    pub rects: &'m RectangleSet,
}

impl<'m> CoreState<'m> {
    /// Fresh state for a core whose rectangle menu and preferred width were
    /// computed by `Initialize`.
    pub fn new(rects: &'m RectangleSet, width_pref: TamWidth, max_preempts: u32) -> Self {
        Self {
            width_pref,
            width_assigned: 0,
            first_begin: None,
            end: 0,
            run_begin: 0,
            time_left: 0,
            begun: false,
            scheduled: false,
            complete: false,
            preempts: 0,
            max_preempts,
            rects,
        }
    }

    /// Testing time of this core at width `w` (monotone staircase lookup).
    pub fn time_at(&self, w: TamWidth) -> Cycles {
        self.rects.time_at(w)
    }
}

/// The paper's candidate predicates, read by the test-only reference
/// packer; the packer itself keeps the candidates in lists.
#[cfg(test)]
impl CoreState<'_> {
    /// Whether the core is waiting to resume and has exhausted its
    /// preemption budget (the paper's Priority 1 predicate).
    pub fn must_continue(&self) -> bool {
        self.begun && !self.scheduled && !self.complete && self.preempts >= self.max_preempts
    }

    /// Whether the core is waiting to resume with budget remaining
    /// (Priority 2 candidate).
    pub fn can_resume(&self) -> bool {
        self.begun && !self.scheduled && !self.complete
    }

    /// Whether the core has not started yet (Priority 3 / idle-fill
    /// candidate).
    pub fn unstarted(&self) -> bool {
        !self.begun && !self.complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_wrapper::CoreTest;

    fn rects() -> RectangleSet {
        let core = CoreTest::new(4, 4, 0, vec![16, 8], 10).unwrap();
        RectangleSet::build(&core, 8)
    }

    #[test]
    fn predicates_follow_lifecycle() {
        let rects = rects();
        let mut s = CoreState::new(&rects, 2, 1);
        assert!(s.unstarted());
        assert!(!s.can_resume());
        assert!(!s.must_continue());

        s.begun = true;
        s.scheduled = true;
        assert!(!s.unstarted());
        assert!(!s.can_resume());

        s.scheduled = false; // descheduled at an update point
        assert!(s.can_resume());
        assert!(!s.must_continue()); // budget 1, used 0

        s.preempts = 1;
        assert!(s.must_continue());

        s.complete = true;
        assert!(!s.can_resume());
        assert!(!s.must_continue());
    }

    #[test]
    fn time_lookup_delegates_to_rects() {
        let rects = rects();
        let s = CoreState::new(&rects, 2, 1);
        assert_eq!(s.time_at(2), s.rects.time_at(2));
    }
}
