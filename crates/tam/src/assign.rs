//! Greedy wire allocation for schedule slices.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use soctam_schedule::{Schedule, Slice};
use soctam_soc::CoreIdx;

use crate::WireId;

/// Errors from wire assignment or verification.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The schedule demands more concurrent wires than the TAM has; such a
    /// schedule is invalid and should have been rejected upstream.
    Overcommitted {
        /// The instant at which demand exceeds supply.
        at_time: u64,
    },
    /// Verification found one wire serving two overlapping slices.
    WireClash {
        /// The clashing wire.
        wire: WireId,
    },
    /// Verification found a slice holding the wrong number of wires.
    WidthMismatch {
        /// The core whose slice is malformed.
        core: CoreIdx,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Overcommitted { at_time } => {
                write!(
                    f,
                    "schedule demands more wires than available at cycle {at_time}"
                )
            }
            WireError::WireClash { wire } => {
                write!(f, "wire {wire} assigned to overlapping slices")
            }
            WireError::WidthMismatch { core } => {
                write!(f, "slice of core {core} holds the wrong number of wires")
            }
        }
    }
}

impl Error for WireError {}

/// One schedule slice together with the physical wires carrying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceWires {
    /// The schedule slice.
    pub slice: Slice,
    /// Wire ids held for the slice's duration, ascending. May be
    /// non-contiguous — that is the fork-and-merge freedom.
    pub wires: Vec<WireId>,
}

impl SliceWires {
    /// Number of maximal runs of consecutive wire ids; anything above 1
    /// means the TAM forks around other cores' wires.
    pub fn contiguous_groups(&self) -> usize {
        if self.wires.is_empty() {
            return 0;
        }
        1 + self
            .wires
            .windows(2)
            .filter(|pair| pair[1] != pair[0] + 1)
            .count()
    }
}

/// A complete mapping from schedule slices to physical TAM wires.
///
/// The slices are shared, so a clone (a served answer's copy out of a
/// cache, say) costs no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAssignment {
    tam_width: u16,
    makespan: u64,
    assignments: Arc<[SliceWires]>,
}

impl WireAssignment {
    /// Allocates wires for every slice of `schedule`.
    ///
    /// Slices are processed in start-time order. Each slice takes, in
    /// preference order: wires its core used before (so a preempted test
    /// resumes on the same wires when possible), then the lowest-numbered
    /// free wires. Because the scheduler never exceeds the width budget,
    /// this always succeeds for valid schedules.
    ///
    /// The bookkeeping is plain arrays indexed by wire and by core, so a
    /// schedule of `S` slices on `W` wires costs O(S × W) after the sort.
    ///
    /// # Errors
    ///
    /// [`WireError::Overcommitted`] if the schedule itself demands more
    /// than `W` concurrent wires (i.e. the input is invalid).
    pub fn assign(schedule: &Schedule) -> Result<Self, WireError> {
        let w = usize::from(schedule.tam_width());
        // busy_until[wire] = end of the last slice on that wire.
        let mut busy_until = vec![0u64; w];
        // taken[wire]: the slice being placed already holds the wire.
        let mut taken = vec![false; w];

        let mut slices: Vec<Slice> = schedule.slices().to_vec();
        slices.sort_by_key(|s| (s.start, s.core));
        // previous[core] = index in `assignments` of the core's last slice.
        let cores = slices.iter().map(|s| s.core + 1).max().unwrap_or(0);
        let mut previous: Vec<Option<usize>> = vec![None; cores];

        let mut assignments: Vec<SliceWires> = Vec::with_capacity(slices.len());
        for slice in slices {
            let need = usize::from(slice.width);
            let mut chosen: Vec<WireId> = Vec::with_capacity(need);

            // First choice: the core's previous wires, if still free.
            if let Some(prev) = previous[slice.core] {
                for &wire in &assignments[prev].wires {
                    if chosen.len() == need {
                        break;
                    }
                    if busy_until[usize::from(wire)] <= slice.start {
                        chosen.push(wire);
                        taken[usize::from(wire)] = true;
                    }
                }
            }
            // Then: lowest-numbered free wires.
            for wire in 0..w {
                if chosen.len() == need {
                    break;
                }
                if busy_until[wire] <= slice.start && !taken[wire] {
                    chosen.push(wire as WireId);
                }
            }
            for &wire in &chosen {
                taken[usize::from(wire)] = false;
            }
            if chosen.len() < need {
                return Err(WireError::Overcommitted {
                    at_time: slice.start,
                });
            }
            chosen.sort_unstable();
            for &wire in &chosen {
                busy_until[usize::from(wire)] = slice.end;
            }
            previous[slice.core] = Some(assignments.len());
            assignments.push(SliceWires {
                slice,
                wires: chosen,
            });
        }
        Ok(Self {
            tam_width: schedule.tam_width(),
            makespan: schedule.makespan(),
            assignments: assignments.into(),
        })
    }

    /// The TAM width the assignment targets.
    pub fn tam_width(&self) -> u16 {
        self.tam_width
    }

    /// Schedule makespan carried over for utilization accounting.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// All per-slice wire assignments, in start-time order.
    pub fn assignments(&self) -> &[SliceWires] {
        &self.assignments
    }

    /// Independently verifies the assignment: each slice holds exactly its
    /// width in distinct wires, every wire id is in range, and no wire
    /// serves two overlapping slices.
    ///
    /// The overlap check walks the slices once in `(start, end)` order,
    /// keeping the end of the last slice seen on each wire: a wire clashes
    /// when a slice starts before the previous slice on that wire ended.
    /// O(S log S + S × W) for `S` slices on `W` wires.
    ///
    /// # Errors
    ///
    /// The first [`WireError`] found; a [`WireError::WireClash`] names the
    /// wire of the first clash in `(start, end)` order.
    pub fn verify(&self) -> Result<(), WireError> {
        for a in self.assignments.iter() {
            if a.wires.len() != usize::from(a.slice.width) {
                return Err(WireError::WidthMismatch { core: a.slice.core });
            }
            for pair in a.wires.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(WireError::WidthMismatch { core: a.slice.core });
                }
            }
            if a.wires.iter().any(|&wire| wire >= self.tam_width) {
                return Err(WireError::WidthMismatch { core: a.slice.core });
            }
        }
        let mut order: Vec<&SliceWires> = self.assignments.iter().collect();
        order.sort_by_key(|a| (a.slice.start, a.slice.end));
        // last_end[wire] = end of the last slice seen on that wire.
        let mut last_end = vec![0u64; usize::from(self.tam_width)];
        for a in order {
            for &wire in &a.wires {
                let end = &mut last_end[usize::from(wire)];
                if a.slice.start < *end {
                    return Err(WireError::WireClash { wire });
                }
                *end = a.slice.end;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soctam_schedule::{ScheduleBuilder, SchedulerConfig};
    use soctam_soc::{benchmarks, synth::SynthConfig};
    use std::collections::HashMap;

    /// The hash-map [`WireAssignment::assign`] the array version is pinned
    /// against.
    fn assign_reference(schedule: &Schedule) -> Result<WireAssignment, WireError> {
        let w = usize::from(schedule.tam_width());
        // busy_until[wire] = end of the last slice on that wire.
        let mut busy_until = vec![0u64; w];
        let mut previous: HashMap<CoreIdx, Vec<WireId>> = HashMap::new();

        let mut slices: Vec<Slice> = schedule.slices().to_vec();
        slices.sort_by_key(|s| (s.start, s.core));

        let mut assignments = Vec::with_capacity(slices.len());
        for slice in slices {
            let need = usize::from(slice.width);
            let mut chosen: Vec<WireId> = Vec::with_capacity(need);

            // First choice: the core's previous wires, if still free.
            if let Some(prev) = previous.get(&slice.core) {
                for &wire in prev {
                    if chosen.len() == need {
                        break;
                    }
                    if busy_until[usize::from(wire)] <= slice.start {
                        chosen.push(wire);
                    }
                }
            }
            // Then: lowest-numbered free wires.
            for wire in 0..w as u16 {
                if chosen.len() == need {
                    break;
                }
                if busy_until[usize::from(wire)] <= slice.start && !chosen.contains(&wire) {
                    chosen.push(wire);
                }
            }
            if chosen.len() < need {
                return Err(WireError::Overcommitted {
                    at_time: slice.start,
                });
            }
            chosen.sort_unstable();
            for &wire in &chosen {
                busy_until[usize::from(wire)] = slice.end;
            }
            previous.insert(slice.core, chosen.clone());
            assignments.push(SliceWires {
                slice,
                wires: chosen,
            });
        }
        Ok(WireAssignment {
            tam_width: schedule.tam_width(),
            makespan: schedule.makespan(),
            assignments: assignments.into(),
        })
    }

    /// The hash-map [`WireAssignment::verify`] the array version is pinned
    /// against: which wire its `WireClash` names follows the map's
    /// iteration order.
    fn verify_reference(wa: &WireAssignment) -> Result<(), WireError> {
        for a in wa.assignments.iter() {
            if a.wires.len() != usize::from(a.slice.width) {
                return Err(WireError::WidthMismatch { core: a.slice.core });
            }
            for pair in a.wires.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(WireError::WidthMismatch { core: a.slice.core });
                }
            }
            if a.wires.iter().any(|&wire| wire >= wa.tam_width) {
                return Err(WireError::WidthMismatch { core: a.slice.core });
            }
        }
        // Per-wire overlap check.
        let mut per_wire: HashMap<WireId, Vec<&SliceWires>> = HashMap::new();
        for a in wa.assignments.iter() {
            for &wire in &a.wires {
                per_wire.entry(wire).or_default().push(a);
            }
        }
        for (wire, slices) in per_wire {
            let mut intervals: Vec<(u64, u64)> = slices
                .iter()
                .map(|a| (a.slice.start, a.slice.end))
                .collect();
            intervals.sort_unstable();
            for pair in intervals.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return Err(WireError::WireClash { wire });
                }
            }
        }
        Ok(())
    }

    /// Both verifiers on one assignment: the same error variant, and the
    /// same error exactly unless it is a clash (the reference names
    /// whichever clashing wire its map yields first).
    fn same_verdict(wa: &WireAssignment) -> Result<(), WireError> {
        let got = wa.verify();
        let want = verify_reference(wa);
        match (&got, &want) {
            (Err(WireError::WireClash { .. }), Err(WireError::WireClash { .. })) => {}
            _ => assert_eq!(got, want),
        }
        got
    }

    fn synth_schedule(cores: usize, seed: u64, width: u16) -> Schedule {
        let soc = SynthConfig::new(cores)
            .with_constraints()
            .with_preemption(2)
            .generate(seed);
        ScheduleBuilder::new(&soc, SchedulerConfig::new(width))
            .run()
            .unwrap()
    }

    /// An assignment whose slices hold exactly the given wires, in order.
    fn holding(tam_width: u16, slices: Vec<(Slice, Vec<WireId>)>) -> WireAssignment {
        WireAssignment {
            tam_width,
            makespan: slices.iter().map(|(s, _)| s.end).max().unwrap_or(0),
            assignments: slices
                .into_iter()
                .map(|(slice, wires)| SliceWires { slice, wires })
                .collect(),
        }
    }

    fn manual(width: u16, slices: Vec<Slice>) -> Schedule {
        Schedule::from_slices("t", width, slices)
    }

    fn sl(core: usize, width: u16, start: u64, end: u64) -> Slice {
        Slice {
            core,
            width,
            start,
            end,
        }
    }

    #[test]
    fn assigns_disjoint_wires_to_concurrent_slices() {
        let s = manual(8, vec![sl(0, 3, 0, 10), sl(1, 5, 0, 10)]);
        let wa = WireAssignment::assign(&s).unwrap();
        wa.verify().unwrap();
        let all: Vec<_> = wa
            .assignments()
            .iter()
            .flat_map(|a| a.wires.iter().copied())
            .collect();
        assert_eq!(all.len(), 8);
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
    }

    #[test]
    fn reuses_wires_after_completion() {
        let s = manual(4, vec![sl(0, 4, 0, 10), sl(1, 4, 10, 20)]);
        let wa = WireAssignment::assign(&s).unwrap();
        wa.verify().unwrap();
        assert_eq!(wa.assignments()[0].wires, wa.assignments()[1].wires);
    }

    #[test]
    fn preempted_core_prefers_previous_wires() {
        let s = manual(
            8,
            vec![
                sl(0, 4, 0, 10),
                sl(1, 8, 10, 20),
                sl(0, 4, 20, 30), // resumes after core 1 releases everything
            ],
        );
        let wa = WireAssignment::assign(&s).unwrap();
        wa.verify().unwrap();
        let first = &wa.assignments()[0];
        let resumed = wa
            .assignments()
            .iter()
            .find(|a| a.slice.core == 0 && a.slice.start == 20)
            .unwrap();
        assert_eq!(first.wires, resumed.wires);
    }

    #[test]
    fn fork_and_merge_produces_noncontiguous_groups() {
        // Core 1 sits in the middle of the wire range; core 2 must fork
        // around it when core 0 releases the outer wires.
        let s = manual(
            6,
            vec![
                sl(0, 2, 0, 10),
                sl(1, 2, 0, 20),
                sl(2, 2, 0, 10),
                sl(3, 4, 10, 30),
            ],
        );
        let wa = WireAssignment::assign(&s).unwrap();
        wa.verify().unwrap();
        let d = wa.assignments().iter().find(|a| a.slice.core == 3).unwrap();
        assert!(
            d.contiguous_groups() >= 2,
            "expected a fork, got {:?}",
            d.wires
        );
    }

    #[test]
    fn overcommitted_schedule_rejected() {
        let s = manual(4, vec![sl(0, 3, 0, 10), sl(1, 3, 5, 15)]);
        assert_eq!(
            WireAssignment::assign(&s),
            Err(WireError::Overcommitted { at_time: 5 })
        );
    }

    #[test]
    fn benchmark_schedules_always_assignable() {
        for soc in benchmarks::all() {
            for w in [16u16, 32, 64] {
                let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(w))
                    .run()
                    .unwrap();
                let wa = WireAssignment::assign(&s).unwrap();
                wa.verify().unwrap();
            }
        }
    }

    #[test]
    fn synthetic_schedules_always_assignable() {
        let cfg = SynthConfig::new(15).with_constraints().with_preemption(2);
        for seed in 0..10 {
            let soc = cfg.generate(seed);
            let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(20))
                .run()
                .unwrap();
            let wa = WireAssignment::assign(&s).unwrap();
            wa.verify().unwrap();
        }
    }

    #[test]
    fn verify_rejects_a_wrong_wire_count() {
        let wa = holding(8, vec![(sl(0, 3, 0, 10), vec![0, 1])]);
        assert_eq!(wa.verify(), Err(WireError::WidthMismatch { core: 0 }));
    }

    #[test]
    fn verify_rejects_a_duplicate_wire() {
        let wa = holding(8, vec![(sl(2, 3, 0, 10), vec![0, 4, 4])]);
        assert_eq!(wa.verify(), Err(WireError::WidthMismatch { core: 2 }));
    }

    #[test]
    fn verify_rejects_unsorted_wires() {
        let wa = holding(8, vec![(sl(1, 3, 0, 10), vec![0, 5, 3])]);
        assert_eq!(wa.verify(), Err(WireError::WidthMismatch { core: 1 }));
    }

    #[test]
    fn verify_rejects_an_out_of_range_wire() {
        let wa = holding(4, vec![(sl(3, 2, 0, 10), vec![1, 4])]);
        assert_eq!(wa.verify(), Err(WireError::WidthMismatch { core: 3 }));
    }

    #[test]
    fn verify_rejects_an_overlapping_reuse() {
        let wa = holding(
            4,
            vec![(sl(0, 2, 0, 10), vec![0, 1]), (sl(1, 2, 9, 20), vec![1, 2])],
        );
        assert_eq!(wa.verify(), Err(WireError::WireClash { wire: 1 }));
        // Touching slices share a wire legally.
        let wa = holding(
            4,
            vec![
                (sl(0, 2, 0, 10), vec![0, 1]),
                (sl(1, 2, 10, 20), vec![1, 2]),
            ],
        );
        assert_eq!(wa.verify(), Ok(()));
    }

    #[test]
    fn a_slice_of_no_cycles_overlaps_nothing() {
        // Both slices start at cycle 5 on wire 1; the empty one ends there.
        let wa = holding(
            2,
            vec![(sl(0, 1, 5, 15), vec![1]), (sl(1, 1, 5, 5), vec![1])],
        );
        assert_eq!(wa.verify(), Ok(()));
        assert_eq!(verify_reference(&wa), Ok(()));
    }

    #[test]
    fn a_clash_names_the_first_wire_in_start_order() {
        // Wire 3 clashes from cycle 5 and wire 0 only from cycle 20; the
        // slices are listed out of start order.
        let wa = holding(
            4,
            vec![
                (sl(2, 1, 20, 30), vec![0]),
                (sl(0, 2, 0, 25), vec![0, 3]),
                (sl(1, 1, 5, 8), vec![3]),
            ],
        );
        assert_eq!(wa.verify(), Err(WireError::WireClash { wire: 3 }));
    }

    #[test]
    fn benchmark_assignments_match_the_reference() {
        for soc in benchmarks::all() {
            for w in [8u16, 16, 24, 32, 48, 64] {
                let s = ScheduleBuilder::new(&soc, SchedulerConfig::new(w))
                    .run()
                    .unwrap();
                let wa = WireAssignment::assign(&s);
                assert_eq!(wa, assign_reference(&s), "{} W={w}", soc.name());
                assert_eq!(same_verdict(&wa.unwrap()), Ok(()));
            }
        }
    }

    proptest! {
        /// On constraint-heavy, preemptive synthetic schedules the array
        /// bookkeeping assigns exactly the reference's wires, and both
        /// verifiers accept them.
        #[test]
        fn assignments_match_the_reference_on_synthetic_schedules(
            cores in 2usize..30,
            seed in 0u64..1_000_000,
            width in 1u16..65,
        ) {
            let s = synth_schedule(cores, seed, width);
            let wa = WireAssignment::assign(&s);
            prop_assert_eq!(&wa, &assign_reference(&s));
            prop_assert_eq!(same_verdict(&wa.unwrap()), Ok(()));
        }

        /// A corrupted assignment (a duplicate wire, an out-of-range wire,
        /// unsorted ids, a wrong count, or a wire reused by an overlapping
        /// slice) draws the same error variant from both verifiers.
        #[test]
        fn corrupted_assignments_draw_the_reference_verdict(
            cores in 2usize..20,
            seed in 0u64..1_000_000,
            width in 2u16..40,
            corruption in 0usize..5,
            pick in 0usize..1_000,
        ) {
            let s = synth_schedule(cores, seed, width);
            let wa = WireAssignment::assign(&s).unwrap();
            let mut slices = wa.assignments().to_vec();
            let victim = pick % slices.len();
            let a = &mut slices[victim];
            match corruption {
                0 => a.wires.push(*a.wires.last().unwrap()),
                1 => *a.wires.last_mut().unwrap() = width + (pick % 3) as u16,
                2 => {
                    prop_assume!(a.wires.len() >= 2);
                    a.wires.reverse();
                }
                3 => {
                    a.wires.pop();
                }
                _ => {
                    // Reuse a wire of a slice that overlaps the victim.
                    let slice = a.slice;
                    let other = slices.iter().position(|b| {
                        b.slice.start < slice.end
                            && slice.start < b.slice.end
                            && b.wires.iter().any(|w| !slices[victim].wires.contains(w))
                    });
                    let Some(other) = other else { return; };
                    let stolen = *slices[other]
                        .wires
                        .iter()
                        .find(|w| !slices[victim].wires.contains(w))
                        .unwrap();
                    let a = &mut slices[victim];
                    a.wires[0] = stolen;
                    a.wires.sort_unstable();
                }
            }
            let wa = WireAssignment {
                assignments: slices.into(),
                ..wa
            };
            prop_assert!(same_verdict(&wa).is_err(), "corruption {} accepted", corruption);
        }
    }

    #[test]
    fn contiguous_group_counting() {
        let sw = SliceWires {
            slice: sl(0, 5, 0, 1),
            wires: vec![0, 1, 3, 4, 7],
        };
        assert_eq!(sw.contiguous_groups(), 3);
        let empty = SliceWires {
            slice: sl(0, 0, 0, 1),
            wires: vec![],
        };
        assert_eq!(empty.contiguous_groups(), 0);
    }
}
