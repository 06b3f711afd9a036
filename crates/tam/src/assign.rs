//! Greedy wire allocation for schedule slices.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAssignment {
    tam_width: u16,
    makespan: u64,
    assignments: Vec<SliceWires>,
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
    /// # Errors
    ///
    /// [`WireError::Overcommitted`] if the schedule itself demands more
    /// than `W` concurrent wires (i.e. the input is invalid).
    pub fn assign(schedule: &Schedule) -> Result<Self, WireError> {
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
        Ok(Self {
            tam_width: schedule.tam_width(),
            makespan: schedule.makespan(),
            assignments,
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
    /// # Errors
    ///
    /// The first [`WireError`] found.
    pub fn verify(&self) -> Result<(), WireError> {
        for a in &self.assignments {
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
        // Per-wire overlap check.
        let mut per_wire: HashMap<WireId, Vec<&SliceWires>> = HashMap::new();
        for a in &self.assignments {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_schedule::{ScheduleBuilder, SchedulerConfig};
    use soctam_soc::{benchmarks, synth::SynthConfig};

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
