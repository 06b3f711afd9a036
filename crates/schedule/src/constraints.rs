//! Constraint bookkeeping for the scheduler: the `Conflict` subroutine of
//! Figure 7, precompiled from the SOC model.

use soctam_soc::{CoreIdx, Soc};

use crate::bitset::BitSet;

/// Precompiled constraint tables for one SOC.
///
/// Precedence is stored as, per core, the list of cores that must complete
/// *before* it; concurrency (including hierarchy-derived pairs) as a
/// per-core adjacency list; BIST engines as per-core engine ids. The
/// scheduler queries [`ConstraintSet::conflicts`] (the paper's `Conflict`)
/// before every assignment, feeding it incrementally maintained state so
/// the check allocates nothing.
#[derive(Debug, Clone)]
pub struct ConstraintSet {
    predecessors: Vec<Vec<CoreIdx>>,
    excludes: Vec<Vec<CoreIdx>>,
    /// `pred_masks[i]` — the predecessor list of core `i` as a bitset, so
    /// the precedence check is a word-level subset test against `complete`.
    pred_masks: Vec<BitSet>,
    /// `excl_masks[i]` — the exclusion list of core `i` as a bitset, so the
    /// concurrency check is a word-AND any-set scan against `scheduled`.
    excl_masks: Vec<BitSet>,
    bist: Vec<Option<usize>>,
    power: Vec<u64>,
    num_bist_engines: usize,
}

impl ConstraintSet {
    /// Compiles the constraint tables from an SOC model.
    pub fn compile(soc: &Soc) -> Self {
        crate::obs::count(crate::obs::Work::ConstraintCompile);
        let n = soc.len();
        let mut predecessors = vec![Vec::new(); n];
        for &(before, after) in soc.precedence() {
            predecessors[after].push(before);
        }
        let mut excludes = vec![Vec::new(); n];
        for (a, b) in soc.effective_concurrency() {
            excludes[a].push(b);
            excludes[b].push(a);
        }
        // Raw engine ids are arbitrary (sparse, possibly huge); remap them
        // to dense indices so the occupancy table stays at most n entries.
        let mut engine_ids: Vec<usize> = Vec::new();
        let bist: Vec<Option<usize>> = soc
            .cores()
            .iter()
            .map(|c| {
                c.bist_engine().map(|raw| {
                    engine_ids
                        .iter()
                        .position(|&e| e == raw)
                        .unwrap_or_else(|| {
                            engine_ids.push(raw);
                            engine_ids.len() - 1
                        })
                })
            })
            .collect();
        let power: Vec<u64> = soc.cores().iter().map(|c| c.power()).collect();
        let num_bist_engines = engine_ids.len();
        let masks = |lists: &[Vec<CoreIdx>]| {
            lists
                .iter()
                .map(|list| {
                    let mut mask = BitSet::new(n);
                    for &i in list {
                        mask.insert(i);
                    }
                    mask
                })
                .collect()
        };
        let pred_masks = masks(&predecessors);
        let excl_masks = masks(&excludes);
        Self {
            predecessors,
            excludes,
            pred_masks,
            excl_masks,
            bist,
            power,
            num_bist_engines,
        }
    }

    /// Number of cores covered.
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// Whether the set covers no cores.
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }

    /// Cores that must complete before `core` may start.
    pub fn predecessors(&self, core: CoreIdx) -> &[CoreIdx] {
        &self.predecessors[core]
    }

    /// Cores that may never run concurrently with `core`.
    pub fn excludes(&self, core: CoreIdx) -> &[CoreIdx] {
        &self.excludes[core]
    }

    /// Power rating of `core`'s test.
    pub fn power(&self, core: CoreIdx) -> u64 {
        self.power[core]
    }

    /// Dense BIST-engine index of `core`, if it shares an engine. Raw SOC
    /// engine ids are remapped to `0..num_bist_engines()` at compile time;
    /// two cores share an engine iff their dense indices are equal.
    pub fn bist_engine(&self, core: CoreIdx) -> Option<usize> {
        self.bist[core]
    }

    /// Number of distinct BIST engines; occupancy tables passed to
    /// [`ConstraintSet::conflicts`] must have this length.
    pub fn num_bist_engines(&self) -> usize {
        self.num_bist_engines
    }

    /// The paper's `Conflict` check (Figure 7): would starting `core` now
    /// violate a precedence, concurrency, power, or BIST constraint?
    ///
    /// * `complete` and `scheduled` are per-core status bitsets, maintained
    ///   incrementally by the caller as tests are assigned and retired;
    /// * `bist_load` counts the scheduled tests per BIST engine
    ///   ([`ConstraintSet::num_bist_engines`] entries);
    /// * `scheduled_power` is the power of currently scheduled tests;
    /// * `p_max` is the optional ceiling.
    ///
    /// `core` itself must not be scheduled. The check reads the shared
    /// state directly and performs no heap allocation; the precedence and
    /// concurrency legs are word-level mask scans over the precompiled
    /// per-core bitsets — a handful of `u64` ops per candidate instead of a
    /// per-index walk ([`ConstraintSet::conflicts_reference`] is the naive
    /// equivalent, pinned bit-identical by the `conflict_masks` proptest).
    pub fn conflicts(
        &self,
        core: CoreIdx,
        complete: &BitSet,
        scheduled: &BitSet,
        bist_load: &[u32],
        scheduled_power: u64,
        p_max: Option<u64>,
    ) -> bool {
        debug_assert!(!scheduled.contains(core), "candidate already scheduled");
        // (i) precedence: all predecessors must have completed.
        if !complete.contains_all(&self.pred_masks[core]) {
            return true;
        }
        // (ii) concurrency: no excluded core may be scheduled.
        if scheduled.intersects(&self.excl_masks[core]) {
            return true;
        }
        // (iii) power ceiling.
        if let Some(p_max) = p_max {
            if scheduled_power + self.power[core] > p_max {
                return true;
            }
        }
        // (iv) BIST-engine sharing: any scheduled occupant blocks (the
        // candidate is unscheduled, so occupancy > 0 means someone else).
        if let Some(engine) = self.bist[core] {
            if bist_load[engine] > 0 {
                return true;
            }
        }
        false
    }

    /// The naive per-index reference implementation of
    /// [`ConstraintSet::conflicts`]: walks the predecessor and exclusion
    /// adjacency lists one core at a time. Kept as the semantic ground
    /// truth for the mask path — the `conflict_masks` proptest and the
    /// `conflicts` criterion microbench compare against it. Not used on any
    /// hot path.
    pub fn conflicts_reference(
        &self,
        core: CoreIdx,
        complete: &BitSet,
        scheduled: &BitSet,
        bist_load: &[u32],
        scheduled_power: u64,
        p_max: Option<u64>,
    ) -> bool {
        debug_assert!(!scheduled.contains(core), "candidate already scheduled");
        for &p in &self.predecessors[core] {
            if !complete.contains(p) {
                return true;
            }
        }
        for &x in &self.excludes[core] {
            if scheduled.contains(x) {
                return true;
            }
        }
        if let Some(p_max) = p_max {
            if scheduled_power + self.power[core] > p_max {
                return true;
            }
        }
        if let Some(engine) = self.bist[core] {
            if bist_load[engine] > 0 {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_soc::{Core, Soc};
    use soctam_wrapper::CoreTest;

    fn tiny(name: &str) -> Core {
        Core::new(name, CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
    }

    fn soc_with(f: impl FnOnce(&mut Soc)) -> Soc {
        let mut soc = Soc::new("t");
        soc.add_core(tiny("a"));
        soc.add_core(tiny("b"));
        soc.add_core(tiny("c"));
        f(&mut soc);
        soc
    }

    /// Drives the bitset-based `conflicts` from plain boolean slices,
    /// recomputing the BIST occupancy the scheduler maintains incrementally.
    fn conflicts(
        cs: &ConstraintSet,
        core: CoreIdx,
        complete: &[bool],
        scheduled: &[bool],
        scheduled_power: u64,
        p_max: Option<u64>,
    ) -> bool {
        let mut bist_load = vec![0u32; cs.num_bist_engines()];
        for (j, &s) in scheduled.iter().enumerate() {
            if s {
                if let Some(e) = cs.bist_engine(j) {
                    bist_load[e] += 1;
                }
            }
        }
        let complete = BitSet::from_bools(complete);
        let scheduled = BitSet::from_bools(scheduled);
        let masked = cs.conflicts(
            core,
            &complete,
            &scheduled,
            &bist_load,
            scheduled_power,
            p_max,
        );
        let reference = cs.conflicts_reference(
            core,
            &complete,
            &scheduled,
            &bist_load,
            scheduled_power,
            p_max,
        );
        assert_eq!(masked, reference, "mask path diverged from reference");
        masked
    }

    #[test]
    fn precedence_blocks_until_complete() {
        let soc = soc_with(|s| s.add_precedence(0, 1).unwrap());
        let cs = ConstraintSet::compile(&soc);
        let scheduled = [false; 3];
        assert!(conflicts(
            &cs,
            1,
            &[false, false, false],
            &scheduled,
            0,
            None
        ));
        assert!(!conflicts(
            &cs,
            1,
            &[true, false, false],
            &scheduled,
            0,
            None
        ));
        // Core 0 itself is unconstrained.
        assert!(!conflicts(&cs, 0, &[false; 3], &scheduled, 0, None));
    }

    #[test]
    fn concurrency_blocks_while_scheduled() {
        let soc = soc_with(|s| s.add_concurrency(0, 2).unwrap());
        let cs = ConstraintSet::compile(&soc);
        let complete = [false; 3];
        assert!(conflicts(&cs, 2, &complete, &[true, false, false], 0, None));
        assert!(conflicts(&cs, 0, &complete, &[false, false, true], 0, None));
        assert!(!conflicts(
            &cs,
            2,
            &complete,
            &[false, true, false],
            0,
            None
        ));
    }

    #[test]
    fn hierarchy_pairs_included() {
        let mut soc = Soc::new("t");
        let p = soc.add_core(tiny("p"));
        soc.add_core(
            Core::builder("child", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .parent(p)
                .build(),
        );
        let cs = ConstraintSet::compile(&soc);
        assert!(conflicts(&cs, 1, &[false; 2], &[true, false], 0, None));
    }

    #[test]
    fn power_ceiling_enforced() {
        let soc = soc_with(|_| ());
        let cs = ConstraintSet::compile(&soc);
        let p = cs.power(0);
        assert!(p > 0);
        // Another core already burns p; ceiling 2p-1 blocks, 2p admits.
        assert!(conflicts(
            &cs,
            0,
            &[false; 3],
            &[false; 3],
            p,
            Some(2 * p - 1)
        ));
        assert!(!conflicts(&cs, 0, &[false; 3], &[false; 3], p, Some(2 * p)));
        // No ceiling, no conflict.
        assert!(!conflicts(
            &cs,
            0,
            &[false; 3],
            &[false; 3],
            u64::MAX - p,
            None
        ));
    }

    #[test]
    fn bist_engine_sharing_blocks() {
        let mut soc = Soc::new("t");
        soc.add_core(
            Core::builder("a", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .bist_engine(0)
                .build(),
        );
        soc.add_core(
            Core::builder("b", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .bist_engine(0)
                .build(),
        );
        soc.add_core(
            Core::builder("c", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .bist_engine(1)
                .build(),
        );
        let cs = ConstraintSet::compile(&soc);
        assert!(conflicts(
            &cs,
            1,
            &[false; 3],
            &[true, false, false],
            0,
            None
        ));
        assert!(!conflicts(
            &cs,
            2,
            &[false; 3],
            &[true, false, false],
            0,
            None
        ));
    }

    #[test]
    fn sparse_huge_bist_ids_are_densified() {
        // Raw ids are arbitrary (sparse, possibly usize::MAX); the
        // occupancy table must stay small and sharing must still be
        // detected by id equality, not by indexing with the raw id.
        let mut soc = Soc::new("t");
        for (name, id) in [("a", usize::MAX), ("b", 10_000_000), ("c", usize::MAX)] {
            soc.add_core(
                Core::builder(name, CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                    .bist_engine(id)
                    .build(),
            );
        }
        let cs = ConstraintSet::compile(&soc);
        assert_eq!(cs.num_bist_engines(), 2);
        assert_eq!(cs.bist_engine(0), cs.bist_engine(2));
        assert_ne!(cs.bist_engine(0), cs.bist_engine(1));
        // a and c share an engine; b does not.
        assert!(conflicts(
            &cs,
            2,
            &[false; 3],
            &[true, false, false],
            0,
            None
        ));
        assert!(!conflicts(
            &cs,
            1,
            &[false; 3],
            &[true, false, false],
            0,
            None
        ));
    }
}
