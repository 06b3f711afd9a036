//! The system-on-chip model: cores, hierarchy, and scheduling constraints.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::OnceLock;

use crate::{Core, CoreIdx, SocError};

/// The kind of a pairwise scheduling constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ConstraintKind {
    /// `a < b`: test `a` must complete before test `b` begins.
    Precedence,
    /// `a >< b`: tests `a` and `b` must never overlap in time.
    Concurrency,
}

/// A system-on-chip under test: a set of embedded cores plus the
/// system-integrator-supplied precedence and concurrency constraints.
///
/// The model is *schedule-agnostic*: it only describes the instance. The
/// derived concurrency constraints implied by the test hierarchy (a parent
/// core in Intest cannot run while any of its children runs) are exposed by
/// [`Soc::effective_concurrency`].
///
/// # Content hash
///
/// [`Soc::content_hash`] is the model's `DefaultHasher` hash, the SOC part
/// of every cache key and routing digest. It is computed on first use and
/// memoized, so a model shared behind an `Arc` is walked once, not once
/// per request. The memo takes no part in `Eq` or `Hash`, and every
/// `&mut self` method ([`Soc::add_core`], [`Soc::add_precedence`],
/// [`Soc::add_concurrency`], [`Soc::core_mut`]) clears it, so the hash
/// always describes the model as it is.
///
/// # Example
///
/// ```
/// use soctam_soc::{Core, Soc};
/// use soctam_wrapper::CoreTest;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut soc = Soc::new("demo");
/// let a = soc.add_core(Core::new("a", CoreTest::new(4, 4, 0, vec![16], 10)?));
/// let b = soc.add_core(Core::new("b", CoreTest::new(8, 2, 0, vec![8, 8], 20)?));
/// soc.add_precedence(a, b)?; // test a before b
/// soc.validate()?;
/// assert_eq!(soc.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Soc {
    name: String,
    cores: Vec<Core>,
    precedence: Vec<(CoreIdx, CoreIdx)>,
    concurrency: Vec<(CoreIdx, CoreIdx)>,
    #[cfg_attr(feature = "serde", serde(skip))]
    content_hash: HashMemo,
}

/// The memoized content hash: equal to every other memo and hashing to
/// nothing, so `Soc`'s derived `Eq` and `Hash` see only the model.
#[derive(Debug, Clone, Default)]
struct HashMemo(OnceLock<u64>);

impl PartialEq for HashMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for HashMemo {}

impl Hash for HashMemo {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl Soc {
    /// Creates an empty SOC with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cores: Vec::new(),
            precedence: Vec::new(),
            concurrency: Vec::new(),
            content_hash: HashMemo::default(),
        }
    }

    /// The SOC's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model's `DefaultHasher` content hash (name, cores, constraints),
    /// computed on the first call and memoized. `DefaultHasher::new` uses
    /// fixed keys, so the value is stable across processes of one build.
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.0.get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.hash(&mut h);
            h.finish()
        })
    }

    /// Adds a core and returns its index.
    pub fn add_core(&mut self, core: Core) -> CoreIdx {
        self.content_hash.0.take();
        self.cores.push(core);
        self.cores.len() - 1
    }

    /// Adds a precedence constraint: `before` must finish before `after`
    /// starts.
    ///
    /// # Errors
    ///
    /// [`SocError::UnknownCore`] for out-of-range indices,
    /// [`SocError::SelfConstraint`] if `before == after`.
    pub fn add_precedence(&mut self, before: CoreIdx, after: CoreIdx) -> Result<(), SocError> {
        self.check_pair(before, after)?;
        self.content_hash.0.take();
        self.precedence.push((before, after));
        Ok(())
    }

    /// Adds a concurrency (mutual-exclusion) constraint between two cores.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Soc::add_precedence`].
    pub fn add_concurrency(&mut self, a: CoreIdx, b: CoreIdx) -> Result<(), SocError> {
        self.check_pair(a, b)?;
        self.content_hash.0.take();
        self.concurrency.push((a, b));
        Ok(())
    }

    fn check_pair(&self, a: CoreIdx, b: CoreIdx) -> Result<(), SocError> {
        let len = self.cores.len();
        for idx in [a, b] {
            if idx >= len {
                return Err(SocError::UnknownCore { index: idx, len });
            }
        }
        if a == b {
            return Err(SocError::SelfConstraint { index: a });
        }
        Ok(())
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the SOC has no cores.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The core at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range; use [`Soc::get`] for a checked
    /// lookup.
    pub fn core(&self, idx: CoreIdx) -> &Core {
        &self.cores[idx]
    }

    /// Checked core lookup.
    pub fn get(&self, idx: CoreIdx) -> Option<&Core> {
        self.cores.get(idx)
    }

    /// Mutable core access (e.g. to adjust preemption budgets per
    /// experiment).
    pub fn core_mut(&mut self, idx: CoreIdx) -> &mut Core {
        self.content_hash.0.take();
        &mut self.cores[idx]
    }

    /// All cores in index order.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Index of the core with the given name, if present.
    pub fn core_by_name(&self, name: &str) -> Option<CoreIdx> {
        self.cores.iter().position(|c| c.name() == name)
    }

    /// The explicit precedence constraints.
    pub fn precedence(&self) -> &[(CoreIdx, CoreIdx)] {
        &self.precedence
    }

    /// The explicit concurrency constraints.
    pub fn concurrency(&self) -> &[(CoreIdx, CoreIdx)] {
        &self.concurrency
    }

    /// Explicit concurrency constraints plus those implied by the test
    /// hierarchy: every (ancestor, descendant) pair is mutually exclusive,
    /// because a parent tested in Intest forces its children's wrappers
    /// into Extest.
    pub fn effective_concurrency(&self) -> Vec<(CoreIdx, CoreIdx)> {
        let mut out: Vec<(CoreIdx, CoreIdx)> = self.concurrency.clone();
        let mut seen: HashSet<(CoreIdx, CoreIdx)> =
            out.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        for idx in 0..self.cores.len() {
            let mut cur = self.cores[idx].parent();
            let mut hops = 0;
            while let Some(p) = cur {
                if p >= self.cores.len() || hops > self.cores.len() {
                    break; // invalid hierarchies are caught by validate()
                }
                let key = (idx.min(p), idx.max(p));
                if seen.insert(key) {
                    out.push((p, idx));
                }
                cur = self.cores[p].parent();
                hops += 1;
            }
        }
        out
    }

    /// Total tester data bits over all cores (width-independent).
    pub fn total_test_bits(&self) -> u64 {
        self.cores.iter().map(|c| c.test().test_data_bits()).sum()
    }

    /// The maximum single-core power rating; useful for picking `P_max`.
    pub fn max_core_power(&self) -> u64 {
        self.cores.iter().map(Core::power).max().unwrap_or(0)
    }

    /// Checks the whole model for consistency.
    ///
    /// # Errors
    ///
    /// * [`SocError::UnknownCore`] — a constraint or parent refers to a
    ///   missing core;
    /// * [`SocError::SelfConstraint`] — a constraint relates a core to
    ///   itself (also rejected at insertion, re-checked here for models
    ///   built by deserialization);
    /// * [`SocError::DuplicateCoreName`] — two cores share a name;
    /// * [`SocError::HierarchyCycle`] — the parent relation loops;
    /// * [`SocError::PrecedenceCycle`] — the precedence digraph has a cycle.
    pub fn validate(&self) -> Result<(), SocError> {
        let len = self.cores.len();

        let mut names = HashSet::new();
        for core in &self.cores {
            if !names.insert(core.name()) {
                return Err(SocError::DuplicateCoreName {
                    name: core.name().to_owned(),
                });
            }
        }

        for &(a, b) in self.precedence.iter().chain(self.concurrency.iter()) {
            if a >= len {
                return Err(SocError::UnknownCore { index: a, len });
            }
            if b >= len {
                return Err(SocError::UnknownCore { index: b, len });
            }
            if a == b {
                return Err(SocError::SelfConstraint { index: a });
            }
        }

        for (idx, core) in self.cores.iter().enumerate() {
            if let Some(p) = core.parent() {
                if p >= len {
                    return Err(SocError::UnknownCore { index: p, len });
                }
            }
            // Detect cycles in the parent chain with a hop budget.
            let mut cur = core.parent();
            let mut hops = 0;
            while let Some(p) = cur {
                if p == idx {
                    return Err(SocError::HierarchyCycle { index: idx });
                }
                hops += 1;
                if hops > len {
                    return Err(SocError::HierarchyCycle { index: idx });
                }
                cur = self.cores[p].parent();
            }
        }

        self.check_precedence_acyclic()?;
        Ok(())
    }

    fn check_precedence_acyclic(&self) -> Result<(), SocError> {
        // Kahn's algorithm over the precedence digraph.
        let len = self.cores.len();
        let mut indegree = vec![0usize; len];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); len];
        for &(a, b) in &self.precedence {
            adj[a].push(b);
            indegree[b] += 1;
        }
        let mut queue: Vec<usize> = (0..len).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(n) = queue.pop() {
            visited += 1;
            for &m in &adj[n] {
                indegree[m] -= 1;
                if indegree[m] == 0 {
                    queue.push(m);
                }
            }
        }
        if visited == len {
            Ok(())
        } else {
            Err(SocError::PrecedenceCycle)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_wrapper::CoreTest;

    fn tiny(name: &str) -> Core {
        Core::new(name, CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
    }

    fn soc3() -> Soc {
        let mut soc = Soc::new("t");
        soc.add_core(tiny("a"));
        soc.add_core(tiny("b"));
        soc.add_core(tiny("c"));
        soc
    }

    #[test]
    fn add_and_lookup() {
        let soc = soc3();
        assert_eq!(soc.len(), 3);
        assert_eq!(soc.core_by_name("b"), Some(1));
        assert_eq!(soc.core_by_name("zz"), None);
        assert!(soc.get(2).is_some());
        assert!(soc.get(3).is_none());
    }

    #[test]
    fn rejects_out_of_range_constraints() {
        let mut soc = soc3();
        assert!(matches!(
            soc.add_precedence(0, 9),
            Err(SocError::UnknownCore { index: 9, len: 3 })
        ));
        assert!(matches!(
            soc.add_concurrency(9, 0),
            Err(SocError::UnknownCore { index: 9, .. })
        ));
    }

    #[test]
    fn rejects_self_constraints() {
        let mut soc = soc3();
        assert_eq!(
            soc.add_precedence(1, 1),
            Err(SocError::SelfConstraint { index: 1 })
        );
    }

    #[test]
    fn detects_precedence_cycle() {
        let mut soc = soc3();
        soc.add_precedence(0, 1).unwrap();
        soc.add_precedence(1, 2).unwrap();
        soc.add_precedence(2, 0).unwrap();
        assert_eq!(soc.validate(), Err(SocError::PrecedenceCycle));
    }

    #[test]
    fn accepts_precedence_dag() {
        let mut soc = soc3();
        soc.add_precedence(0, 1).unwrap();
        soc.add_precedence(0, 2).unwrap();
        soc.add_precedence(1, 2).unwrap();
        assert!(soc.validate().is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut soc = Soc::new("t");
        soc.add_core(tiny("a"));
        soc.add_core(tiny("a"));
        assert!(matches!(
            soc.validate(),
            Err(SocError::DuplicateCoreName { .. })
        ));
    }

    #[test]
    fn hierarchy_generates_concurrency() {
        let mut soc = Soc::new("t");
        let parent = soc.add_core(tiny("p"));
        let child = soc.add_core(
            Core::builder("c", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .parent(parent)
                .build(),
        );
        let grandchild = soc.add_core(
            Core::builder("g", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .parent(child)
                .build(),
        );
        assert!(soc.validate().is_ok());
        let eff = soc.effective_concurrency();
        assert!(eff.contains(&(parent, child)));
        assert!(eff.contains(&(child, grandchild)));
        assert!(eff.contains(&(parent, grandchild)));
    }

    #[test]
    fn effective_concurrency_deduplicates() {
        let mut soc = Soc::new("t");
        let p = soc.add_core(tiny("p"));
        let c = soc.add_core(
            Core::builder("c", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .parent(p)
                .build(),
        );
        soc.add_concurrency(p, c).unwrap();
        let eff = soc.effective_concurrency();
        assert_eq!(eff.len(), 1);
    }

    #[test]
    fn hierarchy_cycle_detected() {
        let mut soc = Soc::new("t");
        let a = soc.add_core(tiny("a"));
        let b = soc.add_core(
            Core::builder("b", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
                .parent(a)
                .build(),
        );
        // Rewire a's parent to b, forming a loop.
        *soc.core_mut(a) = Core::builder("a", CoreTest::new(2, 2, 0, vec![4], 5).unwrap())
            .parent(b)
            .build();
        assert!(matches!(
            soc.validate(),
            Err(SocError::HierarchyCycle { .. })
        ));
    }

    #[test]
    fn totals() {
        let soc = soc3();
        let one = tiny("x").test().test_data_bits();
        assert_eq!(soc.total_test_bits(), 3 * one);
        assert_eq!(soc.max_core_power(), tiny("x").power());
    }

    /// The model's four fields, in declaration order, through a fresh
    /// `DefaultHasher`: the value every cache key and route digest is
    /// pinned to, with the memo nowhere in it.
    fn fresh_hash(soc: &Soc) -> u64 {
        let mut h = DefaultHasher::new();
        soc.name.hash(&mut h);
        soc.cores.hash(&mut h);
        soc.precedence.hash(&mut h);
        soc.concurrency.hash(&mut h);
        h.finish()
    }

    /// The derived `Hash` of the whole value, memo field included.
    fn derived_hash(soc: &Soc) -> u64 {
        let mut h = DefaultHasher::new();
        soc.hash(&mut h);
        h.finish()
    }

    #[test]
    fn content_hash_is_the_fresh_hash_of_the_model() {
        for soc in [
            soc3(),
            crate::benchmarks::d695(),
            crate::benchmarks::p93791(),
        ] {
            let before = derived_hash(&soc);
            assert_eq!(soc.content_hash(), fresh_hash(&soc), "{}", soc.name());
            // Memoized: the same value again, and the memo leaks into
            // neither `Hash` nor `Eq`.
            assert_eq!(soc.content_hash(), fresh_hash(&soc));
            assert_eq!(derived_hash(&soc), before);
            assert_eq!(before, fresh_hash(&soc));
            let mut unhashed = soc.clone();
            unhashed.content_hash.0.take();
            assert_eq!(soc, unhashed);
        }
    }

    #[test]
    fn every_mutator_resets_the_memo() {
        let mut soc = soc3();
        let mut seen = vec![soc.content_hash()];
        soc.add_core(tiny("d"));
        seen.push(soc.content_hash());
        soc.add_precedence(0, 3).unwrap();
        seen.push(soc.content_hash());
        soc.add_concurrency(1, 2).unwrap();
        seen.push(soc.content_hash());
        let core = soc.core_mut(2);
        *core = core.clone().with_max_preemptions(3);
        seen.push(soc.content_hash());
        assert_eq!(soc.content_hash(), fresh_hash(&soc));
        // Each mutation changed the model, so each hash is new.
        let distinct: HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "{seen:x?}");
        // A failed mutation changes nothing, the memo included.
        let before = soc.content_hash();
        assert!(soc.add_precedence(1, 1).is_err());
        assert_eq!(soc.content_hash(), before);
    }

    #[test]
    fn a_clone_carries_an_equal_hash() {
        let soc = crate::benchmarks::p22810();
        let hashed = soc.content_hash();
        let clone = soc.clone();
        assert_eq!(clone.content_hash(), hashed);
        assert_eq!(fresh_hash(&clone), hashed);
        // Unhashed when cloned: the clone computes the same value itself.
        let unhashed = crate::benchmarks::p22810();
        assert_eq!(unhashed.clone().content_hash(), hashed);
        // A mutated clone moves away without touching the original.
        let mut mutated = soc.clone();
        mutated.add_core(tiny("extra"));
        assert_ne!(mutated.content_hash(), hashed);
        assert_eq!(soc.content_hash(), hashed);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any sequence of mutations — hashing or not between them —
        /// the memo equals a fresh hash of the model as it stands.
        #[test]
        fn content_hash_tracks_random_mutation_sequences(
            cores in 1usize..16,
            seed in 0u64..5000,
            steps in proptest::collection::vec((0u8..5, 0usize..20, 0usize..20, 0u8..2), 0..16),
        ) {
            let mut soc = crate::synth::SynthConfig::new(cores)
                .with_constraints()
                .generate(seed);
            for (op, a, b, hash_now) in steps {
                let len = soc.len();
                match op {
                    0 => {
                        soc.add_core(tiny(&format!("x{}", soc.len())));
                    }
                    1 => {
                        let _ = soc.add_precedence(a % len, b % len);
                    }
                    2 => {
                        let _ = soc.add_concurrency(a % len, b % len);
                    }
                    3 => {
                        let core = soc.core_mut(a % len);
                        *core = core.clone().with_max_preemptions(b as u32);
                    }
                    // A replaced core with a new test: another model entirely.
                    _ => {
                        let name = soc.core(a % len).name().to_owned();
                        *soc.core_mut(a % len) = Core::new(
                            name,
                            CoreTest::new(2, 2, 0, vec![b as u32 + 1], 5).unwrap(),
                        );
                    }
                }
                if hash_now == 1 {
                    prop_assert_eq!(soc.content_hash(), fresh_hash(&soc));
                }
            }
            prop_assert_eq!(soc.content_hash(), fresh_hash(&soc));
            prop_assert_eq!(soc.clone().content_hash(), fresh_hash(&soc));
            prop_assert_eq!(derived_hash(&soc), fresh_hash(&soc));
        }
    }
}
