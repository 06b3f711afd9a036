//! The `Design_wrapper` algorithm: wrapper scan chain construction for a
//! given TAM width.

use std::cmp::Reverse;

use crate::bfd::{partition_bfd, place_decreasing};
use crate::{CoreTest, Cycles, TamWidth, WrapperError};

/// A concrete wrapper design for one core at one TAM width.
///
/// A wrapper design arranges the core's internal scan chains, wrapper input
/// cells (functional inputs), wrapper output cells (functional outputs), and
/// bidirectional cells into `width` *wrapper scan chains*. The tester shifts
/// stimuli in through the longest scan-in path and captures responses out
/// through the longest scan-out path, so the two quantities that matter are:
///
/// * `scan_in`  — `max_k (input-side cells on chain k + scan flops on k)`
/// * `scan_out` — `max_k (scan flops on k + output-side cells on k)`
///
/// The test application time for `p` patterns follows the classic formula
/// used throughout the paper (and its references \[12, 14\]):
///
/// ```text
/// T = (1 + max(scan_in, scan_out)) · p + min(scan_in, scan_out)
/// ```
///
/// # Example
///
/// ```
/// use soctam_wrapper::{CoreTest, WrapperDesign};
///
/// # fn main() -> Result<(), soctam_wrapper::WrapperError> {
/// let core = CoreTest::new(8, 4, 0, vec![30, 20, 10], 50)?;
/// let narrow = WrapperDesign::design(&core, 1)?;
/// let wide = WrapperDesign::design(&core, 3)?;
/// assert!(wide.test_time() < narrow.test_time());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WrapperDesign {
    width: TamWidth,
    scan_in: u64,
    scan_out: u64,
    patterns: u64,
    chain_flops: Vec<u64>,
    chain_inputs: Vec<u64>,
    chain_outputs: Vec<u64>,
}

impl WrapperDesign {
    /// Designs a wrapper for `core` using `width` TAM wires via
    /// Best-Fit-Decreasing.
    ///
    /// The internal scan chains are partitioned first (longest chains
    /// placed on the least-loaded wrapper chain); wrapper input cells are
    /// then spread to equalize scan-in lengths, output cells to equalize
    /// scan-out lengths, and bidirectional cells to equalize the larger of
    /// the two.
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::ZeroWidth`] if `width == 0`.
    pub fn design(core: &CoreTest, width: TamWidth) -> Result<Self, WrapperError> {
        Ok(Self::design_with_placement(core, width)?.0)
    }

    /// Like [`WrapperDesign::design`], additionally reporting which
    /// internal scan chain landed on which wrapper chain (as
    /// `placement[chain_index] = wrapper_chain_index`, in the core's scan
    /// chain order) and the per-chain bidirectional cell counts.
    ///
    /// Used by the cell-level [`crate::WrapperLayout`].
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::ZeroWidth`] if `width == 0`.
    pub(crate) fn design_with_placement(
        core: &CoreTest,
        width: TamWidth,
    ) -> Result<(Self, Vec<usize>, Vec<u64>), WrapperError> {
        if width == 0 {
            return Err(WrapperError::ZeroWidth);
        }
        let partition = partition_bfd(core.scan_chains(), usize::from(width));
        let mut cells = ChainCells::default();
        cells.place(core, partition.loads());
        let design = Self {
            width,
            scan_in: cells.scan_in(),
            scan_out: cells.scan_out(),
            patterns: core.patterns(),
            chain_flops: partition.loads().to_vec(),
            chain_inputs: cells.inputs,
            chain_outputs: cells.outputs,
        };
        Ok((design, partition.assignment().to_vec(), cells.bidirs))
    }

    /// The TAM width (number of wrapper scan chains) of this design.
    pub fn width(&self) -> TamWidth {
        self.width
    }

    /// Longest scan-in path over all wrapper chains, in cycles per pattern.
    pub fn scan_in(&self) -> u64 {
        self.scan_in
    }

    /// Longest scan-out path over all wrapper chains, in cycles per pattern.
    pub fn scan_out(&self) -> u64 {
        self.scan_out
    }

    /// Number of external test patterns the design applies.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Scan flops placed on each wrapper chain.
    pub fn chain_flops(&self) -> &[u64] {
        &self.chain_flops
    }

    /// Input-side wrapper cells on each wrapper chain (includes bidirs).
    pub fn chain_inputs(&self) -> &[u64] {
        &self.chain_inputs
    }

    /// Output-side wrapper cells on each wrapper chain (includes bidirs).
    pub fn chain_outputs(&self) -> &[u64] {
        &self.chain_outputs
    }

    /// Test application time in cycles:
    /// `(1 + max(si, so)) · p + min(si, so)`.
    ///
    /// Scan-in of pattern *i+1* overlaps scan-out of pattern *i*, hence the
    /// `max` per pattern, one capture cycle per pattern, and a final
    /// residual shift-out of `min(si, so)`.
    pub fn test_time(&self) -> Cycles {
        test_time(self.scan_in, self.scan_out, self.patterns)
    }

    /// Extra cycles charged when a test of this design is preempted and
    /// later resumed: the interrupted pattern's response must be scanned
    /// out and its state scanned back in.
    pub fn preemption_penalty(&self) -> Cycles {
        self.scan_in + self.scan_out
    }
}

/// The scan test-time formula `(1 + max(si, so)) · p + min(si, so)`; see
/// [`WrapperDesign::test_time`].
pub(crate) fn test_time(scan_in: u64, scan_out: u64, patterns: u64) -> Cycles {
    let long = scan_in.max(scan_out);
    let short = scan_in.min(scan_out);
    (1 + long) * patterns + short
}

/// `Design_wrapper`'s longest scan-in and scan-out paths at any width,
/// without building the design: all a rectangle menu needs from it
/// ([`crate::RectangleSet::build`] asks for every width of one core).
///
/// The scan chains are sorted once. Each width then runs the BFD placement
/// ([`place_decreasing`]) for the wrapper chains' flop loads alone, in
/// buffers reused across widths. Without bidirectional cells, both paths
/// follow from the longest load in closed form ([`filled_max`]), so no
/// per-chain cell tally is built, and at a width with a wrapper chain for
/// every scan chain the longest load is the longest scan chain, so no
/// placement runs either; bidirectional cells are placed on the per-chain
/// lengths, so those cores run [`ChainCells`].
///
/// Balanced cores, whose scan chains all have one length `s`, run no
/// placement at any width. BFD puts the first `k` of the `n` chains on
/// wrapper chains `0..k`, one each; from then on every wrapper chain ties
/// with the others at each round, so the lowest-index tie-break deals the
/// rest round-robin, and wrapper chain `b` holds `s · ⌈(n − b) / k⌉`
/// flops (none when `b >= n`). Bit-identical to
/// [`WrapperDesign::design`]'s `scan_in` and `scan_out`.
pub(crate) struct ScanPaths<'a> {
    core: &'a CoreTest,
    /// Scan chain lengths, longest first.
    chains: Vec<u64>,
    /// Total scan flops: the sum of the loads at every width.
    flops: u64,
    loads: Vec<u64>,
    heap: Vec<Reverse<(u64, usize)>>,
    cells: ChainCells,
}

impl<'a> ScanPaths<'a> {
    pub(crate) fn new(core: &'a CoreTest) -> Self {
        let mut chains: Vec<u64> = core.scan_chains().iter().map(|&l| u64::from(l)).collect();
        chains.sort_unstable_by(|a, b| b.cmp(a));
        Self {
            core,
            chains,
            flops: core.scan_flops(),
            loads: Vec::new(),
            heap: Vec::new(),
            cells: ChainCells::default(),
        }
    }

    /// The least flops a wrapper chain holding two of the `width + 1`
    /// longest scan chains can carry: the two shortest of them, summed.
    /// With fewer wrapper chains than scan chains, some wrapper chain holds
    /// two of them (pigeonhole), so every design at `width >= 1` has a
    /// scan-in and a scan-out path at least this long. `0` when
    /// `width` wires give every scan chain a wrapper chain of its own.
    pub(crate) fn shared_pair(&self, width: TamWidth) -> u64 {
        let w = usize::from(width);
        match self.chains.get(w) {
            Some(&next) => self.chains[w - 1] + next,
            None => 0,
        }
    }

    /// `(scan_in, scan_out)` of the design at `width >= 1` wires.
    pub(crate) fn at(&mut self, width: TamWidth) -> (u64, u64) {
        let k = usize::from(width);
        let n = self.chains.len();
        // Compared as `Some`: with no chains at all `first() == last()`
        // holds too, and such a core takes the placement path.
        let balanced = self
            .chains
            .first()
            .is_some_and(|first| self.chains.last() == Some(first));
        if self.core.bidirs() == 0 && (k >= n || balanced) {
            // BFD gives every scan chain a wrapper chain of its own, or
            // deals `ceil(n / k)` balanced chains to wrapper chain 0.
            let longest = self.chains.first().map_or(0, |&s| s * n.div_ceil(k) as u64);
            return (
                filled_max(longest, self.flops, k, self.core.inputs()),
                filled_max(longest, self.flops, k, self.core.outputs()),
            );
        }
        if balanced {
            let s = self.chains[0];
            self.loads.clear();
            self.loads
                .extend((0..k).map(|bin| s * n.saturating_sub(bin).div_ceil(k) as u64));
        } else {
            self.loads.resize(k, 0);
            place_decreasing(
                self.chains.iter().copied(),
                &mut self.loads,
                &mut self.heap,
                |_, _| {},
            );
        }
        if self.core.bidirs() > 0 {
            self.cells.place(self.core, &self.loads);
            return (self.cells.scan_in(), self.cells.scan_out());
        }
        let longest = self.loads.iter().copied().max().unwrap_or(0);
        (
            filled_max(longest, self.flops, k, self.core.inputs()),
            filled_max(longest, self.flops, k, self.core.outputs()),
        )
    }
}

/// The cell half of `Design_wrapper`: the wrapper input, output, and
/// bidirectional cells placed on wrapper chains that already hold their
/// scan flops, with the per-chain scan lengths that result. Shared by
/// [`WrapperDesign::design`] and [`ScanPaths`]; [`ChainCells::place`]
/// reuses the vectors' allocations.
#[derive(Debug, Default)]
struct ChainCells {
    /// Scan-in length per chain: flops plus input-side cells.
    in_len: Vec<u64>,
    /// Scan-out length per chain: flops plus output-side cells.
    out_len: Vec<u64>,
    /// Input-side cells per chain, bidirectional cells included.
    inputs: Vec<u64>,
    /// Output-side cells per chain, bidirectional cells included.
    outputs: Vec<u64>,
    /// Bidirectional cells per chain.
    bidirs: Vec<u64>,
    /// Scratch: the bidirectional placement cost per chain.
    cost: Vec<u64>,
    /// Scratch: [`place_unit_cells`]'s shortest-first chain order.
    order: Vec<usize>,
}

impl ChainCells {
    /// Places `core`'s cells on wrapper chains holding `flops` scan flops
    /// each.
    fn place(&mut self, core: &CoreTest, flops: &[u64]) {
        for lengths in [&mut self.in_len, &mut self.out_len] {
            lengths.clear();
            lengths.extend_from_slice(flops);
        }
        for counts in [&mut self.inputs, &mut self.outputs, &mut self.bidirs] {
            counts.clear();
            counts.resize(flops.len(), 0);
        }

        // Wrapper input cells: each lengthens one chain's scan-in path.
        // Greedily place each cell on the chain with the shortest current
        // scan-in (flops + input cells so far), ties toward the lowest
        // chain index; `place_unit_cells` evaluates that greedy process in
        // closed form.
        place_unit_cells(
            &mut self.in_len,
            &mut self.inputs,
            core.inputs(),
            &mut self.order,
        );

        // Wrapper output cells likewise for scan-out.
        place_unit_cells(
            &mut self.out_len,
            &mut self.outputs,
            core.outputs(),
            &mut self.order,
        );

        // Bidirectional cells sit on both the scan-in and scan-out paths of
        // their chain; place each on the chain minimizing the worse of the
        // two resulting lengths. A placement raises both of its chain's
        // lengths, and so the worse of them, by exactly one: the same
        // unit-cell greedy over the cost `max(in, out)`, with the same
        // lowest-index tie-break.
        if core.bidirs() > 0 {
            self.cost.clear();
            self.cost.extend(
                self.in_len
                    .iter()
                    .zip(&self.out_len)
                    .map(|(&si, &so)| si.max(so)),
            );
            place_unit_cells(
                &mut self.cost,
                &mut self.bidirs,
                core.bidirs(),
                &mut self.order,
            );
            for (chain, &b) in self.bidirs.iter().enumerate() {
                self.in_len[chain] += b;
                self.out_len[chain] += b;
                self.inputs[chain] += b;
                self.outputs[chain] += b;
            }
        }
    }

    /// Longest scan-in path over the chains.
    fn scan_in(&self) -> u64 {
        self.in_len.iter().copied().max().unwrap_or(0)
    }

    /// Longest scan-out path over the chains.
    fn scan_out(&self) -> u64 {
        self.out_len.iter().copied().max().unwrap_or(0)
    }
}

/// The longest chain [`place_unit_cells`] leaves after dropping `cells`
/// cells on `chains` chains whose longest is `longest` and whose lengths
/// sum to `total`, without placing anything.
///
/// In `place_unit_cells`'s pool/level terms: if the cells run out before
/// the pool takes in every chain, the final level stays at or below the
/// longest chain, which stays the longest. Otherwise every chain reaches
/// the longest and the rest deal round-robin, leaving
/// `ceil((total + cells) / chains)`. Either way the result is the larger
/// of the two.
fn filled_max(longest: u64, total: u64, chains: usize, cells: u32) -> u64 {
    longest.max((total + u64::from(cells)).div_ceil(chains as u64))
}

/// Greedily drops `cells` unit-length wrapper cells one at a time onto the
/// chain with the shortest current length (ties toward the lowest chain
/// index), updating the per-chain length and placed-cell tallies. `order`
/// is scratch space, passed in so repeated calls reuse one allocation.
///
/// The one-at-a-time process is evaluated in closed form by water-filling:
/// repeatedly incrementing the minimum `(length, chain)` first raises the
/// shortest chains in lockstep to a common level `T`, then deals the
/// remainder one cell each to the lowest-indexed chains at that level —
/// O(k log k) total instead of O(cells · log k), with the exact same final
/// distribution (pinned by the `heap_placement_matches_scan_reference`
/// proptest below).
fn place_unit_cells(lengths: &mut [u64], counts: &mut [u64], cells: u32, order: &mut Vec<usize>) {
    if cells == 0 {
        return;
    }
    let k = lengths.len();
    if k == 1 {
        // A single chain takes everything; skip the bookkeeping.
        lengths[0] += u64::from(cells);
        counts[0] += u64::from(cells);
        return;
    }
    let mut cells = u64::from(cells);

    // Shortest-first (stable, so equal lengths keep chain-index order).
    order.clear();
    order.extend(0..k);
    order.sort_by_key(|&i| lengths[i]);

    // Grow the pool of shortest chains: raising the current pool to the
    // next chain's length absorbs `(next - level) * pool` cells.
    let mut pool = 1usize;
    let mut level = lengths[order[0]];
    while pool < k {
        let next = lengths[order[pool]];
        let need = (next - level) * pool as u64;
        if need > cells {
            break;
        }
        cells -= need;
        level = next;
        pool += 1;
    }

    // Deal the rest round-robin over the pool: full rounds raise the
    // common level; the remainder goes one cell each to the
    // lowest-indexed pool chains (the one-at-a-time tie-break).
    level += cells / pool as u64;
    let extras = (cells % pool as u64) as usize;
    let winners = &mut order[..pool];
    winners.sort_unstable();
    for (rank, &i) in winners.iter().enumerate() {
        let new_len = level + u64::from(rank < extras);
        counts[i] += new_len - lengths[i];
        lengths[i] = new_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn core(inputs: u32, outputs: u32, chains: Vec<u32>, patterns: u64) -> CoreTest {
        CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap()
    }

    /// Reference `design_with_placement` that finds every greedy placement
    /// target with a first-minimum linear scan instead of a heap.
    fn design_scan_reference(
        core: &CoreTest,
        width: TamWidth,
    ) -> (WrapperDesign, Vec<usize>, Vec<u64>) {
        use crate::bfd::min_load_bin;
        let k = usize::from(width);
        let partition = partition_bfd(core.scan_chains(), k);
        let chain_flops: Vec<u64> = partition.loads().to_vec();
        let placement = partition.assignment().to_vec();

        let mut chain_inputs = vec![0u64; k];
        let mut chain_outputs = vec![0u64; k];
        let mut chain_bidirs = vec![0u64; k];

        let mut in_len = chain_flops.clone();
        for _ in 0..core.inputs() {
            let b = min_load_bin(&in_len);
            in_len[b] += 1;
            chain_inputs[b] += 1;
        }
        let mut out_len = chain_flops.clone();
        for _ in 0..core.outputs() {
            let b = min_load_bin(&out_len);
            out_len[b] += 1;
            chain_outputs[b] += 1;
        }
        for _ in 0..core.bidirs() {
            let costs: Vec<u64> = (0..k)
                .map(|i| (in_len[i] + 1).max(out_len[i] + 1))
                .collect();
            let b = min_load_bin(&costs);
            in_len[b] += 1;
            out_len[b] += 1;
            chain_inputs[b] += 1;
            chain_outputs[b] += 1;
            chain_bidirs[b] += 1;
        }

        let design = WrapperDesign {
            width,
            scan_in: in_len.iter().copied().max().unwrap_or(0),
            scan_out: out_len.iter().copied().max().unwrap_or(0),
            patterns: core.patterns(),
            chain_flops,
            chain_inputs,
            chain_outputs,
        };
        (design, placement, chain_bidirs)
    }

    #[test]
    fn zero_width_rejected() {
        let c = core(1, 1, vec![4], 1);
        assert_eq!(WrapperDesign::design(&c, 0), Err(WrapperError::ZeroWidth));
    }

    #[test]
    fn width_one_serializes_everything() {
        let c = core(8, 4, vec![30, 20, 10], 50);
        let d = WrapperDesign::design(&c, 1).unwrap();
        assert_eq!(d.scan_in(), 60 + 8);
        assert_eq!(d.scan_out(), 60 + 4);
        assert_eq!(d.test_time(), (1 + 68) * 50 + 64);
    }

    #[test]
    fn combinational_core_times() {
        // 32-in/32-out combinational core, 12 patterns, width 8:
        // si = ceil(32/8) = 4 = so; T = (1+4)*12 + 4 = 64.
        let c = core(32, 32, vec![], 12);
        let d = WrapperDesign::design(&c, 8).unwrap();
        assert_eq!(d.scan_in(), 4);
        assert_eq!(d.scan_out(), 4);
        assert_eq!(d.test_time(), 64);
    }

    #[test]
    fn wider_never_slower() {
        let c = core(35, 49, vec![46, 45, 44, 44], 97);
        let mut last = u64::MAX;
        for w in 1..=16 {
            let t = WrapperDesign::design(&c, w).unwrap().test_time();
            assert!(t <= last, "width {w} got slower: {t} > {last}");
            last = t;
        }
    }

    #[test]
    fn bidir_cells_lengthen_both_sides() {
        let c = CoreTest::new(0, 0, 6, vec![], 10).unwrap();
        let d = WrapperDesign::design(&c, 3).unwrap();
        assert_eq!(d.scan_in(), 2);
        assert_eq!(d.scan_out(), 2);
    }

    #[test]
    fn excess_width_is_harmless() {
        let c = core(2, 2, vec![5], 9);
        let tight = WrapperDesign::design(&c, 3).unwrap();
        let loose = WrapperDesign::design(&c, 64).unwrap();
        assert_eq!(loose.scan_in(), 5); // single chain dominates
        assert!(loose.test_time() <= tight.test_time());
    }

    #[test]
    fn preemption_penalty_is_si_plus_so() {
        let c = core(8, 4, vec![30, 20, 10], 50);
        let d = WrapperDesign::design(&c, 2).unwrap();
        assert_eq!(d.preemption_penalty(), d.scan_in() + d.scan_out());
    }

    #[test]
    fn chain_accounting_conserves_cells() {
        let c = CoreTest::new(13, 7, 3, vec![9, 9, 4], 5).unwrap();
        let d = WrapperDesign::design(&c, 4).unwrap();
        assert_eq!(d.chain_flops().iter().sum::<u64>(), 22);
        assert_eq!(d.chain_inputs().iter().sum::<u64>(), 13 + 3);
        assert_eq!(d.chain_outputs().iter().sum::<u64>(), 7 + 3);
    }

    #[test]
    fn scan_paths_without_scan_chains_place_bidirectional_cells() {
        // No chains at all: `first() == last()` holds vacuously, and the
        // balanced deal must not run (its first load would be out of range).
        let c = CoreTest::new(3, 2, 5, vec![], 10).unwrap();
        let mut paths = ScanPaths::new(&c);
        for w in [1, 2, 3, 7, 16] {
            let d = WrapperDesign::design(&c, w).unwrap();
            assert_eq!(paths.at(w), (d.scan_in(), d.scan_out()), "width {w}");
        }
        assert_eq!(paths.shared_pair(1), 0);
    }

    #[test]
    fn balanced_chains_deal_round_robin() {
        // Seven chains of 10 on three wrapper chains: 3, 2, 2 chains.
        let c = CoreTest::new(0, 0, 1, vec![10; 7], 4).unwrap();
        let d = WrapperDesign::design(&c, 3).unwrap();
        assert_eq!(d.chain_flops(), &[30, 20, 20]);
        let mut paths = ScanPaths::new(&c);
        assert_eq!(paths.at(3), (d.scan_in(), d.scan_out()));
        assert_eq!(paths.loads, [30, 20, 20]);
        // Two of the four longest share a wrapper chain at width 3.
        assert_eq!(paths.shared_pair(3), 20);
        assert_eq!(paths.shared_pair(7), 0);
    }

    proptest! {
        /// scan_in/scan_out never drop below the trivial lower bounds and
        /// test time matches the formula recomputed from parts.
        #[test]
        fn design_invariants(
            inputs in 0u32..60,
            outputs in 0u32..60,
            chains in proptest::collection::vec(1u32..80, 0..12),
            patterns in 1u64..500,
            width in 1u16..32,
        ) {
            prop_assume!(inputs + outputs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, 0, chains.clone(), patterns).unwrap();
            let d = WrapperDesign::design(&c, width).unwrap();

            let longest_chain = chains.iter().copied().max().unwrap_or(0) as u64;
            prop_assert!(d.scan_in() >= longest_chain);
            prop_assert!(d.scan_out() >= longest_chain);
            prop_assert!(d.scan_in() >= c.scan_in_bits().div_ceil(u64::from(width)));
            prop_assert!(d.scan_out() >= c.scan_out_bits().div_ceil(u64::from(width)));

            let long = d.scan_in().max(d.scan_out());
            let short = d.scan_in().min(d.scan_out());
            prop_assert_eq!(d.test_time(), (1 + long) * patterns + short);
        }

        /// The closed-form cell placements pick exactly the chain the
        /// first-minimum linear scan would, cell for cell, so the design,
        /// scan chain placement, and bidir distribution are bit-identical
        /// to the reference implementation.
        #[test]
        fn heap_placement_matches_scan_reference(
            inputs in 0u32..400,
            outputs in 0u32..400,
            bidirs in 0u32..120,
            chains in proptest::collection::vec(1u32..80, 0..12),
            patterns in 1u64..500,
            width in 1u16..64,
        ) {
            prop_assume!(inputs + outputs + bidirs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, bidirs, chains, patterns).unwrap();
            let got = WrapperDesign::design_with_placement(&c, width).unwrap();
            let want = design_scan_reference(&c, width);
            prop_assert_eq!(got, want);
        }

        /// The closed form is the longest chain the placement leaves.
        #[test]
        fn filled_max_matches_placement(
            lengths in proptest::collection::vec(0u64..200, 1..20),
            cells in 0u32..3000,
        ) {
            let longest = lengths.iter().copied().max().unwrap();
            let want = filled_max(longest, lengths.iter().sum(), lengths.len(), cells);
            let mut placed = lengths.clone();
            let mut counts = vec![0; lengths.len()];
            place_unit_cells(&mut placed, &mut counts, cells, &mut Vec::new());
            prop_assert_eq!(placed.iter().copied().max().unwrap(), want);
        }

        /// The time-only evaluator reports the materialized design's
        /// longest paths at every width, through one set of buffers reused
        /// while the width grows and shrinks — half the cores with
        /// bidirectional cells.
        #[test]
        fn scan_paths_match_design(
            inputs in 0u32..300,
            outputs in 0u32..300,
            bidirs in (0u32..2, 1u32..80).prop_map(|(on, n)| on * n),
            chains in proptest::collection::vec(1u32..60, 0..50),
            patterns in 1u64..500,
            w_max in 1u16..81,
        ) {
            prop_assume!(inputs + outputs + bidirs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, bidirs, chains, patterns).unwrap();
            let mut paths = ScanPaths::new(&c);
            for w in (1..=w_max).chain((1..w_max).rev()) {
                let d = WrapperDesign::design(&c, w).unwrap();
                prop_assert_eq!(paths.at(w), (d.scan_in(), d.scan_out()), "width {}", w);
            }
        }

        /// The same on balanced cores, whose `n` scan chains all have one
        /// length, so BFD's loads come from the round-robin deal: every
        /// width up to `n` plus up to 30 more covers widths below, at and
        /// above the chain count, with and without bidirectional cells.
        #[test]
        fn scan_paths_match_design_on_balanced_chains(
            inputs in 0u32..300,
            outputs in 0u32..300,
            bidirs in (0u32..2, 1u32..80).prop_map(|(on, n)| on * n),
            len in 1u32..60,
            n in 1usize..50,
            extra in 0u16..30,
            patterns in 1u64..500,
        ) {
            let c = CoreTest::new(inputs, outputs, bidirs, vec![len; n], patterns).unwrap();
            let mut paths = ScanPaths::new(&c);
            let w_max = n as u16 + extra;
            for w in (1..=w_max).chain((1..w_max).rev()) {
                let d = WrapperDesign::design(&c, w).unwrap();
                prop_assert_eq!(paths.at(w), (d.scan_in(), d.scan_out()), "width {}", w);
            }
        }

        /// Two of the `w + 1` longest scan chains share a wrapper chain at
        /// width `w`, so the pair is a floor on both longest paths.
        #[test]
        fn shared_pair_is_a_floor_on_both_paths(
            inputs in 0u32..100,
            outputs in 0u32..100,
            bidirs in (0u32..2, 1u32..40).prop_map(|(on, n)| on * n),
            chains in proptest::collection::vec(1u32..60, 0..30),
            patterns in 1u64..100,
            width in 1u16..40,
        ) {
            prop_assume!(inputs + outputs + bidirs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, bidirs, chains, patterns).unwrap();
            let pair = ScanPaths::new(&c).shared_pair(width);
            let d = WrapperDesign::design(&c, width).unwrap();
            let fullest = d.chain_flops().iter().copied().max().unwrap_or(0);
            prop_assert!(pair <= fullest, "pair {} over the fullest chain {}", pair, fullest);
            prop_assert!(pair <= d.scan_in().min(d.scan_out()));
        }

        /// Monotonicity: test time is non-increasing in TAM width.
        #[test]
        fn time_monotone_in_width(
            inputs in 0u32..40,
            outputs in 0u32..40,
            chains in proptest::collection::vec(1u32..60, 0..10),
            patterns in 1u64..200,
            width in 1u16..31,
        ) {
            prop_assume!(inputs + outputs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap();
            let t_narrow = WrapperDesign::design(&c, width).unwrap().test_time();
            let t_wide = WrapperDesign::design(&c, width + 1).unwrap().test_time();
            prop_assert!(t_wide <= t_narrow);
        }
    }
}
