//! Rectangle representation of core tests.
//!
//! In the paper's generalized rectangle-packing formulation, each candidate
//! wrapper design of a core is a rectangle whose *height* is the TAM width
//! and whose *width* is the test application time. [`RectangleSet`] holds
//! the full menu of rectangles for one core, monotonized so that offering
//! more wires never costs time, plus the Pareto-optimal subset that the
//! scheduler actually considers.

use crate::design::{test_time, ScanPaths};
use crate::pareto::pareto_points;
use crate::{CoreTest, Cycles, ParetoPoint, StaircasePoint, TamWidth, WrapperDesign};

/// One candidate rectangle for a core: a TAM width together with the
/// testing time and wrapper scan lengths it implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Rectangle {
    /// Height: TAM wires offered to the core.
    pub width: TamWidth,
    /// The smallest number of wires that achieves `time`; the scheduler
    /// assigns this many so the rest stay available (paper, §3).
    pub effective_width: TamWidth,
    /// Length: test application time in cycles.
    pub time: Cycles,
    /// Longest wrapper scan-in path of the underlying design.
    pub scan_in: u64,
    /// Longest wrapper scan-out path of the underlying design.
    pub scan_out: u64,
}

impl Rectangle {
    /// Area of the rectangle in wire·cycles, using the effective width.
    ///
    /// The sum of areas over all cores divided by the total TAM width is
    /// the paper's schedule lower bound component.
    #[inline]
    pub fn area(&self) -> u128 {
        u128::from(self.effective_width) * u128::from(self.time)
    }

    /// Extra cycles charged when a test running at this design is
    /// preempted: one scan-out plus one scan-in.
    #[inline]
    pub fn preemption_penalty(&self) -> Cycles {
        self.scan_in + self.scan_out
    }
}

/// The full rectangle menu for one core, for widths `1..=w_max`.
///
/// The staircase is the running minimum of `Design_wrapper`'s testing
/// time over every width `1..=w_max`: `time_at(w)` is the best time
/// achievable with *at most* `w` wires, and `rect_at(w).effective_width`
/// records how many wires that best design actually needs.
/// [`RectangleSet::build`] evaluates the design only at the widths that
/// can still lower that minimum.
///
/// A set read under a smaller cap `c` answers exactly as a set built at
/// `c`: the rectangle at width `w` depends only on the designs at widths
/// `1..=w`, and a Pareto point at `w` is a strict time drop from `w - 1`.
/// So one build at the widest cap serves every narrower run through
/// `rect_at(w)` for `w <= c`, [`RectangleSet::highest_pareto_width_at_most`]
/// and the preferred-width rules, which take the cap.
///
/// # Example
///
/// ```
/// use soctam_wrapper::{CoreTest, RectangleSet};
///
/// # fn main() -> Result<(), soctam_wrapper::WrapperError> {
/// let core = CoreTest::new(32, 32, 0, vec![64, 64, 48, 48], 120)?;
/// let rects = RectangleSet::build(&core, 64);
///
/// // The staircase is monotone...
/// assert!(rects.time_at(64) <= rects.time_at(8));
/// // ...and drops exactly at the Pareto-optimal widths.
/// let paretos = rects.pareto_widths();
/// assert_eq!(paretos[0], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RectangleSet {
    rects: Vec<Rectangle>,
    pareto: Vec<ParetoPoint>,
    scan_in_bits: u64,
    scan_out_bits: u64,
    patterns: u64,
    test_data_bits: u64,
}

impl RectangleSet {
    /// Builds the rectangle set for `core` considering widths `1..=w_max`.
    ///
    /// Only each width's longest scan-in and scan-out paths reach the
    /// menu, so the design at each width is evaluated for those alone: the
    /// scan chains are sorted once, and no wrapper chain is materialized.
    /// A width runs `Design_wrapper` only while a closed-form floor on its
    /// testing time still lies below the best time of the narrower widths;
    /// every other width copies that best rectangle. Bit-identical to
    /// [`RectangleSet::build_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `w_max == 0`.
    pub fn build(core: &CoreTest, w_max: TamWidth) -> Self {
        crate::instrument::note_rectangle_set_build();
        assert!(w_max > 0, "w_max must be at least one wire");
        let patterns = core.patterns();
        let longest = core
            .scan_chains()
            .iter()
            .copied()
            .max()
            .map_or(0, u64::from);
        let (in_cells, out_cells) = (core.scan_in_bits(), core.scan_out_bits());
        // The floor is exact by construction. At width `w` some wrapper
        // chain holds the longest scan chain; with fewer wrapper chains
        // than scan chains, some wrapper chain holds two of the `w + 1`
        // longest (pigeonhole), so at least the two shortest of them
        // (`ScanPaths::shared_pair`); and `w` chains hold all the cells on
        // each side. So the design's paths are at least
        // `max(longest, pair, ceil(cells / w))`; `test_time` never
        // decreases as either path grows, so `floor(w) <= T(w)`. A width
        // whose floor reaches the best time so far cannot be strictly
        // better, and the staircase keeps only strict drops, so skipping it
        // changes no rectangle. As `w` grows without limit the pair term
        // vanishes and the floor falls to `stop` (a path holding any cell
        // is at least 1 long); once the best time reaches it, every later
        // width is skipped without a division.
        let floor_at = |w: u64, flops: u64| {
            test_time(
                flops.max(in_cells.div_ceil(w)),
                flops.max(out_cells.div_ceil(w)),
                patterns,
            )
        };
        let stop = test_time(
            longest.max(u64::from(in_cells > 0)),
            longest.max(u64::from(out_cells > 0)),
            patterns,
        );

        let mut paths = ScanPaths::new(core);
        let mut rects: Vec<Rectangle> = Vec::with_capacity(usize::from(w_max));
        let mut best = Rectangle {
            width: 0,
            effective_width: 0,
            time: Cycles::MAX,
            scan_in: 0,
            scan_out: 0,
        };
        for w in 1..=w_max {
            if best.time > stop
                && floor_at(u64::from(w), longest.max(paths.shared_pair(w))) < best.time
            {
                let (scan_in, scan_out) = paths.at(w);
                let time = test_time(scan_in, scan_out, patterns);
                if time < best.time {
                    best = Rectangle {
                        width: w,
                        effective_width: w,
                        time,
                        scan_in,
                        scan_out,
                    };
                }
            }
            rects.push(Rectangle { width: w, ..best });
        }
        Self::from_staircase(core, rects)
    }

    /// The brute-force reference for [`RectangleSet::build`]: runs the full
    /// [`WrapperDesign::design`] at every width `1..=w_max` and keeps the
    /// running minimum, with no floor and no closed form. Several times
    /// slower; kept to pin the fast path in tests.
    ///
    /// # Panics
    ///
    /// Panics if `w_max == 0`.
    pub fn build_reference(core: &CoreTest, w_max: TamWidth) -> Self {
        assert!(w_max > 0, "w_max must be at least one wire");
        let mut rects: Vec<Rectangle> = Vec::with_capacity(usize::from(w_max));
        for w in 1..=w_max {
            // Design_wrapper never fails for w >= 1 on a valid core.
            let d = WrapperDesign::design(core, w).expect("width >= 1");
            let rect = match rects.last() {
                Some(best) if best.time <= d.test_time() => Rectangle { width: w, ..*best },
                _ => Rectangle {
                    width: w,
                    effective_width: w,
                    time: d.test_time(),
                    scan_in: d.scan_in(),
                    scan_out: d.scan_out(),
                },
            };
            rects.push(rect);
        }
        Self::from_staircase(core, rects)
    }

    /// The set over a monotonized staircase: `rects[w - 1]` is the best
    /// rectangle with at most `w` wires.
    fn from_staircase(core: &CoreTest, rects: Vec<Rectangle>) -> Self {
        let pareto = pareto_points(rects.iter().map(|r| r.time));
        Self {
            rects,
            pareto,
            scan_in_bits: core.scan_in_bits(),
            scan_out_bits: core.scan_out_bits(),
            patterns: core.patterns(),
            test_data_bits: core.test_data_bits(),
        }
    }

    /// Maximum width this set was built for.
    pub fn w_max(&self) -> TamWidth {
        self.rects.len() as TamWidth
    }

    /// The rectangle chosen when `width` wires are offered.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > w_max`.
    #[inline]
    pub fn rect_at(&self, width: TamWidth) -> Rectangle {
        assert!(
            width >= 1 && usize::from(width) <= self.rects.len(),
            "width {width} outside 1..={}",
            self.rects.len()
        );
        self.rects[usize::from(width) - 1]
    }

    /// Best testing time with at most `width` wires.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > w_max`.
    #[inline]
    pub fn time_at(&self, width: TamWidth) -> Cycles {
        self.rect_at(width).time
    }

    /// The Pareto-optimal points of the staircase, in increasing width.
    pub fn pareto(&self) -> &[ParetoPoint] {
        &self.pareto
    }

    /// Just the Pareto-optimal widths, in increasing order.
    pub fn pareto_widths(&self) -> Vec<TamWidth> {
        self.pareto.iter().map(|p| p.width).collect()
    }

    /// The highest Pareto-optimal width (the width past which extra wires
    /// can never help this core).
    pub fn highest_pareto_width(&self) -> TamWidth {
        self.pareto.last().map(|p| p.width).unwrap_or(1)
    }

    /// The largest Pareto-optimal width `<= cap`, if any.
    pub fn highest_pareto_width_at_most(&self, cap: TamWidth) -> Option<TamWidth> {
        self.pareto
            .iter()
            .rev()
            .map(|p| p.width)
            .find(|&w| w <= cap)
    }

    /// Minimum testing time over the whole set (time at `w_max`).
    pub fn min_time(&self) -> Cycles {
        self.time_at(self.w_max())
    }

    /// Smallest width whose time is within `percent`% of the best time with
    /// at most `cap` wires — the paper's *preferred TAM width* before the
    /// Pareto bump, for a run whose per-core width cap is `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or `cap > w_max`.
    pub fn preferred_width(&self, percent: u32, cap: TamWidth) -> TamWidth {
        let target = u128::from(self.time_at(cap)) * (100 + u128::from(percent));
        // The first qualifying width is width 1 or a strict drop, so it is
        // a Pareto width.
        self.pareto
            .iter()
            .take_while(|p| p.width <= cap)
            .find(|p| u128::from(p.time) * 100 <= target)
            .map_or(cap, |p| p.width)
    }

    /// The paper's full preferred-width rule (Figure 5) under the per-core
    /// cap `cap`: the `percent`-based preferred width, bumped to the highest
    /// Pareto-optimal width `<= cap` when that costs at most `bump` extra
    /// wires. `percent` is `m`, `bump` is `d`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or `cap > w_max`.
    pub fn preferred_width_bumped(&self, percent: u32, bump: TamWidth, cap: TamWidth) -> TamWidth {
        pareto_bump(
            self.preferred_width(percent, cap),
            self.highest_pareto_width_at_most(cap).unwrap_or(1),
            bump,
        )
    }

    /// The full staircase as plot-ready points.
    pub fn staircase(&self) -> Vec<StaircasePoint> {
        self.rects
            .iter()
            .map(|r| StaircasePoint {
                width: r.width,
                time: r.time,
                effective_width: r.effective_width,
            })
            .collect()
    }

    /// Total scan-in bits per pattern of the core (width-independent).
    pub fn scan_in_bits(&self) -> u64 {
        self.scan_in_bits
    }

    /// Total scan-out bits per pattern of the core (width-independent).
    pub fn scan_out_bits(&self) -> u64 {
        self.scan_out_bits
    }

    /// Pattern count of the core.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Total tester data bits for the core's test.
    pub fn test_data_bits(&self) -> u64 {
        self.test_data_bits
    }

    /// Minimum rectangle area over all widths (wire·cycles); the tightest
    /// resource footprint of this core, used in the schedule lower bound.
    pub fn min_area(&self) -> u128 {
        self.rects
            .iter()
            .map(Rectangle::area)
            .min()
            .expect("at least one rectangle")
    }
}

/// The Pareto bump of the paper's preferred-width rule (Figure 5): the
/// preferred width `pref` moves up to `highest`, the highest Pareto-optimal
/// width within the run's cap, when that costs at most `bump` extra wires.
pub fn pareto_bump(pref: TamWidth, highest: TamWidth, bump: TamWidth) -> TamWidth {
    if highest > pref && highest - pref <= bump {
        highest
    } else {
        pref
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(
        inputs: u32,
        outputs: u32,
        chains: Vec<u32>,
        patterns: u64,
        w: TamWidth,
    ) -> RectangleSet {
        let c = CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap();
        RectangleSet::build(&c, w)
    }

    #[test]
    fn staircase_is_monotone_by_construction() {
        let s = set(35, 49, vec![46, 45, 44, 44], 97, 64);
        let mut last = Cycles::MAX;
        for w in 1..=64 {
            let t = s.time_at(w);
            assert!(t <= last);
            last = t;
        }
    }

    #[test]
    fn effective_width_is_minimal() {
        let s = set(35, 49, vec![46, 45, 44, 44], 97, 64);
        for w in 1..=64u16 {
            let r = s.rect_at(w);
            assert!(r.effective_width <= w);
            assert_eq!(s.time_at(r.effective_width), r.time);
            if r.effective_width > 1 {
                assert!(s.time_at(r.effective_width - 1) > r.time);
            }
        }
    }

    #[test]
    fn pareto_widths_are_where_time_drops() {
        let s = set(20, 10, vec![100, 60, 30, 10], 50, 32);
        let pw = s.pareto_widths();
        assert_eq!(pw[0], 1);
        for &w in &pw[1..] {
            assert!(s.time_at(w) < s.time_at(w - 1));
        }
        // Every drop is in the Pareto set.
        for w in 2..=32u16 {
            if s.time_at(w) < s.time_at(w - 1) {
                assert!(pw.contains(&w));
            }
        }
    }

    #[test]
    fn beyond_useful_width_is_flat() {
        // Single scan chain: nothing improves past width where the chain
        // dominates both scan paths.
        let s = set(2, 2, vec![50], 10, 64);
        assert_eq!(s.time_at(3), s.time_at(64));
        assert!(s.highest_pareto_width() <= 3);
    }

    #[test]
    fn preferred_width_within_percent() {
        let s = set(35, 49, vec![46, 45, 44, 44], 97, 64);
        for m in [1u32, 5, 10, 25] {
            let w = s.preferred_width(m, 64);
            let t = s.time_at(w);
            assert!(u128::from(t) * 100 <= u128::from(s.min_time()) * (100 + u128::from(m)));
            if w > 1 {
                let t_prev = s.time_at(w - 1);
                assert!(
                    u128::from(t_prev) * 100 > u128::from(s.min_time()) * (100 + u128::from(m))
                );
            }
        }
    }

    #[test]
    fn preferred_width_zero_percent_is_first_min_width() {
        let s = set(8, 8, vec![16, 16], 20, 16);
        let w = s.preferred_width(0, 16);
        assert_eq!(s.time_at(w), s.min_time());
        assert_eq!(w, s.highest_pareto_width());
    }

    #[test]
    fn bump_promotes_to_highest_pareto() {
        let s = set(35, 49, vec![46, 45, 44, 44], 97, 64);
        let pref = s.preferred_width(10, 64);
        let hi = s.highest_pareto_width();
        if hi > pref {
            let gap = hi - pref;
            assert_eq!(s.preferred_width_bumped(10, gap, 64), hi);
            if gap > 1 {
                assert_eq!(s.preferred_width_bumped(10, gap - 1, 64), pref);
            }
        }
        assert_eq!(s.preferred_width_bumped(10, 0, 64), pref);
    }

    #[test]
    fn highest_pareto_at_most_cap() {
        let s = set(20, 10, vec![100, 60, 30, 10], 50, 32);
        let pw = s.pareto_widths();
        let cap = pw[pw.len() / 2];
        assert_eq!(s.highest_pareto_width_at_most(cap), Some(cap));
        assert_eq!(
            s.highest_pareto_width_at_most(64),
            Some(*pw.last().unwrap())
        );
        if pw[0] == 1 {
            assert_eq!(s.highest_pareto_width_at_most(1), Some(1));
        }
    }

    #[test]
    fn a_wire_past_one_per_scan_chain_can_still_win() {
        // At w = 4 each scan chain fills its own wrapper chain and the
        // cells lengthen one of them to 101; at w = 5 the cells get a
        // wrapper chain of their own: (1 + 100) * 10 + 100.
        let s = set(4, 4, vec![100; 4], 10, 8);
        assert_eq!(s.time_at(4), 1_121);
        assert_eq!(s.time_at(5), 1_110);
        assert_eq!(s.time_at(8), 1_110);
        assert_eq!(s.highest_pareto_width(), 5);
    }

    #[test]
    fn bidirectional_cells_without_scan_chains_match_the_reference() {
        let c = CoreTest::new(3, 2, 5, vec![], 10).unwrap();
        assert_eq!(
            RectangleSet::build(&c, 16),
            RectangleSet::build_reference(&c, 16)
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rect_at_zero_panics() {
        let s = set(2, 2, vec![5], 3, 8);
        let _ = s.rect_at(0);
    }

    /// Everything a run under `cap` reads from a set: each rectangle up to
    /// the cap, the highest Pareto width within it, and both preferred-width
    /// rules over a small `(m, d)` grid.
    fn read_under(
        s: &RectangleSet,
        cap: TamWidth,
    ) -> (Vec<Rectangle>, Option<TamWidth>, Vec<TamWidth>) {
        let prefs = [0u32, 1, 5, 10, 25, 60]
            .into_iter()
            .flat_map(|m| {
                std::iter::once(s.preferred_width(m, cap))
                    .chain((0..=4).map(move |d| s.preferred_width_bumped(m, d, cap)))
            })
            .collect();
        (
            (1..=cap).map(|w| s.rect_at(w)).collect(),
            s.highest_pareto_width_at_most(cap),
            prefs,
        )
    }

    #[test]
    fn capped_reads_match_the_build_at_that_cap() {
        let full = set(35, 49, vec![46, 45, 44, 44], 97, 64);
        for cap in [1u16, 2, 7, 16, 33, 64] {
            assert_eq!(
                read_under(&full, cap),
                read_under(&set(35, 49, vec![46, 45, 44, 44], 97, cap), cap),
                "cap {cap}"
            );
        }
        // Including a core whose staircase goes flat well below the cap.
        let flat = set(2, 2, vec![50], 10, 64);
        assert_eq!(
            read_under(&flat, 16),
            read_under(&set(2, 2, vec![50], 10, 16), 16)
        );
    }

    proptest! {
        /// Monotone staircase, minimal effective widths, pareto in range.
        #[test]
        fn rectangle_set_invariants(
            inputs in 0u32..50,
            outputs in 0u32..50,
            chains in proptest::collection::vec(1u32..60, 0..8),
            patterns in 1u64..300,
            w_max in 1u16..40,
        ) {
            prop_assume!(inputs + outputs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap();
            let s = RectangleSet::build(&c, w_max);

            let mut last = Cycles::MAX;
            for w in 1..=w_max {
                let r = s.rect_at(w);
                prop_assert!(r.time <= last);
                prop_assert!(r.effective_width >= 1 && r.effective_width <= w);
                prop_assert_eq!(s.time_at(r.effective_width), r.time);
                last = r.time;
            }
            for p in s.pareto() {
                prop_assert!(p.width >= 1 && p.width <= w_max);
            }
            prop_assert_eq!(s.min_time(), s.time_at(w_max));
            prop_assert!(s.min_area() > 0);
        }

        /// The time-only build equals the running minimum of the full
        /// `Design_wrapper` design over every width, bidirectional cells
        /// included.
        #[test]
        fn build_matches_design_reference(
            inputs in 0u32..300,
            outputs in 0u32..300,
            bidirs in (0u32..2, 1u32..80).prop_map(|(on, n)| on * n),
            chains in proptest::collection::vec(1u32..60, 0..51),
            patterns in 1u64..500,
            w_max in 1u16..81,
        ) {
            prop_assume!(inputs + outputs + bidirs > 0 || !chains.is_empty());
            let c = CoreTest::new(inputs, outputs, bidirs, chains, patterns).unwrap();
            prop_assert_eq!(
                RectangleSet::build(&c, w_max),
                RectangleSet::build_reference(&c, w_max)
            );
        }

        /// The same on cores with few wrapper cells per scan chain and
        /// chains of nearly equal length, where a design wider than
        /// `max(chains, inputs + bidirs, outputs + bidirs)` can still be
        /// faster: one more wire takes the cells off the scan chains.
        #[test]
        fn build_matches_design_reference_past_one_wire_per_chain(
            chains in (1u32..60, proptest::collection::vec(0u32..3, 1..12))
                .prop_map(|(base, jitter)| jitter.into_iter().map(|j| base + j).collect::<Vec<_>>()),
            inputs in 0u32..12,
            outputs in 0u32..12,
            bidirs in (0u32..4, 1u32..4).prop_map(|(on, n)| u32::from(on == 0) * n),
            patterns in 1u64..300,
            w_max in 1u16..40,
        ) {
            let c = CoreTest::new(inputs, outputs, bidirs, chains, patterns).unwrap();
            prop_assert_eq!(
                RectangleSet::build(&c, w_max),
                RectangleSet::build_reference(&c, w_max)
            );
        }

        /// The same on cores without scan chains, where the floor's cell
        /// term `ceil(cells / w)` is exactly the design's path whenever `w`
        /// divides the cells, so a floor that overshoots by one skips a
        /// width that wins.
        #[test]
        fn build_matches_design_reference_without_scan_chains(
            inputs in 0u32..200,
            outputs in 0u32..200,
            bidirs in (0u32..4, 1u32..40).prop_map(|(on, n)| u32::from(on == 0) * n),
            patterns in 1u64..300,
            w_max in 1u16..81,
        ) {
            prop_assume!(inputs + outputs + bidirs > 0);
            let c = CoreTest::new(inputs, outputs, bidirs, vec![], patterns).unwrap();
            prop_assert_eq!(
                RectangleSet::build(&c, w_max),
                RectangleSet::build_reference(&c, w_max)
            );
        }

        /// The same on balanced cores, whose `n` scan chains all have one
        /// length, with `w_max` below, at and above `n` and with and without
        /// bidirectional cells: random chain vectors almost never have
        /// equal lengths.
        #[test]
        fn build_matches_design_reference_on_balanced_chains(
            inputs in 0u32..300,
            outputs in 0u32..300,
            bidirs in (0u32..2, 1u32..80).prop_map(|(on, n)| on * n),
            len in 1u32..60,
            n in 1usize..50,
            w_max in 1u16..81,
            patterns in 1u64..500,
        ) {
            let c = CoreTest::new(inputs, outputs, bidirs, vec![len; n], patterns).unwrap();
            prop_assert_eq!(
                RectangleSet::build(&c, w_max),
                RectangleSet::build_reference(&c, w_max)
            );
        }

        /// A build read under a smaller cap answers every query a run makes
        /// exactly as the build at that cap does.
        #[test]
        fn capped_reads_are_bit_identical_to_the_build_at_that_cap(
            inputs in 0u32..50,
            outputs in 0u32..50,
            chains in proptest::collection::vec(1u32..60, 0..8),
            patterns in 1u64..300,
            w_max in 2u16..40,
            cap_off in 1u16..39,
        ) {
            prop_assume!(inputs + outputs > 0 || !chains.is_empty());
            let cap = 1 + cap_off % (w_max - 1).max(1);
            let c = CoreTest::new(inputs, outputs, 0, chains, patterns).unwrap();
            prop_assert_eq!(
                read_under(&RectangleSet::build(&c, w_max), cap),
                read_under(&RectangleSet::build(&c, cap), cap)
            );
        }
    }
}
