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
/// Construction evaluates `Design_wrapper`'s testing time at every width
/// and monotonizes the resulting staircase: `time_at(w)` is the best time
/// achievable with *at most* `w` wires, and `rect_at(w).effective_width`
/// records how many wires that best design actually needs.
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
    /// Bit-identical to [`RectangleSet::build_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `w_max == 0`.
    pub fn build(core: &CoreTest, w_max: TamWidth) -> Self {
        crate::instrument::note_rectangle_set_build();
        let mut paths = ScanPaths::new(core);
        Self::from_scan_paths(core, w_max, |w| paths.at(w))
    }

    /// The materializing reference for [`RectangleSet::build`]: runs the
    /// full [`WrapperDesign::design`] at every width. Same result, several
    /// times slower; kept to pin the fast path in tests.
    ///
    /// # Panics
    ///
    /// Panics if `w_max == 0`.
    pub fn build_reference(core: &CoreTest, w_max: TamWidth) -> Self {
        Self::from_scan_paths(core, w_max, |w| {
            // Design_wrapper never fails for w >= 1 on a valid core.
            let d = WrapperDesign::design(core, w).expect("width >= 1");
            (d.scan_in(), d.scan_out())
        })
    }

    /// The monotonized staircase over the `(scan_in, scan_out)` that
    /// `paths_at` reports for each width `1..=min(max_useful_width, w_max)`.
    fn from_scan_paths(
        core: &CoreTest,
        w_max: TamWidth,
        mut paths_at: impl FnMut(TamWidth) -> (u64, u64),
    ) -> Self {
        assert!(w_max > 0, "w_max must be at least one wire");
        let useful = core.max_useful_width().min(u64::from(w_max)) as TamWidth;

        let mut rects: Vec<Rectangle> = Vec::with_capacity(usize::from(w_max));
        let mut best_time = Cycles::MAX;
        let mut best: Option<Rectangle> = None;
        for w in 1..=useful {
            let (scan_in, scan_out) = paths_at(w);
            let t = test_time(scan_in, scan_out, core.patterns());
            if t < best_time {
                best_time = t;
                best = Some(Rectangle {
                    width: w,
                    effective_width: w,
                    time: t,
                    scan_in,
                    scan_out,
                });
            }
            let mut r = best.expect("set on first iteration");
            r.width = w;
            rects.push(r);
        }
        // Widths past the useful cap reuse the best design.
        for w in useful + 1..=w_max {
            let mut r = *rects.last().expect("useful >= 1");
            r.width = w;
            rects.push(r);
        }

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

    /// Derives the rectangle set for a smaller cap from this one, without
    /// re-running any wrapper design.
    ///
    /// Rectangle menus are *cap-prefix-stable*: the rectangle chosen at
    /// width `w` depends only on the designs at widths `1..=w`, never on
    /// the cap the set was built for, and a Pareto point at width `w` is a
    /// strict time drop between `w - 1` and `w`. A cap-`c` set is therefore
    /// exactly the first `c` rectangles of any larger build plus the Pareto
    /// points at widths `<= c` — bit-identical to `build(core, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or `cap > self.w_max()`.
    pub fn prefix(&self, cap: TamWidth) -> Self {
        assert!(
            cap >= 1 && cap <= self.w_max(),
            "prefix cap {cap} outside 1..={}",
            self.w_max()
        );
        crate::instrument::note_rectangle_set_derive();
        Self {
            rects: self.rects[..usize::from(cap)].to_vec(),
            pareto: self
                .pareto
                .iter()
                .filter(|p| p.width <= cap)
                .copied()
                .collect(),
            scan_in_bits: self.scan_in_bits,
            scan_out_bits: self.scan_out_bits,
            patterns: self.patterns,
            test_data_bits: self.test_data_bits,
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

    /// Smallest width whose time is within `percent`% of the minimum time —
    /// the paper's *preferred TAM width* before the Pareto bump.
    pub fn preferred_width(&self, percent: u32) -> TamWidth {
        let target = self.min_time() as u128 * (100 + u128::from(percent));
        for r in &self.rects {
            if u128::from(r.time) * 100 <= target {
                return r.width;
            }
        }
        self.w_max()
    }

    /// The paper's full preferred-width rule (Figure 5): the `percent`-based
    /// preferred width, bumped to the highest Pareto-optimal width when that
    /// costs at most `bump` extra wires. `percent` is `m`, `bump` is `d`.
    pub fn preferred_width_bumped(&self, percent: u32, bump: TamWidth) -> TamWidth {
        let pref = self.preferred_width(percent);
        let hi = self.highest_pareto_width();
        if hi > pref && hi - pref <= bump {
            hi
        } else {
            pref
        }
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
            let w = s.preferred_width(m);
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
        let w = s.preferred_width(0);
        assert_eq!(s.time_at(w), s.min_time());
        assert_eq!(w, s.highest_pareto_width());
    }

    #[test]
    fn bump_promotes_to_highest_pareto() {
        let s = set(35, 49, vec![46, 45, 44, 44], 97, 64);
        let pref = s.preferred_width(10);
        let hi = s.highest_pareto_width();
        if hi > pref {
            let gap = hi - pref;
            assert_eq!(s.preferred_width_bumped(10, gap), hi);
            if gap > 1 {
                assert_eq!(s.preferred_width_bumped(10, gap - 1), pref);
            }
        }
        assert_eq!(s.preferred_width_bumped(10, 0), pref);
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
    #[should_panic(expected = "outside")]
    fn rect_at_zero_panics() {
        let s = set(2, 2, vec![5], 3, 8);
        let _ = s.rect_at(0);
    }

    #[test]
    fn prefix_matches_fresh_build() {
        let full = set(35, 49, vec![46, 45, 44, 44], 97, 64);
        for cap in [1u16, 2, 7, 16, 33, 64] {
            assert_eq!(
                full.prefix(cap),
                set(35, 49, vec![46, 45, 44, 44], 97, cap),
                "cap {cap}"
            );
        }
        // Including cores whose useful width is below the cap.
        let flat = set(2, 2, vec![50], 10, 64);
        assert_eq!(flat.prefix(16), set(2, 2, vec![50], 10, 16));
    }

    #[test]
    fn prefix_counts_as_derive_not_build() {
        let full = set(4, 4, vec![16, 16], 10, 32);
        let builds = crate::instrument::rectangle_set_builds();
        let derives = crate::instrument::rectangle_set_derives();
        let _ = full.prefix(8);
        // Parallel tests may build sets, but *this* derive never does.
        assert!(crate::instrument::rectangle_set_derives() > derives);
        let _ = builds; // builds may race upward; bit-identity is pinned above
    }

    #[test]
    #[should_panic(expected = "prefix cap")]
    fn prefix_beyond_build_panics() {
        let s = set(2, 2, vec![5], 3, 8);
        let _ = s.prefix(9);
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

        /// The time-only build equals the set built from the full
        /// `Design_wrapper` design at every width, bidirectional cells and
        /// caps past `max_useful_width` included.
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

        /// Any prefix of a build equals the fresh build at that cap.
        #[test]
        fn prefix_is_bit_identical_to_build(
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
            let full = RectangleSet::build(&c, w_max);
            prop_assert_eq!(full.prefix(cap), RectangleSet::build(&c, cap));
        }
    }
}
