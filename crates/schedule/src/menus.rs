//! Precomputed, shareable rectangle menus for a whole SOC.
//!
//! A core's rectangle menu depends only on the core's test and the
//! effective per-core width cap — it is invariant across the sweep
//! parameters `(m, d, slack)` that [`best_of`](crate::best_of) explores.
//! A [`CompiledSoc`](crate::CompiledSoc) builds the menus once per
//! `(SOC, w_max)`, derives every smaller cap from that build, and hands
//! them to every run of a sweep; the menus are plain shared data, so many
//! threads can read them at once.

use soctam_soc::{CoreIdx, Soc};
use soctam_wrapper::{RectangleSet, TamWidth};

use crate::SchedulerConfig;

/// One [`RectangleSet`] per core of an SOC, built for a single effective
/// width cap (`SchedulerConfig::effective_w_max`).
///
/// # Example
///
/// ```
/// use soctam_schedule::{RectangleMenus, SchedulerConfig};
/// use soctam_soc::benchmarks;
///
/// let soc = benchmarks::d695();
/// let cfg = SchedulerConfig::new(32);
/// let menus = RectangleMenus::build(&soc, cfg.effective_w_max());
/// assert_eq!(menus.len(), soc.len());
/// // Every preferred width lies on its core's menu.
/// for w in menus.preferred_widths(&cfg) {
///     assert!((1..=menus.w_max()).contains(&w));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RectangleMenus {
    w_max: TamWidth,
    menus: Vec<RectangleSet>,
}

impl RectangleMenus {
    /// Builds every core's menu for widths `1..=w_max`, in core order on
    /// the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if `w_max == 0`.
    pub fn build(soc: &Soc, w_max: TamWidth) -> Self {
        assert!(w_max > 0, "w_max must be at least one wire");
        crate::instrument::note_menu_build();
        Self {
            w_max,
            menus: soc
                .cores()
                .iter()
                .map(|core| RectangleSet::build(core.test(), w_max))
                .collect(),
        }
    }

    /// Derives the menus for a smaller cap from this build, without
    /// re-running any wrapper design: per-width rectangles are
    /// cap-prefix-stable ([`RectangleSet::prefix`]), so a cap-16 menu is
    /// exactly the first 16 entries of the cap-64 one. Bit-identical to
    /// [`RectangleMenus::build`]`(soc, cap)`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or `cap > self.w_max()`.
    pub fn prefix(&self, cap: TamWidth) -> Self {
        assert!(
            cap >= 1 && cap <= self.w_max,
            "prefix cap {cap} outside 1..={}",
            self.w_max
        );
        crate::instrument::note_menu_derive();
        Self {
            w_max: cap,
            menus: self.menus.iter().map(|m| m.prefix(cap)).collect(),
        }
    }

    /// The width cap the menus were built for.
    pub fn w_max(&self) -> TamWidth {
        self.w_max
    }

    /// Number of cores covered.
    pub fn len(&self) -> usize {
        self.menus.len()
    }

    /// Whether the SOC had no cores.
    pub fn is_empty(&self) -> bool {
        self.menus.is_empty()
    }

    /// The menu of one core.
    pub fn menu(&self, core: CoreIdx) -> &RectangleSet {
        &self.menus[core]
    }

    /// All menus, in core order.
    pub fn menus(&self) -> &[RectangleSet] {
        &self.menus
    }

    /// The per-core preferred TAM widths under `cfg` (Figure 5) — the only
    /// way `(m, d)` enters a scheduling run. Two configurations with equal
    /// slack and equal preferred-width vectors schedule identically, which
    /// is what the flow's sweep deduplication keys on.
    pub fn preferred_widths(&self, cfg: &SchedulerConfig) -> Vec<TamWidth> {
        self.menus
            .iter()
            .map(|rects| {
                if cfg.toggles.pareto_bump {
                    rects.preferred_width_bumped(cfg.percent, cfg.bump)
                } else {
                    rects.preferred_width(cfg.percent)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_soc::benchmarks;

    #[test]
    fn matches_per_core_builds() {
        let soc = benchmarks::d695();
        let menus = RectangleMenus::build(&soc, 24);
        assert_eq!(menus.len(), soc.len());
        assert_eq!(menus.w_max(), 24);
        for (i, core) in soc.cores().iter().enumerate() {
            assert_eq!(*menus.menu(i), RectangleSet::build(core.test(), 24));
        }
    }

    #[test]
    fn preferred_widths_follow_toggles() {
        let soc = benchmarks::d695();
        let cfg = SchedulerConfig::new(32).with_percent(7).with_bump(2);
        let menus = RectangleMenus::build(&soc, 32);
        let bumped = menus.preferred_widths(&cfg);
        for (i, &w) in bumped.iter().enumerate() {
            assert_eq!(w, menus.menu(i).preferred_width_bumped(7, 2));
        }
        let mut plain_cfg = cfg.clone();
        plain_cfg.toggles.pareto_bump = false;
        let plain = menus.preferred_widths(&plain_cfg);
        for (i, &w) in plain.iter().enumerate() {
            assert_eq!(w, menus.menu(i).preferred_width(7));
        }
    }

    #[test]
    #[should_panic(expected = "at least one wire")]
    fn zero_width_panics() {
        let _ = RectangleMenus::build(&benchmarks::d695(), 0);
    }

    #[test]
    fn prefix_matches_fresh_build() {
        let soc = benchmarks::d695();
        let full = RectangleMenus::build(&soc, 64);
        for cap in [1u16, 9, 16, 32, 64] {
            assert_eq!(full.prefix(cap), RectangleMenus::build(&soc, cap));
        }
    }

    #[test]
    #[should_panic(expected = "prefix cap")]
    fn prefix_beyond_build_panics() {
        let _ = RectangleMenus::build(&benchmarks::d695(), 16).prefix(17);
    }

    #[test]
    fn full_cap_menus_match_the_design_reference_on_all_benchmarks() {
        for soc in benchmarks::all() {
            let reference: Vec<RectangleSet> = soc
                .cores()
                .iter()
                .map(|core| RectangleSet::build_reference(core.test(), 64))
                .collect();
            assert_eq!(
                RectangleMenus::build(&soc, 64).menus(),
                &reference[..],
                "{}",
                soc.name()
            );
        }
    }
}
