//! Precomputed, shareable rectangle menus for a whole SOC.
//!
//! A core's rectangle menu depends only on the core's test, and the
//! rectangle at each width does not depend on the cap the menu was built
//! for. So a [`CompiledSoc`](crate::CompiledSoc) builds the menus once, at
//! its cap `w_max`, and every run reads them under its own cap
//! `min(W, w_max)`: the sweep parameters `(m, d, slack)` that
//! [`best_of`](crate::best_of) explores and the TAM width all share one
//! build. The menus are plain shared data, so many threads can read them
//! at once.

use soctam_soc::{CoreIdx, Soc};
use soctam_wrapper::{pareto_bump, RectangleSet, TamWidth};

use crate::SchedulerConfig;

/// One [`RectangleSet`] per core of an SOC, built for widths `1..=w_max`
/// and read by each run under its own cap
/// (`SchedulerConfig::effective_w_max`).
///
/// # Example
///
/// ```
/// use soctam_schedule::{RectangleMenus, SchedulerConfig};
/// use soctam_soc::benchmarks;
///
/// let soc = benchmarks::d695();
/// let menus = RectangleMenus::build(&soc, 64);
/// assert_eq!(menus.len(), soc.len());
/// // A width-32 run reads the menus under its cap: every preferred width
/// // lies within it.
/// let cfg = SchedulerConfig::new(32);
/// for w in menus.preferred_widths(&cfg) {
///     assert!((1..=cfg.effective_w_max()).contains(&w));
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
        crate::obs::count(crate::obs::Work::MenuBuild);
        Self {
            w_max,
            menus: soc
                .cores()
                .iter()
                .map(|core| RectangleSet::build(core.test(), w_max))
                .collect(),
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

    /// The per-core preferred TAM widths under `cfg` (Figure 5), read under
    /// the run's cap `cfg.effective_w_max()` — the only way `(m, d)` enters
    /// a scheduling run. Two configurations with equal slack and equal
    /// preferred-width vectors schedule identically, which is what the
    /// flow's sweep deduplication keys on.
    ///
    /// # Panics
    ///
    /// Panics if the run's cap exceeds the build's `w_max`.
    pub fn preferred_widths(&self, cfg: &SchedulerConfig) -> Vec<TamWidth> {
        let cap = cfg.effective_w_max();
        self.menus
            .iter()
            .map(|rects| {
                if cfg.toggles.pareto_bump {
                    rects.preferred_width_bumped(cfg.percent, cfg.bump, cap)
                } else {
                    rects.preferred_width(cfg.percent, cap)
                }
            })
            .collect()
    }

    /// [`RectangleMenus::preferred_widths`] for every `(m, d)` of a sweep
    /// grid, `m`-major, under `base`'s cap and bump toggle (`base`'s own
    /// `m` and `d` are ignored). The plain preferred width depends on `m`
    /// alone and the bump target on the cap alone, so each is read once
    /// per core and every `d` only compares.
    ///
    /// # Panics
    ///
    /// Panics if the run's cap exceeds the build's `w_max`.
    pub fn preferred_width_grid(
        &self,
        base: &SchedulerConfig,
        percents: &[u32],
        bumps: &[TamWidth],
    ) -> Vec<((u32, TamWidth), Vec<TamWidth>)> {
        let cap = base.effective_w_max();
        let highest: Vec<TamWidth> = self
            .menus
            .iter()
            .map(|rects| rects.highest_pareto_width_at_most(cap).unwrap_or(1))
            .collect();
        let mut grid = Vec::with_capacity(percents.len() * bumps.len());
        for &m in percents {
            let plain: Vec<TamWidth> = self
                .menus
                .iter()
                .map(|rects| rects.preferred_width(m, cap))
                .collect();
            for &d in bumps {
                let prefs = if base.toggles.pareto_bump {
                    plain
                        .iter()
                        .zip(&highest)
                        .map(|(&pref, &hi)| pareto_bump(pref, hi, d))
                        .collect()
                } else {
                    plain.clone()
                };
                grid.push(((m, d), prefs));
            }
        }
        grid
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
            assert_eq!(w, menus.menu(i).preferred_width_bumped(7, 2, 32));
        }
        let mut plain_cfg = cfg.clone();
        plain_cfg.toggles.pareto_bump = false;
        let plain = menus.preferred_widths(&plain_cfg);
        for (i, &w) in plain.iter().enumerate() {
            assert_eq!(w, menus.menu(i).preferred_width(7, 32));
        }
    }

    #[test]
    fn the_grid_reads_what_each_point_reads() {
        let percents = [1, 5, 10, 25, 45];
        let bumps = [0, 1, 3];
        for soc in benchmarks::all() {
            let menus = RectangleMenus::build(&soc, 64);
            for w in [1, 7, 16, 32, 64] {
                for bump_on in [true, false] {
                    let mut base = SchedulerConfig::new(w);
                    base.toggles.pareto_bump = bump_on;
                    let grid = menus.preferred_width_grid(&base, &percents, &bumps);
                    let points = percents
                        .iter()
                        .flat_map(|&m| bumps.iter().map(move |&d| (m, d)));
                    assert_eq!(grid.len(), percents.len() * bumps.len());
                    for (((m, d), prefs), want) in grid.into_iter().zip(points) {
                        assert_eq!((m, d), want);
                        let cfg = base.clone().with_percent(m).with_bump(d);
                        assert_eq!(prefs, menus.preferred_widths(&cfg), "{} W={w}", soc.name());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one wire")]
    fn zero_width_panics() {
        let _ = RectangleMenus::build(&benchmarks::d695(), 0);
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
