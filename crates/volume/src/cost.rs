//! The normalized time/volume cost function and effective-width search
//! (Figures 9(c)–(d), Table 2).

use soctam_wrapper::TamWidth;

use crate::model::SweepPoint;

/// One evaluated point of the cost curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// SOC TAM width.
    pub width: TamWidth,
    /// Testing time at this width.
    pub time: u64,
    /// Tester data volume at this width.
    pub volume: u64,
    /// Normalized cost `C(W) = α·T/T_min + (1−α)·V/V_min`.
    pub cost: f64,
}

/// The full normalized cost curve for one `α`.
///
/// As `α` sweeps 0 → 1 the curve morphs from the (normalized) volume curve
/// into the time curve; in between it is "U"-shaped with a single practical
/// minimum, the *effective TAM width*.
///
/// # Example
///
/// ```
/// use soctam_volume::{CostCurve, SweepPoint};
///
/// let pts = vec![
///     SweepPoint { width: 8, time: 100, volume: 800, lower_bound: 90 },
///     SweepPoint { width: 16, time: 60, volume: 960, lower_bound: 45 },
/// ];
/// let curve = CostCurve::new(&pts, 1.0); // pure time: widest wins
/// assert_eq!(curve.effective_width(), 16);
/// let curve = CostCurve::new(&pts, 0.0); // pure volume: cheapest data wins
/// assert_eq!(curve.effective_width(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostCurve {
    alpha: f64,
    t_min: u64,
    v_min: u64,
    points: Vec<CostPoint>,
}

impl CostCurve {
    /// Evaluates the cost function over a sweep.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or `alpha` is outside `[0, 1]`.
    pub fn new(points: &[SweepPoint], alpha: f64) -> Self {
        assert!(!points.is_empty(), "cost curve needs at least one point");
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must lie in [0, 1], got {alpha}"
        );
        let t_min = points.iter().map(|p| p.time).min().expect("non-empty");
        let v_min = points.iter().map(|p| p.volume).min().expect("non-empty");
        let evaluated = points
            .iter()
            .map(|p| CostPoint {
                width: p.width,
                time: p.time,
                volume: p.volume,
                cost: alpha * p.time as f64 / t_min as f64
                    + (1.0 - alpha) * p.volume as f64 / v_min as f64,
            })
            .collect();
        Self {
            alpha,
            t_min,
            v_min,
            points: evaluated,
        }
    }

    /// The trade-off weight `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Minimum testing time over the sweep (`T_min`).
    pub fn t_min(&self) -> u64 {
        self.t_min
    }

    /// Minimum data volume over the sweep (`V_min`).
    pub fn v_min(&self) -> u64 {
        self.v_min
    }

    /// All evaluated points, in sweep order.
    pub fn points(&self) -> &[CostPoint] {
        &self.points
    }

    /// The point minimizing `C(W)`; ties break toward the *narrower* TAM
    /// (fewer wires, better multisite).
    pub fn effective_point(&self) -> CostPoint {
        *self
            .points
            .iter()
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .expect("costs are finite")
                    .then(a.width.cmp(&b.width))
            })
            .expect("non-empty")
    }

    /// Shorthand for `effective_point().width` — the paper's `W_eff`.
    pub fn effective_width(&self) -> TamWidth {
        self.effective_point().width
    }

    /// Minimum cost value `C_min` (1.0 means a width achieves both minima).
    pub fn min_cost(&self) -> f64 {
        self.effective_point().cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts() -> Vec<SweepPoint> {
        vec![
            SweepPoint {
                width: 8,
                time: 200,
                volume: 1600,
                lower_bound: 0,
            },
            SweepPoint {
                width: 16,
                time: 110,
                volume: 1760,
                lower_bound: 0,
            },
            SweepPoint {
                width: 24,
                time: 80,
                volume: 1920,
                lower_bound: 0,
            },
            SweepPoint {
                width: 32,
                time: 70,
                volume: 2240,
                lower_bound: 0,
            },
        ]
    }

    #[test]
    fn alpha_one_tracks_time() {
        let c = CostCurve::new(&pts(), 1.0);
        assert_eq!(c.effective_width(), 32);
        assert!((c.min_cost() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_tracks_volume() {
        let c = CostCurve::new(&pts(), 0.0);
        assert_eq!(c.effective_width(), 8);
        assert!((c.min_cost() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intermediate_alpha_compromises() {
        let c = CostCurve::new(&pts(), 0.5);
        let w = c.effective_width();
        assert!(w > 8 && w < 32, "expected a middle width, got {w}");
    }

    #[test]
    fn cost_is_at_least_one() {
        for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let c = CostCurve::new(&pts(), alpha);
            for p in c.points() {
                assert!(p.cost >= 1.0 - 1e-12);
            }
        }
    }

    #[test]
    fn extrema_recorded() {
        let c = CostCurve::new(&pts(), 0.5);
        assert_eq!(c.t_min(), 70);
        assert_eq!(c.v_min(), 1600);
        assert!((c.alpha() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tie_breaks_to_narrow_width() {
        let flat = vec![
            SweepPoint {
                width: 8,
                time: 100,
                volume: 800,
                lower_bound: 0,
            },
            SweepPoint {
                width: 16,
                time: 100,
                volume: 800,
                lower_bound: 0,
            },
        ];
        let c = CostCurve::new(&flat, 0.5);
        assert_eq!(c.effective_width(), 8);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        let _ = CostCurve::new(&pts(), 1.5);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty() {
        let _ = CostCurve::new(&[], 0.5);
    }
}
