//! # soctam-volume
//!
//! Tester data volume modelling and effective TAM width identification —
//! the third component of the DAC 2002 framework (§5).
//!
//! Testing time `T(W)` falls in a staircase as the SOC TAM widens, but the
//! tester must fill one memory channel per TAM pin for the whole schedule,
//! so the *total data volume* `V(W) = W · T(W)` is non-monotonic: it dips
//! at exactly the Pareto-optimal points of the `T` curve and climbs in
//! between. The normalized cost
//!
//! ```text
//! C(W) = α · T(W)/T_min + (1 − α) · V(W)/V_min
//! ```
//!
//! is "U"-shaped in `W`; its minimizer `W_eff` lets the system integrator
//! trade testing time against tester memory (multisite test, buffer
//! limits).
//!
//! # Example
//!
//! `soctam_core`'s `TestFlow::sweep_widths` produces the [`SweepPoint`]s
//! with the paper's best-of search per width; one scheduler run per width
//! shows the shape too.
//!
//! ```
//! use soctam_schedule::{CompiledSoc, ScheduleBuilder, ScheduleError, SchedulerConfig};
//! use soctam_soc::benchmarks;
//! use soctam_volume::{volume_of, CostCurve, SweepPoint};
//!
//! # fn main() -> Result<(), ScheduleError> {
//! let ctx = CompiledSoc::compile(&benchmarks::d695(), 64);
//! let points = (4..=32)
//!     .map(|w| {
//!         let schedule = ScheduleBuilder::new(ctx.soc(), SchedulerConfig::new(w))
//!             .with_context(&ctx)
//!             .run()?;
//!         let time = schedule.makespan();
//!         Ok(SweepPoint {
//!             width: w,
//!             time,
//!             volume: volume_of(w, time),
//!             lower_bound: ctx.lower_bound(w),
//!         })
//!     })
//!     .collect::<Result<Vec<_>, ScheduleError>>()?;
//! let curve = CostCurve::new(&points, 0.5);
//! let eff = curve.effective_point();
//! assert!(eff.cost >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod model;

pub use cost::{CostCurve, CostPoint};
pub use model::{volume_of, SweepPoint, TesterMemoryModel};
