//! # soctam-schedule
//!
//! Constraint-driven, selectively preemptive SOC test scheduling via
//! generalized rectangle packing — the primary contribution of Iyengar,
//! Chakrabarty & Marinissen, DAC 2002 (Figures 4–8).
//!
//! Given an SOC model ([`soctam_soc::Soc`]) and a total TAM width `W`, the
//! scheduler:
//!
//! 1. builds every core's Pareto-optimal rectangle menu and *preferred TAM
//!    width* (smallest width within `m`% of the core's best time, bumped to
//!    the highest Pareto-optimal width when at most `d` wires away);
//! 2. packs one rectangle per core into the `W × time` bin with a
//!    three-priority selection rule, filling idle wires by squeezing
//!    near-fit rectangles (within 3 wires) and widening rectangles that
//!    begin at the current instant;
//! 3. honours precedence, concurrency, power, and BIST-engine constraints,
//!    and preempts tests within each core's preemption budget, charging one
//!    extra scan-in + scan-out per actual interruption.
//!
//! The result is a [`Schedule`] of time slices that an independent
//! [`validate`](crate::validate::validate) re-checks against every
//! constraint.
//!
//! # Amortizing sweeps: [`CompiledSoc`]
//!
//! Everything a run derives from the SOC alone — per-core Pareto rectangle
//! menus, compiled constraint tables, lower-bound ingredients — is
//! invariant across the `(m, d, slack) × width` parameter sweeps the
//! paper's methodology calls for. [`CompiledSoc::compile`] precomputes it
//! once; [`best_of`], [`CompiledSoc::lower_bound`], and
//! [`validate_with`](crate::validate::validate_with) then reuse it with
//! bit-identical results, as do the `soctam-baseline` architectures and
//! the `soctam-core` flow. [`best_of`] is the only code that runs the
//! packer: every caller that searches a [`ParamSweep`] runs it, and a
//! single [`ScheduleBuilder`] run is `best_of` over a one-point grid, on a
//! shared context ([`ScheduleBuilder::with_context`]) or a private one.
//!
//! # Ownership model: contexts outlive requests
//!
//! A [`CompiledSoc`] *owns* its SOC (`Arc<Soc>`), so it carries no
//! lifetime: it can be compiled once, moved across threads, cached, and
//! shared by any number of later requests. Short-lived handles —
//! [`ScheduleBuilder`], validation calls — borrow a context; long-lived
//! ownership lives in `Arc<CompiledSoc>`, usually managed by a
//! [`ContextRegistry`]: a [`SolutionCache`] keyed by `(SOC content, w_max,
//! power budget)`, with LRU eviction and hit/miss instrumentation.
//! `soctam_core`'s `Engine` serves whole request batches through one
//! registry; cross-request caching falls out of the keying.
//! A context builds its rectangle menus once, at its cap `w_max`, and
//! every run reads that build under its own cap
//! ([`CompiledSoc::effective_cap`]).
//!
//! One tier above the registry, a second [`SolutionCache`] memoizes whole
//! solved *results* (sharded, LRU-bounded, with in-flight request
//! coalescing), so a repeat request skips the solver entirely. Nothing in
//! either expires: a cached value is a function of its key.
//!
//! # Example
//!
//! ```
//! use soctam_schedule::{ScheduleBuilder, SchedulerConfig};
//! use soctam_soc::benchmarks;
//!
//! # fn main() -> Result<(), soctam_schedule::ScheduleError> {
//! let soc = benchmarks::d695();
//! let schedule = ScheduleBuilder::new(&soc, SchedulerConfig::new(16)).run()?;
//! assert!(schedule.makespan() > 0);
//! soctam_schedule::validate::validate(&soc, &schedule)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod bounds;
mod config;
mod constraints;
mod context;
mod error;
pub mod instrument;
mod menus;
pub mod obs;
mod optimizer;
mod registry;
mod schedule;
mod solution_cache;
mod state;
mod svg;
pub mod sync;
pub mod validate;

pub use bitset::BitSet;
pub use config::{HeuristicToggles, SchedulerConfig};
pub use constraints::ConstraintSet;
pub use context::CompiledSoc;
pub use error::ScheduleError;
pub use menus::RectangleMenus;
pub use optimizer::{best_of, ParamSweep, ScheduleBuilder, SweepParams, SweepStats};
pub use registry::{ContextKey, ContextRegistry, RegistryStats};
pub use schedule::{CoreScheduleStats, Schedule, Slice};
pub use solution_cache::{CacheLookup, SolutionCache, SolutionCacheStats};
pub use svg::SvgOptions;
pub use sync::{lock_unpoisoned, panic_message};

pub use soctam_wrapper::{Cycles, TamWidth};
