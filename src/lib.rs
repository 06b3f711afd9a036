//! # soctam
//!
//! Integrated plug-and-play SOC test automation, reproducing Iyengar,
//! Chakrabarty & Marinissen, *"Wrapper/TAM Co-Optimization,
//! Constraint-Driven Test Scheduling, and Tester Data Volume Reduction for
//! SOCs"*, DAC 2002.
//!
//! This umbrella crate re-exports the whole workspace. Most users want:
//!
//! * [`soc::benchmarks`] — the four evaluated SOCs (`d695`, `p22810`,
//!   `p34392`, `p93791`);
//! * [`flow::TestFlow`] — the one-stop API: wrapper/TAM co-optimization,
//!   constraint-driven scheduling, wire assignment, and data-volume
//!   trade-off per TAM width;
//! * [`engine::Engine`] — the batch-serving facade: mixed
//!   schedule/sweep/bounds requests served concurrently through a shared
//!   [`schedule::ContextRegistry`] of compiled SOC contexts;
//! * [`report`] — regenerates the paper's tables and figures.
//!
//! # Example
//!
//! ```
//! use soctam::flow::{FlowConfig, TestFlow};
//! use soctam::soc::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = benchmarks::d695();
//! let run = TestFlow::new(&soc, FlowConfig::quick()).run(32)?;
//! println!(
//!     "d695 on 32 wires: {} cycles (lower bound {}), {} bits of tester data",
//!     run.schedule.makespan(),
//!     run.lower_bound,
//!     run.volume
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use soctam_core::{
    baseline, engine, flow, report, run_on_stdout, schedule, sim, soc, tam, volume, wrapper,
};
