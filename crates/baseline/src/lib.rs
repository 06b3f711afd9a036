//! # soctam-baseline
//!
//! Baseline comparators for the DAC 2002 scheduler:
//!
//! * [`fixed_width_best`] — the *fixed-width TAM architecture* of the
//!   paper's predecessors \[12, 13\]: the SOC TAM is statically partitioned
//!   into a small number of buses, each core rides exactly one bus, and
//!   cores sharing a bus test serially. The partition and the assignment
//!   are optimized exhaustively/greedily here, so the comparison flatters
//!   the baseline.
//! * [`shelf_pack`] — level-oriented (shelf) rectangle packing after
//!   Coffman et al. \[8\]: cores are sorted by width and stacked into
//!   full-width shelves; each shelf lasts as long as its longest test.
//! * [`session_schedule`] — classic *test sessions*: tests grouped so each
//!   session starts together and lasts until its slowest member ends, with
//!   the session count optimized and wires dealt to the gating test.
//!
//! Both baselines ignore precedence/power constraints (as the originals
//! did); compare them on constraint-free instances.
//!
//! Every entry point takes a precompiled
//! [`CompiledSoc`](soctam_schedule::CompiledSoc), so comparison sweeps
//! share one rectangle-menu build with the main scheduler instead of
//! rebuilding per evaluation. The context is lifetime-free (it owns its
//! SOC), so baseline evaluations can also run against registry-cached
//! contexts (`soctam_schedule::ContextRegistry`) shared across whole
//! request batches and threads.
//!
//! # Example
//!
//! ```
//! use soctam_baseline::{fixed_width_best, shelf_pack};
//! use soctam_schedule::{best_of, CompiledSoc, ParamSweep, SchedulerConfig};
//! use soctam_soc::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = benchmarks::d695();
//! let ctx = CompiledSoc::compile(&soc, 64);
//! let (flexible, _, _) = best_of(&ctx, &SchedulerConfig::new(64), &ParamSweep::paper())?;
//! let fixed = fixed_width_best(&ctx, 64, 3);
//! let shelf = shelf_pack(&ctx, 64, 5, 1);
//! // The paper's claim: at wide TAMs, flexible-width packing beats static
//! // partitions (wire fragmentation) and level-oriented shelves.
//! assert!(flexible.makespan() <= fixed.makespan);
//! assert!(flexible.makespan() <= shelf.makespan);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fixed_width;
mod session;
mod shelf;

pub use fixed_width::{fixed_width_best, FixedWidthResult};
pub use session::{session_schedule, SessionResult};
pub use shelf::{shelf_pack, ShelfResult};

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_schedule::validate::validate_with;
    use soctam_schedule::CompiledSoc;
    use soctam_soc::benchmarks;

    /// Above the context's cap a core uses at most `w_max` wires of a
    /// wider bus or session, so every baseline still answers with a valid
    /// schedule at or above the lower bound.
    #[test]
    fn baselines_answer_validly_above_the_context_cap() {
        let w = 80;
        for soc in [benchmarks::d695(), benchmarks::p93791()] {
            let ctx = CompiledSoc::compile(&soc, 64);
            let fixed = fixed_width_best(&ctx, w, 3);
            let shelf = shelf_pack(&ctx, w, 5, 1);
            let session = session_schedule(&ctx, w);
            for (name, makespan, schedule) in [
                ("fixed-width", fixed.makespan, &fixed.schedule),
                ("shelf", shelf.makespan, &shelf.schedule),
                ("session", session.makespan, &session.schedule),
            ] {
                let soc = soc.name();
                validate_with(&ctx, schedule).unwrap_or_else(|e| panic!("{soc} {name}: {e}"));
                assert_eq!(schedule.makespan(), makespan, "{soc} {name}");
                assert!(makespan >= ctx.lower_bound(w), "{soc} {name}: {makespan}");
            }
        }
    }
}
