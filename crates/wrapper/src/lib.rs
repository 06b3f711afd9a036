//! # soctam-wrapper
//!
//! Test wrapper design and testing-time modelling for embedded cores, after
//! Iyengar, Chakrabarty & Marinissen, *"Wrapper/TAM Co-Optimization,
//! Constraint-Driven Test Scheduling, and Tester Data Volume Reduction for
//! SOCs"*, DAC 2002, and the `Design_wrapper` algorithm of their earlier
//! JETTA 2002 paper.
//!
//! The crate answers one question for a single embedded core: *given `w` TAM
//! wires, how long does the core's test take?* The answer is produced by
//! partitioning the core's internal scan chains and functional terminals
//! onto `w` wrapper scan chains with a Best-Fit-Decreasing heuristic
//! ([`WrapperDesign`]), evaluating the classic scan test-time formula
//! ([`WrapperDesign::test_time`]), and condensing the staircase
//! time-vs-width curve into its Pareto-optimal points
//! ([`RectangleSet`]).
//!
//! # Example
//!
//! ```
//! use soctam_wrapper::{CoreTest, RectangleSet};
//!
//! # fn main() -> Result<(), soctam_wrapper::WrapperError> {
//! // A small scan-tested core: 8 inputs, 6 outputs, four scan chains.
//! let core = CoreTest::builder()
//!     .inputs(8)
//!     .outputs(6)
//!     .scan_chains([32, 32, 16, 8])
//!     .patterns(100)
//!     .build()?;
//!
//! // Testing time shrinks as the TAM gets wider, but only at
//! // Pareto-optimal widths.
//! let rects = RectangleSet::build(&core, 16);
//! assert!(rects.time_at(16) <= rects.time_at(1));
//! assert!(rects.pareto_widths().len() <= 16);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bfd;
mod core_test;
mod design;
mod error;
pub mod instrument;
mod layout;
mod pareto;
mod rect;

pub use bfd::{partition_bfd, Partition};
pub use core_test::{CoreTest, CoreTestBuilder};
pub use design::WrapperDesign;
pub use error::WrapperError;
pub use layout::{WrapperChainLayout, WrapperLayout};
pub use pareto::{ParetoPoint, StaircasePoint};
pub use rect::{pareto_bump, Rectangle, RectangleSet};

/// Number of TAM wires (equivalently, wrapper scan chains) given to a core.
///
/// The paper caps this at 64 (`W_max`); this crate accepts any non-zero
/// width and leaves the cap to callers.
pub type TamWidth = u16;

/// Test application time in tester clock cycles.
pub type Cycles = u64;
