//! # soctam-core
//!
//! The integrated SOC test automation framework of Iyengar, Chakrabarty &
//! Marinissen (DAC 2002), assembled from the workspace substrates:
//!
//! * wrapper/TAM co-optimization ([`soctam_wrapper`]),
//! * constraint-driven, selectively preemptive test scheduling
//!   ([`soctam_schedule`]),
//! * concrete fork-and-merge wire assignment ([`soctam_tam`]),
//! * tester data volume reduction and effective TAM width identification
//!   ([`soctam_volume`]),
//! * baseline architectures for comparison ([`soctam_baseline`]),
//! * the SOC substrate, ITC'02-style format, and benchmark models
//!   ([`soctam_soc`]).
//!
//! The [`flow`] module exposes the one-stop API; [`engine`] serves whole
//! request batches concurrently; [`protocol`] defines the request grammar
//! and JSON response shape shared by `soctam batch` and the
//! `soctam-server` wire format; [`report`] regenerates the paper's tables
//! and figures as plain-text artifacts.
//!
//! # Ownership model
//!
//! All of it shares one precompiled schedule context per SOC
//! ([`schedule::CompiledSoc`]): rectangle menus, constraint tables, and
//! lower-bound ingredients are compiled once and reused — bit-identically —
//! by the scheduler, the bounds, the validator, and every baseline
//! architecture across a whole parameter/width sweep. The context *owns*
//! its SOC (`Arc<Soc>`), so it is lifetime-free; [`flow::TestFlow`] holds
//! an `Arc<CompiledSoc>` and is itself `Send + Sync + 'static`. Long-lived
//! services cache contexts in a [`schedule::ContextRegistry`], keyed by
//! `(SOC content, w_max, power budget)` with LRU eviction, and serve
//! mixed batches through [`engine::Engine`] — each distinct key compiles
//! exactly once per registry lifetime, across requests and threads alike.
//!
//! # Quickstart
//!
//! ```
//! use soctam_core::flow::{FlowConfig, TestFlow};
//! use soctam_core::soc::benchmarks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = benchmarks::d695();
//! let flow = TestFlow::new(&soc, FlowConfig::quick());
//! let run = flow.run(16)?;
//! assert!(run.schedule.makespan() >= run.lower_bound);
//! println!("{}", run.schedule.gantt(&|i| soc.core(i).name().to_string(), 72));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

pub mod engine;
pub mod fault;
pub mod flow;
pub mod protocol;
pub mod report;

/// Re-export of the baseline comparators.
pub use soctam_baseline as baseline;
/// Re-export of the scheduling crate.
pub use soctam_schedule as schedule;
/// Re-export of the scan/tester simulation crate.
pub use soctam_sim as sim;
/// Re-export of the SOC substrate crate.
pub use soctam_soc as soc;
/// Re-export of the TAM wire-assignment crate.
pub use soctam_tam as tam;
/// Re-export of the tester-data-volume crate.
pub use soctam_volume as volume;
/// Re-export of the wrapper-design crate.
pub use soctam_wrapper as wrapper;

/// The `main` of every example and table/figure regenerator: runs `run` on
/// one locked stdout, flushes it, and turns the outcome into an exit code.
/// A reader that closes stdout early (`| head -1`) ends the program with
/// exit 0 and nothing on stderr; any other error prints `error: …` and
/// exits 1.
///
/// ```no_run
/// use std::io::Write;
///
/// fn main() -> std::process::ExitCode {
///     soctam_core::run_on_stdout(|out| Ok(writeln!(out, "hello")?))
/// }
/// ```
pub fn run_on_stdout(run: impl FnOnce(&mut dyn Write) -> Result<(), Box<dyn Error>>) -> ExitCode {
    let mut out = io::stdout().lock();
    match run(&mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if broken_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn broken_pipe(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
}
