//! The `main` every example shares: it runs the example on one locked
//! stdout and turns the outcome into an exit code.

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

/// Runs `run` on a locked stdout and flushes it. A reader that closes
/// stdout early (`| head -1`) ends the example with exit 0 and nothing on
/// stderr; any other error prints `error: …` and exits 1.
pub fn main(run: impl FnOnce(&mut dyn Write) -> Result<(), Box<dyn Error>>) -> ExitCode {
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
