//! Start a loopback daemon, talk to it over real TCP, and read its
//! metrics — the whole serving stack in one example.
//!
//! Run with: `cargo run -p soctam-server --example serve_loopback`

use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

use soctam_server::{client, Server, ServerConfig};

fn main() -> ExitCode {
    let mut out = io::stdout().lock();
    match run(&mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closes stdout early (`| head -1`) ends the
        // example; it is not an error.
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

/// Socket errors are reported with the step that failed, so the only
/// `io::Error` that `run` returns is a failed write to stdout.
fn daemon(step: &'static str) -> impl Fn(io::Error) -> String {
    move |e| format!("{step}: {e}")
}

fn run(out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    // Port 0: the OS picks a free port; production deployments pass a
    // fixed address (`soctam serve --addr 0.0.0.0:3777`).
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).map_err(daemon("bind"))?;
    let addr = server.local_addr();
    writeln!(out, "daemon listening on {addr}")?;

    // One connection, several requests — the same lines a `soctam batch`
    // file would hold. The repeated schedule request is served from the
    // solution cache without re-running the solver.
    let requests = [
        "schedule d695 --width 16",
        "bounds p34392 --widths 16,24,32",
        "sweep d695 --from 15 --to 17",
        "schedule d695 --width 16", // repeat: cache hit
    ];
    let responses = client::roundtrip(addr, &requests).map_err(daemon("round trip"))?;
    for (request, response) in requests.iter().zip(responses) {
        writeln!(out, "> {request}")?;
        writeln!(out, "< {response}")?;
    }

    let (status, body) = client::http_get(addr, "/healthz").map_err(daemon("GET /healthz"))?;
    writeln!(out, "GET /healthz -> {status}: {}", body.trim())?;

    let (_, metrics) = client::http_get(addr, "/metrics").map_err(daemon("GET /metrics"))?;
    for line in metrics.lines().filter(|l| {
        l.starts_with("soctam_requests_total") || l.starts_with("soctam_solution_cache_h")
    }) {
        writeln!(out, "{line}")?;
    }

    let stats = server.engine().solution_stats().expect("cache enabled");
    writeln!(
        out,
        "solution cache: {} misses, {} hits (hit rate {:.2})",
        stats.misses,
        stats.hits,
        stats.hit_rate()
    )?;
    server.shutdown();
    Ok(())
}
