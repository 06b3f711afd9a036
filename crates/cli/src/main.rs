//! `soctam` — command-line driver for the SOC test automation framework.
//!
//! ```text
//! soctam schedule <soc> --width W [--power] [--no-preempt] [--gantt] [--svg FILE]
//! soctam sweep <soc> [--from A] [--to B] [--power] [--no-preempt] [--alpha X]
//! soctam bounds <soc> [--widths a,b,c] [--power] [--no-preempt]
//! soctam batch <requests.txt> [--threads N] [--out FILE]
//! soctam serve [--addr A] [--threads N] [--cache-cap C] [--idle-timeout SECS]
//!              [--max-requests N] [--max-line BYTES] [--log FILE] [--warm FILE]
//!              [--max-pending N] [--fault-inject PLAN] [--slow-log MS]
//!              [--slow-log-file FILE]
//! soctam balance --backends A1,A2[,...] [--addr A] [--threads N]
//!              [--probe-interval SECS] [--backend-conns N] [...]
//! soctam client --addr A [--retries N] [--backoff SECS]
//!              [--get PATH | --file FILE | <request words> | (stdin)]
//! soctam staircase <soc> <core>
//! soctam wrapper <soc> <core> --width W
//! soctam parse <file.soc>
//! soctam list
//! ```
//!
//! `<soc>` is a benchmark name (`d695`, `p22810`, `p34392`, `p93791`) or a
//! path to an ITC'02-style `.soc` file.
//!
//! `schedule`, `sweep`, and `bounds` are protocol requests: their argv
//! parses through [`protocol::parse_words`] and is served by
//! [`Engine::serve_one`], exactly as `batch` and the daemon parse and
//! serve the same words. `sweep --from` defaults to 16 and `--to` to 64;
//! `bounds` defaults to the SOC's Table 1 widths. Only the view flags are
//! the CLI's own: `--gantt` and `--svg FILE` on `schedule`, `--alpha X`
//! (default 0.5, within `[0, 1]`) on `sweep`. `--trace` is a daemon option:
//! send the request through `soctam client` to see its phase trace. Every
//! command rejects a word it does not know.
//!
//! `batch` reads a request list (one request per line, `#` comments
//! allowed) and serves it concurrently through the [`Engine`] and its
//! shared context registry, emitting a JSON report. The grammar — shared
//! with the `soctam serve` wire protocol through
//! [`soctam_core::protocol`] — is:
//!
//! ```text
//! schedule d695 --width 16 [--power] [--no-preempt]
//! sweep p34392 --from 16 --to 32
//! bounds p93791 [--widths 16,32,48,64]
//! ```
//!
//! `serve` runs the same grammar as a long-lived TCP daemon
//! ([`soctam_server::Server`]) with a solution cache in front of the
//! engine. Its connections are bounded: `--idle-timeout` reaps slow or
//! silent peers (0 disables), `--max-requests` caps one keep-alive
//! connection (0 disables), and `--max-line` caps a request line's bytes.
//! `--log FILE` appends one JSONL record per served request;
//! `--warm FILE` pre-solves a request file or saved log at startup so the
//! cache starts hot. `--max-pending N` bounds the admission-control
//! queue (excess connections are shed with a structured busy answer),
//! and `--fault-inject PLAN` arms a deterministic chaos plan
//! (`solve:panic:every=97,io:latency=5ms:every=13` — see
//! [`soctam_core::fault::FaultPlan`]). `--slow-log MS` emits a full
//! phase-trace JSONL record for every request at or over the threshold,
//! to `--slow-log-file FILE` or stderr. `balance` fronts a ring of `serve`
//! daemons with the same protocol and HTTP surface, consistent-hashing
//! each request's solution-cache key onto a backend so shard caches stay
//! hot and disjoint, failing over past dead or shedding backends, and
//! health-probing the ring (see [`soctam_server::balance`]). Keys are
//! placed by each backend's position in `--backends`, so appending a
//! backend moves about 1/n of them and reordering the list reshuffles
//! them. `client` is
//! the scripted
//! counterpart — one request per argv tail (or per stdin line), one JSON
//! response line each, plus `--get /healthz` / `--get /metrics` for the
//! HTTP surface and `--file FILE` to replay a request file or saved log
//! and print latency percentiles. `--retries N` (with base delay
//! `--backoff SECS`) retries shed connections, transient errors, and
//! transport failures with exponential backoff and deterministic jitter.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use soctam_core::engine::{Engine, EngineOp, EngineOutput, EngineRequest, EngineResult};
use soctam_core::fault::FaultPlan;
use soctam_core::protocol::{
    self, check_known_args, flag, opt_num, opt_value, req_value, MemoResolver,
};
use soctam_core::report;
use soctam_core::soc::{benchmarks, itc02, Soc};
use soctam_core::volume::CostCurve;
use soctam_server::balance::{Balancer, BalancerConfig};
use soctam_server::{client, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    match run(&args, &mut out).and_then(|()| Ok(out.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stops early (`soctam list | head -1`) ends the
        // command; it is not an error.
        Err(Failure::Stdout(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {failure}");
            if let Failure::Usage(_) = failure {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped early.
#[derive(Debug)]
enum Failure {
    /// A bad invocation or a failed request: reported with the usage text.
    Usage(String),
    /// A write to stdout failed. Only writes to the command's output
    /// convert an `io::Error` into this; every other I/O error is a
    /// `Usage` message naming what failed.
    Stdout(io::Error),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(msg) => f.write_str(msg),
            Failure::Stdout(e) => write!(f, "writing to stdout: {e}"),
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_owned())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Stdout(e)
    }
}

const USAGE: &str = "usage:
  soctam schedule <soc> --width W [--power] [--no-preempt] [--gantt] [--svg FILE]
  soctam sweep <soc> [--from A (16)] [--to B (64)] [--power] [--no-preempt] [--alpha X]
  soctam bounds <soc> [--widths a,b,c] [--power] [--no-preempt]
  soctam batch <requests.txt> [--threads N] [--out FILE]
  soctam serve [--addr A] [--threads N] [--cache-cap C] [--idle-timeout SECS]
               [--max-requests N] [--max-line BYTES] [--log FILE] [--warm FILE]
               [--max-pending N] [--fault-inject PLAN] [--slow-log MS]
               [--slow-log-file FILE]
  soctam balance --backends A1,A2[,...] [--addr A] [--threads N]
               [--probe-interval SECS] [--probe-timeout SECS] [--retries N]
               [--backoff SECS] [--backend-conns N] [--max-line BYTES]
               [--idle-timeout SECS] [--max-pending N]
               (keys are placed by position in --backends: appending a backend
               moves about 1/n of them, reordering the list reshuffles them)
  soctam client --addr A [--retries N] [--backoff SECS]
               [--get PATH | --file FILE | <request words> | (requests on stdin)]
  soctam staircase <soc> <core-name>
  soctam wrapper <soc> <core-name> --width W
  soctam parse <file.soc>
  soctam list
(--trace is a daemon option: send the request through `soctam client`)";

/// Runs one command, writing everything it prints to `out`.
fn run(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("schedule" | "sweep" | "bounds") => cmd_solve(args, out),
        Some("batch") => cmd_batch(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], out),
        Some("balance") => cmd_balance(&args[1..], out),
        Some("client") => cmd_client(&args[1..], out),
        Some("staircase") => cmd_staircase(&args[1..], out),
        Some("wrapper") => cmd_wrapper(&args[1..], out),
        Some("parse") => cmd_parse(&args[1..], out),
        Some("list") => cmd_list(&args[1..], out),
        Some(other) => Err(format!("unknown command `{other}`").into()),
        None => Err("missing command".into()),
    }
}

fn load_soc(name: &str) -> Result<Soc, String> {
    if let Some(soc) = benchmarks::by_name(name) {
        return Ok(soc);
    }
    let text = std::fs::read_to_string(name)
        .map_err(|e| format!("`{name}` is not a benchmark name and reading it failed: {e}"))?;
    // Auto-detect the classic ITC'02 layout (keyword-per-line, starts with
    // `SocName`) vs. this crate's compact dialect.
    let classic = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| l.trim().to_ascii_lowercase().starts_with("socname"));
    let parsed = if classic {
        itc02::parse_classic(&text)
    } else {
        itc02::parse(&text)
    };
    parsed.map_err(|e| format!("parsing `{name}`: {e}"))
}

/// The CLI-only view flags of the solve commands, as `(request kind,
/// option, takes a value)`. They are split off before the rest of the
/// argv parses as a protocol request, so a view flag given to another
/// kind is an unknown argument.
const VIEW_FLAGS: [(&str, &str, bool); 3] = [
    ("schedule", "--gantt", false),
    ("schedule", "--svg", true),
    ("sweep", "--alpha", true),
];

/// `soctam schedule|sweep|bounds`: the argv, minus its view flags, is one
/// protocol request, served as `batch` and the daemon serve it.
fn cmd_solve(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let kind = args[0].as_str();
    let (mut view, mut words) = (Vec::new(), Vec::new());
    let mut it = args.iter().peekable();
    while let Some(word) = it.next() {
        match VIEW_FLAGS
            .iter()
            .find(|(k, name, _)| *k == kind && word == name)
        {
            Some(&(_, _, takes_value)) => {
                view.push(word.clone());
                // A flag-shaped word stays where it is, so `opt_value`
                // below reports the missing value.
                if takes_value {
                    view.extend(it.next_if(|v| !v.starts_with("--")).cloned());
                }
            }
            None => words.push(word.clone()),
        }
    }
    let alpha: f64 = opt_num(&view, "--alpha")?.unwrap_or(0.5);
    if !(0.0..=1.0).contains(&alpha) {
        return Err(format!("option `--alpha`: {alpha} is outside [0, 1]").into());
    }
    let svg = opt_value(&view, "--svg")?;
    if flag(&words, "--trace") || flag(&words, "trace=1") {
        return Err("`--trace` is a daemon option: send the request through \
                    `soctam client` to see its phase trace"
            .into());
    }
    let req = protocol::parse_words(&words, &mut MemoResolver::new(load_soc))?;
    let output = Engine::new().serve_one(&req).map_err(|e| e.to_string())?;
    let soc = &req.soc;
    match (&req.op, output) {
        (EngineOp::Schedule { width }, EngineOutput::Schedule(run)) => {
            writeln!(
                out,
                "{}: W={width}, testing time {} cycles (lower bound {}), volume {} bits, \
                 utilization {:.1}%, params (m={}, d={}, slack={})",
                soc.name(),
                run.schedule.makespan(),
                run.lower_bound,
                run.volume,
                run.schedule.utilization() * 100.0,
                run.params.0,
                run.params.1,
                run.params.2,
            )?;
            writeln!(
                out,
                "sweep: {} of {} grid points run ({} deduplicated, {} cut, {} stopped early)",
                run.sweep.runs_executed,
                run.sweep.runs_total,
                run.sweep.runs_skipped,
                run.sweep.runs_cut,
                run.sweep.runs_aborted,
            )?;
            let name = |i: usize| soc.core(i).name().to_string();
            if flag(&view, "--gantt") {
                writeln!(out)?;
                writeln!(out, "{}", run.schedule.gantt(&name, 90))?;
            }
            if let Some(path) = svg {
                let svg = run
                    .schedule
                    .to_svg(&name, soctam_core::schedule::SvgOptions::default());
                std::fs::write(path, svg).map_err(|e| format!("writing `{path}`: {e}"))?;
                writeln!(out, "wrote {path}")?;
            }
        }
        (_, EngineOutput::Sweep(points)) => {
            let curve = CostCurve::new(&points, alpha);
            writeln!(
                out,
                "{:>4} {:>12} {:>14} {:>10}",
                "W", "T (cycles)", "V (bits)", "C"
            )?;
            for (p, c) in points.iter().zip(curve.points()) {
                writeln!(
                    out,
                    "{:>4} {:>12} {:>14} {:>10.4}",
                    p.width, p.time, p.volume, c.cost
                )?;
            }
            let eff = curve.effective_point();
            writeln!(
                out,
                "effective width for alpha={alpha}: W_eff={} (C_min={:.4}, T={}, V={})",
                eff.width, eff.cost, eff.time, eff.volume
            )?;
        }
        (EngineOp::Bounds { widths }, EngineOutput::Bounds(bounds)) => {
            writeln!(out, "{}: testing-time lower bounds", soc.name())?;
            for (w, lb) in widths.iter().zip(bounds) {
                writeln!(out, "  W={w:>3}: {lb}")?;
            }
        }
        _ => unreachable!("the engine answers each op with its own output"),
    }
    Ok(())
}

/// Parses a whole request file: one request per line, blank lines and
/// `#` comments skipped. Errors carry the 1-based line number.
fn parse_batch_file(text: &str) -> Result<Vec<EngineRequest>, String> {
    protocol::parse_request_file(text, &mut MemoResolver::new(load_soc))
}

/// One batch-report result element: the shared response object, indented
/// into the report's `results` array.
fn json_request(req: &EngineRequest, result: &EngineResult) -> String {
    format!("    {}", protocol::render_result(req, result))
}

fn cmd_batch(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let path = args.first().ok_or("missing request file")?;
    check_known_args(&args[1..], &["--threads", "--out"], &[])?;
    let threads = opt_num(args, "--threads")?;
    let out_path = opt_value(args, "--out")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let requests = parse_batch_file(&text)?;
    let mut engine = Engine::new();
    if let Some(threads) = threads {
        engine = engine.with_threads(threads);
    }

    let results = engine.serve(&requests);
    let stats = engine.registry().stats();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"requests\": {},\n", requests.len()));
    json.push_str(&format!(
        "  \"failed\": {},\n",
        results.iter().filter(|r| r.is_err()).count()
    ));
    json.push_str("  \"results\": [\n");
    for (i, (req, result)) in requests.iter().zip(&results).enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&json_request(req, result));
        json.push_str(sep);
        json.push('\n');
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"registry\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"contexts\": {}, \"hit_rate\": {:.4}}}\n",
        stats.hits,
        stats.misses,
        stats.evictions,
        engine.registry().len(),
        stats.hit_rate()
    ));
    json.push_str("}\n");

    match out_path {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("writing `{path}`: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => write!(out, "{json}")?,
    }
    Ok(())
}

/// Parses a `--<name> SECS` option into an optional duration, where `0`
/// explicitly disables the deadline (`Ok(Some(None))`) and absence keeps
/// the caller's default (`Ok(None)`).
fn opt_seconds(args: &[String], name: &str) -> Result<Option<Option<Duration>>, String> {
    match opt_num::<f64>(args, name)? {
        None => Ok(None),
        Some(secs) => {
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!("{name} must be a non-negative number of seconds"));
            }
            Ok(Some(if secs == 0.0 {
                None
            } else {
                Some(Duration::from_secs_f64(secs))
            }))
        }
    }
}

/// `soctam serve`: run the daemon in the foreground until killed.
fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    check_known_args(
        args,
        &[
            "--addr",
            "--threads",
            "--cache-cap",
            "--idle-timeout",
            "--max-requests",
            "--max-line",
            "--log",
            "--warm",
            "--max-pending",
            "--fault-inject",
            "--slow-log",
            "--slow-log-file",
        ],
        &[],
    )?;
    let addr = opt_value(args, "--addr")?.unwrap_or("127.0.0.1:3777");
    let threads = opt_num(args, "--threads")?.unwrap_or(4);
    let cache_capacity = opt_num(args, "--cache-cap")?.unwrap_or(1024);
    let mut cfg = ServerConfig {
        threads,
        cache_capacity,
        ..ServerConfig::default()
    };
    if let Some(idle) = opt_seconds(args, "--idle-timeout")? {
        cfg.idle_timeout = idle; // 0 disables the peer deadline
    }
    if let Some(cap) = opt_num::<u64>(args, "--max-requests")? {
        cfg.max_requests = (cap > 0).then_some(cap); // 0 means unlimited
    }
    if let Some(bytes) = opt_num::<NonZeroUsize>(args, "--max-line")? {
        cfg.max_line_bytes = bytes.get();
    }
    cfg.log_path = opt_value(args, "--log")?.map(std::path::PathBuf::from);
    if let Some(pending) = opt_num::<NonZeroUsize>(args, "--max-pending")? {
        cfg.max_pending = pending.get();
    }
    if let Some(plan) = opt_value(args, "--fault-inject")? {
        cfg.fault_plan = Some(Arc::new(FaultPlan::parse(plan)?));
    }
    if let Some(ms) = opt_num::<f64>(args, "--slow-log")? {
        if !ms.is_finite() || ms < 0.0 {
            return Err("--slow-log must be a non-negative millisecond threshold".into());
        }
        cfg.slow_log = Some(Duration::from_secs_f64(ms / 1000.0));
    }
    cfg.slow_log_path = opt_value(args, "--slow-log-file")?.map(std::path::PathBuf::from);
    if cfg.slow_log_path.is_some() && cfg.slow_log.is_none() {
        return Err("--slow-log-file needs --slow-log MS to set the threshold".into());
    }
    let warm_text = match opt_value(args, "--warm")? {
        None => None,
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| format!("reading warm file `{path}`: {e}"))?,
        ),
    };

    let idle_timeout = cfg.idle_timeout;
    let max_pending = cfg.max_pending;
    let fault_plan = cfg.fault_plan.clone();
    let server = Server::bind(addr, cfg).map_err(|e| format!("binding `{addr}`: {e}"))?;
    if let Some(plan) = &fault_plan {
        writeln!(out, "fault injection armed: {plan}")?;
    }
    if let Some(text) = warm_text {
        let report = server.warm_from_text(&text);
        writeln!(
            out,
            "warmed the cache from {} requests ({} ok, {} failed, {} skipped)",
            report.requests, report.ok, report.failed, report.skipped
        )?;
    }
    writeln!(
        out,
        "soctam-server listening on {} ({} workers, solution cache capacity {}, \
         idle timeout {}, pending queue {})",
        server.local_addr(),
        threads.max(1),
        cache_capacity,
        idle_timeout.map_or("none".to_owned(), |t| format!("{}s", t.as_secs_f64())),
        max_pending,
    )?;
    out.flush()?;
    server.join();
    Ok(())
}

/// `soctam balance`: run the consistent-hash cluster front in the
/// foreground until killed. `--backends` names the ring; everything else
/// tunes the front (see [`soctam_server::balance`]).
fn cmd_balance(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    check_known_args(
        args,
        &[
            "--addr",
            "--backends",
            "--threads",
            "--probe-interval",
            "--probe-timeout",
            "--retries",
            "--backoff",
            "--backend-conns",
            "--max-line",
            "--idle-timeout",
            "--max-pending",
        ],
        &[],
    )?;
    let addr = opt_value(args, "--addr")?.unwrap_or("127.0.0.1:3780");
    let mut backends = Vec::new();
    for token in req_value(args, "--backends")?.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let resolved = std::net::ToSocketAddrs::to_socket_addrs(token)
            .map_err(|e| format!("resolving backend `{token}`: {e}"))?
            .next()
            .ok_or_else(|| format!("backend `{token}` resolved to nothing"))?;
        backends.push(resolved);
    }
    if backends.is_empty() {
        return Err("--backends names no backend addresses".into());
    }

    let mut cfg = BalancerConfig::default();
    if let Some(threads) = opt_num(args, "--threads")? {
        cfg.threads = threads;
    }
    if let Some(interval) = opt_seconds(args, "--probe-interval")? {
        cfg.probe_interval =
            interval.ok_or("--probe-interval must be a positive number of seconds".to_owned())?;
    }
    if let Some(timeout) = opt_seconds(args, "--probe-timeout")? {
        cfg.probe_timeout =
            timeout.ok_or("--probe-timeout must be a positive number of seconds".to_owned())?;
    }
    if let Some(retries) = opt_num(args, "--retries")? {
        cfg.retries = retries;
    }
    if let Some(backoff) = opt_seconds(args, "--backoff")? {
        cfg.backoff = backoff.unwrap_or(Duration::ZERO); // 0 retries immediately
    }
    if let Some(conns) = opt_num::<NonZeroUsize>(args, "--backend-conns")? {
        cfg.backend_conns = conns.get();
    }
    if let Some(bytes) = opt_num::<NonZeroUsize>(args, "--max-line")? {
        cfg.max_line_bytes = bytes.get();
    }
    if let Some(idle) = opt_seconds(args, "--idle-timeout")? {
        cfg.idle_timeout = idle; // 0 disables the peer deadline
    }
    if let Some(pending) = opt_num::<NonZeroUsize>(args, "--max-pending")? {
        cfg.max_pending = pending.get();
    }

    let probe_interval = cfg.probe_interval;
    let backend_conns = cfg.backend_conns;
    let front = Balancer::bind(addr, &backends, cfg.clone())
        .map_err(|e| format!("binding `{addr}`: {e}"))?;
    writeln!(
        out,
        "soctam-balance listening on {} ({} workers, {} backends, {} pooled conns each, \
         probing every {}s)",
        front.local_addr(),
        cfg.threads.max(1),
        backends.len(),
        backend_conns,
        probe_interval.as_secs_f64(),
    )?;
    for backend in &backends {
        writeln!(out, "  backend {backend}")?;
    }
    out.flush()?;
    front.join();
    Ok(())
}

/// `soctam client`: scripted counterpart of `serve`. One request from the
/// argv tail (every token that isn't `--addr`/`--get`/`--file`/
/// `--retries`/`--backoff` or their values), or one request per stdin
/// line when the tail is empty; `--get PATH` scrapes the HTTP surface,
/// `--file FILE` replays a request file or saved JSONL log and prints
/// latency percentiles. `--retries N` retries shed/transient/failed
/// requests with exponential backoff (base `--backoff SECS`).
fn cmd_client(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let addr = req_value(args, "--addr")?.to_owned();
    let path = opt_value(args, "--get")?.map(str::to_owned);
    let file = opt_value(args, "--file")?.map(str::to_owned);
    let retries = opt_num(args, "--retries")?.unwrap_or(0);
    let backoff = match opt_seconds(args, "--backoff")? {
        None => Duration::from_millis(100),
        Some(None) => Duration::ZERO, // 0 retries immediately
        Some(Some(d)) => d,
    };
    let policy = client::RetryPolicy::new(retries, backoff);

    // The request words are whatever remains after the client's own
    // options; they are validated by the server, not here.
    let mut words: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" | "--get" | "--file" | "--retries" | "--backoff" => i += 2,
            w => {
                words.push(w);
                i += 1;
            }
        }
    }

    if let Some(path) = path {
        if !words.is_empty() || file.is_some() {
            return Err("--get cannot be combined with a request or --file".into());
        }
        let (status, body) =
            client::http_get(&addr, &path).map_err(|e| format!("GET {path} on `{addr}`: {e}"))?;
        if !status.contains("200") {
            return Err(format!("GET {path}: {status}").into());
        }
        write!(out, "{body}")?;
        return Ok(());
    }

    if let Some(file) = file {
        if !words.is_empty() {
            return Err("--file cannot be combined with a request".into());
        }
        let text = std::fs::read_to_string(&file).map_err(|e| format!("reading `{file}`: {e}"))?;
        let report = client::replay_with_retry(&addr, &text, policy)
            .map_err(|e| format!("replaying `{file}`: {e}"))?;
        for (request, response) in &report.responses {
            writeln!(out, "{request}\n  -> {response}")?;
        }
        match &report.latency {
            None => writeln!(out, "replay: no replayable requests in `{file}`")?,
            Some(lat) => writeln!(
                out,
                "replay: {} requests ({} ok, {} failed, {} retried), latency mean {:.3} ms, \
                 p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, max {:.3} ms, \
                 stddev {:.3} ms",
                lat.count,
                report.ok,
                report.failed,
                report.retried,
                lat.mean_ms,
                lat.p50_ms,
                lat.p90_ms,
                lat.p99_ms,
                lat.p999_ms,
                lat.max_ms,
                lat.stddev_ms
            )?,
        }
        if report.failed > 0 {
            return Err(format!("{} replayed requests failed", report.failed).into());
        }
        return Ok(());
    }

    let mut conn = client::RetryingClient::new(&addr, policy)
        .map_err(|e| format!("resolving `{addr}`: {e}"))?;
    if words.is_empty() {
        // Scripted mode: request lines on stdin, response lines on stdout.
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("reading stdin: {e}"))?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let response = conn
                .request(line)
                .map_err(|e| format!("request `{line}`: {e}"))?;
            writeln!(out, "{response}")?;
        }
    } else {
        let line = words.join(" ");
        let response = conn
            .request(&line)
            .map_err(|e| format!("request `{line}`: {e}"))?;
        writeln!(out, "{response}")?;
    }
    Ok(())
}

fn cmd_staircase(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let soc_name = args.first().ok_or("missing SOC name")?;
    let core_name = args.get(1).ok_or("missing core name")?;
    check_known_args(&args[2..], &[], &[])?;
    let soc = load_soc(soc_name)?;
    let idx = soc
        .core_by_name(core_name)
        .ok_or_else(|| format!("no core `{core_name}` in {}", soc.name()))?;
    let s = report::staircase(soc.core(idx).test(), 64);
    writeln!(out, "{:>4} {:>12} {:>10}", "W", "T (cycles)", "Pareto")?;
    for p in &s.points {
        let mark = if s.pareto_widths.contains(&p.width) {
            "*"
        } else {
            ""
        };
        writeln!(out, "{:>4} {:>12} {:>10}", p.width, p.time, mark)?;
    }
    Ok(())
}

fn cmd_wrapper(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let soc_name = args.first().ok_or("missing SOC name")?;
    let core_name = args.get(1).ok_or("missing core name")?;
    check_known_args(&args[2..], &["--width"], &[])?;
    let width: u16 = opt_num(args, "--width")?.ok_or("missing --width")?;
    let soc = load_soc(soc_name)?;
    let idx = soc
        .core_by_name(core_name)
        .ok_or_else(|| format!("no core `{core_name}` in {}", soc.name()))?;
    let layout = soctam_core::wrapper::WrapperLayout::build(soc.core(idx).test(), width)
        .map_err(|e| e.to_string())?;
    write!(out, "{}", layout.render(core_name))?;
    writeln!(
        out,
        "test time at this width: {} cycles for {} patterns",
        layout.design().test_time(),
        layout.design().patterns()
    )?;
    Ok(())
}

fn cmd_parse(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    let path = args.first().ok_or("missing file path")?;
    check_known_args(&args[1..], &[], &[])?;
    let soc = load_soc(path)?;
    soc.validate().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{}: {} cores, {} precedence, {} concurrency constraints, {} total test bits",
        soc.name(),
        soc.len(),
        soc.precedence().len(),
        soc.concurrency().len(),
        soc.total_test_bits()
    )?;
    Ok(())
}

fn cmd_list(args: &[String], out: &mut dyn Write) -> Result<(), Failure> {
    check_known_args(args, &[], &[])?;
    for name in benchmarks::NAMES {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        writeln!(out, "{name}: {} cores", soc.len())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_core::flow::TestFlow;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// [`super::run`] with its output discarded and its failure as the
    /// message `main` prints.
    fn run(args: &[String]) -> Result<(), String> {
        super::run(args, &mut io::sink()).map_err(|failure| failure.to_string())
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn list_and_bounds_work() {
        assert!(run(&argv(&["list"])).is_ok());
        assert!(run(&argv(&["bounds", "d695"])).is_ok());
    }

    #[test]
    fn schedule_requires_width() {
        assert!(run(&argv(&["schedule", "d695"])).is_err());
        assert!(run(&argv(&["schedule", "d695", "--width", "banana"])).is_err());
    }

    #[test]
    fn staircase_and_wrapper_resolve_cores() {
        assert!(run(&argv(&["staircase", "d695", "s5378"])).is_ok());
        assert!(run(&argv(&["staircase", "d695", "ghost"])).is_err());
        assert!(run(&argv(&["wrapper", "d695", "s5378", "--width", "4"])).is_ok());
        assert!(run(&argv(&["wrapper", "d695", "s5378"])).is_err());
    }

    #[test]
    fn load_soc_rejects_missing_files() {
        assert!(load_soc("no_such_file.soc").is_err());
        assert!(load_soc("d695").is_ok());
    }

    #[test]
    fn load_soc_autodetects_classic_format() {
        let dir = std::env::temp_dir();
        let classic = dir.join("soctam_cli_classic_test.soc");
        std::fs::write(
            &classic,
            "SocName t\nModule 1\nInputs 2\nOutputs 2\nPatterns 5\n",
        )
        .unwrap();
        let soc = load_soc(classic.to_str().unwrap()).unwrap();
        assert_eq!(soc.name(), "t");
        std::fs::remove_file(&classic).ok();

        let dialect = dir.join("soctam_cli_dialect_test.soc");
        std::fs::write(&dialect, "soc t2\ncore a inputs=1 outputs=1 patterns=1\n").unwrap();
        assert_eq!(load_soc(dialect.to_str().unwrap()).unwrap().name(), "t2");
        std::fs::remove_file(&dialect).ok();
    }

    #[test]
    fn flag_and_opt_value_parse() {
        let args = argv(&["--power", "--width", "16"]);
        assert!(flag(&args, "--power"));
        assert!(!flag(&args, "--gantt"));
        assert_eq!(opt_value(&args, "--width"), Ok(Some("16")));
        assert_eq!(opt_value(&args, "--absent"), Ok(None));
    }

    #[test]
    fn opt_value_rejects_flag_shaped_values() {
        // `--width --power` must not parse `--power` as the width.
        let args = argv(&["schedule", "d695", "--width", "--power"]);
        let err = opt_value(&args, "--width").unwrap_err();
        assert!(err.contains("--width"), "names the offending option: {err}");
        assert!(err.contains("--power"), "names the swallowed flag: {err}");
        assert!(run(&args).is_err());

        // A trailing option with no value at all is just as clear.
        let args = argv(&["--svg"]);
        let err = opt_value(&args, "--svg").unwrap_err();
        assert!(err.contains("expects a value"));

        // req_value distinguishes absent from malformed.
        let args = argv(&["--power"]);
        assert_eq!(req_value(&args, "--width").unwrap_err(), "missing --width");
    }

    fn parse_line(line: &str) -> Result<EngineRequest, String> {
        protocol::parse_request(line, &mut MemoResolver::new(load_soc))
    }

    #[test]
    fn batch_lines_parse() {
        let r = parse_line("schedule d695 --width 16 --power").unwrap();
        assert_eq!(r.soc.name(), "d695");
        assert!(matches!(r.op, EngineOp::Schedule { width: 16 }));
        assert_eq!(
            r.flow.power.resolve(&r.soc),
            Some(r.soc.max_core_power()),
            "--power selects the max-core-power ceiling"
        );

        let r = parse_line("sweep p34392 --from 16 --to 24").unwrap();
        let want: Vec<u16> = (16..=24).collect();
        assert!(matches!(r.op, EngineOp::Sweep { ref widths } if *widths == want));

        let r = parse_line("bounds p93791").unwrap();
        assert!(
            matches!(r.op, EngineOp::Bounds { ref widths } if widths == &[16, 32, 48, 64]),
            "bounds default to the SOC's Table 1 widths"
        );
        let r = parse_line("bounds d695 --widths 8,12,16").unwrap();
        assert!(matches!(r.op, EngineOp::Bounds { ref widths } if widths == &[8, 12, 16]));

        assert!(parse_line("frobnicate d695").is_err());
        assert!(parse_line("schedule d695").is_err());
        assert!(parse_line("schedule d695 --width --power").is_err());
        assert!(parse_line("sweep d695 --from 9 --to 3").is_err());
    }

    #[test]
    fn batch_command_rejects_unknown_argv() {
        // The subcommand's own argv gets the same typo protection as the
        // request lines (checked before the file is even read).
        assert!(run(&argv(&["batch", "reqs.txt", "--therads", "8"])).is_err());
        assert!(run(&argv(&["batch", "reqs.txt", "--ouput", "r.json"])).is_err());
        assert!(run(&argv(&["batch", "reqs.txt", "--threads", "--out"])).is_err());
    }

    #[test]
    fn batch_lines_reject_unknown_flags() {
        // A typoed mode flag must fail the parse, not silently run the
        // request in the wrong mode.
        let err = parse_line("schedule d695 --width 16 --no-premept").unwrap_err();
        assert!(err.contains("--no-premept"), "names the typo: {err}");
        // Options of a different request kind are just as unknown here.
        assert!(parse_line("schedule d695 --width 16 --widths 8").is_err());
        assert!(
            parse_line("bounds d695 16").is_err(),
            "stray positional token"
        );
    }

    #[test]
    fn batch_file_memoizes_soc_loads() {
        let mut socs = MemoResolver::new(load_soc);
        let a = protocol::parse_request("schedule d695 --width 16", &mut socs).unwrap();
        let b = protocol::parse_request("bounds d695", &mut socs).unwrap();
        assert!(Arc::ptr_eq(&a.soc, &b.soc), "one load, one shared Arc");
        assert_eq!(socs.len(), 1);
    }

    #[test]
    fn batch_file_parses_with_comments_and_line_numbers() {
        let text = "# mixed benchmark batch\n\nschedule d695 --width 16\nbounds p34392\n";
        let reqs = parse_batch_file(text).unwrap();
        assert_eq!(reqs.len(), 2);

        let err = parse_batch_file("schedule d695 --width 16\nschedule d695\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "error names the line: {err}");
        assert!(parse_batch_file("# only comments\n").is_err());
    }

    #[test]
    fn batch_end_to_end_writes_json() {
        let dir = std::env::temp_dir();
        let reqs = dir.join("soctam_cli_batch_requests.txt");
        let out = dir.join("soctam_cli_batch_out.json");
        std::fs::write(
            &reqs,
            "schedule d695 --width 16\nschedule d695 --width 16 --no-preempt\n\
             bounds p34392 --widths 16,24\n",
        )
        .unwrap();
        run(&argv(&[
            "batch",
            reqs.to_str().unwrap(),
            "--threads",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"requests\": 3"));
        assert!(json.contains("\"failed\": 0"));
        assert!(json.contains("\"op\": \"schedule\""));
        assert!(json.contains("\"op\": \"bounds\""));
        assert!(json.contains("\"registry\""));
        std::fs::remove_file(&reqs).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn client_round_trips_against_a_live_server() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        // One request from the argv tail; response goes to stdout.
        run(&argv(&[
            "client", "--addr", &addr, "bounds", "d695", "--widths", "16",
        ]))
        .unwrap();
        // HTTP surface via --get.
        run(&argv(&["client", "--addr", &addr, "--get", "/healthz"])).unwrap();
        assert!(
            run(&argv(&["client", "--addr", &addr, "--get", "/nope"])).is_err(),
            "non-200 surfaces as an error"
        );
        assert!(
            run(&argv(&["client", "bounds", "d695"])).is_err(),
            "--addr is mandatory"
        );
        assert!(
            run(&argv(&[
                "client", "--addr", &addr, "--get", "/healthz", "bounds", "d695",
            ]))
            .is_err(),
            "--get and a request are mutually exclusive"
        );
        server.shutdown();
    }

    #[test]
    fn serve_rejects_bad_argv() {
        assert!(run(&argv(&["serve", "--threads", "zero?"])).is_err());
        assert!(run(&argv(&["serve", "--idle-timeout", "-3"])).is_err());
        // Nothing expires, so `--ttl` is not an option. The invalid port
        // fails before any bind, so an argv that parsed would fail there.
        let err = run(&argv(&["serve", "--ttl", "5", "--addr", "127.0.0.1:99999"])).unwrap_err();
        assert!(err.contains("unknown argument `--ttl`"), "{err}");
        assert!(run(&argv(&["serve", "--cache-cap", "lots"])).is_err());
        assert!(run(&argv(&["serve", "--addres", "127.0.0.1:0"])).is_err());
        assert!(run(&argv(&["serve", "--max-pending", "0"])).is_err());
        assert!(run(&argv(&["serve", "--max-pending", "some"])).is_err());
        let err = run(&argv(&["serve", "--fault-inject", "solve:explode"])).unwrap_err();
        assert!(err.contains("solve:explode"), "names the bad spec: {err}");
    }

    #[test]
    fn client_rejects_bad_retry_argv() {
        assert!(run(&argv(&[
            "client",
            "--addr",
            "127.0.0.1:1",
            "--retries",
            "-1",
            "bounds",
            "d695",
        ]))
        .is_err());
        assert!(run(&argv(&[
            "client",
            "--addr",
            "127.0.0.1:1",
            "--backoff",
            "fast",
            "bounds",
            "d695",
        ]))
        .is_err());
    }

    #[test]
    fn client_retries_through_to_a_late_answer() {
        // --retries covers connect refusals too: nothing listens on the
        // reserved port, so without the retry budget this would fail, and
        // with retries but no listener it still fails after the budget.
        let err = run(&argv(&[
            "client",
            "--addr",
            "127.0.0.1:9", // discard port: nothing listens
            "--retries",
            "1",
            "--backoff",
            "0",
            "bounds",
            "d695",
        ]))
        .unwrap_err();
        assert!(err.contains("bounds d695"), "names the request: {err}");

        // Against a live server the retrying path answers like the plain
        // one.
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        run(&argv(&[
            "client",
            "--addr",
            &addr,
            "--retries",
            "2",
            "--backoff",
            "0.01",
            "bounds",
            "d695",
            "--widths",
            "16",
        ]))
        .unwrap();
        server.shutdown();
    }

    #[test]
    fn batch_results_match_sequential_flows() {
        // The acceptance pin: a mixed-SOC batch served concurrently is
        // bit-identical to per-SOC sequential runs.
        let lines = [
            "schedule d695 --width 16",
            "schedule p34392 --width 24 --no-preempt",
            "bounds p93791 --widths 16,32",
        ];
        let requests = parse_batch_file(&lines.join("\n")).unwrap();
        let results = Engine::new().with_threads(3).serve(&requests);
        for (req, result) in requests.iter().zip(&results) {
            let flow = TestFlow::new(&req.soc, req.flow.clone());
            match (&req.op, result.as_ref().unwrap()) {
                (EngineOp::Schedule { width }, EngineOutput::Schedule(run)) => {
                    let want = flow.run(*width).unwrap();
                    assert_eq!(run.schedule, want.schedule, "{}", req.soc.name());
                    assert_eq!(run.params, want.params);
                    assert_eq!(run.volume, want.volume);
                }
                (EngineOp::Bounds { widths }, EngineOutput::Bounds(bounds)) => {
                    assert_eq!(*bounds, flow.context().lower_bounds(widths));
                }
                _ => panic!("unexpected op/result pairing"),
            }
        }
    }
}
