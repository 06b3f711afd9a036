//! The request/response protocol shared by the CLI, `soctam batch`, and
//! the wire.
//!
//! One grammar, one parser, one response renderer: a *request* is a single
//! line of text, whether it comes from a `soctam batch` request file, over
//! a `soctam-server` TCP connection, or as the argv of `soctam schedule`,
//! `sweep`, or `bounds` ([`parse_words`]), and a *response* is a single
//! JSON object, whether it is embedded in the batch report or written back
//! as one line on the wire. Factoring both here means the command line,
//! the batch file format, and the network protocol can never drift apart.
//!
//! The option reader — [`check_known_args`], [`flag`], [`opt_value`],
//! [`req_value`], and [`opt_num`] — is the one every `soctam` command and
//! every bench bin reads its argv with.
//!
//! # Request grammar
//!
//! ```text
//! schedule <soc> --width W   [--power] [--no-preempt] [--trace]
//! sweep    <soc> [--from A] [--to B]   [--power] [--no-preempt] [--trace]
//! bounds   <soc> [--widths a,b,c]      [--power] [--no-preempt] [--trace]
//! ```
//!
//! `--trace` (or the spelling `trace=1`) asks the serving daemon to embed
//! the request's phase trace — per-phase microseconds, the span tree, the
//! cache disposition, and solver-counter deltas — in the JSON response.
//! It never affects the computed result, and it is *excluded* from
//! [`route_key`]/the solution-cache identity, so a traced request and its
//! untraced twin share one cache entry and one balancer shard.
//!
//! `<soc>` is resolved by a caller-supplied [`SocResolver`] — the CLI
//! resolves benchmark names *and* `.soc` file paths, the serving daemon
//! (which must not read arbitrary paths on behalf of remote peers)
//! resolves benchmark names only ([`benchmark_resolver`]). Blank lines and
//! `#` comments are skipped. Unknown request kinds, unknown flags, and
//! malformed values are parse errors whose messages name the offending
//! field, as are requests naming more than [`MAX_WIDTHS_PER_REQUEST`]
//! widths (each width costs a solve; the cap keeps one wire request from
//! pinning a daemon worker indefinitely).
//!
//! # Response shape
//!
//! [`render_result`] produces one JSON object per request:
//!
//! ```text
//! {"op": "schedule", "soc": "d695", "width": 16, "ok": true, "makespan": ..., ...}
//! {"op": "bounds", "soc": "p34392", "widths": [16, 24], "ok": true, "bounds": [...]}
//! {"op": "sweep", "soc": "d695", "from": 16, "to": 24, "ok": false, "error": "..."}
//! ```

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

use soctam_soc::{benchmarks, Soc};

use crate::engine::{EngineOp, EngineOutput, EngineRequest, EngineResult};
use crate::flow::{FlowConfig, ParamSweep, PowerPolicy};

/// The most widths one `sweep`/`bounds` request may name. Every width
/// costs a full solve, and the grammar is served to network peers by
/// `soctam-server`: without a cap, one request line
/// (`sweep p93791 --from 1 --to 65535`) could pin a daemon worker for
/// hours. The limit is far above any legitimate sweep (the paper's widest
/// figure spans `W = 16..=80`); callers wanting more issue more requests.
pub const MAX_WIDTHS_PER_REQUEST: usize = 1024;

/// Maps the `<soc>` token of a request onto a shared SOC model.
///
/// Implementations decide what tokens are acceptable (benchmark names,
/// file paths, registry handles) and are expected to memoize, so a
/// thousand requests naming one SOC share one `Arc<Soc>`. Any
/// `FnMut(&str) -> Result<Arc<Soc>, String>` is a resolver.
pub trait SocResolver {
    /// Resolves `name`, or explains why it is not servable.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unresolvable token.
    fn resolve(&mut self, name: &str) -> Result<Arc<Soc>, String>;
}

impl<F: FnMut(&str) -> Result<Arc<Soc>, String>> SocResolver for F {
    fn resolve(&mut self, name: &str) -> Result<Arc<Soc>, String> {
        self(name)
    }
}

/// A memoizing [`SocResolver`] over a plain loader function: each distinct
/// name is loaded once and shared by every later request. The CLI resolves
/// benchmark names and `.soc` file paths through one.
pub struct MemoResolver<F> {
    load: F,
    cache: HashMap<String, Arc<Soc>>,
}

impl<F: FnMut(&str) -> Result<Soc, String>> MemoResolver<F> {
    /// Wraps `load` with a per-name memo table.
    pub fn new(load: F) -> Self {
        Self {
            load,
            cache: HashMap::new(),
        }
    }

    /// Number of distinct SOCs resolved so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether no SOC has been resolved yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

impl<F: FnMut(&str) -> Result<Soc, String>> SocResolver for MemoResolver<F> {
    fn resolve(&mut self, name: &str) -> Result<Arc<Soc>, String> {
        if let Some(soc) = self.cache.get(name) {
            return Ok(Arc::clone(soc));
        }
        let soc = Arc::new((self.load)(name)?);
        self.cache.insert(name.to_owned(), Arc::clone(&soc));
        Ok(soc)
    }
}

/// The resolver a network-facing daemon uses: every benchmark model,
/// resolved once into an immutable map. It serves benchmark names only,
/// never the filesystem: remote peers must not be able to make a daemon
/// read paths. A lookup takes no lock, so nothing for a panic to poison.
#[derive(Debug, Clone)]
pub struct BenchmarkCatalog {
    socs: HashMap<&'static str, Arc<Soc>>,
}

impl BenchmarkCatalog {
    /// Looks up a benchmark model by name.
    ///
    /// # Errors
    ///
    /// A message naming the token and listing the servable benchmarks.
    pub fn get(&self, name: &str) -> Result<Arc<Soc>, String> {
        self.socs.get(name).cloned().ok_or_else(|| {
            format!(
                "unknown SOC `{name}` (the server resolves benchmark names only: {})",
                benchmarks::NAMES.join(", ")
            )
        })
    }
}

impl SocResolver for BenchmarkCatalog {
    fn resolve(&mut self, name: &str) -> Result<Arc<Soc>, String> {
        self.get(name)
    }
}

/// The [`BenchmarkCatalog`]: the daemon's and the balancer's resolver.
pub fn benchmark_resolver() -> BenchmarkCatalog {
    BenchmarkCatalog {
        socs: benchmarks::NAMES
            .iter()
            .filter_map(|name| benchmarks::by_name(name).map(|soc| (*name, Arc::new(soc))))
            .collect(),
    }
}

/// Whether the bare flag `name` appears in `args`.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Looks up the value of a `--flag value` option. Present-but-valueless
/// options are an error — including the easy-to-make mistake of following
/// one flag directly with another (`--width --power`), which would
/// otherwise be swallowed as the value and produce a baffling parse
/// failure downstream. A repeated option is an error too: silently
/// honouring the first `--width` of `--width 16 --width 32` would run a
/// different request than the caller wrote and still report it `ok`.
///
/// # Errors
///
/// A message naming the offending option (and the swallowed flag, if any).
pub fn opt_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let mut found = args.iter().enumerate().filter(|(_, a)| *a == name);
    let Some((i, _)) = found.next() else {
        return Ok(None);
    };
    if found.next().is_some() {
        return Err(format!("option `{name}` given more than once"));
    }
    match args.get(i + 1).map(String::as_str) {
        None => Err(format!("option `{name}` expects a value")),
        Some(v) if v.starts_with("--") => Err(format!(
            "option `{name}` expects a value, but found the flag `{v}`"
        )),
        Some(v) => Ok(Some(v)),
    }
}

/// [`opt_value`] for mandatory options.
///
/// # Errors
///
/// As [`opt_value`], plus `missing <name>` when the option is absent.
pub fn req_value<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    opt_value(args, name)?.ok_or_else(|| format!("missing {name}"))
}

/// Parses the numeric value of option `name` (already extracted as `v`),
/// naming both the field and the rejected token on failure.
fn num<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("option `{name}`: invalid value `{v}`"))
}

/// [`opt_value`] parsed as a `T`: the one numeric option reader of the
/// request grammar, the CLI, and the bench bins.
///
/// # Errors
///
/// As [`opt_value`], plus a message naming the option and the rejected
/// value when it does not parse as a `T`.
pub fn opt_num<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    opt_value(args, name)?.map(|v| num(name, v)).transpose()
}

/// Rejects any token the request kind does not understand: a misspelled
/// mode flag (`--no-premept`) must fail the parse, not silently run the
/// request in the wrong mode and report it `ok`.
///
/// # Errors
///
/// A message naming the unknown token.
pub fn check_known_args(
    args: &[String],
    value_options: &[&str],
    flags: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let tok = args[i].as_str();
        if value_options.contains(&tok) {
            i += 2; // the option plus its value (presence checked elsewhere)
        } else if flags.contains(&tok) {
            i += 1;
        } else {
            return Err(format!("unknown argument `{tok}`"));
        }
    }
    Ok(())
}

/// The flow configuration every protocol request uses (the quick
/// parameter sweep), specialized by the request's mode flags.
pub fn request_flow(power: bool, no_preempt: bool) -> FlowConfig {
    let mut cfg = FlowConfig {
        sweep: ParamSweep::quick(),
        ..FlowConfig::new()
    };
    if power {
        cfg = cfg.with_power(PowerPolicy::MaxCorePower);
    }
    if no_preempt {
        cfg = cfg.without_preemption();
    }
    cfg
}

/// Parses one request line (see the [module docs](self) for the grammar),
/// resolving the SOC token through `resolver`.
///
/// # Errors
///
/// As [`parse_words`].
pub fn parse_request(line: &str, resolver: &mut impl SocResolver) -> Result<EngineRequest, String> {
    let words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    parse_words(&words, resolver)
}

/// Parses one request already split into words — the request kind first —
/// resolving the SOC token through `resolver`. The CLI passes its argv
/// here unsplit, so a `.soc` path containing a space still resolves.
///
/// # Errors
///
/// A message naming the offending field: the unknown request kind, the
/// unresolvable SOC, the unknown flag, or the malformed option value.
pub fn parse_words(
    words: &[String],
    resolver: &mut impl SocResolver,
) -> Result<EngineRequest, String> {
    let (kind, rest) = words.split_first().ok_or("empty request")?;
    // Validate the request kind before touching the resolver: a garbage
    // line like `frobnicate d695` must not load d695 into the resolver's
    // memo as a side effect of failing to parse.
    let value_options: &[&str] = match kind.as_str() {
        "schedule" => &["--width"],
        "sweep" => &["--from", "--to"],
        "bounds" => &["--widths"],
        other => return Err(format!("unknown request kind `{other}`")),
    };
    let soc_name = rest.first().ok_or("missing SOC name")?;
    if soc_name.starts_with("--") {
        // `schedule --width 16` forgot the SOC; resolving `--width` would
        // report a baffling "unknown SOC `--width`".
        return Err(format!("missing SOC name (found the flag `{soc_name}`)"));
    }
    let soc = resolver.resolve(soc_name)?;
    let args = &rest[1..];
    check_known_args(
        args,
        value_options,
        &["--power", "--no-preempt", "--trace", "trace=1"],
    )?;
    let flow = request_flow(flag(args, "--power"), flag(args, "--no-preempt"));
    let trace = flag(args, "--trace") || flag(args, "trace=1");
    let op = match kind.as_str() {
        "schedule" => EngineOp::Schedule {
            width: opt_num(args, "--width")?.ok_or("missing --width")?,
        },
        "sweep" => {
            let from: u16 = opt_num(args, "--from")?.unwrap_or(16);
            let to: u16 = opt_num(args, "--to")?.unwrap_or(64);
            if from == 0 || from > to {
                return Err("need 0 < --from <= --to".to_owned());
            }
            let span = usize::from(to - from) + 1;
            if span > MAX_WIDTHS_PER_REQUEST {
                return Err(format!(
                    "option `--to`: sweep spans {span} widths \
                     (one request is limited to {MAX_WIDTHS_PER_REQUEST})"
                ));
            }
            EngineOp::Sweep {
                widths: (from..=to).collect(),
            }
        }
        "bounds" => {
            let widths = match opt_value(args, "--widths")? {
                Some(list) => {
                    if list.split(',').count() > MAX_WIDTHS_PER_REQUEST {
                        return Err(format!(
                            "option `--widths`: lists {} widths \
                             (one request is limited to {MAX_WIDTHS_PER_REQUEST})",
                            list.split(',').count()
                        ));
                    }
                    list.split(',')
                        .map(|w| num::<u16>("--widths", w.trim()))
                        .collect::<Result<Vec<_>, _>>()?
                }
                None => benchmarks::table1_widths(soc.name()).to_vec(),
            };
            EngineOp::Bounds { widths }
        }
        _ => unreachable!("kind validated above"),
    };
    Ok(EngineRequest {
        soc,
        flow,
        op,
        trace,
    })
}

/// Parses a whole request file: one request per line, blank lines and
/// `#` comments skipped.
///
/// # Errors
///
/// The first line's parse error, prefixed with its 1-based line number;
/// or an error if the file contains no requests at all.
pub fn parse_request_file(
    text: &str,
    resolver: &mut impl SocResolver,
) -> Result<Vec<EngineRequest>, String> {
    let mut requests = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        requests.push(parse_request(line, resolver).map_err(|e| format!("line {}: {e}", no + 1))?);
    }
    if requests.is_empty() {
        return Err("request file contains no requests".to_owned());
    }
    Ok(requests)
}

/// Escapes a string for embedding in a JSON document (the workspace is
/// vendored-only, so responses are rendered by hand, not by serde).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`json_escape`]: decodes the escape sequences that renderer
/// (and the daemon's request log) can produce. Unknown escapes are kept
/// verbatim rather than rejected — the input is our own output, so this is
/// defense in depth, not a general JSON parser.
pub fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                match u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    Some(decoded) => out.push(decoded),
                    None => {
                        out.push_str("\\u");
                        out.push_str(&hex);
                    }
                }
            }
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Extracts the (unescaped) value of a `"field": "..."` string member from
/// one flat JSON object line — enough to read back the JSONL request log
/// the daemon writes, without a JSON parser in the vendored-only workspace.
pub fn json_string_field(line: &str, field: &str) -> Option<String> {
    let marker = format!("\"{field}\": \"");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    // Find the closing quote, skipping escaped ones.
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        match c {
            '\\' if !escaped => escaped = true,
            '"' if !escaped => return Some(json_unescape(&rest[..i])),
            _ => escaped = false,
        }
    }
    None
}

/// Extracts the value of a *top-level* `"field": true|false` boolean
/// member from one JSON object line — the classification primitive for
/// response handling (`"ok"`, `"busy"`, `"transient"`). Unlike a raw
/// substring match, this cannot be fooled by request text echoed inside a
/// string value (a parse error quoting `"busy": true` back at the
/// client), nor by a member of a nested object: string contents are
/// skipped escape-aware and only depth-1 members are consulted. Returns
/// `None` when the field is absent (or not a boolean).
#[must_use]
pub fn json_bool_field(line: &str, field: &str) -> Option<bool> {
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            b'"' => {
                // Scan the whole string, tracking escapes, so nothing
                // inside it — braces, quotes, `"busy": true` — counts.
                let start = i + 1;
                let mut j = start;
                let mut escaped = false;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' if !escaped => escaped = true,
                        b'"' if !escaped => break,
                        _ => escaped = false,
                    }
                    j += 1;
                }
                let content = &line[start..j.min(bytes.len())];
                // Past the closing quote (or end of line). A *key* is
                // followed by `:`; a string *value* is not.
                i = j + 1;
                let mut k = i;
                while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if depth == 1 && content == field && bytes.get(k) == Some(&b':') {
                    let mut v = k + 1;
                    while v < bytes.len() && bytes[v].is_ascii_whitespace() {
                        v += 1;
                    }
                    let rest = &line[v.min(bytes.len())..];
                    if rest.starts_with("true") {
                        return Some(true);
                    }
                    if rest.starts_with("false") {
                        return Some(false);
                    }
                    return None; // present, but not a boolean
                }
            }
            _ => i += 1,
        }
    }
    None
}

/// The cluster-routing key of a parsed request: a stable digest of its
/// solution-cache identity (see
/// [`engine::solution_cache_digest`](crate::engine::solution_cache_digest)).
/// Requests the backend's `SolutionCache` would treat as one entry route
/// to one shard, so a consistent-hash front (`soctam balance`) keeps each
/// backend's cache hot and the shards' key sets disjoint.
#[must_use]
pub fn route_key(request: &EngineRequest) -> u64 {
    crate::engine::solution_cache_digest(request)
}

/// Extracts replayable request lines from `text`, which may be a plain
/// request file (one request per line, blank lines and `#` comments
/// skipped) *or* a JSONL request log written by the serving daemon (lines
/// starting with `{`; the `request` field is replayed, entries without one
/// — e.g. oversized-line records — are skipped). The two may be mixed
/// freely; `soctam client --file` and `soctam serve --warm` both accept
/// either.
pub fn replay_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                None
            } else if line.starts_with('{') {
                json_string_field(line, "request")
            } else {
                Some(line.to_owned())
            }
        })
        .collect()
}

/// Renders one request's outcome as a single JSON object — the element
/// shape of the `soctam batch` report and, followed by a newline, the wire
/// response line.
pub fn render_result(req: &EngineRequest, result: &EngineResult) -> String {
    let mut out = String::new();
    let (kind, detail) = match &req.op {
        EngineOp::Schedule { width } => ("schedule", format!("\"width\": {width}")),
        EngineOp::Sweep { widths } => (
            "sweep",
            format!(
                "\"from\": {}, \"to\": {}",
                widths.first().copied().unwrap_or(0),
                widths.last().copied().unwrap_or(0)
            ),
        ),
        EngineOp::Bounds { widths } => (
            "bounds",
            format!(
                "\"widths\": [{}]",
                widths
                    .iter()
                    .map(u16::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    };
    out.push_str(&format!(
        "{{\"op\": \"{kind}\", \"soc\": \"{}\", {detail}, ",
        req.soc.name().replace(['"', '\\'], "_")
    ));
    match result {
        Err(e) => {
            // A transient failure (a recovered solver panic or injected
            // fault) is marked so retrying clients know the request
            // itself is fine and a retry is worthwhile; genuine request
            // errors (infeasible config, bad widths) carry no flag and
            // are never retried.
            let transient = if e.is_transient() {
                "\"transient\": true, "
            } else {
                ""
            };
            out.push_str(&format!(
                "\"ok\": false, {transient}\"error\": \"{}\"}}",
                json_escape(&e.to_string())
            ));
        }
        Ok(EngineOutput::Schedule(run)) => out.push_str(&format!(
            "\"ok\": true, \"makespan\": {}, \"lower_bound\": {}, \"volume\": {}, \
             \"m\": {}, \"d\": {}, \"slack\": {}}}",
            run.schedule.makespan(),
            run.lower_bound,
            run.volume,
            run.params.0,
            run.params.1,
            run.params.2
        )),
        Ok(EngineOutput::Sweep(points)) => {
            out.push_str("\"ok\": true, \"points\": [");
            for (i, p) in points.iter().enumerate() {
                let sep = if i + 1 == points.len() { "" } else { ", " };
                out.push_str(&format!(
                    "{{\"width\": {}, \"time\": {}, \"volume\": {}, \"lower_bound\": {}}}{sep}",
                    p.width, p.time, p.volume, p.lower_bound
                ));
            }
            out.push_str("]}");
        }
        Ok(EngineOutput::Bounds(bounds)) => out.push_str(&format!(
            "\"ok\": true, \"bounds\": [{}]}}",
            bounds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
    out
}

/// Renders a line-level failure (a request that never parsed) as a wire
/// response object.
pub fn render_parse_error(error: &str) -> String {
    format!("{{\"ok\": false, \"error\": \"{}\"}}", json_escape(error))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_resolver_memoizes_and_names_unknowns() {
        let mut r = benchmark_resolver();
        let a = r.resolve("d695").unwrap();
        let b = r.resolve("d695").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one load, one shared Arc");
        let err = r.resolve("../../etc/passwd").unwrap_err();
        assert!(err.contains("../../etc/passwd"), "names the token: {err}");
        assert!(err.contains("d695"), "lists what is servable: {err}");
    }

    #[test]
    fn closures_are_resolvers() {
        let mut calls = 0;
        let mut resolver = |name: &str| {
            calls += 1;
            benchmarks::by_name(name)
                .map(Arc::new)
                .ok_or_else(|| format!("no `{name}`"))
        };
        let req = parse_request("bounds d695", &mut resolver).unwrap();
        assert_eq!(req.soc.name(), "d695");
        assert_eq!(calls, 1);
    }

    #[test]
    fn parse_errors_name_the_offending_field() {
        let mut r = benchmark_resolver();
        let err = parse_request("schedule d695 --width banana", &mut r).unwrap_err();
        assert!(err.contains("--width"), "names the field: {err}");
        assert!(err.contains("banana"), "names the rejected value: {err}");

        let err = parse_request("sweep d695 --from x", &mut r).unwrap_err();
        assert!(err.contains("--from") && err.contains('x'), "{err}");

        let err = parse_request("bounds d695 --widths 8,oops", &mut r).unwrap_err();
        assert!(err.contains("--widths") && err.contains("oops"), "{err}");

        let err = parse_request("frobnicate d695", &mut r).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");

        let err = parse_request("schedule d695 --width 16 --no-premept", &mut r).unwrap_err();
        assert!(err.contains("--no-premept"), "{err}");
    }

    #[test]
    fn oversized_requests_are_rejected_with_the_field_named() {
        let mut r = benchmark_resolver();
        let err = parse_request("sweep d695 --from 1 --to 65535", &mut r).unwrap_err();
        assert!(err.contains("--to") && err.contains("65535"), "{err}");
        let huge = format!("bounds d695 --widths {}", vec!["8"; 2000].join(","));
        let err = parse_request(&huge, &mut r).unwrap_err();
        assert!(err.contains("--widths") && err.contains("2000"), "{err}");
        // The cap itself is fine.
        assert!(parse_request("sweep d695 --from 1 --to 1024", &mut r).is_ok());
    }

    /// A resolver that counts its calls, so a test can assert it was
    /// never consulted.
    fn counting(calls: &mut usize) -> impl SocResolver + '_ {
        |name: &str| {
            *calls += 1;
            benchmark_resolver().get(name)
        }
    }

    #[test]
    fn unknown_kind_is_rejected_before_the_soc_resolves() {
        let mut calls = 0;
        let err = parse_request("frobnicate d695", &mut counting(&mut calls)).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        assert_eq!(calls, 0, "a garbage line must not resolve SOCs");
    }

    #[test]
    fn flag_shaped_soc_token_reports_a_missing_soc_name() {
        let mut calls = 0;
        let mut r = counting(&mut calls);
        let err = parse_request("schedule --width 16", &mut r).unwrap_err();
        assert!(err.contains("missing SOC name"), "{err}");
        assert!(err.contains("--width"), "names the found flag: {err}");
        // A kind alone still reports the missing name.
        let err = parse_request("bounds", &mut r).unwrap_err();
        assert!(err.contains("missing SOC name"), "{err}");
        drop(r);
        assert_eq!(calls, 0, "no resolver call for a flag-shaped token");
    }

    #[test]
    fn duplicate_value_options_are_parse_errors_naming_the_option() {
        let mut r = benchmark_resolver();
        let err = parse_request("schedule d695 --width 16 --width 32", &mut r).unwrap_err();
        assert!(err.contains("--width"), "{err}");
        assert!(err.contains("more than once"), "{err}");

        let err = parse_request("sweep d695 --from 8 --from 12 --to 16", &mut r).unwrap_err();
        assert!(
            err.contains("--from") && err.contains("more than once"),
            "{err}"
        );
        let err = parse_request("sweep d695 --from 8 --to 12 --to 16", &mut r).unwrap_err();
        assert!(
            err.contains("--to") && err.contains("more than once"),
            "{err}"
        );

        let err = parse_request("bounds d695 --widths 8 --widths 16", &mut r).unwrap_err();
        assert!(
            err.contains("--widths") && err.contains("more than once"),
            "{err}"
        );
    }

    #[test]
    fn opt_num_parses_and_names_rejected_values() {
        let args: Vec<String> = ["--width", "16", "--max-line", "0", "--from", "x"]
            .map(str::to_owned)
            .to_vec();
        assert_eq!(opt_num::<u16>(&args, "--width"), Ok(Some(16)));
        assert_eq!(opt_num::<u16>(&args, "--absent"), Ok(None));
        assert_eq!(
            opt_num::<std::num::NonZeroUsize>(&args, "--max-line"),
            Err("option `--max-line`: invalid value `0`".to_owned())
        );
        assert_eq!(
            opt_num::<u16>(&args, "--from"),
            Err("option `--from`: invalid value `x`".to_owned())
        );
        let valueless = ["--width".to_owned()];
        assert!(opt_num::<u16>(&valueless, "--width")
            .unwrap_err()
            .contains("expects a value"));
    }

    #[test]
    fn json_unescape_round_trips() {
        for s in [
            "plain",
            "quotes \"inside\" and \\ backslash",
            "line\nbreak\ttab\rcr",
            "control \u{1} char",
            "unicode \u{0441}",
        ] {
            assert_eq!(json_unescape(&json_escape(s)), s, "{s:?}");
        }
        // Unknown escapes and truncated input survive verbatim.
        assert_eq!(json_unescape("a\\qb"), "a\\qb");
        assert_eq!(json_unescape("trailing\\"), "trailing\\");
    }

    #[test]
    fn json_string_field_reads_log_lines() {
        let line = "{\"ts_micros\": 1, \"peer\": \"127.0.0.1:9\", \
                    \"request\": \"schedule d695 --width 16\", \"outcome\": \"ok\"}";
        assert_eq!(
            json_string_field(line, "request").as_deref(),
            Some("schedule d695 --width 16")
        );
        assert_eq!(json_string_field(line, "outcome").as_deref(), Some("ok"));
        assert_eq!(json_string_field(line, "absent"), None);
        // Escaped quotes inside the value are handled.
        let line = "{\"request\": \"bounds \\\"x\\\" --widths 8\"}";
        assert_eq!(
            json_string_field(line, "request").as_deref(),
            Some("bounds \"x\" --widths 8")
        );
    }

    #[test]
    fn json_bool_field_reads_top_level_booleans_only() {
        let ok = "{\"op\": \"schedule\", \"soc\": \"d695\", \"ok\": true, \"makespan\": 41}";
        assert_eq!(json_bool_field(ok, "ok"), Some(true));
        assert_eq!(json_bool_field(ok, "busy"), None);
        let shed = "{\"ok\": false, \"busy\": true, \"transient\": true, \"error\": \"x\"}";
        assert_eq!(json_bool_field(shed, "ok"), Some(false));
        assert_eq!(json_bool_field(shed, "busy"), Some(true));
        assert_eq!(json_bool_field(shed, "transient"), Some(true));
        // Whitespace around the colon and value is tolerated.
        assert_eq!(json_bool_field("{ \"ok\" :  true }", "ok"), Some(true));
        // Present but not a boolean: absent, not a guess.
        assert_eq!(json_bool_field("{\"ok\": 1}", "ok"), None);
        assert_eq!(json_bool_field("{\"ok\": \"true\"}", "ok"), None);
    }

    #[test]
    fn json_bool_field_is_not_fooled_by_echoed_request_text() {
        // The exact bug class: a parse error echoing hostile request text
        // into its `error` string. Substring matching sees `"busy": true`
        // and `"ok": true`; field classification must not.
        let echo = render_parse_error("unknown request kind `{\"busy\": true, \"ok\": true}`");
        assert_eq!(json_bool_field(&echo, "ok"), Some(false));
        assert_eq!(json_bool_field(&echo, "busy"), None);
        assert_eq!(json_bool_field(&echo, "transient"), None);
        // Nested objects don't leak members to the top level either.
        let nested = "{\"ok\": false, \"detail\": {\"busy\": true}}";
        assert_eq!(json_bool_field(nested, "busy"), None);
        // A string *value* that equals the field name is not a key.
        let value = "{\"error\": \"busy\", \"busy\": false}";
        assert_eq!(json_bool_field(value, "busy"), Some(false));
    }

    #[test]
    fn route_key_is_the_solution_cache_identity() {
        let mut r = benchmark_resolver();
        let a = parse_request("bounds d695 --widths 16", &mut r).unwrap();
        let b = parse_request("bounds d695 --widths 16", &mut r).unwrap();
        assert_eq!(route_key(&a), route_key(&b), "same cache key, same shard");
        let widths = parse_request("bounds d695 --widths 24", &mut r).unwrap();
        assert_ne!(route_key(&a), route_key(&widths));
        let op = parse_request("schedule d695 --width 16", &mut r).unwrap();
        assert_ne!(route_key(&a), route_key(&op));
        let power = parse_request("bounds d695 --widths 16 --power", &mut r).unwrap();
        assert_ne!(route_key(&a), route_key(&power));
        let soc = parse_request("bounds p34392 --widths 16", &mut r).unwrap();
        assert_ne!(route_key(&a), route_key(&soc));
    }

    #[test]
    fn trace_is_parsed_but_never_part_of_the_route_key() {
        let mut r = benchmark_resolver();
        let plain = parse_request("schedule d695 --width 16", &mut r).unwrap();
        assert!(!plain.trace);
        let dashed = parse_request("schedule d695 --width 16 --trace", &mut r).unwrap();
        assert!(dashed.trace);
        let keyed = parse_request("schedule d695 --width 16 trace=1", &mut r).unwrap();
        assert!(keyed.trace);
        // Presentation-only: a traced request and its untraced twin land on
        // the same cache entry and the same balancer shard.
        assert_eq!(route_key(&plain), route_key(&dashed));
        assert_eq!(route_key(&plain), route_key(&keyed));
    }

    #[test]
    fn replay_lines_accepts_request_files_and_logs() {
        let text = "# a mixed replay input\n\
                    schedule d695 --width 16\n\
                    \n\
                    {\"ts_micros\": 5, \"request\": \"bounds d695\", \"outcome\": \"ok\"}\n\
                    {\"ts_micros\": 6, \"outcome\": \"oversized\"}\n\
                    sweep d695 --from 15 --to 17\n";
        assert_eq!(
            replay_lines(text),
            [
                "schedule d695 --width 16",
                "bounds d695",
                "sweep d695 --from 15 --to 17"
            ]
        );
    }

    #[test]
    fn render_parse_error_escapes() {
        let line = render_parse_error("bad \"token\"");
        assert_eq!(line, "{\"ok\": false, \"error\": \"bad \\\"token\\\"\"}");
    }

    #[test]
    fn transient_errors_are_flagged_and_genuine_errors_are_not() {
        let req = parse_request("bounds d695 --widths 16", &mut benchmark_resolver()).unwrap();
        let recovered = render_result(
            &req,
            &Err(soctam_schedule::ScheduleError::SolverPanic {
                message: "index out of bounds".to_owned(),
            }),
        );
        assert!(recovered.contains("\"ok\": false"));
        assert!(recovered.contains("\"transient\": true"));
        let genuine = render_result(
            &req,
            &Err(soctam_schedule::ScheduleError::InvalidConfig {
                reason: "zero width".to_owned(),
            }),
        );
        assert!(genuine.contains("\"ok\": false"));
        assert!(!genuine.contains("transient"));
    }

    #[test]
    fn file_and_line_parsers_agree() {
        let text = "# comment\n\nschedule d695 --width 16\nbounds p34392 --widths 16,24\n";
        let reqs = parse_request_file(text, &mut benchmark_resolver()).unwrap();
        assert_eq!(reqs.len(), 2);
        let solo = parse_request("schedule d695 --width 16", &mut benchmark_resolver()).unwrap();
        assert_eq!(reqs[0].op, solo.op);
        assert_eq!(reqs[0].soc, solo.soc);
    }
}
