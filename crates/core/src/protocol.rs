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
//! cache disposition, and its exact work counts — in the JSON response.
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
//!
//! Every string member, the SOC name included, is escaped with
//! [`json_escape`]. [`Json::parse`] is the one reader of this output (and
//! of the daemon's request and slow logs): a strict RFC 8259 parser that
//! the client's response classifiers, [`replay_lines`], and the test and
//! bench suites all read fields through.

use std::borrow::Cow;
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
///
/// Each model's content hash is memoized as the catalog is built, so a
/// fresh daemon's first request keys its caches without hashing the SOC.
pub fn benchmark_resolver() -> BenchmarkCatalog {
    BenchmarkCatalog {
        socs: benchmarks::NAMES
            .iter()
            .filter_map(|name| {
                let soc = benchmarks::by_name(name)?;
                soc.content_hash();
                Some((*name, Arc::new(soc)))
            })
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

/// The deepest nesting [`Json::parse`] accepts. soctam's own output nests
/// a dozen levels at most (a traced response's span tree); the cap keeps a
/// hostile peer or a corrupt log line from exhausting the stack.
pub const MAX_JSON_DEPTH: usize = 128;

/// One JSON value, as [`Json::parse`] reads it: the workspace's one JSON
/// reader, for every line soctam emits — responses, `--trace` members,
/// request-log and slow-log records, bench documents. Strings and keys
/// borrow from the parsed text unless they hold an escape, so reading a
/// response allocates little beyond its arrays and objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number written without a fraction or an exponent, read back
    /// exactly: every `u64` and `i64` fits.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string, escapes decoded.
    Str(Cow<'a, str>),
    /// An array.
    Array(Vec<Json<'a>>),
    /// An object's members in document order. Keys are unique: the parser
    /// rejects a duplicate.
    Object(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Why a text is not exactly one strict JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which the text stopped being valid.
    pub offset: usize,
    /// What was wrong there.
    pub reason: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl<'a> Json<'a> {
    /// Parses `text` as exactly one JSON value (RFC 8259), surrounding
    /// whitespace allowed. Strict: nothing may follow the value, strings
    /// may hold no raw control characters and only the standard escapes
    /// (surrogates only in valid pairs), numbers have no leading zeros,
    /// object keys are unique, and nesting stops at [`MAX_JSON_DEPTH`].
    ///
    /// # Errors
    ///
    /// The first offending byte offset and what was wrong there.
    pub fn parse(text: &'a str) -> Result<Self, JsonError> {
        let mut parser = JsonParser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos < text.len() {
            return Err(parser.error("text after the value"));
        }
        Ok(value)
    }

    /// The member `key` of an object; `None` for an absent key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer, if this is one in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(Cow<'a, str>, Json<'a>)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// `json["key"]` is [`Json::get`], with [`Json::Null`] standing in for an
/// absent member, so nested reads chain: `response["trace"]["phases"]`.
impl<'a> std::ops::Index<&str> for Json<'a> {
    type Output = Json<'a>;

    fn index(&self, key: &str) -> &Json<'a> {
        static NULL: Json<'static> = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// The recursive-descent reader behind [`Json::parse`].
struct JsonParser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn error(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_whitespace();
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        self.skip_whitespace();
        let literal = |word: &str| self.text[self.pos..].starts_with(word);
        let (json, len) = match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_JSON_DEPTH => {
                return Err(self.error("nesting too deep"))
            }
            Some(b'{') => return self.object(depth + 1),
            Some(b'[') => return self.array(depth + 1),
            Some(b'"') => return self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            _ if literal("true") => (Json::Bool(true), 4),
            _ if literal("false") => (Json::Bool(false), 5),
            _ if literal("null") => (Json::Null, 4),
            _ => return Err(self.error("expected a value")),
        };
        self.pos += len;
        Ok(json)
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        self.pos += 1; // `{`
        let mut members = Vec::with_capacity(8);
        if self.eat(b'}') {
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            if !self.eat(b':') {
                return Err(self.error("expected `:` after a key"));
            }
            members.push((key, self.value(depth)?));
            if self.eat(b'}') {
                if has_duplicate_key(&members) {
                    return Err(self.error("duplicate key in the object that ends here"));
                }
                return Ok(Json::Object(members));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `}` in an object"));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        self.pos += 1; // `[`
        let mut items = Vec::with_capacity(8);
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.eat(b']') {
                return Ok(Json::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `]` in an array"));
            }
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1; // opening quote
        let mut out = Cow::Borrowed("");
        loop {
            // Take the run up to the next quote, backslash, or control
            // byte. Each is ASCII, so the run ends on a char boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out += &self.text[self.pos..self.pos + run];
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.to_mut().push(self.escape()?),
                Some(_) => return Err(self.error("raw control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes the escape sequence whose backslash is at `pos`.
    fn escape(&mut self) -> Result<char, JsonError> {
        let decoded = match self.text.as_bytes().get(self.pos + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 2;
                let unit = self.hex4()?;
                // A high surrogate must pair with the low one that follows.
                let paired =
                    (0xD800..0xDC00).contains(&unit) && self.text[self.pos..].starts_with("\\u");
                self.pos += if paired { 2 } else { 0 };
                let low = if paired { Some(self.hex4()?) } else { None };
                let mut chars = char::decode_utf16(std::iter::once(unit).chain(low));
                return match (chars.next(), chars.next()) {
                    (Some(Ok(c)), None) => Ok(c),
                    _ => Err(self.error("unpaired surrogate")),
                };
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 2;
        Ok(decoded)
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(u16::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        let int_at = self.pos;
        self.digits()?;
        if self.pos - int_at > 1 && self.text.as_bytes()[int_at] == b'0' {
            return Err(self.error("leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
            integral = false;
        }
        let lexeme = &self.text[start..self.pos];
        Ok(match lexeme.parse() {
            Ok(n) if integral => Json::Int(n),
            _ => Json::Float(lexeme.parse().expect("a JSON number lexeme is a float")),
        })
    }
}

/// Whether two members share a key: a pairwise scan for the small objects
/// soctam writes, a sort past that, so a hostile object with thousands of
/// members cannot make the check quadratic.
fn has_duplicate_key(members: &[(Cow<'_, str>, Json<'_>)]) -> bool {
    if members.len() <= 16 {
        let seen_before =
            |(i, (key, _)): (usize, &(Cow<str>, Json))| members[..i].iter().any(|(k, _)| k == key);
        return members.iter().enumerate().any(seen_before);
    }
    let mut keys: Vec<&str> = members.iter().map(|(key, _)| &**key).collect();
    keys.sort_unstable();
    keys.windows(2).any(|pair| pair[0] == pair[1])
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
                let record = Json::parse(line).ok()?;
                record.get("request")?.as_str().map(str::to_owned)
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
    let detail = match &req.op {
        EngineOp::Schedule { width } => format!("\"width\": {width}"),
        EngineOp::Sweep { widths } => format!(
            "\"from\": {}, \"to\": {}",
            widths.first().copied().unwrap_or(0),
            widths.last().copied().unwrap_or(0)
        ),
        EngineOp::Bounds { widths } => format!(
            "\"widths\": [{}]",
            widths
                .iter()
                .map(u16::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    out.push_str(&format!(
        "{{\"op\": \"{}\", \"soc\": \"{}\", {detail}, ",
        EngineOp::KINDS[req.op.kind()],
        json_escape(req.soc.name())
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
    fn json_escape_round_trips_through_the_parser() {
        for s in [
            "plain",
            "quotes \"inside\" and \\ backslash",
            "line\nbreak\ttab\rcr",
            "control \u{1} char and \u{1f} and \u{7f}",
            "unicode \u{0441} \u{1f600}",
        ] {
            let doc = format!("\"{}\"", json_escape(s));
            assert_eq!(Json::parse(&doc), Ok(Json::Str(s.into())), "{s:?}");
        }
    }

    /// A top-level boolean member as the strict parser reads it: `None`
    /// for an absent member, a non-boolean value, or a line that does not
    /// parse.
    fn bool_field(line: &str, field: &str) -> Option<bool> {
        match Json::parse(line).ok()?.get(field)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[test]
    fn json_bool_field_reads_top_level_booleans_only() {
        let ok = "{\"op\": \"schedule\", \"soc\": \"d695\", \"ok\": true, \"makespan\": 41}";
        assert_eq!(bool_field(ok, "ok"), Some(true));
        assert_eq!(bool_field(ok, "busy"), None);
        let shed = "{\"ok\": false, \"busy\": true, \"transient\": true, \"error\": \"x\"}";
        assert_eq!(bool_field(shed, "ok"), Some(false));
        assert_eq!(bool_field(shed, "busy"), Some(true));
        assert_eq!(bool_field(shed, "transient"), Some(true));
        // Whitespace around the colon and value is tolerated.
        assert_eq!(bool_field("{ \"ok\" :  true }", "ok"), Some(true));
        // Present but not a boolean: absent, not a guess.
        assert_eq!(bool_field("{\"ok\": 1}", "ok"), None);
        assert_eq!(bool_field("{\"ok\": \"true\"}", "ok"), None);
    }

    #[test]
    fn json_bool_field_is_not_fooled_by_echoed_request_text() {
        // A parse error echoing hostile request text into its `error`
        // string. Substring matching sees `"busy": true` and `"ok": true`;
        // reading the parsed members must not.
        let echo = render_parse_error("unknown request kind `{\"busy\": true, \"ok\": true}`");
        assert_eq!(bool_field(&echo, "ok"), Some(false));
        assert_eq!(bool_field(&echo, "busy"), None);
        assert_eq!(bool_field(&echo, "transient"), None);
        // Nested objects don't leak members to the top level either.
        let nested = "{\"ok\": false, \"detail\": {\"busy\": true}}";
        assert_eq!(bool_field(nested, "busy"), None);
        // A string *value* that equals the field name is not a key.
        let value = "{\"error\": \"busy\", \"busy\": false}";
        assert_eq!(bool_field(value, "busy"), Some(false));
    }

    #[test]
    fn json_reads_request_log_records() {
        let line = "{\"ts_micros\": 1722950000000000, \"peer\": \"127.0.0.1:9\", \
                    \"request\": \"schedule d695 --width 16\", \"outcome\": \"ok\", \
                    \"latency_micros\": 142, \"phases\": {\"resolve\": 17}}";
        let record = Json::parse(line).unwrap();
        assert_eq!(record["request"].as_str(), Some("schedule d695 --width 16"));
        assert_eq!(record["outcome"].as_str(), Some("ok"));
        assert_eq!(record["ts_micros"].as_u64(), Some(1_722_950_000_000_000));
        assert_eq!(record["phases"]["resolve"].as_u64(), Some(17));
        assert_eq!(record.get("absent"), None);
        assert_eq!(record["absent"]["deeper"], Json::Null);
        // Escaped quotes inside the value are decoded.
        let line = "{\"request\": \"bounds \\\"x\\\" --widths 8\"}";
        assert_eq!(
            Json::parse(line).unwrap()["request"].as_str(),
            Some("bounds \"x\" --widths 8")
        );
    }

    #[test]
    fn json_reads_every_value_kind_exactly() {
        let doc = " {\"a\": [null, true, false, 0, -7, 18446744073709551615, \
                   1.5e3, -0.25, \"\\u00e9\\ud83d\\ude00\\/\"], \"b\": {}, \"c\": []}\n";
        let value = Json::parse(doc).unwrap();
        let a = value["a"].as_array().unwrap();
        assert_eq!(a[0], Json::Null);
        assert_eq!(a[1], Json::Bool(true));
        assert_eq!(a[2], Json::Bool(false));
        assert_eq!(a[3].as_u64(), Some(0));
        assert_eq!(a[4], Json::Int(-7));
        assert_eq!(a[4].as_u64(), None);
        assert_eq!(
            a[5].as_u64(),
            Some(u64::MAX),
            "u64 integers read back exactly"
        );
        assert_eq!(a[6], Json::Float(1500.0));
        assert_eq!(a[6].as_u64(), None, "an exponent makes a float");
        assert_eq!(a[7], Json::Float(-0.25));
        assert_eq!(a[8].as_str(), Some("\u{e9}\u{1f600}/"));
        assert_eq!(value["b"].as_object(), Some(&[][..]));
        assert_eq!(value["c"].as_array(), Some(&[][..]));
    }

    #[test]
    fn json_rejects_everything_rfc_8259_does() {
        for bad in [
            "",
            "   ",
            "{\"ok\": true} trailing",
            "{\"ok\": true}{}",
            "{\"ok\": true",
            "{\"ok\" true}",
            "{\"ok\": true,}",
            "[1, 2,]",
            "{ok: true}",
            "{'ok': true}",
            "\"raw \u{1} control\"",
            "\"raw\nnewline\"",
            "\"tab\tinside\"",
            "\"bad \\q escape\"",
            "\"short \\u12 escape\"",
            "\"lone high \\ud83d\"",
            "\"lone low \\ude00\"",
            "\"high then text \\ud83dx\"",
            "\"unterminated",
            "01",
            "-01",
            "1.",
            ".5",
            "+1",
            "1e",
            "-",
            "NaN",
            "Infinity",
            "tru",
            "nul",
            "{\"a\": 1, \"a\": 2}",
            "{\"ok\": true, \"busy\": false, \"ok\": false}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Duplicate keys are caught in large objects too.
        let members: Vec<String> = (0..40).map(|i| format!("\"k{i}\": {i}")).collect();
        let unique = format!("{{{}}}", members.join(", "));
        assert!(Json::parse(&unique).is_ok());
        let twice = format!("{{{}, \"k7\": 0}}", members.join(", "));
        assert!(Json::parse(&twice).is_err());
    }

    #[test]
    fn json_nesting_is_capped() {
        let at_cap = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        assert!(Json::parse(&at_cap).is_ok());
        let deeper = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH + 1),
            "]".repeat(MAX_JSON_DEPTH + 1)
        );
        let err = Json::parse(&deeper).unwrap_err();
        assert_eq!(err.reason, "nesting too deep");
        assert_eq!(err.offset, MAX_JSON_DEPTH);
        // A hostile peer's unbounded nesting is an error, not a stack
        // overflow.
        assert!(Json::parse(&"{\"a\": ".repeat(100_000)).is_err());
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

    /// Every request's shard, pinned: `route_key` values computed before
    /// the SOC content hash was memoized. A memo built with another hasher,
    /// one that leaked into `Soc`'s `Hash`, or a reordered digest moves
    /// them. The values are `DefaultHasher`'s (SipHash-1-3, fixed keys) on
    /// a 64-bit target; a toolchain that changed that hasher would move
    /// every route, and this table with it.
    #[test]
    fn route_keys_match_the_golden_table() {
        const GOLDEN: [(&str, u64); 12] = [
            ("schedule d695 --width 16", 0x8312_ea5b_e17b_3d22),
            (
                "sweep d695 --from 16 --to 24 --power",
                0x3da6_a182_f4fb_f474,
            ),
            (
                "bounds d695 --widths 16,32 --no-preempt",
                0x3cab_19b7_cd22_8819,
            ),
            ("schedule p22810 --width 32 --power", 0xcf8e_0511_eb2e_9635),
            (
                "sweep p22810 --from 8 --to 12 --no-preempt",
                0x1507_0be8_5f2b_ef3c,
            ),
            ("bounds p22810 --widths 24", 0xb543_d8a7_5a7e_0323),
            (
                "schedule p34392 --width 24 --no-preempt",
                0x0daf_4c0b_b191_1b57,
            ),
            ("sweep p34392 --from 16 --to 20", 0x1884_68fa_84f7_309b),
            (
                "bounds p34392 --widths 16,24 --power",
                0x5211_fc12_3aed_ef78,
            ),
            ("schedule p93791 --width 64", 0xd129_f178_6db8_3562),
            (
                "sweep p93791 --from 32 --to 40 --power --no-preempt",
                0xf913_5874_24f5_6f50,
            ),
            (
                "bounds p93791 --widths 32,64 --power --no-preempt",
                0x8af1_7817_c06c_cde2,
            ),
        ];
        // One resolver shares each model across its requests, so the second
        // pass reads memoized hashes; a fresh resolver hashes from scratch.
        let mut shared = benchmark_resolver();
        for _ in 0..2 {
            for (line, key) in GOLDEN {
                let request = parse_request(line, &mut shared).unwrap();
                assert_eq!(route_key(&request), key, "{line}");
                let traced = parse_request(&format!("{line} --trace"), &mut shared).unwrap();
                assert_eq!(route_key(&traced), key, "{line} --trace");
                let fresh = parse_request(line, &mut benchmark_resolver()).unwrap();
                assert_eq!(route_key(&fresh), key, "{line} (fresh model)");
            }
        }
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
    fn replay_lines_skips_a_torn_last_record() {
        // A daemon killed mid-write leaves its log's last record cut off:
        // every whole record replays, the torn one does not.
        let log = "{\"ts_micros\": 5, \"request\": \"bounds d695\", \"outcome\": \"ok\"}\n\
                   {\"ts_micros\": 6, \"request\": \"schedule d695 --width 16\", \"outcome\": \"ok\"}\n\
                   {\"ts_micros\": 7, \"request\": \"sweep d695 --from 15 --to 17\", \"outc";
        assert_eq!(
            replay_lines(log),
            ["bounds d695", "schedule d695 --width 16"]
        );
        // A record whose `request` is not a top-level string is skipped
        // too.
        let odd = "{\"request\": 7}\n{\"detail\": {\"request\": \"bounds d695\"}}\n";
        assert!(replay_lines(odd).is_empty());
    }

    #[test]
    fn soc_names_render_as_escaped_json_strings() {
        for name in [
            "bad\u{1}name",
            "quote\"d",
            "back\\slash",
            "line\nbreak",
            "caf\u{e9}",
        ] {
            let soc = Arc::new(Soc::new(name));
            let req = EngineRequest::bounds(soc, request_flow(false, false), vec![16]);
            let line = render_result(
                &req,
                &Err(soctam_schedule::ScheduleError::InvalidConfig {
                    reason: "zero width".to_owned(),
                }),
            );
            let parsed = Json::parse(&line).unwrap_or_else(|e| panic!("{e}: {line:?}"));
            assert_eq!(parsed["soc"].as_str(), Some(name), "{line}");
        }
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
