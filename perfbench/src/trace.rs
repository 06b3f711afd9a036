//! The benchmark's span recorder. Spans wrap the public calls the
//! benchmark makes into each layer; each records its name, start, end,
//! parent, and request id. The client owns one [`Recorder`]; spans stay in
//! memory and are written out when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records spans on one thread. Spans nest by call order: a span opened
/// while another is open is its child.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in reverse opening order");
        self.spans[id].end_ns = end;
    }

    /// Renames a span once its outcome is known (a solution-cache probe
    /// becomes a hit or a miss).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time per span name, summed over all spans: each span's duration
/// minus the part its children cover.
pub fn self_micros(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children = vec![0.0f64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p] += span.micros();
        }
    }
    let mut totals = BTreeMap::new();
    for (span, nested) in spans.iter().zip(children) {
        *totals.entry(span.name).or_insert(0.0) += span.micros() - nested;
    }
    totals
}

/// Total inclusive time per span name.
pub fn total_micros(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for span in spans {
        *totals.entry(span.name).or_insert(0.0) += span.micros();
    }
    totals
}

/// Writes the spans `keep` selects as JSON lines; `id` and `parent` are
/// indices into the full recording.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> std::io::Result<()> {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
