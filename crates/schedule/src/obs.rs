//! Phase tracing, work counts, and latency histograms for the serving stack.
//!
//! Three std-only primitives, shared by every layer from the packer to the
//! balancer front:
//!
//! * **Span recording.** A request thread arms a thread-local recorder
//!   ([`trace_begin`]), the layers it passes through open [`Phase`]-tagged
//!   spans ([`span`]) that nest by scope, and the request thread collects
//!   the finished tree ([`trace_end`] → [`TraceTree`]) with per-span
//!   `Instant`-measured microseconds. When no recorder is armed — batch
//!   CLI runs, sweep worker threads, tests that don't care — a span guard
//!   is a no-op, so the hot path pays one thread-local read.
//!
//!   Spans are recorded where the *work* happens, not where it might
//!   happen: a context-registry hit opens no `context_compile` span and a
//!   cached menu read opens no `menu_build` span, so a warm request's
//!   trace reports exactly zero time in both (pinned by the trace suite).
//!
//! * **Work counts.** Each unit of costly [`Work`] makes one [`count`]
//!   call where it happens, which adds to a process total ([`total`]) and,
//!   when the thread has armed a recorder, to that trace's tally
//!   ([`TraceTree::count`]). A served request works on its own thread, so
//!   its tally is exact: another thread's work never shows in it.
//!
//! * **Latency histograms.** A fixed-boundary log₂ [`Histogram`] (powers
//!   of two from 1 µs to ~2.1 s, plus overflow) over lock-striped atomic
//!   counters. Recording is wait-free; [`Histogram::snapshot`] folds the
//!   stripes into a plain-data [`HistogramSnapshot`]; the server's
//!   exposition writer renders it as Prometheus `_bucket`/`_sum`/`_count`
//!   series with `le` boundaries in seconds. Buckets, sum, and count are
//!   plain series, so the balancer's roll-up merges backend histograms
//!   by summing their scraped series.
//!
//! The daemon uses all three: per-request traces feed the `trace=1`
//! response field, the request log's `phases` object, the `--slow-log`
//! stream, and the per-phase cumulative counters; wire latencies feed
//! `soctam_request_latency_seconds{kind,cache}` histograms on `/metrics`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The phases a request can spend time in, one per span tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Request-line parsing and SOC resolution (daemon side).
    Resolve,
    /// Solution-cache probe — on a hit or a coalesced wait, the whole
    /// request body; on a miss, the probe plus the solve nested inside.
    CacheLookup,
    /// Compiling a [`CompiledSoc`](crate::CompiledSoc): constraint
    /// tables, plus the menu build nested inside as [`Phase::MenuBuild`].
    /// Absent when the context registry already had it.
    ContextCompile,
    /// Building the per-core rectangle menus, once per context, nested in
    /// its [`Phase::ContextCompile`]. Absent when the context registry
    /// already had the context.
    MenuBuild,
    /// The scheduler itself: the `(m, d)` parameter sweep, or a single
    /// packer run.
    Sweep,
    /// Wire assignment and schedule validation.
    Validate,
    /// Rendering the JSON response line (daemon side).
    Render,
    /// Forwarding a request to a backend (balancer side).
    Proxy,
}

impl Phase {
    /// Every phase, in the order exposition and `phases` objects use.
    pub const ALL: [Phase; 8] = [
        Phase::Resolve,
        Phase::CacheLookup,
        Phase::ContextCompile,
        Phase::MenuBuild,
        Phase::Sweep,
        Phase::Validate,
        Phase::Render,
        Phase::Proxy,
    ];

    /// The snake_case label used in JSON and metric labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Resolve => "resolve",
            Phase::CacheLookup => "cache_lookup",
            Phase::ContextCompile => "context_compile",
            Phase::MenuBuild => "menu_build",
            Phase::Sweep => "sweep",
            Phase::Validate => "validate",
            Phase::Render => "render",
            Phase::Proxy => "proxy",
        }
    }
}

/// The costly units of work a request can do, one per counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// A whole-SOC [`RectangleMenus::build`](crate::RectangleMenus::build).
    MenuBuild,
    /// A [`ConstraintSet::compile`](crate::ConstraintSet::compile).
    ConstraintCompile,
    /// A whole [`CompiledSoc`](crate::CompiledSoc) compilation.
    ContextCompile,
    /// One packer run that [`best_of`](crate::best_of) executed.
    ScheduleRun,
}

impl Work {
    /// Every kind of work, in declaration order, which `work as usize` indexes.
    pub const ALL: [Work; 4] = [
        Work::MenuBuild,
        Work::ConstraintCompile,
        Work::ContextCompile,
        Work::ScheduleRun,
    ];

    /// The snake_case counter name used in JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Work::MenuBuild => "menu_builds",
            Work::ConstraintCompile => "constraint_compiles",
            Work::ContextCompile => "context_compiles",
            Work::ScheduleRun => "schedule_runs",
        }
    }
}

/// Process-wide work totals, indexed like [`Work::ALL`].
static TOTALS: [AtomicU64; Work::ALL.len()] = [const { AtomicU64::new(0) }; Work::ALL.len()];

/// Counts one unit of `work`: into the process total and, when this
/// thread has armed a recorder, into that trace's tally.
pub fn count(work: Work) {
    TOTALS[work as usize].fetch_add(1, Ordering::Relaxed);
    RECORDER.with(|r| {
        if let Some(recorder) = r.borrow_mut().as_mut() {
            recorder.counts[work as usize] += 1;
        }
    });
}

/// Units of `work` counted by every thread since process start.
#[must_use]
pub fn total(work: Work) -> u64 {
    TOTALS[work as usize].load(Ordering::Relaxed)
}

/// One finished span: a phase, its inclusive wall time, and the spans
/// that nested inside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// What the span measured.
    pub phase: Phase,
    /// Inclusive wall time of the span, children included.
    pub micros: u64,
    /// Spans opened (and closed) while this one was open.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"phase\": \"{}\", \"micros\": {}",
            self.phase.label(),
            self.micros
        );
        if !self.children.is_empty() {
            out.push_str(", \"children\": ");
            spans_json_into(&self.children, out);
        }
        out.push('}');
    }

    /// Accumulates *exclusive* time — this span minus its children — into
    /// the per-phase totals, then recurses.
    fn accumulate_self(&self, totals: &mut [u64; Phase::ALL.len()]) {
        let nested: u64 = self.children.iter().map(|c| c.micros).sum();
        let idx = Phase::ALL
            .iter()
            .position(|p| *p == self.phase)
            .expect("every phase is in ALL");
        totals[idx] += self.micros.saturating_sub(nested);
        for child in &self.children {
            child.accumulate_self(totals);
        }
    }
}

fn spans_json_into(spans: &[SpanNode], out: &mut String) {
    out.push('[');
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        span.json_into(out);
    }
    out.push(']');
}

/// Renders `(label, value)` pairs as one JSON object, skipping zero
/// values unless `include_zero`.
fn json_object(pairs: impl IntoIterator<Item = (&'static str, u64)>, include_zero: bool) -> String {
    let mut out = String::from("{");
    for (label, value) in pairs {
        if value == 0 && !include_zero {
            continue;
        }
        if out.len() > 1 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{label}\": {value}");
    }
    out.push('}');
    out
}

/// A whole request's recorded spans and work tally, collected by
/// [`trace_end`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTree {
    /// Wall time from [`trace_begin`] to [`trace_end`], which bounds the
    /// sum of any set of non-overlapping recorded spans.
    pub total_micros: u64,
    /// Top-level spans in completion order.
    pub spans: Vec<SpanNode>,
    /// Work this thread counted while the recorder was armed, indexed
    /// like [`Work::ALL`].
    counts: [u64; Work::ALL.len()],
}

impl TraceTree {
    /// Exclusive (self-time) microseconds per phase, in [`Phase::ALL`]
    /// order. Because each span's children are subtracted from it, the
    /// phase totals sum to at most [`TraceTree::total_micros`]'s wall
    /// time plus timer granularity — never double-counting nesting.
    #[must_use]
    pub fn phase_micros(&self) -> [(Phase, u64); Phase::ALL.len()] {
        let mut totals = [0u64; Phase::ALL.len()];
        for span in &self.spans {
            span.accumulate_self(&mut totals);
        }
        let mut out = [(Phase::Resolve, 0); Phase::ALL.len()];
        for (i, phase) in Phase::ALL.iter().enumerate() {
            out[i] = (*phase, totals[i]);
        }
        out
    }

    /// Exclusive microseconds recorded for one phase.
    #[must_use]
    pub fn phase_total(&self, phase: Phase) -> u64 {
        self.phase_micros()
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0, |(_, micros)| *micros)
    }

    /// The span forest as a JSON array of
    /// `{"phase", "micros", "children"}` objects.
    #[must_use]
    pub fn spans_json(&self) -> String {
        let mut out = String::new();
        spans_json_into(&self.spans, &mut out);
        out
    }

    /// The per-phase exclusive totals as one JSON object. With
    /// `include_zero`, every phase appears (the shape the `trace=1`
    /// response uses, so "zero compile time" is an explicit `0`); without
    /// it, only phases that recorded time (the compact request-log
    /// `phases` shape).
    #[must_use]
    pub fn phases_json(&self, include_zero: bool) -> String {
        json_object(
            self.phase_micros()
                .map(|(phase, micros)| (phase.label(), micros)),
            include_zero,
        )
    }

    /// Units of `work` counted on this thread while the recorder was
    /// armed.
    #[must_use]
    pub fn count(&self, work: Work) -> u64 {
        self.counts[work as usize]
    }

    /// The work tally as one JSON object with every [`Work`] label, zeros
    /// included, in [`Work::ALL`] order: the `trace=1` response's
    /// `counters` shape.
    #[must_use]
    pub fn counters_json(&self) -> String {
        json_object(Work::ALL.map(|work| (work.label(), self.count(work))), true)
    }
}

/// An in-progress span on the recorder's stack.
struct OpenSpan {
    phase: Phase,
    start: Instant,
    children: Vec<SpanNode>,
}

struct Recorder {
    started: Instant,
    stack: Vec<OpenSpan>,
    roots: Vec<SpanNode>,
    counts: [u64; Work::ALL.len()],
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms this thread's span recorder. Any previously armed (and never
/// ended) recorder is discarded — a request that panicked mid-trace
/// cannot leak stale spans into the connection's next request.
pub fn trace_begin() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            started: Instant::now(),
            stack: Vec::new(),
            roots: Vec::new(),
            counts: [0; Work::ALL.len()],
        });
    });
}

/// Disarms this thread's recorder and returns the collected tree, or
/// `None` if no recorder was armed. Spans still open (a guard leaked
/// across the end) are closed as of now.
pub fn trace_end() -> Option<TraceTree> {
    RECORDER.with(|r| {
        let mut recorder = r.borrow_mut().take()?;
        while let Some(open) = recorder.stack.pop() {
            let node = SpanNode {
                phase: open.phase,
                micros: open.start.elapsed().as_micros() as u64,
                children: open.children,
            };
            match recorder.stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => recorder.roots.push(node),
            }
        }
        Some(TraceTree {
            total_micros: recorder.started.elapsed().as_micros() as u64,
            spans: recorder.roots,
            counts: recorder.counts,
        })
    })
}

/// Opens a phase span on this thread, closed (and recorded) when the
/// returned guard drops. A free no-op when no recorder is armed.
#[must_use = "dropping the guard immediately records an empty span"]
pub fn span(phase: Phase) -> SpanGuard {
    let armed = RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        match slot.as_mut() {
            Some(recorder) => {
                recorder.stack.push(OpenSpan {
                    phase,
                    start: Instant::now(),
                    children: Vec::new(),
                });
                true
            }
            None => false,
        }
    });
    SpanGuard { armed }
}

/// Scope guard returned by [`span`]; records the span on drop.
#[must_use = "a span measures the scope that holds its guard"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        RECORDER.with(|r| {
            let mut slot = r.borrow_mut();
            // The recorder may have been torn down (trace_end, or a
            // replacement trace_begin) under a leaked guard; tolerate it.
            let Some(recorder) = slot.as_mut() else {
                return;
            };
            let Some(open) = recorder.stack.pop() else {
                return;
            };
            let node = SpanNode {
                phase: open.phase,
                micros: open.start.elapsed().as_micros() as u64,
                children: open.children,
            };
            match recorder.stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => recorder.roots.push(node),
            }
        });
    }
}

/// Index of the largest finite bucket: upper bounds run
/// 2⁰ µs … 2^[`MAX_EXPONENT`] µs.
const MAX_EXPONENT: usize = 21;

/// Number of counters per histogram: 22 finite log₂ buckets
/// (1 µs … ~2.1 s) plus the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = MAX_EXPONENT + 2;

/// Lock stripes per histogram; recording threads spread over them so a
/// hot histogram never serializes its writers on one cache line.
const STRIPES: usize = 8;

/// The (non-cumulative) bucket index a microsecond value lands in: the
/// smallest `i` with `micros ≤ 2^i` µs, or the overflow bucket.
#[must_use]
pub fn bucket_index(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    let ceil_log2 = (64 - (micros - 1).leading_zeros()) as usize;
    ceil_log2.min(MAX_EXPONENT + 1)
}

struct Stripe {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each recording thread claims one stripe for life; round-robin
    /// assignment keeps a worker pool spread evenly.
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// A fixed-boundary log₂ latency histogram over lock-striped atomics.
///
/// Buckets are powers of two in microseconds (1 µs, 2 µs, … ~2.1 s, then
/// overflow); `le` labels render in seconds. [`Histogram::record`] is
/// wait-free (three relaxed atomic adds on the calling thread's stripe);
/// [`Histogram::snapshot`] folds every stripe into one renderable
/// [`HistogramSnapshot`].
pub struct Histogram {
    stripes: [Stripe; STRIPES],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum_micros", &snap.sum_micros)
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Stripe::new()),
        }
    }

    /// Records one duration (saturating to whole microseconds).
    pub fn record(&self, d: Duration) {
        self.record_micros(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one value in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let stripe = &self.stripes[MY_STRIPE.with(|s| *s)];
        stripe.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        stripe.sum_micros.fetch_add(micros, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds all stripes into one consistent-enough snapshot. Concurrent
    /// recording may straddle the fold (a racing record can appear in
    /// `count` but not yet `sum_micros` or vice versa); totals are exact
    /// once writers quiesce.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for stripe in &self.stripes {
            for (acc, bucket) in snap.buckets.iter_mut().zip(&stripe.buckets) {
                *acc += bucket.load(Ordering::Relaxed);
            }
            snap.sum_micros += stripe.sum_micros.load(Ordering::Relaxed);
            snap.count += stripe.count.load(Ordering::Relaxed);
        }
        snap
    }
}

/// A folded, plain-data histogram: per-bucket counts (non-cumulative),
/// the sum of recorded microseconds, and the record count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-cumulative count per bucket, [`bucket_index`]-ordered.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of every recorded value, in microseconds.
    pub sum_micros: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum_micros: 0,
            count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_spans_are_no_ops() {
        assert!(trace_end().is_none());
        {
            let _g = span(Phase::Sweep);
        }
        assert!(trace_end().is_none());
    }

    #[test]
    fn spans_nest_by_scope() {
        trace_begin();
        {
            let _outer = span(Phase::CacheLookup);
            {
                let _inner = span(Phase::ContextCompile);
            }
            {
                let _inner = span(Phase::Sweep);
            }
        }
        {
            let _render = span(Phase::Render);
        }
        let tree = trace_end().expect("armed");
        assert_eq!(tree.spans.len(), 2);
        assert_eq!(tree.spans[0].phase, Phase::CacheLookup);
        assert_eq!(
            tree.spans[0]
                .children
                .iter()
                .map(|c| c.phase)
                .collect::<Vec<_>>(),
            vec![Phase::ContextCompile, Phase::Sweep]
        );
        assert_eq!(tree.spans[1].phase, Phase::Render);
        assert!(tree.spans[1].children.is_empty());
    }

    #[test]
    fn phase_totals_are_exclusive_and_bounded_by_total() {
        trace_begin();
        {
            let _outer = span(Phase::CacheLookup);
            {
                let _inner = span(Phase::Sweep);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let tree = trace_end().expect("armed");
        let sum: u64 = tree.phase_micros().iter().map(|(_, m)| m).sum();
        assert!(
            sum <= tree.total_micros + 1,
            "exclusive sum {sum} exceeds total {}",
            tree.total_micros
        );
        assert!(tree.phase_total(Phase::Sweep) >= 2_000);
        // The outer span's exclusive time excludes the slept inner span.
        let outer = tree.spans[0].micros;
        let inner = tree.spans[0].children[0].micros;
        assert_eq!(
            tree.phase_total(Phase::CacheLookup),
            outer.saturating_sub(inner)
        );
    }

    #[test]
    fn phases_json_shapes() {
        trace_begin();
        {
            let _g = span(Phase::Render);
        }
        let tree = trace_end().expect("armed");
        let full = tree.phases_json(true);
        for phase in Phase::ALL {
            assert!(full.contains(&format!("\"{}\"", phase.label())), "{full}");
        }
        let compact = tree.phases_json(false);
        assert!(!compact.contains("\"sweep\""), "{compact}");
        let spans = tree.spans_json();
        assert!(spans.starts_with("[{\"phase\": \"render\""), "{spans}");
    }

    // Other tests in this binary run packers and compile contexts on
    // their own threads, so a total only ever grows by at least what a
    // test counted; a trace's tally is exact.

    #[test]
    fn counts_land_in_the_armed_trace_and_in_the_total() {
        let before = total(Work::ScheduleRun);
        trace_begin();
        for _ in 0..3 {
            count(Work::ScheduleRun);
        }
        count(Work::MenuBuild);
        let tree = trace_end().expect("armed");
        assert_eq!(tree.count(Work::ScheduleRun), 3);
        assert_eq!(tree.count(Work::MenuBuild), 1);
        assert_eq!(tree.count(Work::ConstraintCompile), 0);
        assert_eq!(tree.count(Work::ContextCompile), 0);
        assert!(total(Work::ScheduleRun) >= before + 3);
    }

    #[test]
    fn unarmed_counts_reach_only_the_total() {
        let before = total(Work::ContextCompile);
        count(Work::ContextCompile);
        assert!(total(Work::ContextCompile) > before);
        assert!(trace_end().is_none());
        // A recorder armed afterwards starts from zero.
        trace_begin();
        let tree = trace_end().expect("armed");
        assert_eq!(tree.count(Work::ContextCompile), 0);
    }

    #[test]
    fn another_threads_work_stays_out_of_this_threads_trace() {
        let before = total(Work::ConstraintCompile);
        trace_begin();
        count(Work::ConstraintCompile);
        let theirs = std::thread::scope(|scope| {
            let armed = scope.spawn(|| {
                trace_begin();
                for _ in 0..5 {
                    count(Work::ConstraintCompile);
                }
                trace_end().expect("armed on that thread")
            });
            scope.spawn(|| count(Work::ConstraintCompile));
            armed.join().expect("counting thread")
        });
        let ours = trace_end().expect("armed");
        assert_eq!(ours.count(Work::ConstraintCompile), 1);
        assert_eq!(theirs.count(Work::ConstraintCompile), 5);
        assert!(total(Work::ConstraintCompile) >= before + 7);
    }

    #[test]
    fn counters_json_lists_every_kind_in_order() {
        trace_begin();
        count(Work::ContextCompile);
        count(Work::ScheduleRun);
        count(Work::ScheduleRun);
        let tree = trace_end().expect("armed");
        assert_eq!(
            tree.counters_json(),
            "{\"menu_builds\": 0, \"constraint_compiles\": 0, \
             \"context_compiles\": 1, \"schedule_runs\": 2}"
        );
        assert_eq!(
            Work::ALL.map(Work::label),
            [
                "menu_builds",
                "constraint_compiles",
                "context_compiles",
                "schedule_runs"
            ]
        );
    }

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        // A value exactly on a bound lands in that bound's bucket
        // (Prometheus `le` is inclusive); one past it moves up.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        for exp in 1..=MAX_EXPONENT as u32 {
            let bound = 1u64 << exp;
            assert_eq!(bucket_index(bound), exp as usize, "at 2^{exp}");
            assert_eq!(bucket_index(bound + 1), exp as usize + 1, "past 2^{exp}");
        }
        // Past the last finite bound: the overflow bucket.
        assert_eq!(bucket_index((1 << MAX_EXPONENT) + 1), MAX_EXPONENT + 1);
        assert_eq!(bucket_index(u64::MAX), MAX_EXPONENT + 1);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 2_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record_micros(t * per_thread + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads * per_thread);
        assert_eq!(snap.buckets.iter().sum::<u64>(), threads * per_thread);
        let expected_sum: u64 = (0..threads * per_thread).sum();
        assert_eq!(snap.sum_micros, expected_sum);
    }
}
