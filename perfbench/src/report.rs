//! Turns measurements into the named metrics and prints the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calib;
use crate::check::{self, Catalog, Verified};
use crate::hist::Hist;
use crate::trace::{self, Span};
use crate::workload::{Kind, Measured, Traced};

/// Fewest latency samples for at least ten to lie beyond p99.
const MIN_LATENCY_SAMPLES: u64 = 1000;

/// Requests whose spans are written to `perfbench/out/`.
const SPAN_DUMP_REQUESTS: u64 = 1000;

pub struct Report {
    kind: Kind,
    verified: Verified,
    setup_s: Vec<f64>,
    /// The run's [`calib::sample_ns`] readings.
    calibration_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    samples: Vec<(String, String)>,
    spans: Vec<Span>,
    latency_samples: u64,
    /// The untraced run's whole-run timings, for the summary line.
    whole_run: String,
    /// Why the run is not correct, beyond failed requests.
    problems: Vec<String>,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

impl Report {
    pub fn new(
        kind: Kind,
        verified: Verified,
        setup_s: Vec<f64>,
        calibration_ns: Vec<f64>,
    ) -> Self {
        Self {
            kind,
            attempted: verified.attempted,
            failed: verified.failed,
            verified,
            setup_s,
            calibration_ns,
            metrics: Vec::new(),
            samples: Vec::new(),
            spans: Vec::new(),
            latency_samples: 0,
            whole_run: String::new(),
            problems: Vec::new(),
        }
    }

    pub fn add_problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Sheds and failovers must stay at zero: no workload opens more
    /// connections than there are workers, and no backend fails.
    fn check_faults(&mut self, sheds: u64, failovers: u64) {
        if sheds > 0 {
            self.problems
                .push(format!("the daemons shed {sheds} connections"));
        }
        if failovers > 0 {
            self.problems
                .push(format!("the front failed over {failovers} times"));
        }
    }

    fn check_latency_samples(&mut self) {
        if self.latency_samples < MIN_LATENCY_SAMPLES {
            self.problems.push(format!(
                "only {} latency samples; p99 rests on fewer than 10",
                self.latency_samples
            ));
        }
    }

    fn count(&mut self, hist: &Hist) {
        self.attempted += hist.samples();
        self.failed += hist.failed();
    }

    /// How much slower than the reference host this run's host ran: the
    /// median loop reading over [`calib::REFERENCE_NS`].
    fn slowdown(&self) -> f64 {
        median(&self.calibration_ns) / calib::REFERENCE_NS
    }

    /// The end-to-end metrics of an untraced run. The timings come from
    /// the run's fastest quarter of windows, scaled to the reference
    /// host's speed; the whole run's, unscaled, go on the summary line.
    pub fn add_untraced(&mut self, m: Measured) {
        self.count(&m.hist);
        self.calibration_ns.extend(&m.calibration_ns);
        let slowdown = self.slowdown();
        let (fast, fast_s) = m.fastest_quarter();
        self.latency_samples = fast.samples();
        self.check_latency_samples();
        self.check_faults(m.sheds, m.failovers);
        self.whole_run = format!(
            " windows={} host_slowdown={slowdown:.4} whole run, unscaled: throughput_rps={:.1} \
             latency_p50_ms={:.4} latency_p99_ms={:.4} setup_s={:.4}",
            m.windows.len(),
            m.hist.ok() as f64 / m.wall_s,
            m.hist.quantile_ms(0.5),
            m.hist.quantile_ms(0.99),
            median(&self.setup_s),
        );
        self.metrics = vec![
            (
                "throughput_rps",
                fast.ok() as f64 / fast_s * slowdown,
                "1/s",
            ),
            ("latency_p50_ms", fast.quantile_ms(0.5) / slowdown, "ms"),
            ("latency_p99_ms", fast.quantile_ms(0.99) / slowdown, "ms"),
            ("setup_s", median(&self.setup_s) / slowdown, "s"),
            ("peak_rss_mb", f64::NAN, "MiB"), // read when printing
            (
                "makespan_lb_ratio",
                self.verified.makespan_lb_ratio,
                "ratio",
            ),
        ];
        self.samples = m.samples;
    }

    /// The per-layer metrics of a traced run, its tracing overhead against
    /// the untraced phase before it, and the verification counters.
    pub fn add_traced(&mut self, untraced: Measured, t: Traced) {
        self.count(&untraced.hist);
        self.count(&t.hist);
        self.calibration_ns.extend(&untraced.calibration_ns);
        self.failed += t.mismatches;
        if t.mismatches > 0 {
            eprintln!("perfbench: {} traced responses disagreed", t.mismatches);
        }
        self.samples = untraced.samples;

        let n = t.hist.ok().max(1) as f64;
        let own = trace::self_micros(&t.spans);
        let total = trace::total_micros(&t.spans);
        let per = |m: &BTreeMap<&str, f64>, name: &str| m.get(name).copied().unwrap_or(0.0) / n;

        let parse = per(&own, "protocol.parse");
        let render = per(&own, "protocol.render");
        let hit = per(&own, "solution_cache.hit");
        let miss = per(&own, "engine.miss");
        let compile = per(&own, "registry.get_or_compile");
        let menu = per(&own, "context.menu_build");
        let sweep = per(&own, "flow.sweep");
        let wires = per(&own, "tam.wires");
        let bounds = per(&own, "bounds.lower_bounds");
        let unaccounted = miss - (compile + menu + sweep + wires + bounds);
        let client = per(&own, "request");
        let request = per(&total, "request");
        let in_process = parse + hit + miss + render;
        let server_wire = per(&total, "server.wire");
        let (server_overhead, balance_overhead) = match self.kind {
            Kind::Oneshot => (0.0, 0.0),
            Kind::ServeCold | Kind::ServeHot => (server_wire - in_process, 0.0),
            Kind::FrontHot => (
                server_wire - in_process,
                per(&total, "balance.wire") - server_wire,
            ),
        };
        // The two overheads are remainders: the wire time left after the
        // in-process work. Less than none means the in-process account
        // overstates what the daemon did.
        for (name, value) in [
            ("server.overhead_us", server_overhead),
            ("balance.overhead_us", balance_overhead),
        ] {
            if value < 0.0 {
                self.problems
                    .push(format!("{name} is negative ({value:.3})"));
            }
        }
        // The daemon's own parse-to-render time, less the mirror's, over
        // the requests sent with `--trace`: how much of `server.overhead_us`
        // is daemon-side work the mirror did not reproduce.
        let mirror_gap = ratio(t.daemon_us - t.mirror_us, t.daemon_samples as f64);
        if self.kind != Kind::Oneshot && t.daemon_samples == 0 {
            self.problems.push("no daemon trace was checked".to_owned());
        }
        // An identity, not a check: the overheads and
        // `engine.unaccounted_us` are remainders, so the layers add up to
        // the request time by construction.
        let layer_sum = client
            + balance_overhead
            + server_overhead
            + parse
            + render
            + hit
            + compile
            + menu
            + sweep
            + wires
            + bounds
            + unaccounted;
        let traced_mean = t.hist.mean_ms();
        let untraced_mean = untraced.hist.mean_ms();
        let cache_total = (t.cache_hits + t.cache_misses) as f64;
        let registry_total = (t.registry_hits + t.registry_misses) as f64;
        let runs = t.tally.total as f64;

        self.metrics = vec![
            ("trace.request_us", request, "us"),
            ("trace.layer_sum_us", layer_sum, "us"),
            ("trace.residual_us", request - layer_sum, "us"),
            (
                "trace.overhead_pct",
                (traced_mean / untraced_mean - 1.0) * 100.0,
                "%",
            ),
            ("trace.requests", n, "count"),
            ("host.calibration_ns", median(&self.calibration_ns), "ns"),
            ("bench.client_us", client, "us"),
            ("protocol.parse_us", parse, "us"),
            ("protocol.render_us", render, "us"),
            ("solution_cache.hit_us", hit, "us"),
            (
                "solution_cache.hit_ratio",
                ratio(t.cache_hits as f64, cache_total),
                "ratio",
            ),
            (
                "solution_cache.evictions_per_kreq",
                t.cache_evictions as f64 * 1e3 / n,
                "1/kreq",
            ),
            ("engine.miss_us", miss, "us"),
            ("engine.unaccounted_us", unaccounted, "us"),
            ("registry.compile_us", compile, "us"),
            (
                "registry.hit_ratio",
                ratio(t.registry_hits as f64, registry_total),
                "ratio",
            ),
            ("context.menu_build_us", menu, "us"),
            (
                "context.menu_builds_per_req",
                t.work.menu_builds as f64 / n,
                "1/req",
            ),
            (
                "context.menu_derives_per_req",
                t.work.menu_derives as f64 / n,
                "1/req",
            ),
            (
                "wrapper.rect_set_builds_per_req",
                t.work.rect_set_builds as f64 / n,
                "1/req",
            ),
            ("flow.sweep_us", sweep, "us"),
            ("flow.runs_per_req", runs / n, "1/req"),
            (
                "flow.exec_ratio",
                ratio(t.tally.executed as f64, runs),
                "ratio",
            ),
            ("flow.cut_ratio", ratio(t.tally.cut as f64, runs), "ratio"),
            ("tam.wires_us", wires, "us"),
            ("bounds.us", bounds, "us"),
            ("server.overhead_us", server_overhead, "us"),
            ("server.mirror_gap_us", mirror_gap, "us"),
            ("server.sheds", t.sheds as f64, "count"),
            ("server.connections", t.connections as f64, "count"),
            ("balance.overhead_us", balance_overhead, "us"),
            ("balance.route_imbalance", t.route_imbalance, "ratio"),
            ("balance.failovers", t.failovers as f64, "count"),
        ];
        let v = &self.verified;
        for (name, value) in [
            ("verify.menu_builds", v.work.menu_builds),
            ("verify.menu_derives", v.work.menu_derives),
            ("verify.rect_set_builds", v.work.rect_set_builds),
            ("verify.context_compiles", v.work.context_compiles),
            ("verify.schedule_runs", v.work.schedule_runs),
            ("verify.sweep_runs_total", v.tally.total),
            ("verify.sweep_runs_executed", v.tally.executed),
            ("verify.sweep_runs_skipped", v.tally.skipped),
            ("verify.sweep_runs_cut", v.tally.cut),
            ("verify.cache_hits", v.cache_hits),
            ("verify.cache_misses", v.cache_misses),
            ("verify.cache_evictions", v.cache_evictions),
        ] {
            self.metrics.push((name, value as f64, "count"));
        }
        self.latency_samples = t.hist.samples();
        self.check_latency_samples();
        self.check_faults(untraced.sheds + t.sheds, untraced.failovers + t.failovers);
        self.spans = t.spans;
    }

    /// Byte-identity and validator check of the sampled responses.
    pub fn check_samples(&mut self, catalog: &Catalog) {
        self.failed += check::sample_failures(catalog, &self.samples);
    }

    pub fn print(mut self, seed: u64) {
        let kind = self.kind;
        for m in &mut self.metrics {
            if m.0 == "peak_rss_mb" {
                m.1 = peak_rss_mb();
            }
        }
        if !self.spans.is_empty() {
            // The first requests, whole trees: enough to inspect, small
            // enough to write on every run.
            let path =
                std::path::PathBuf::from(format!("perfbench/out/{}-spans.jsonl", kind.name()));
            let keep = |s: &Span| s.request < SPAN_DUMP_REQUESTS;
            if let Err(e) = trace::write_jsonl(&path, &self.spans, keep) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
        let v = &self.verified;
        println!(
            "perfbench: workload={} seed={seed} latency_samples={} attempted={} failed={} \
             setups={} verify: menu_builds={} menu_derives={} rect_set_builds={} \
             context_compiles={} schedule_runs={} sweep_runs={}/{}/{}/{} (total/executed/skipped/cut) \
             cache hits/misses/evictions={}/{}/{} makespan_lb_ratio={}{}",
            kind.name(),
            self.latency_samples,
            self.attempted,
            self.failed,
            self.setup_s.len(),
            v.work.menu_builds,
            v.work.menu_derives,
            v.work.rect_set_builds,
            v.work.context_compiles,
            v.work.schedule_runs,
            v.tally.total,
            v.tally.executed,
            v.tally.skipped,
            v.tally.cut,
            v.cache_hits,
            v.cache_misses,
            v.cache_evictions,
            v.makespan_lb_ratio,
            self.whole_run,
        );
        for problem in &self.problems {
            eprintln!("perfbench: {problem}");
        }
        let correct = self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|(_, value, _)| value.is_finite())
            && v.makespan_lb_ratio >= 1.0;
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values (a failed run) print as null; the run is
            // already marked incorrect.
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
