//! Prometheus text exposition: the one writer `/metrics` renders through
//! and the one reader that parses it back.
//!
//! [`Writer`] renders metric families — a `# TYPE` line, then the
//! family's sample lines — for the daemon's exposition, the balancer
//! front's own families, and the front's roll-up of its backends.
//!
//! [`Scrape::parse`] reads an exposition strictly. It accepts `# HELP`
//! lines (as comments), `# TYPE` lines, label values with their `\\`,
//! `\"`, and `\n` escapes, and the values `+Inf`, `-Inf`, and `NaN`. It
//! rejects a sample whose family has no `# TYPE` line above it, a
//! malformed label set, and a value that does not parse. A histogram's
//! `_bucket`, `_sum`, and `_count` samples group under their family. Each
//! sample keeps its series as written, so a roll-up re-renders it byte for
//! byte. The balancer's roll-up ([`rollup`]), the test suites, and the
//! bench bins read scrapes through it.
//!
//! The roll-up sums scraped series: a histogram's buckets, sum, and count
//! are plain series, so summing two daemons' scrapes yields exactly the
//! histogram of their concatenated samples.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{Display, Write as _};

use soctam_core::schedule::obs::HistogramSnapshot;

/// A metric family's type, as its `# TYPE` line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing count. Its name ends in `_total`.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// Cumulative `_bucket` series plus `_sum` and `_count`.
    Histogram,
}

impl Kind {
    /// The type's name in a `# TYPE` line.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Renders an exposition one family at a time: [`Writer::family`] writes
/// the `# TYPE` line, the sample methods write the lines under it.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
}

impl Writer {
    /// Starts the family `name`: its `# TYPE` line.
    pub fn family(&mut self, name: &str, kind: Kind) -> &mut Self {
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.as_str());
        self
    }

    /// One sample line, `name{labels} value`: `name` is the family's, or a
    /// histogram's `_bucket`/`_sum`/`_count` series; label values are
    /// escaped.
    pub fn sample(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value: impl Display,
    ) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            write_labels(&mut self.out, labels);
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
        self
    }

    /// A family of one unlabelled sample. Its type follows the naming
    /// convention: a name ending in `_total` is a counter, any other a
    /// gauge.
    pub fn scalar(&mut self, name: &str, value: impl Display) -> &mut Self {
        let kind = if name.ends_with("_total") {
            Kind::Counter
        } else {
            Kind::Gauge
        };
        self.family(name, kind).sample(name, &[], value)
    }

    /// One labelled series of the histogram family `name`
    /// ([`HistogramSnapshot::render_into`]).
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snapshot: &HistogramSnapshot) {
        let mut inner = String::new();
        write_labels(&mut inner, labels);
        snapshot.render_into(&mut self.out, name, &inner);
    }

    /// Writes parsed or summed families back out, each series as it was
    /// written and each value as an integer when it is one, else with six
    /// decimals: phase counters and histogram `_sum`s are
    /// microsecond-derived, and fewer would round them away.
    pub fn families(&mut self, families: &[Family]) {
        for family in families {
            self.family(&family.name, family.kind);
            for Sample { series, value } in &family.samples {
                if value.fract().abs() < f64::EPSILON {
                    let _ = writeln!(self.out, "{series} {}", *value as i64);
                } else {
                    let _ = writeln!(self.out, "{series} {value:.6}");
                }
            }
        }
    }

    /// The rendered exposition.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// `k="v",k2="v2"`, values escaped.
fn write_labels(out: &mut String, labels: &[(&str, &str)]) {
    for (i, (key, value)) in labels.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}{key}=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// One sample line of a parsed exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The series as written: the sample's name and label set, e.g.
    /// `soctam_requests_total{kind="bounds"}`.
    pub series: String,
    /// The value.
    pub value: f64,
}

impl Sample {
    /// The sample's name: its family's, or a histogram series'.
    #[must_use]
    pub fn name(&self) -> &str {
        self.series.split('{').next().unwrap_or_default()
    }
}

/// One metric family of a parsed exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// The name its `# TYPE` line gives.
    pub name: String,
    /// Its type.
    pub kind: Kind,
    /// Its samples, in written order.
    pub samples: Vec<Sample>,
}

impl Family {
    /// Whether a sample named `sample` belongs to this family.
    fn owns(&self, sample: &str) -> bool {
        match sample.strip_prefix(self.name.as_str()) {
            Some("") => self.kind != Kind::Histogram,
            Some("_bucket" | "_sum" | "_count") => self.kind == Kind::Histogram,
            _ => false,
        }
    }
}

/// A parsed exposition: its families in written order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scrape {
    /// Every family, in the order of their `# TYPE` lines.
    pub families: Vec<Family>,
}

impl Scrape {
    /// Parses an exposition strictly (see the [module docs](self)): each
    /// sample follows its family's `# TYPE` line, with no other family's
    /// in between.
    ///
    /// # Errors
    ///
    /// The first offending line, numbered, and what was wrong with it.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut families: Vec<Family> = Vec::new();
        for (index, line) in text.lines().enumerate() {
            let fail = |reason: &str| format!("exposition line {}: {reason}: {line:?}", index + 1);
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
                let kind = [Kind::Counter, Kind::Gauge, Kind::Histogram]
                    .into_iter()
                    .find(|k| k.as_str() == kind)
                    .ok_or_else(|| fail("unknown metric type"))?;
                if !is_name(name, true) || families.iter().any(|f| f.name == name) {
                    return Err(fail("malformed or repeated family name"));
                }
                let (name, samples) = (name.to_owned(), Vec::new());
                families.push(Family {
                    name,
                    kind,
                    samples,
                });
            } else if !line.is_empty() && !line.starts_with('#') {
                // Any other `#` line, `# HELP` included, is a comment.
                let sample = parse_sample(line).map_err(fail)?;
                match families.last_mut() {
                    Some(family) if family.owns(sample.name()) => family.samples.push(sample),
                    _ => return Err(fail("sample whose family has no # TYPE line above it")),
                }
            }
        }
        Ok(Self { families })
    }

    /// The family named `name`.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    /// The value of the sample whose series is `series`:
    /// `soctam_shed_total`, or with its label set,
    /// `soctam_requests_total{kind="bounds"}`.
    #[must_use]
    pub fn value(&self, series: &str) -> Option<f64> {
        let mut samples = self.families.iter().flat_map(|f| &f.samples);
        samples.find(|s| s.series == series).map(|s| s.value)
    }
}

/// A metric name (`colons`) or a label name: a letter or underscore, then
/// alphanumerics and underscores.
fn is_name(name: &str, colons: bool) -> bool {
    let allowed = |c: char| c.is_ascii_alphanumeric() || c == '_' || (colons && c == ':');
    name.chars().next().is_some_and(|c| !c.is_ascii_digit()) && name.chars().all(allowed)
}

/// `name{labels} value`.
fn parse_sample(line: &str) -> Result<Sample, &'static str> {
    let (series, value) = line
        .rsplit_once(' ')
        .ok_or("expected a space before the value")?;
    let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
    if !is_name(name, true) {
        return Err("malformed metric name");
    }
    if !is_label_set(labels) {
        return Err("malformed label set");
    }
    let value = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        // Decimal notation only: Rust's parser would also take `inf`,
        // `infinity`, and `nan`, which the format does not.
        _ if value
            .bytes()
            .all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b)) =>
        {
            value.parse().map_err(|_| "malformed value")?
        }
        _ => return Err("malformed value"),
    };
    let series = series.to_owned();
    Ok(Sample { series, value })
}

/// Whether `set`, the text after a label set's `{`, is `k="v",...}`:
/// distinct valid names, quoted values with only the `\\`, `\"`, and
/// `\n` escapes, and nothing after the closing brace.
fn is_label_set(mut set: &str) -> bool {
    let mut keys = Vec::new();
    while let Some((key, rest)) = set.split_once("=\"") {
        if !is_name(key, false) || keys.contains(&key) {
            return false;
        }
        keys.push(key);
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next() {
                Some((at, '"')) => break at,
                Some((_, '\\')) if !matches!(chars.next(), Some((_, '\\' | '"' | 'n'))) => {
                    return false
                }
                Some(_) => {}
                None => return false,
            }
        };
        set = &rest[end + 1..];
        match set.strip_prefix(',') {
            Some(next) => set = next,
            None => break,
        }
    }
    set == "}"
}

/// Sums scrapes series by series: the balancer front's roll-up of its
/// backends. Families keep the order in which the scrapes first name them
/// (the first-seen type wins), and series within a family likewise; a
/// family that no scrape has a sample for is left out.
#[must_use]
pub fn rollup(scrapes: &[Scrape]) -> Vec<Family> {
    let mut out: Vec<Family> = Vec::new();
    // Series → (family index, sample index) in `out`.
    let mut index: HashMap<&str, (usize, usize)> = HashMap::new();
    for family in scrapes.iter().flat_map(|s| &s.families) {
        let at = out.iter().position(|f| f.name == family.name);
        let at = at.unwrap_or_else(|| {
            let (name, kind, samples) = (family.name.clone(), family.kind, Vec::new());
            out.push(Family {
                name,
                kind,
                samples,
            });
            out.len() - 1
        });
        for sample in &family.samples {
            match index.entry(&sample.series) {
                Entry::Occupied(seen) => {
                    let (f, s) = *seen.get();
                    out[f].samples[s].value += sample.value;
                }
                Entry::Vacant(slot) => {
                    slot.insert((at, out[at].samples.len()));
                    out[at].samples.push(sample.clone());
                }
            }
        }
    }
    out.retain(|f| !f.samples.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use soctam_core::schedule::obs::Histogram;

    /// A daemon-shaped exposition of one histogram series.
    fn exposition_of(samples: &[u64]) -> String {
        let histogram = Histogram::new();
        for &micros in samples {
            histogram.record_micros(micros);
        }
        let mut w = Writer::default();
        w.family("t_seconds", Kind::Histogram);
        w.histogram("t_seconds", &[("kind", "bounds")], &histogram.snapshot());
        w.finish()
    }

    /// Each series of a scrape with its value, `_sum`s in whole
    /// microseconds: six decimals of seconds are exact microseconds.
    fn series_values(families: &[Family]) -> Vec<(String, u64)> {
        let samples = families.iter().flat_map(|f| &f.samples);
        samples
            .map(|s| (s.series.clone(), (s.value * 1e6).round() as u64))
            .collect()
    }

    fn summed_equals_concatenated(a: &[u64], b: &[u64]) {
        let scrapes = [
            Scrape::parse(&exposition_of(a)).expect("strict"),
            Scrape::parse(&exposition_of(b)).expect("strict"),
        ];
        // The roll-up renders its sums; read that back too.
        let mut w = Writer::default();
        w.families(&rollup(&scrapes));
        let summed = Scrape::parse(&w.finish()).expect("strict roll-up");
        let concat: Vec<u64> = a.iter().chain(b).copied().collect();
        let whole = Scrape::parse(&exposition_of(&concat)).expect("strict");
        assert_eq!(
            series_values(&summed.families),
            series_values(&whole.families)
        );
    }

    #[test]
    fn writer_renders_families_byte_for_byte_and_reads_them_back() {
        let histogram = Histogram::new();
        histogram.record_micros(3);
        let mut w = Writer::default();
        w.scalar("a_total", 7u64)
            .scalar("g", 0.5)
            .family("b", Kind::Gauge)
            .sample("b", &[("x", "1"), ("y", "q\"b\\n\nl")], 0.25)
            .sample("b", &[("x", "2")], format_args!("{:.3}", 1.0))
            .family("h_seconds", Kind::Histogram);
        w.histogram("h_seconds", &[], &histogram.snapshot());
        let text = w.finish();
        let escaped = r#"b{x="1",y="q\"b\\n\nl"}"#;
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("# TYPE a_total counter"));
        assert_eq!(lines.next(), Some("a_total 7"));
        assert_eq!(lines.next(), Some("# TYPE g gauge"));
        assert_eq!(lines.next(), Some("g 0.5"));
        assert_eq!(lines.next(), Some("# TYPE b gauge"));
        assert_eq!(lines.next(), Some(format!("{escaped} 0.25").as_str()));
        assert_eq!(lines.next(), Some(r#"b{x="2"} 1.000"#));
        assert_eq!(lines.next(), Some("# TYPE h_seconds histogram"));
        assert_eq!(lines.next(), Some(r#"h_seconds_bucket{le="0.000001"} 0"#));
        assert!(
            text.ends_with("h_seconds_sum 0.000003\nh_seconds_count 1\n"),
            "{text}"
        );
        let scrape = Scrape::parse(&text).expect("strict");
        assert_eq!(scrape.value(escaped), Some(0.25));
        assert_eq!(
            scrape.family("h_seconds").map(|f| f.samples.len()),
            Some(25)
        );
        let mut again = Writer::default();
        again.families(&scrape.families);
        let again = again.finish();
        // The series comes back byte for byte; the value in the roll-up's
        // six-decimal form.
        assert_eq!(
            again.lines().nth(5),
            Some(format!("{escaped} 0.250000").as_str())
        );
    }

    #[test]
    fn reader_accepts_help_escaped_labels_infinities_and_nan() {
        let text = "# HELP up_total How often, with a \\\\ and a \\n.\n\
                    # TYPE up_total counter\n\
                    up_total{path=\"a\\\"b c\",le=\"x\",} 3\n\
                    # a free comment\n\
                    \n\
                    # TYPE g gauge\n\
                    g{k=\"1\"} +Inf\n\
                    g{k=\"2\"} -Inf\n\
                    g{k=\"3\"} NaN\n\
                    g{k=\"4\"} -1.5e-3\n\
                    g{} 7\n";
        let scrape = Scrape::parse(text).expect("strict");
        let up = scrape.family("up_total").expect("up_total");
        assert_eq!((up.kind, up.samples[0].name()), (Kind::Counter, "up_total"));
        assert_eq!(
            scrape.value("up_total{path=\"a\\\"b c\",le=\"x\",}"),
            Some(3.0)
        );
        assert_eq!(scrape.value("g{k=\"1\"}"), Some(f64::INFINITY));
        assert_eq!(scrape.value("g{k=\"2\"}"), Some(f64::NEG_INFINITY));
        assert!(scrape.value("g{k=\"3\"}").is_some_and(f64::is_nan));
        assert_eq!(scrape.value("g{k=\"4\"}"), Some(-0.0015));
        assert_eq!(scrape.value("g{}"), Some(7.0));
    }

    #[test]
    fn reader_groups_histogram_series_under_their_family() {
        let scrape = Scrape::parse(&exposition_of(&[1, 5, 900])).expect("strict");
        assert_eq!(scrape.families.len(), 1);
        let family = &scrape.families[0];
        assert_eq!(
            (family.name.as_str(), family.kind),
            ("t_seconds", Kind::Histogram)
        );
        assert_eq!(
            family.samples.len(),
            23 + 2,
            "every bucket, the sum, the count"
        );
        assert_eq!(
            scrape.value("t_seconds_bucket{kind=\"bounds\",le=\"+Inf\"}"),
            Some(3.0)
        );
        assert_eq!(scrape.value("t_seconds_count{kind=\"bounds\"}"), Some(3.0));
        assert_eq!(
            scrape.value("t_seconds_sum{kind=\"bounds\"}"),
            Some(0.000906)
        );
    }

    #[test]
    fn reader_rejects_malformed_expositions() {
        let no_type = "sample whose family has no # TYPE line above it";
        let labels = "malformed label set";
        for (text, reason) in [
            ("x 1", no_type),
            ("# TYPE x counter\ny 1", no_type),
            ("# TYPE h histogram\nh 1", no_type),
            ("# TYPE x counter\n# TYPE y gauge\nx 1", no_type),
            ("# TYPE x counter\nx{a=\"1\" 1", labels),
            ("# TYPE x counter\nx{a=1} 1", labels),
            ("# TYPE x counter\nx{a=\"1\"b=\"2\"} 1", labels),
            ("# TYPE x counter\nx{a=\"1\",a=\"2\"} 1", labels),
            ("# TYPE x counter\nx{1a=\"1\"} 1", labels),
            ("# TYPE x counter\nx{a=\"\\t\"} 1", labels),
            ("# TYPE x counter\nx{a=\"open} 1", labels),
            ("# TYPE x counter\nx{a=\"1\"}} 1", labels),
            ("# TYPE x counter\nx one", "malformed value"),
            ("# TYPE x counter\nx inf", "malformed value"),
            ("# TYPE x counter\nx 1.2.3", "malformed value"),
            ("# TYPE x counter\nx", "expected a space before the value"),
            ("# TYPE x counter\n1x 1", "malformed metric name"),
            ("# TYPE x summary", "unknown metric type"),
            (
                "# TYPE x counter\n# TYPE x counter",
                "malformed or repeated family name",
            ),
        ] {
            let err = Scrape::parse(text).expect_err(text);
            assert!(err.contains(reason), "{text:?}: {err}");
        }
    }

    #[test]
    fn rollup_keeps_first_seen_order_and_leaves_out_empty_families() {
        let a = "# TYPE x counter\nx 1\n# TYPE h histogram\n# TYPE g gauge\ng{k=\"a\"} 2\n";
        let b = "# TYPE g gauge\ng{k=\"b\"} 5\ng{k=\"a\"} 0.5\n# TYPE x counter\nx 2\n";
        let scrapes = [a, b].map(|text| Scrape::parse(text).expect("strict"));
        let mut w = Writer::default();
        w.families(&rollup(&scrapes));
        assert_eq!(
            w.finish(),
            "# TYPE x counter\nx 3\n# TYPE g gauge\ng{k=\"a\"} 2.500000\ng{k=\"b\"} 5\n"
        );
    }

    #[test]
    fn summed_scrapes_equal_the_histogram_of_concatenated_samples_at_the_edges() {
        let a = [3, 900, 17, 1 << 20, 3_999_999_999];
        summed_equals_concatenated(&a, &[0, 1, 2, 4_000_000, 77]);
        summed_equals_concatenated(&[], &[5]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Summing two daemons' scraped histogram series — what the
        /// balancer's roll-up does — equals the histogram of their
        /// concatenated samples.
        #[test]
        fn summed_scrapes_equal_the_histogram_of_concatenated_samples(
            a in proptest::collection::vec(0u64..4_000_000_000, 0..64),
            b in proptest::collection::vec(0u64..4_000_000_000, 0..64),
        ) {
            summed_equals_concatenated(&a, &b);
        }
    }
}
