//! A fixed-size log-linear latency histogram: 256 sub-buckets per octave
//! (0.4% resolution) from 1 µs to about 68 s. Recording costs one array
//! increment and its memory does not grow with the sample count. A run
//! keeps one [`Compact`] copy per window, so its bookkeeping grows with
//! the run's length (up to about 2 MiB for 30 s), not with its request
//! count.

const MIN_EXP: u32 = 10; // 2^10 ns ≈ 1 µs
const MAX_EXP: u32 = 36; // 2^36 ns ≈ 68 s
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUB;

#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    ok: u64,
    /// Failed requests: they count as slower than every limit.
    failed: u64,
    sum_ns: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            ok: 0,
            failed: 0,
            sum_ns: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    let ns = ns.clamp(1 << MIN_EXP, (1 << MAX_EXP) - 1);
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - MIN_EXP) as usize * SUB + sub
}

/// The midpoint of bucket `i`, in milliseconds.
fn midpoint_ms(i: usize) -> f64 {
    let exp = MIN_EXP + (i / SUB) as u32;
    let width = 1u64 << (exp - SUB_BITS);
    let low = (1u64 << exp) + (i % SUB) as u64 * width;
    (low as f64 + width as f64 / 2.0) / 1e6
}

impl Hist {
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.ok += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Requests recorded, failed ones included.
    pub fn samples(&self) -> u64 {
        self.ok + self.failed
    }

    pub fn ok(&self) -> u64 {
        self.ok
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Mean latency of the successful requests, in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.sum_ns as f64 / 1e6 / self.ok.max(1) as f64
    }

    /// The histogram's non-empty buckets: a compact copy to keep one per
    /// window of a run.
    pub fn compact(&self) -> Compact {
        Compact {
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| {
                    (
                        u16::try_from(i).expect("BUCKETS fits in 16 bits"),
                        u32::try_from(c).expect("a window holds fewer than 2^32 requests"),
                    )
                })
                .collect(),
            ok: self.ok,
            failed: self.failed,
            sum_ns: self.sum_ns,
        }
    }

    /// Adds the samples of a compact copy.
    pub fn merge(&mut self, c: &Compact) {
        for &(i, n) in &c.buckets {
            self.counts[usize::from(i)] += u64::from(n);
        }
        self.ok += c.ok;
        self.failed += c.failed;
        self.sum_ns += c.sum_ns;
    }

    /// The `q`-quantile by nearest rank, in milliseconds; a rank that
    /// lands on a failed request is `+inf`.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.samples();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint_ms(i);
            }
        }
        f64::INFINITY
    }
}

/// The non-empty buckets of a [`Hist`].
#[derive(Debug, Clone, Default)]
pub struct Compact {
    buckets: Vec<(u16, u32)>,
    ok: u64,
    failed: u64,
    sum_ns: u128,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_copies_merge_back_to_the_whole() {
        let (mut a, mut b, mut whole) = (Hist::default(), Hist::default(), Hist::default());
        for ns in [20_000u64, 21_000, 90_000] {
            a.record_ns(ns);
            whole.record_ns(ns);
        }
        for ns in [25_000u64, 2_000_000] {
            b.record_ns(ns);
            whole.record_ns(ns);
        }
        b.record_failure();
        whole.record_failure();
        let mut merged = Hist::default();
        merged.merge(&a.compact());
        merged.merge(&b.compact());
        assert_eq!(merged.counts, whole.counts);
        assert_eq!(
            (merged.ok, merged.failed, merged.sum_ns),
            (whole.ok, whole.failed, whole.sum_ns)
        );
    }

    #[test]
    fn buckets_resolve_to_within_half_a_percent() {
        for ns in [1_500u64, 25_000, 31_337, 2_400_000, 9_999_999_999] {
            let mut h = Hist::default();
            h.record_ns(ns);
            let got = h.quantile_ms(0.5) * 1e6;
            assert!(
                (got - ns as f64).abs() / (ns as f64) < 0.004,
                "{ns} -> {got}"
            );
        }
    }

    #[test]
    fn failures_rank_last() {
        let mut h = Hist::default();
        for _ in 0..98 {
            h.record_ns(10_000);
        }
        h.record_failure();
        h.record_failure();
        assert!(h.quantile_ms(0.98).is_finite());
        assert!(h.quantile_ms(0.99).is_infinite());
    }
}
