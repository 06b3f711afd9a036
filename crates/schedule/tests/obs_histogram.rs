//! Property and stress tests for the `obs` histogram: exact power-of-two
//! bucket boundaries and lossless concurrent recording over the lock
//! stripes. (The `le` labels, and that summing two histograms' scraped
//! series equals the histogram of the concatenated samples, are checked
//! where the text is written and read, in `soctam-server`'s exposition
//! tests.)

use proptest::prelude::*;
use soctam_schedule::obs::{bucket_index, Histogram, HistogramSnapshot};

fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &s in samples {
        h.record_micros(s);
    }
    h.snapshot()
}

#[test]
fn bucket_boundaries_are_exact_at_powers_of_two() {
    // A value exactly on a bucket's upper bound lands *in* that bucket
    // (`le` is inclusive); one past it spills into the next.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 0);
    for exp in 1..=21u32 {
        let bound = 1u64 << exp;
        assert_eq!(bucket_index(bound), exp as usize, "2^{exp} µs on-bound");
        assert_eq!(
            bucket_index(bound + 1),
            (exp as usize + 1).min(22),
            "2^{exp}+1 µs past-bound"
        );
        assert_eq!(bucket_index(bound - 1), exp as usize - (exp == 1) as usize);
    }
    // Past the largest finite bound everything overflows into +Inf.
    assert_eq!(bucket_index((1 << 21) + 1), 22);
    assert_eq!(bucket_index(u64::MAX), 22);
}

#[test]
fn concurrent_recording_loses_nothing_across_stripes() {
    // 8 threads × 10 000 records hammer one histogram; the folded
    // snapshot must account for every record exactly, whichever stripes
    // the threads landed on.
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Histogram::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record_micros(t * PER_THREAD + i);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    let n = THREADS * PER_THREAD;
    assert_eq!(snap.sum_micros, n * (n - 1) / 2);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every recorded value lands in exactly one bucket, and the bucket
    /// chosen is the smallest inclusive upper bound.
    #[test]
    fn each_sample_lands_in_its_smallest_covering_bucket(micros in 0u64..u64::MAX) {
        let snap = snapshot_of(&[micros]);
        prop_assert_eq!(snap.count, 1);
        prop_assert_eq!(snap.sum_micros, micros);
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), 1);

        let i = bucket_index(micros);
        prop_assert_eq!(snap.buckets[i], 1);
        if i <= 21 {
            prop_assert!(micros <= 1u64 << i, "value inside its bound");
            if i > 0 {
                prop_assert!(micros > 1u64 << (i - 1), "bound is the smallest");
            }
        } else {
            prop_assert!(micros > 1u64 << 21, "+Inf only past the largest bound");
        }
    }
}
