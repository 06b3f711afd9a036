//! Hot-path unit tests for `RectangleSet`'s Pareto-width construction —
//! the per-core menu every schedule run is built from.

use soctam_wrapper::{CoreTest, Cycles, RectangleSet, TamWidth};

/// A mid-size scan core shaped like d695's larger members (many chains,
/// hundreds of patterns).
fn scan_core() -> CoreTest {
    CoreTest::builder()
        .inputs(165)
        .outputs(105)
        .scan_chains([520, 510, 480, 460, 410, 390, 380, 350, 120, 110, 80, 44])
        .patterns(234)
        .build()
        .expect("valid core")
}

#[test]
fn pareto_set_matches_brute_force_staircase() {
    let core = scan_core();
    let set = RectangleSet::build(&core, 64);
    // Brute force: a width is Pareto-optimal iff its best time beats every
    // narrower width's best time.
    let mut expect: Vec<TamWidth> = vec![1];
    for w in 2..=64u16 {
        if set.time_at(w) < set.time_at(w - 1) {
            expect.push(w);
        }
    }
    assert_eq!(set.pareto_widths(), expect);
}

#[test]
fn pareto_times_strictly_decrease() {
    let set = RectangleSet::build(&scan_core(), 64);
    let mut last: Option<Cycles> = None;
    for p in set.pareto() {
        if let Some(prev) = last {
            assert!(p.time < prev, "width {} did not improve", p.width);
        }
        last = Some(p.time);
    }
}

#[test]
fn effective_width_is_the_pareto_width_at_or_below() {
    let set = RectangleSet::build(&scan_core(), 64);
    for w in 1..=64u16 {
        let r = set.rect_at(w);
        assert_eq!(
            Some(r.effective_width),
            set.highest_pareto_width_at_most(w),
            "width {w}"
        );
        assert_eq!(set.time_at(r.effective_width), r.time);
    }
}

#[test]
fn min_area_never_exceeds_any_rectangle() {
    let set = RectangleSet::build(&scan_core(), 64);
    let min = set.min_area();
    for w in 1..=64u16 {
        assert!(min <= set.rect_at(w).area(), "width {w}");
    }
}

#[test]
fn preferred_width_is_minimal_within_percent() {
    let set = RectangleSet::build(&scan_core(), 48);
    for m in [1u32, 3, 7, 15, 40] {
        let pref = set.preferred_width(m, 48);
        // Within m% of the minimum time...
        assert!(set.time_at(pref) as u128 * 100 <= set.min_time() as u128 * (100 + u128::from(m)));
        // ...and no narrower width qualifies.
        if pref > 1 {
            assert!(
                set.time_at(pref - 1) as u128 * 100
                    > set.min_time() as u128 * (100 + u128::from(m))
            );
        }
    }
}

#[test]
fn bump_rule_only_jumps_to_highest_pareto_width() {
    let set = RectangleSet::build(&scan_core(), 64);
    let hi = set.highest_pareto_width();
    for m in [1u32, 5, 20] {
        let pref = set.preferred_width(m, 64);
        for d in 0..=16u16 {
            let bumped = set.preferred_width_bumped(m, d, 64);
            if hi > pref && hi - pref <= d {
                assert_eq!(bumped, hi, "m={m} d={d}");
            } else {
                assert_eq!(bumped, pref, "m={m} d={d}");
            }
        }
    }
}

#[test]
fn single_chain_core_has_tiny_pareto_front() {
    // One long chain dominates: nothing improves once both scan paths are
    // chain-bound, so the Pareto front stays small and flat thereafter.
    let core = CoreTest::new(4, 4, 0, vec![300], 20).expect("valid core");
    let set = RectangleSet::build(&core, 64);
    assert!(set.highest_pareto_width() <= 3);
    assert_eq!(set.time_at(set.highest_pareto_width()), set.min_time());
}

#[test]
fn combinational_core_pareto_front_tracks_terminal_ceilings() {
    // No scan chains: time depends only on ceil(io/w), so the staircase
    // drops exactly where those ceilings drop.
    let core = CoreTest::new(24, 24, 0, vec![], 10).expect("valid core");
    let set = RectangleSet::build(&core, 32);
    for &w in &set.pareto_widths()[1..] {
        assert!(set.time_at(w) < set.time_at(w - 1));
    }
    assert_eq!(set.time_at(24), set.time_at(32));
}
