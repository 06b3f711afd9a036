//! Property tests for the packer's incremental constraint state.
//!
//! The packer maintains `complete`/`scheduled` bitsets, a BIST-engine
//! occupancy table, and a scheduled-core count incrementally on every
//! assign/retire; in debug builds `Packer::debug_check_incremental_state`
//! recomputes all of them from the per-core states at every packing step
//! and asserts equality. These proptests drive randomized SOCs — random
//! cores, precedence, concurrency, BIST sharing, power ceilings, and
//! preemption budgets — through the scheduler so those assertions exercise
//! the full state machine. They run under `cargo test` (debug assertions
//! on); a release-mode run would still check the outcome equivalences
//! below, just not the per-step state equality.

use proptest::prelude::*;
use soctam_schedule::{validate, CompiledSoc, ScheduleBuilder, ScheduleError, SchedulerConfig};
use soctam_soc::{Core, Soc};
use soctam_wrapper::CoreTest;

#[derive(Debug, Clone)]
struct CoreSpec {
    inputs: u32,
    outputs: u32,
    chains: Vec<u32>,
    patterns: u64,
    bist: Option<usize>,
    max_preempts: u32,
}

fn core_spec() -> impl Strategy<Value = CoreSpec> {
    (
        1u32..40,
        1u32..40,
        proptest::collection::vec(1u32..60, 0..6),
        1u64..120,
        proptest::option::of(0usize..3),
        0u32..3,
    )
        .prop_map(
            |(inputs, outputs, chains, patterns, bist, max_preempts)| CoreSpec {
                inputs,
                outputs,
                chains,
                patterns,
                bist,
                max_preempts,
            },
        )
}

/// A randomized SOC: 2–7 cores plus index pairs reused (modulo the core
/// count) for precedence and concurrency edges.
fn soc_strategy() -> impl Strategy<Value = Soc> {
    (
        proptest::collection::vec(core_spec(), 2..7),
        proptest::collection::vec((0usize..7, 0usize..7), 0..4),
        proptest::collection::vec((0usize..7, 0usize..7), 0..4),
    )
        .prop_map(|(specs, prec, conc)| {
            let mut soc = Soc::new("prop");
            let n = specs.len();
            for (i, s) in specs.into_iter().enumerate() {
                let test =
                    CoreTest::new(s.inputs, s.outputs, 0, s.chains, s.patterns).expect("valid");
                let mut b = Core::builder(format!("c{i}"), test).max_preemptions(s.max_preempts);
                if let Some(e) = s.bist {
                    b = b.bist_engine(e);
                }
                soc.add_core(b.build());
            }
            // Forward-only precedence edges keep the graph acyclic.
            for (a, b) in prec {
                let (a, b) = (a % n, b % n);
                if a < b {
                    let _ = soc.add_precedence(a, b);
                }
            }
            for (a, b) in conc {
                let (a, b) = (a % n, b % n);
                if a != b {
                    let _ = soc.add_concurrency(a, b);
                }
            }
            soc
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packing step of every randomized run keeps the incremental
    /// bitsets equal to the from-scratch recomputation (debug asserts
    /// inside the packer), and successful schedules validate.
    #[test]
    fn incremental_state_matches_recomputation(
        soc in soc_strategy(),
        tam_width in 1u16..48,
        percent in 1u32..30,
        bump in 0u16..4,
        power_limited in proptest::bool::ANY,
    ) {
        let mut cfg = SchedulerConfig::new(tam_width)
            .with_percent(percent)
            .with_bump(bump);
        if power_limited {
            // A ceiling that admits every core alone but forces real
            // contention between them.
            let max = (0..soc.len()).map(|i| soc.core(i).power()).max().unwrap();
            cfg = cfg.with_power_limit(max.saturating_mul(2));
        }
        match ScheduleBuilder::new(&soc, cfg).run() {
            Ok(s) => validate::validate(&soc, &s).expect("schedule validates"),
            Err(ScheduleError::Stuck { .. }) => {} // legal under tight power
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// A shared full-cap context (its one menu build read under the run's
    /// cap) produces bit-identical outcomes (schedule or error) to a run's
    /// private context on randomized SOCs.
    #[test]
    fn shared_menus_equal_fresh_build(
        soc in soc_strategy(),
        tam_width in 1u16..48,
        percent in 1u32..30,
    ) {
        let cfg = SchedulerConfig::new(tam_width).with_percent(percent);
        let ctx = CompiledSoc::compile(&soc, cfg.w_max);
        let shared = ScheduleBuilder::new(&soc, cfg.clone()).with_context(&ctx).run();
        let fresh = ScheduleBuilder::new(&soc, cfg).run();
        prop_assert_eq!(shared, fresh);
    }
}
