//! Cross-crate property tests: random SOCs through the whole pipeline.

use std::sync::Arc;

use proptest::prelude::*;

use soctam::engine::{Engine, EngineOutput, EngineRequest};
use soctam::flow::{FlowConfig, PowerPolicy, SweepParams};
use soctam::schedule::bounds::lower_bound;
use soctam::schedule::validate::{validate, validate_power, validate_with};
use soctam::schedule::{best_of, CompiledSoc, Schedule, ScheduleBuilder, SchedulerConfig, Slice};
use soctam::soc::itc02;
use soctam::soc::synth::SynthConfig;
use soctam::tam::WireAssignment;
use soctam::wrapper::RectangleSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any generated SOC schedules successfully at any width; the result
    /// validates, respects the lower bound, and is wire-assignable.
    #[test]
    fn pipeline_holds_for_random_socs(
        cores in 2usize..18,
        seed in 0u64..1000,
        width in 1u16..72,
        percent in 1u32..40,
        bump in 0u16..5,
    ) {
        let soc = SynthConfig::new(cores).generate(seed);
        let cfg = SchedulerConfig::new(width)
            .with_percent(percent)
            .with_bump(bump);
        let schedule = ScheduleBuilder::new(&soc, cfg).run().expect("schedulable");
        prop_assert!(validate(&soc, &schedule).is_ok());
        prop_assert!(schedule.makespan() >= lower_bound(&soc, width, 64));
        let wires = WireAssignment::assign(&schedule).expect("assignable");
        prop_assert!(wires.verify().is_ok());
    }

    /// Constraint-heavy SOCs with preemption budgets also hold: budgets,
    /// precedence, hierarchy, and BIST exclusion all validate.
    #[test]
    fn constrained_pipeline_holds(
        cores in 2usize..14,
        seed in 0u64..500,
        width in 4u16..48,
    ) {
        let soc = SynthConfig::new(cores)
            .with_constraints()
            .with_preemption(2)
            .generate(seed);
        let schedule = ScheduleBuilder::new(&soc, SchedulerConfig::new(width))
            .run()
            .expect("schedulable");
        prop_assert!(validate(&soc, &schedule).is_ok());
        for idx in 0..soc.len() {
            let stats = schedule.core_stats(idx).expect("core tested");
            prop_assert!(stats.preemptions <= soc.core(idx).max_preemptions());
        }
    }

    /// A power ceiling of the maximum core power is always feasible and
    /// always honoured.
    #[test]
    fn power_ceiling_always_honoured(
        cores in 2usize..12,
        seed in 0u64..300,
        width in 4u16..40,
    ) {
        let soc = SynthConfig::new(cores).generate(seed);
        let p_max = soc.max_core_power();
        let cfg = SchedulerConfig::new(width).with_power_limit(p_max);
        let schedule = ScheduleBuilder::new(&soc, cfg).run().expect("schedulable");
        prop_assert!(validate_power(&soc, &schedule, p_max).is_ok());
    }

    /// The `.soc` text format round-trips every generated model exactly.
    #[test]
    fn text_format_round_trips(cores in 1usize..20, seed in 0u64..1000) {
        let soc = SynthConfig::new(cores)
            .with_constraints()
            .with_preemption(3)
            .generate(seed);
        let text = itc02::to_string(&soc);
        let back = itc02::parse(&text).expect("parses back");
        prop_assert_eq!(soc, back);
    }

    /// Non-preemptive schedules consist of exactly one slice per core.
    #[test]
    fn non_preemptive_means_contiguous(
        cores in 2usize..14,
        seed in 0u64..300,
        width in 4u16..48,
    ) {
        let soc = SynthConfig::new(cores).with_preemption(3).generate(seed);
        let cfg = SchedulerConfig::new(width).without_preemption();
        let schedule = ScheduleBuilder::new(&soc, cfg).run().expect("schedulable");
        for idx in 0..soc.len() {
            prop_assert_eq!(schedule.core_slices(idx).len(), 1);
        }
    }

    /// Every schedule of a random valid SOC passes `schedule::validate`,
    /// and the invariants the validator promises hold when recomputed
    /// from the raw slices: the TAM is never over-subscribed, an imposed
    /// power budget is never exceeded, and no core overlaps itself.
    #[test]
    fn validated_schedules_hold_under_recomputation(
        cores in 2usize..16,
        seed in 0u64..800,
        width in 2u16..64,
        constrained in 0u8..2,
    ) {
        let mut config = SynthConfig::new(cores).with_preemption(2);
        if constrained == 1 {
            config = config.with_constraints();
        }
        let soc = config.generate(seed);
        let p_max = soc.max_core_power();
        let cfg = SchedulerConfig::new(width).with_power_limit(p_max);
        let schedule = ScheduleBuilder::new(&soc, cfg).run().expect("schedulable");

        // The library validator accepts it...
        prop_assert!(validate(&soc, &schedule).is_ok());
        prop_assert!(validate_power(&soc, &schedule, p_max).is_ok());

        // ...and an independent recomputation agrees. Check at every
        // event time (slice starts suffice: widths and powers in use are
        // piecewise-constant and only rise at starts).
        let mut starts: Vec<u64> = schedule.slices().iter().map(|s| s.start).collect();
        starts.sort_unstable();
        starts.dedup();
        for &t in &starts {
            let running: Vec<&Slice> = schedule
                .slices()
                .iter()
                .filter(|s| s.start <= t && t < s.end)
                .collect();
            let wires: u32 = running.iter().map(|s| u32::from(s.width)).sum();
            prop_assert!(wires <= u32::from(width), "t={}: {} wires", t, wires);
            let power: u64 = running.iter().map(|s| soc.core(s.core).power()).sum();
            prop_assert!(power <= p_max, "t={}: power {} > {}", t, power, p_max);
        }

        // No core overlaps itself, and its slices cover exactly the
        // wrapper model's testing time at the assigned width, plus one
        // scan-in/scan-out penalty per actual interruption.
        for idx in 0..soc.len() {
            let mut slices = schedule.core_slices(idx);
            slices.sort_by_key(|s| s.start);
            for pair in slices.windows(2) {
                prop_assert!(pair[0].end <= pair[1].start, "core {} overlaps itself", idx);
            }
            let busy: u64 = slices.iter().map(Slice::duration).sum();
            let rects = RectangleSet::build(soc.core(idx).test(), slices[0].width);
            let preemptions = (slices.len() - 1) as u64;
            let expected = rects.time_at(slices[0].width)
                + preemptions * rects.rect_at(slices[0].width).preemption_penalty();
            prop_assert_eq!(busy, expected, "core {}", idx);
        }
    }

    /// The one best-of sweep, called directly or served by the engine,
    /// returns exactly the schedule and parameters of running every grid
    /// point on its own — in every scheduling mode, on constrained SOCs
    /// with preemption budgets. Deduplication and the bound cutoff may
    /// only save runs.
    #[test]
    fn best_of_matches_the_every_point_reference(
        cores in 2usize..12,
        seed in 0u64..500,
        width in 1u16..72,
    ) {
        let soc = Arc::new(
            SynthConfig::new(cores)
                .with_constraints()
                .with_preemption(2)
                .generate(seed),
        );
        for (power, preempt) in [(false, true), (false, false), (true, true), (true, false)] {
            let mut flow = FlowConfig::quick();
            if power {
                flow = flow.with_power(PowerPolicy::MaxCorePower);
            }
            if !preempt {
                flow = flow.without_preemption();
            }
            let mut base = SchedulerConfig::new(width);
            base.allow_preemption = preempt;
            base.p_max = flow.power.resolve(&soc);

            // The reference: a fresh run per grid point, in grid order,
            // first strictly smaller makespan wins.
            let mut reference: Option<(Schedule, SweepParams)> = None;
            for &slack in &flow.sweep.slacks {
                for &m in &flow.sweep.percents {
                    for &d in &flow.sweep.bumps {
                        let mut cfg = base.clone().with_percent(m).with_bump(d);
                        cfg.idle_fill_slack = slack;
                        let s = ScheduleBuilder::new(&soc, cfg).run().expect("schedulable");
                        if reference
                            .as_ref()
                            .is_none_or(|(b, _)| s.makespan() < b.makespan())
                        {
                            reference = Some((s, (m, d, slack)));
                        }
                    }
                }
            }
            let (want, want_params) = reference.expect("non-empty grid");

            let ctx = CompiledSoc::compile(&soc, flow.w_max);
            let (got, params, stats) = best_of(&ctx, &base, &flow.sweep).expect("schedulable");
            prop_assert_eq!(&got, &want, "power={} preempt={}", power, preempt);
            prop_assert_eq!(params, want_params);
            prop_assert_eq!(
                stats.runs_executed + stats.runs_skipped + stats.runs_cut,
                stats.runs_total
            );
            prop_assert!(validate_with(&ctx, &got).is_ok());
            if let Some(p_max) = base.p_max {
                prop_assert!(validate_power(&soc, &got, p_max).is_ok());
            }
            prop_assert!(got.makespan() >= ctx.lower_bound(width));

            let request = EngineRequest::schedule(Arc::clone(&soc), flow, width);
            let Ok(EngineOutput::Schedule(run)) = Engine::new().serve_one(&request) else {
                panic!("served schedule request failed");
            };
            prop_assert_eq!(&run.schedule, &want, "power={} preempt={}", power, preempt);
            prop_assert_eq!(run.params, want_params);
        }
    }
}
