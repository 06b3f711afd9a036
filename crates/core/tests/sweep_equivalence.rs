//! Equivalence suite for the sweep-scale optimizations: shared rectangle
//! menus, run deduplication, the bound cutoff, and concurrent
//! registry/engine serving must all be bit-identical to the naive
//! sequential rebuild-per-run sweep, and so must the served path from
//! request line to rendered response, cached or not.

use std::sync::Arc;

use proptest::prelude::*;
use soctam_core::engine::{Engine, EngineOp, EngineOutput, EngineRequest};
use soctam_core::flow::{FlowConfig, ParamSweep, PowerPolicy, TestFlow};
use soctam_core::protocol::{self, Json};
use soctam_core::schedule::bounds::{lower_bound, lower_bounds};
use soctam_core::schedule::{
    ContextRegistry, Schedule, ScheduleBuilder, SchedulerConfig, TamWidth,
};
use soctam_core::soc::synth::SynthConfig;
use soctam_core::soc::{benchmarks, Soc};

fn quick_flow() -> FlowConfig {
    FlowConfig {
        sweep: ParamSweep::quick(),
        ..FlowConfig::new()
    }
}

/// The pre-optimization sweep, verbatim: sequential grid order (slack,
/// then m, then d), no menu sharing, no dedup, strict-`<` winner rule,
/// under the ceiling the flow's power policy resolves to.
fn reference_best_schedule(
    soc: &Soc,
    cfg: &FlowConfig,
    w: TamWidth,
) -> (Schedule, (u32, TamWidth, TamWidth)) {
    let mut best: Option<(Schedule, (u32, TamWidth, TamWidth))> = None;
    for &slack in &cfg.sweep.slacks {
        for &m in &cfg.sweep.percents {
            for &d in &cfg.sweep.bumps {
                let mut scfg = SchedulerConfig::new(w).with_percent(m).with_bump(d);
                scfg.w_max = cfg.w_max;
                scfg.idle_fill_slack = slack;
                scfg.allow_preemption = cfg.allow_preemption;
                scfg.p_max = cfg.power.resolve(soc);
                let s = ScheduleBuilder::new(soc, scfg).run().expect("schedulable");
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| s.makespan() < b.makespan())
                {
                    best = Some((s, (m, d, slack)));
                }
            }
        }
    }
    best.expect("non-empty sweep")
}

fn assert_flow_matches_reference(soc: &Soc, w: TamWidth) {
    let (ref_schedule, ref_params) = reference_best_schedule(soc, &quick_flow(), w);
    let (opt_schedule, opt_params, stats) = TestFlow::new(soc, quick_flow())
        .best_schedule_detailed(w)
        .expect("schedulable");
    assert_eq!(
        opt_schedule,
        ref_schedule,
        "cached-menu/dedup/parallel sweep diverged from rebuild-per-run on {}",
        soc.name()
    );
    assert_eq!(opt_params, ref_params, "winning (m, d, slack) diverged");
    assert_eq!(stats.runs_total, ParamSweep::quick().runs());
    assert_eq!(stats.runs_executed + stats.runs_skipped, stats.runs_total);
}

#[test]
fn cached_menus_match_rebuild_per_run_d695() {
    assert_flow_matches_reference(&benchmarks::d695(), 16);
    assert_flow_matches_reference(&benchmarks::d695(), 48);
}

#[test]
fn cached_menus_match_rebuild_per_run_p22810() {
    assert_flow_matches_reference(&benchmarks::p22810(), 32);
}

#[test]
fn cached_menus_match_rebuild_per_run_p34392() {
    assert_flow_matches_reference(&benchmarks::p34392(), 24);
}

#[test]
fn cached_menus_match_rebuild_per_run_p93791() {
    assert_flow_matches_reference(&benchmarks::p93791(), 32);
}

#[test]
fn context_bounds_match_free_functions_on_all_benchmarks() {
    use soctam_core::schedule::CompiledSoc;
    for name in benchmarks::NAMES {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let ctx = CompiledSoc::compile(&soc, 64);
        let widths: Vec<TamWidth> = benchmarks::table1_widths(name).to_vec();
        assert_eq!(
            ctx.lower_bounds(&widths),
            lower_bounds(&soc, &widths, 64),
            "{name}: batch bound diverged"
        );
        for &w in &widths {
            assert_eq!(
                ctx.lower_bound(w),
                lower_bound(&soc, w, 64),
                "{name}: bound at W={w} diverged"
            );
        }
    }
}

#[test]
fn context_validator_agrees_on_flow_schedules() {
    use soctam_core::schedule::validate::{validate, validate_with};
    let soc = benchmarks::d695();
    let flow = TestFlow::new(&soc, quick_flow());
    let run = flow.run(24).unwrap();
    validate(&soc, &run.schedule).expect("flow schedule is valid");
    validate_with(flow.context(), &run.schedule).expect("context validator agrees");
}

/// The request mix the concurrency tests hammer: three SOCs crossed with
/// widths, scheduling modes, and power budgets — enough key diversity to
/// exercise several registry shards at once.
fn hammer_requests() -> Vec<EngineRequest> {
    let socs = [
        Arc::new(benchmarks::d695()),
        Arc::new(benchmarks::p34392()),
        Arc::new(benchmarks::p93791()),
    ];
    let mut requests = Vec::new();
    for soc in &socs {
        for w in [16u16, 24, 32] {
            requests.push(EngineRequest::schedule(Arc::clone(soc), quick_flow(), w));
        }
        requests.push(EngineRequest::schedule(
            Arc::clone(soc),
            quick_flow().without_preemption(),
            16,
        ));
        requests.push(EngineRequest::schedule(
            Arc::clone(soc),
            quick_flow().with_power(PowerPolicy::MaxCorePower),
            24,
        ));
        requests.push(EngineRequest::bounds(
            Arc::clone(soc),
            quick_flow(),
            vec![16, 32, 48, 64],
        ));
    }
    requests
}

fn assert_engine_results_equal(
    a: &[soctam_core::engine::EngineResult],
    b: &[soctam_core::engine::EngineResult],
) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        match (x.as_ref().unwrap(), y.as_ref().unwrap()) {
            (EngineOutput::Schedule(p), EngineOutput::Schedule(q)) => {
                assert_eq!(p.schedule, q.schedule);
                assert_eq!(p.params, q.params);
                assert_eq!(p.lower_bound, q.lower_bound);
                assert_eq!(p.volume, q.volume);
                assert_eq!(p.sweep, q.sweep);
            }
            (EngineOutput::Sweep(p), EngineOutput::Sweep(q)) => assert_eq!(p, q),
            (EngineOutput::Bounds(p), EngineOutput::Bounds(q)) => assert_eq!(p, q),
            _ => panic!("result kinds diverged"),
        }
    }
}

#[test]
fn concurrent_engine_hammer_matches_sequential_single_context_runs() {
    let requests = hammer_requests();

    // N caller threads hammer one engine (and thus one registry) with the
    // same mixed batch concurrently.
    let engine = Engine::new();
    let concurrent: Vec<Vec<soctam_core::engine::EngineResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(|| engine.serve(&requests)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Reference: every request served alone from a private sequential
    // flow — no registry, no batch threading, no shared anything.
    let reference: Vec<soctam_core::engine::EngineResult> = requests
        .iter()
        .map(|req| {
            Engine::new().with_threads(1).serve_one(&EngineRequest {
                soc: Arc::clone(&req.soc),
                flow: req.flow.clone(),
                op: req.op.clone(),
                trace: false,
            })
        })
        .collect();

    for results in &concurrent {
        assert_engine_results_equal(results, &reference);
    }

    // The registry compiled each distinct (SOC, w_max, budget) key exactly
    // once across all four hammering threads: 3 SOCs × {unlimited, P_max}.
    assert_eq!(engine.registry().stats().misses, 6);
    assert_eq!(engine.registry().len(), 6);
}

#[test]
fn shared_registry_across_engines_is_equivalent_to_private_registries() {
    let requests = hammer_requests();
    let shared_registry = Arc::new(ContextRegistry::new(4, 16));
    let a = Engine::with_registry(Arc::clone(&shared_registry)).serve(&requests);
    let b = Engine::with_registry(shared_registry).serve(&requests);
    let private = Engine::new().serve(&requests);
    assert_engine_results_equal(&a, &b);
    assert_engine_results_equal(&a, &private);
}

#[test]
fn eviction_cannot_change_results_only_costs() {
    // A pathologically tiny registry (capacity 1) thrashes on the mixed
    // batch; every result must still match the roomy registry's.
    let requests = hammer_requests();
    let tiny = Engine::with_registry(Arc::new(ContextRegistry::new(1, 1)));
    let roomy = Engine::new();
    let a = tiny.serve(&requests);
    let b = roomy.serve(&requests);
    assert_engine_results_equal(&a, &b);
    assert!(
        tiny.registry().stats().evictions > 0,
        "capacity-1 registry must actually thrash on 6 distinct keys"
    );
    assert_eq!(tiny.registry().len(), 1);
}

/// The numbers a served response to `op` must carry, computed point by
/// point from the SOC and the flow alone: `reference_best_schedule` at
/// each width and the free lower-bound functions.
fn reference_numbers(soc: &Soc, flow: &FlowConfig, op: &EngineOp) -> Vec<u64> {
    let best = |w: TamWidth| reference_best_schedule(soc, flow, w);
    match op {
        EngineOp::Schedule { width } => {
            let (schedule, (m, d, slack)) = best(*width);
            let time = schedule.makespan();
            vec![
                time,
                lower_bound(soc, *width, flow.w_max),
                u64::from(*width) * time,
                u64::from(m),
                u64::from(d),
                u64::from(slack),
            ]
        }
        EngineOp::Sweep { widths } => widths
            .iter()
            .flat_map(|&w| {
                let time = best(w).0.makespan();
                [
                    u64::from(w),
                    time,
                    u64::from(w) * time,
                    lower_bound(soc, w, flow.w_max),
                ]
            })
            .collect(),
        EngineOp::Bounds { widths } => lower_bounds(soc, widths, flow.w_max),
    }
}

/// The numbers of one rendered `"ok": true` response, in the order
/// `reference_numbers` lists them.
fn served_numbers(response: &Json<'_>) -> Vec<u64> {
    let num = |v: &Json<'_>, key: &str| v[key].as_u64().unwrap_or_else(|| panic!("`{key}`"));
    if let Some(points) = response["points"].as_array() {
        points
            .iter()
            .flat_map(|p| ["width", "time", "volume", "lower_bound"].map(|k| num(p, k)))
            .collect()
    } else if let Some(bounds) = response["bounds"].as_array() {
        bounds
            .iter()
            .map(|b| b.as_u64().expect("a bound"))
            .collect()
    } else {
        ["makespan", "lower_bound", "volume", "m", "d", "slack"]
            .iter()
            .map(|k| num(response, k))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A `schedule`, a three-width `sweep` and a `bounds` line over a
    /// synthetic SOC with many BIST cores, parsed by the request grammar
    /// and served on a solution cache's miss, on its hit, and by an engine
    /// without one, render the same strict-JSON line, and its numbers are
    /// the naive per-point reference's.
    #[test]
    fn served_requests_on_synthetic_socs_match_the_reference(
        cores in 4usize..14,
        seed in 0u64..1_000_000,
        width in 4u16..48,
        power in proptest::bool::ANY,
        no_preempt in proptest::bool::ANY,
    ) {
        let mut synth = SynthConfig::new(cores).with_constraints().with_preemption(2);
        synth.bist_prob = 0.6;
        let soc = Arc::new(synth.generate(seed));
        let mut resolver = |_: &str| Ok(Arc::clone(&soc));
        let mut flow = quick_flow();
        let mut flags = String::new();
        if power {
            flow = flow.with_power(PowerPolicy::MaxCorePower);
            flags.push_str(" --power");
        }
        if no_preempt {
            flow = flow.without_preemption();
            flags.push_str(" --no-preempt");
        }
        let (name, widths) = (soc.name(), vec![width, width + 1, width + 2]);
        let cases = [
            (
                format!("schedule {name} --width {width}{flags}"),
                EngineOp::Schedule { width },
            ),
            (
                format!("sweep {name} --from {width} --to {}{flags}", width + 2),
                EngineOp::Sweep { widths: widths.clone() },
            ),
            (
                format!("bounds {name} --widths {width},{},{}{flags}", width + 1, width + 2),
                EngineOp::Bounds { widths },
            ),
        ];

        let cached = Engine::new().with_solution_cache(16, None);
        for (line, op) in &cases {
            let req = protocol::parse_request(line, &mut resolver).expect("parses");
            let miss = protocol::render_result(&req, &cached.serve_one(&req));
            let hit = protocol::render_result(&req, &cached.serve_one(&req));
            let fresh = protocol::render_result(&req, &Engine::new().serve_one(&req));
            prop_assert_eq!(&miss, &hit);
            prop_assert_eq!(&miss, &fresh);
            let response = Json::parse(&miss).unwrap_or_else(|e| panic!("{e}: {miss}"));
            prop_assert_eq!(&response["ok"], &Json::Bool(true), "{}", miss);
            prop_assert_eq!(
                served_numbers(&response),
                reference_numbers(&soc, &flow, op),
                "{}",
                line
            );
        }
        let stats = cached.solution_stats().expect("cache enabled");
        prop_assert_eq!((stats.misses, stats.hits), (3, 3));
    }
}
