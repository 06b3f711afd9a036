//! Equivalence suite for the sweep-scale optimizations: shared rectangle
//! menus, run deduplication, the bound cutoff, and concurrent
//! registry/engine serving must all be bit-identical to the naive
//! sequential rebuild-per-run sweep.

use std::sync::Arc;

use soctam_core::engine::{Engine, EngineOutput, EngineRequest};
use soctam_core::flow::{FlowConfig, ParamSweep, PowerPolicy, TestFlow};
use soctam_core::schedule::{
    ContextRegistry, Schedule, ScheduleBuilder, SchedulerConfig, TamWidth,
};
use soctam_core::soc::{benchmarks, Soc};

fn quick_flow() -> FlowConfig {
    FlowConfig {
        sweep: ParamSweep::quick(),
        ..FlowConfig::new()
    }
}

/// The pre-optimization sweep, verbatim: sequential grid order (slack,
/// then m, then d), no menu sharing, no dedup, strict-`<` winner rule.
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
    use soctam_core::schedule::bounds::{lower_bound, lower_bounds};
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
