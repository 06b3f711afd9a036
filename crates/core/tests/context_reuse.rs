//! The test wall around `CompiledSoc` context reuse.
//!
//! Two kinds of pins:
//!
//! * **Amortization** — work totals (`soctam_schedule::obs::total`,
//!   `soctam_wrapper::instrument`) prove
//!   that a whole `(m, d, slack)` sweep builds `RectangleMenus` and
//!   compiles `ConstraintSet` exactly once per SOC, that width sweeps —
//!   served or direct — build menus once, when the context compiles, and
//!   read every narrower cap from that one build, that baseline
//!   evaluations over a shared context rebuild *zero* menus, that a
//!   registry-backed preemption ablation compiles one context per budget
//!   variant, and that an `Engine` batch compiles one context per
//!   `(SOC, w_max, budget)` key.
//! * **Bit-identity** — every context-reuse path (scheduler, bounds,
//!   baselines) produces results identical to a rebuild-per-call run on
//!   all four benchmark SOCs.
//!
//! The counters are process-global, so every test in this binary
//! serializes on one mutex; keep counter-sensitive tests here and nowhere
//! else in this binary.

use std::sync::{Arc, Mutex, OnceLock};

use soctam_core::baseline::{fixed_width_best, session_schedule, shelf_pack};
use soctam_core::engine::{Engine, EngineRequest};
use soctam_core::flow::{FlowConfig, ParamSweep, TestFlow};
use soctam_core::protocol::{benchmark_resolver, parse_request};
use soctam_core::report::{preemption_sweep, preemption_sweep_with};
use soctam_core::schedule::obs::{total, Work};
use soctam_core::schedule::{CompiledSoc, ContextRegistry};
use soctam_core::soc::benchmarks;
use soctam_core::wrapper::instrument as wrapper_instrument;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn quick_flow() -> FlowConfig {
    FlowConfig {
        sweep: ParamSweep::quick(),
        ..FlowConfig::new()
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Counters {
    menus: u64,
    constraints: u64,
    contexts: u64,
    rects: u64,
}

fn counters() -> Counters {
    Counters {
        menus: total(Work::MenuBuild),
        constraints: total(Work::ConstraintCompile),
        contexts: total(Work::ContextCompile),
        rects: wrapper_instrument::rectangle_set_builds(),
    }
}

#[test]
fn one_width_sweep_compiles_the_soc_exactly_once() {
    let _guard = lock();
    let soc = benchmarks::d695();

    let before = counters();
    // The context's one menu build and constraint compilation serve the
    // whole sweep.
    let flow = TestFlow::new(&soc, quick_flow());
    let run = flow.run(64).expect("schedulable");
    let after = counters();

    assert_eq!(
        after.menus - before.menus,
        1,
        "the (m, d, slack) sweep must build RectangleMenus exactly once"
    );
    assert_eq!(
        after.constraints - before.constraints,
        1,
        "the (m, d, slack) sweep must compile ConstraintSet exactly once"
    );
    assert_eq!(
        after.contexts - before.contexts,
        1,
        "the flow compiles exactly one CompiledSoc"
    );
    assert_eq!(
        after.rects - before.rects,
        soc.len() as u64,
        "one RectangleSet per core, never rebuilt"
    );
    assert!(run.sweep.runs_executed > 1, "the sweep really ran");
}

#[test]
fn width_sweep_reads_every_cap_from_one_build() {
    let _guard = lock();
    let soc = benchmarks::d695();

    let before = counters();
    let flow = TestFlow::new(&soc, quick_flow());
    // Compiling the context builds the menus at its cap (64). Widths 16,
    // 32 and 48 read that build under their own caps, 64 reads all of it,
    // and widths past w_max read it under the 64-wide cap.
    flow.sweep_widths([16u16, 32, 48, 64, 72]).unwrap();
    let after = counters();

    assert_eq!(
        after.menus - before.menus,
        1,
        "exactly one menu build: the context's"
    );
    assert_eq!(
        after.constraints - before.constraints,
        1,
        "one constraint compilation for the whole width sweep"
    );
    assert_eq!(
        after.rects - before.rects,
        soc.len() as u64,
        "rectangle sets are built once, at the context's cap"
    );

    // A second sweep over the same flow is fully amortized.
    let before = counters();
    flow.sweep_widths([16u16, 32, 48, 64, 72]).unwrap();
    let after = counters();
    assert_eq!(after, before, "re-sweeping must rebuild nothing");
}

#[test]
fn served_width_sweep_builds_menus_once() {
    let _guard = lock();
    let request = parse_request("sweep d695 --from 16 --to 32", &mut benchmark_resolver())
        .expect("valid request");
    let engine = Engine::new();

    let before = counters();
    let result = engine.serve_one(&request);
    let after = counters();
    assert!(result.is_ok());
    assert_eq!(after.contexts - before.contexts, 1);
    assert_eq!(
        after.menus - before.menus,
        1,
        "a cold 17-width sweep builds the menus once, when its context compiles"
    );
}

#[test]
fn table1_modes_share_one_compilation() {
    let _guard = lock();
    let soc = benchmarks::d695();
    let ctx = Arc::new(CompiledSoc::compile(&soc, 64));

    let before = counters();
    for cfg in [
        quick_flow(),
        quick_flow().without_preemption(),
        quick_flow().with_power(soctam_core::flow::PowerPolicy::MaxCorePower),
    ] {
        TestFlow::with_context(Arc::clone(&ctx), cfg)
            .best_schedule(64)
            .expect("schedulable");
    }
    let after = counters();
    assert_eq!(after, before, "shared context: three modes, zero rebuilds");
}

#[test]
fn baseline_sweep_rebuilds_zero_menus() {
    let _guard = lock();
    let soc = benchmarks::d695();
    let widths = benchmarks::table1_widths("d695");
    let ctx = CompiledSoc::compile(&soc, 64);

    let before = counters();
    for &w in &widths {
        let _ = fixed_width_best(&ctx, w, 3);
        let _ = fixed_width_best(&ctx, w, 2);
        let _ = shelf_pack(&ctx, w, 5, 1);
        let _ = session_schedule(&ctx, w);
        let _ = ctx.lower_bound(w);
    }
    let after = counters();
    assert_eq!(
        after, before,
        "baseline evaluations over a shared context must rebuild nothing"
    );
}

#[test]
fn preemption_ablation_compiles_one_context_per_budget_variant() {
    let _guard = lock();
    let soc = benchmarks::d695();
    let registry = ContextRegistry::default();
    let budgets = [0u32, 1, 2];

    let before = counters();
    let first = preemption_sweep_with(&registry, &soc, 16, &budgets, &quick_flow()).unwrap();
    let after = counters();
    assert_eq!(
        after.contexts - before.contexts,
        budgets.len() as u64,
        "one context compile per budget variant"
    );
    assert_eq!(registry.stats().misses, budgets.len() as u64);

    // Re-sweeping the same variants at the same width compiles and builds
    // nothing: the registry serves every budget's context, menus included.
    let before = counters();
    let again = preemption_sweep_with(&registry, &soc, 16, &budgets, &quick_flow()).unwrap();
    let after = counters();
    assert_eq!(
        after.contexts - before.contexts,
        0,
        "zero redundant compiles across the ablation"
    );
    assert_eq!(after.menus - before.menus, 0);
    assert_eq!(after.constraints - before.constraints, 0);

    // Another width also reuses every context, and builds no menus: each
    // context reads its one build under the new width's cap.
    let before = counters();
    let other_width = preemption_sweep_with(&registry, &soc, 24, &budgets, &quick_flow()).unwrap();
    let after = counters();
    assert_eq!(after.contexts - before.contexts, 0);
    assert_eq!(after.constraints - before.constraints, 0);
    assert_eq!(
        after.menus - before.menus,
        0,
        "a new width on a used context reads its menus, never builds"
    );
    assert_eq!(registry.stats().hits, 2 * budgets.len() as u64);
    assert_eq!(again, first, "registry reuse is bit-identical");
    assert_eq!(other_width.len(), budgets.len());

    // And the registry path matches the private-compilation path bit for
    // bit.
    let private = preemption_sweep(&soc, 16, &budgets, &quick_flow()).unwrap();
    assert_eq!(first, private);
}

#[test]
fn engine_batch_compiles_one_context_per_key() {
    let _guard = lock();
    let engine = Engine::new();
    let d695 = Arc::new(benchmarks::d695());
    let p34392 = Arc::new(benchmarks::p34392());
    let power = quick_flow().with_power(soctam_core::flow::PowerPolicy::MaxCorePower);
    let requests = vec![
        EngineRequest::schedule(Arc::clone(&d695), quick_flow(), 16),
        EngineRequest::schedule(Arc::clone(&d695), quick_flow(), 32),
        EngineRequest::bounds(Arc::clone(&d695), quick_flow(), vec![16, 32, 48, 64]),
        EngineRequest::schedule(Arc::clone(&d695), power.clone(), 16),
        EngineRequest::sweep(Arc::clone(&p34392), quick_flow(), vec![16, 24]),
        EngineRequest::bounds(Arc::clone(&p34392), quick_flow(), vec![16, 24]),
    ];
    // Distinct keys: (d695, 64, None), (d695, 64, P_max), (p34392, 64,
    // None).
    let before = counters();
    let results = engine.serve(&requests);
    let after = counters();
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(
        after.contexts - before.contexts,
        3,
        "exactly one context compile per (SOC, w_max, budget) key"
    );
    assert_eq!(engine.registry().stats().misses, 3);
    assert_eq!(engine.registry().stats().hits, 3);

    // A repeat batch is served entirely from the registry.
    let before = counters();
    let _ = engine.serve(&requests);
    let after = counters();
    assert_eq!(after.contexts - before.contexts, 0);
}

#[test]
fn baselines_bit_identical_to_rebuild_per_call_on_all_benchmarks() {
    let _guard = lock();
    for name in benchmarks::NAMES {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let shared = CompiledSoc::compile(&soc, 64);
        for w in benchmarks::table1_widths(name) {
            // A fresh context per call *is* the rebuild-per-call path.
            let fresh = CompiledSoc::compile(&soc, 64);
            assert_eq!(
                fixed_width_best(&shared, w, 2),
                fixed_width_best(&fresh, w, 2),
                "{name} W={w}: fixed-width diverged"
            );
            assert_eq!(
                shelf_pack(&shared, w, 5, 1),
                shelf_pack(&fresh, w, 5, 1),
                "{name} W={w}: shelf diverged"
            );
            assert_eq!(
                session_schedule(&shared, w),
                session_schedule(&fresh, w),
                "{name} W={w}: sessions diverged"
            );
            assert_eq!(
                shared.lower_bound(w),
                fresh.lower_bound(w),
                "{name} W={w}: bound diverged"
            );
        }
    }
}

#[test]
fn scheduler_context_reuse_bit_identical_on_larger_benchmarks() {
    let _guard = lock();
    for (name, w) in [("p34392", 24u16), ("p93791", 32u16)] {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let ctx = CompiledSoc::compile(&soc, quick_flow().w_max);
        let shared = TestFlow::with_context(ctx, quick_flow());
        let private = TestFlow::new(&soc, quick_flow());
        let (ss, ps, sts) = shared.best_schedule_detailed(w).unwrap();
        let (sp, pp, stp) = private.best_schedule_detailed(w).unwrap();
        assert_eq!(ss, sp, "{name}: schedule diverged");
        assert_eq!(ps, pp, "{name}: winning params diverged");
        assert_eq!(sts, stp, "{name}: sweep stats diverged");
    }
}
