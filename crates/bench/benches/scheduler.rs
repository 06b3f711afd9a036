//! Criterion benches for the scheduler — checks the paper's §6 claim that
//! a full TAM-optimization-plus-scheduling run is fast (their 333 MHz
//! Ultra 10 took < 5 s per run; one run here is a single (m, d) point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soctam_core::flow::{FlowConfig, ParamSweep, TestFlow};
use soctam_core::schedule::{best_of, CompiledSoc, ScheduleBuilder, SchedulerConfig};
use soctam_core::soc::benchmarks;
use soctam_core::soc::synth::SynthConfig;

fn bench_single_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_single_run");
    for name in benchmarks::NAMES {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        for w in [16u16, 64] {
            group.bench_with_input(BenchmarkId::new(name, w), &w, |b, &w| {
                b.iter(|| {
                    ScheduleBuilder::new(&soc, SchedulerConfig::new(w))
                        .run()
                        .expect("schedulable")
                        .makespan()
                });
            });
        }
    }
    group.finish();
}

fn bench_constrained_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_constrained");
    let mut soc = benchmarks::p93791();
    benchmarks::grant_preemption_to_large_cores(&mut soc, 2);
    let p_max = soc.max_core_power();
    group.bench_function("p93791_w64_power_preempt", |b| {
        b.iter(|| {
            ScheduleBuilder::new(&soc, SchedulerConfig::new(64).with_power_limit(p_max))
                .run()
                .expect("schedulable")
                .makespan()
        });
    });
    group.finish();
}

fn bench_scalability(c: &mut Criterion) {
    // Scalability in core count on synthetic SOCs (the paper's "scalable
    // for large industrial SOCs" claim).
    let mut group = c.benchmark_group("schedule_scalability");
    group.sample_size(20);
    for cores in [16usize, 64, 256] {
        let soc = SynthConfig::new(cores).generate(7);
        group.bench_with_input(BenchmarkId::from_parameter(cores), &soc, |b, soc| {
            b.iter(|| {
                ScheduleBuilder::new(soc, SchedulerConfig::new(64))
                    .run()
                    .expect("schedulable")
                    .makespan()
            });
        });
    }
    group.finish();
}

fn bench_menu_sharing(c: &mut Criterion) {
    // The sweep-scale hot path: one shared context (menus, constraint
    // tables, bound) vs a private compile per run.
    let mut group = c.benchmark_group("schedule_menu_sharing");
    let soc = benchmarks::p22810();
    let cfg = SchedulerConfig::new(64);
    group.bench_function("p22810_w64_rebuild_per_run", |b| {
        b.iter(|| {
            ScheduleBuilder::new(&soc, cfg.clone())
                .run()
                .expect("schedulable")
                .makespan()
        });
    });
    let ctx = CompiledSoc::compile(&soc, cfg.effective_w_max());
    group.bench_function("p22810_w64_shared_context", |b| {
        b.iter(|| {
            ScheduleBuilder::new(&soc, cfg.clone())
                .with_context(&ctx)
                .run()
                .expect("schedulable")
                .makespan()
        });
    });
    group.finish();
}

fn bench_flow_sweep(c: &mut Criterion) {
    // The quick (m, d, slack) grid end to end: shared menus, dedup, and
    // the bound cutoff inside `best_schedule`.
    let mut group = c.benchmark_group("flow_quick_sweep");
    group.sample_size(10);
    for name in ["d695", "p22810"] {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let cfg = FlowConfig {
            sweep: ParamSweep::quick(),
            ..FlowConfig::new()
        };
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                TestFlow::new(&soc, cfg.clone())
                    .best_schedule(64)
                    .expect("schedulable")
                    .0
                    .makespan()
            });
        });
    }
    group.finish();
}

fn bench_best_of(c: &mut Criterion) {
    // The served grid's best-of sweep alone, at W = 64: the context, its
    // menus and its lower bound are built before timing starts, so only
    // the packer runs are timed.
    let mut group = c.benchmark_group("best_of");
    group.sample_size(100);
    let base = SchedulerConfig::new(64);
    let grid = ParamSweep::quick();
    for name in benchmarks::NAMES {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        let ctx = CompiledSoc::compile(&soc, base.w_max);
        let _ = ctx.lower_bound(base.tam_width);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                best_of(&ctx, &base, &grid)
                    .expect("schedulable")
                    .0
                    .makespan()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_runs,
    bench_constrained_runs,
    bench_scalability,
    bench_menu_sharing,
    bench_flow_sweep,
    bench_best_of
);
criterion_main!(benches);
