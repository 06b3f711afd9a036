//! Criterion benches for the §5 data-volume machinery: width sweeps and
//! cost-curve evaluation (the work behind Figure 9 and Table 2).

use criterion::{criterion_group, criterion_main, Criterion};
use soctam_core::flow::{FlowConfig, ParamSweep, TestFlow};
use soctam_core::soc::benchmarks;
use soctam_core::volume::CostCurve;

/// One scheduler run per width at `SchedulerConfig::new`'s defaults
/// (`m = 5`, `d = 1`, slack 3).
fn single_run() -> FlowConfig {
    FlowConfig {
        sweep: ParamSweep {
            percents: vec![5],
            bumps: vec![1],
            slacks: vec![3],
        },
        ..FlowConfig::new()
    }
}

fn bench_width_sweep(c: &mut Criterion) {
    let soc = benchmarks::d695();
    let mut group = c.benchmark_group("volume_sweep");
    group.sample_size(10);
    group.bench_function("d695_w8_to_64", |b| {
        b.iter(|| {
            TestFlow::new(&soc, single_run())
                .sweep_widths(8..=64)
                .expect("sweep succeeds")
                .len()
        });
    });
    group.finish();
}

fn bench_cost_curves(c: &mut Criterion) {
    let soc = benchmarks::d695();
    let points = TestFlow::new(&soc, single_run())
        .sweep_widths(1..=80)
        .expect("sweep succeeds");
    c.bench_function("cost_curve_eval_80pts_5alphas", |b| {
        b.iter(|| {
            [0.1, 0.3, 0.5, 0.75, 0.9]
                .iter()
                .map(|&a| CostCurve::new(&points, a).effective_width())
                .max()
        });
    });
}

criterion_group!(benches, bench_width_sweep, bench_cost_curves);
criterion_main!(benches);
