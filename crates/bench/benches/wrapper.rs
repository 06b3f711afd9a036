//! Criterion benches for wrapper design and rectangle construction — the
//! per-core cost behind Figure 1 and `Initialize`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soctam_core::soc::benchmarks;
use soctam_core::wrapper::{CoreTest, RectangleSet, TamWidth, WrapperDesign};

fn bench_design_wrapper(c: &mut Criterion) {
    let core = CoreTest::builder()
        .inputs(417)
        .outputs(363)
        .uniform_scan_chains(30, 500)
        .uniform_scan_chains(16, 480)
        .patterns(229)
        .build()
        .expect("valid core");
    let mut group = c.benchmark_group("design_wrapper");
    for width in [1u16, 8, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, &w| {
            b.iter(|| WrapperDesign::design(&core, w).expect("valid width"));
        });
    }
    group.finish();
}

/// Every core's full-cap menu, built by the time-only evaluator and by the
/// materializing reference it replaced.
fn bench_rectangle_sets(c: &mut Criterion) {
    bench_soc_menus(c, "rectangle_set_soc", RectangleSet::build);
    bench_soc_menus(
        c,
        "rectangle_set_soc_reference",
        RectangleSet::build_reference,
    );
}

fn bench_soc_menus(c: &mut Criterion, group: &str, build: fn(&CoreTest, TamWidth) -> RectangleSet) {
    let mut group = c.benchmark_group(group);
    for name in benchmarks::NAMES {
        let soc = benchmarks::by_name(name).expect("known benchmark");
        group.bench_function(name, |b| {
            b.iter(|| {
                soc.cores()
                    .iter()
                    .map(|core| build(core.test(), 64).min_area())
                    .sum::<u128>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_design_wrapper, bench_rectangle_sets);
criterion_main!(benches);
