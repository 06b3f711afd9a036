//! The bound-gated sweep cutoff must be invisible in results: on every
//! ITC'02 benchmark, `best_of` returns the exact winner a sweep that runs
//! every grid point would have picked, and the [`SweepStats`] tallies
//! account for every grid point.

use soctam_schedule::{
    best_of, CompiledSoc, ParamSweep, Schedule, ScheduleBuilder, SchedulerConfig, SweepParams,
    SweepStats,
};
use soctam_soc::benchmarks;

/// Every grid point run on its own, in grid order (slack, then m, then
/// d), first strictly smaller makespan wins: no dedup, no cutoff.
fn run_every_point(
    ctx: &CompiledSoc,
    base: &SchedulerConfig,
    grid: &ParamSweep,
) -> (Schedule, SweepParams) {
    let mut best: Option<(Schedule, SweepParams)> = None;
    for &slack in &grid.slacks {
        for &m in &grid.percents {
            for &d in &grid.bumps {
                let mut cfg = base.clone().with_percent(m).with_bump(d);
                cfg.idle_fill_slack = slack;
                let s = ScheduleBuilder::new(ctx.soc(), cfg)
                    .with_context(ctx)
                    .run()
                    .expect("schedulable");
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| s.makespan() < b.makespan())
                {
                    best = Some((s, (m, d, slack)));
                }
            }
        }
    }
    best.expect("non-empty grid")
}

/// Runs `grid` at `width` through `best_of` and through the every-point
/// reference, asserts both pick the same winner, and returns the sweep's
/// outcome.
fn checked_sweep(name: &str, width: u16, grid: &ParamSweep) -> (Schedule, SweepStats, u64) {
    let soc = benchmarks::by_name(name).expect("known benchmark");
    let base = SchedulerConfig::new(width);
    let ctx = CompiledSoc::compile(&soc, base.effective_w_max());
    let (schedule, params, stats) = best_of(&ctx, &base, grid).expect("sweep");
    let (want, want_params) = run_every_point(&ctx, &base, grid);
    assert_eq!(
        (&schedule, params),
        (&want, want_params),
        "{name} W={width}: cutoff changed the sweep winner"
    );
    // Every point is accounted for: executed, deduplicated, or cut
    // (nothing silently dropped), never more than the grid.
    assert_eq!(stats.runs_total, grid.runs(), "{name} W={width}");
    assert_eq!(
        stats.runs_executed + stats.runs_skipped + stats.runs_cut,
        stats.runs_total,
        "{name} W={width}: executed + skipped + cut must cover the grid"
    );
    (schedule, stats, ctx.lower_bound(width))
}

#[test]
fn cutoff_returns_the_same_winner_on_every_benchmark() {
    for name in benchmarks::NAMES {
        for &width in &benchmarks::table1_widths(name) {
            checked_sweep(name, width, &ParamSweep::paper());
        }
    }
}

#[test]
fn cutoff_fires_where_the_bound_is_met() {
    // p34392 saturates at W=32: with the extended percent tail the sweep
    // reaches the lower bound (Table 1: 544,602 cycles, core c18's own
    // minimum), so the optimal incumbent must prune the rest of the grid.
    let grid = ParamSweep {
        slacks: vec![3],
        ..ParamSweep::extended()
    };
    let (schedule, stats, bound) = checked_sweep("p34392", 32, &grid);
    assert_eq!(schedule.makespan(), bound);
    assert!(
        stats.runs_cut > 0,
        "optimal incumbent should cut later grid points, stats: {stats:?}"
    );
}
