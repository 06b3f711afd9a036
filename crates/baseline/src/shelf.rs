//! Level-oriented (shelf) rectangle packing, after Coffman et al. \[8\].

use soctam_schedule::{CompiledSoc, Schedule, Slice};
use soctam_soc::CoreIdx;
use soctam_wrapper::{Cycles, TamWidth};

/// Outcome of the shelf-packing baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShelfResult {
    /// SOC testing time: the sum of shelf durations.
    pub makespan: Cycles,
    /// Cores grouped per shelf, in packing order.
    pub shelves: Vec<Vec<CoreIdx>>,
    /// The realized schedule.
    pub schedule: Schedule,
}

/// Packs every core's preferred-width rectangle into full-width shelves.
///
/// Rectangles (height = preferred TAM width computed with the same
/// `percent`/`bump` rule as the main scheduler) are sorted by decreasing
/// height and placed first-fit into shelves of total height `w`; a shelf
/// lasts as long as its longest test, and shelves run back to back. This is
/// the classic level-oriented discipline: simple, but every shelf pays for
/// its tallest *and* longest member, which is exactly the idle time the
/// paper's flexible packer reclaims.
///
/// Per-core widths are capped at the context's `w_max`; the rectangle
/// menus come from the shared [`CompiledSoc`], read under that cap.
///
/// # Panics
///
/// Panics if `w == 0` or the SOC is empty.
pub fn shelf_pack(ctx: &CompiledSoc, w: TamWidth, percent: u32, bump: TamWidth) -> ShelfResult {
    assert!(w > 0, "need at least one wire");
    assert!(!ctx.is_empty(), "SOC has no cores");

    let soc = ctx.soc();
    let cap = ctx.effective_cap(w);
    let prefs: Vec<(TamWidth, Cycles)> = ctx
        .full_menus()
        .menus()
        .iter()
        .map(|rects| {
            let width = rects.preferred_width_bumped(percent, bump, cap);
            (width, rects.time_at(width))
        })
        .collect();

    // Decreasing height, then decreasing time, then index (deterministic).
    let mut order: Vec<CoreIdx> = (0..prefs.len()).collect();
    order.sort_by(|&a, &b| {
        prefs[b]
            .0
            .cmp(&prefs[a].0)
            .then(prefs[b].1.cmp(&prefs[a].1))
            .then(a.cmp(&b))
    });

    let mut shelves: Vec<Vec<CoreIdx>> = Vec::new();
    let mut shelf_width: Vec<TamWidth> = Vec::new();
    for core in order {
        let need = prefs[core].0;
        // First fit over existing shelves.
        let slot = shelf_width.iter().position(|&used| used + need <= w);
        match slot {
            Some(s) => {
                shelves[s].push(core);
                shelf_width[s] += need;
            }
            None => {
                shelves.push(vec![core]);
                shelf_width.push(need);
            }
        }
    }

    let mut slices = Vec::with_capacity(prefs.len());
    let mut start = 0u64;
    for shelf in &shelves {
        let duration = shelf
            .iter()
            .map(|&c| prefs[c].1)
            .max()
            .expect("shelves are non-empty");
        for &core in shelf {
            slices.push(Slice {
                core,
                width: prefs[core].0,
                start,
                end: start + prefs[core].1,
            });
        }
        start += duration;
    }

    let schedule = Schedule::from_slices(soc.name(), w, slices);
    ShelfResult {
        makespan: start,
        shelves,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soctam_schedule::{ScheduleBuilder, SchedulerConfig};
    use soctam_soc::benchmarks;

    #[test]
    fn every_core_lands_on_exactly_one_shelf() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let r = shelf_pack(&ctx, 32, 5, 1);
        let mut all: Vec<CoreIdx> = r.shelves.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..soc.len()).collect::<Vec<_>>());
    }

    #[test]
    fn width_budget_respected_within_shelves() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let r = shelf_pack(&ctx, 24, 5, 1);
        let mut events: Vec<u64> = r
            .schedule
            .slices()
            .iter()
            .flat_map(|s| [s.start, s.end])
            .collect();
        events.sort_unstable();
        events.dedup();
        for &t in &events {
            assert!(r.schedule.width_in_use_at(t) <= 24);
        }
    }

    #[test]
    fn makespan_is_sum_of_shelf_durations() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let r = shelf_pack(&ctx, 16, 5, 1);
        assert_eq!(r.schedule.makespan(), r.makespan);
    }

    #[test]
    fn flexible_scheduler_beats_shelves() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        for w in [16u16, 32, 64] {
            let flexible = ScheduleBuilder::new(&soc, SchedulerConfig::new(w))
                .run()
                .unwrap()
                .makespan();
            let shelf = shelf_pack(&ctx, w, 5, 1).makespan;
            assert!(flexible <= shelf, "W={w}: {flexible} vs shelf {shelf}");
        }
    }

    #[test]
    fn narrow_tam_degenerates_to_serial_shelves() {
        let soc = benchmarks::d695();
        let ctx = CompiledSoc::compile(&soc, 64);
        let r = shelf_pack(&ctx, 1, 5, 1);
        assert_eq!(r.shelves.len(), soc.len());
    }
}
