//! Build instrumentation: process-wide counters of the expensive
//! precomputation steps, so test suites can assert that context-reuse
//! paths (see `soctam_schedule::CompiledSoc`) really do amortize work
//! instead of silently rebuilding it.
//!
//! Counters are monotone; callers measure deltas around the code under
//! test. They are maintained with relaxed atomics — cheap enough to stay
//! enabled in release builds, which is exactly where the equivalence
//! suites want to observe them.

use std::sync::atomic::{AtomicU64, Ordering};

static RECTANGLE_SET_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of [`RectangleSet::build`](crate::RectangleSet::build) calls
/// (one per core per menu construction) since process start.
pub fn rectangle_set_builds() -> u64 {
    RECTANGLE_SET_BUILDS.load(Ordering::Relaxed)
}

pub(crate) fn note_rectangle_set_build() {
    RECTANGLE_SET_BUILDS.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreTest, RectangleSet};

    #[test]
    fn counter_increments_per_build() {
        let core = CoreTest::new(4, 4, 0, vec![16, 16], 10).unwrap();
        let before = rectangle_set_builds();
        let _ = RectangleSet::build(&core, 8);
        let _ = RectangleSet::build(&core, 8);
        // Other tests may build sets concurrently; the delta is at least 2.
        assert!(rectangle_set_builds() >= before + 2);
    }
}
