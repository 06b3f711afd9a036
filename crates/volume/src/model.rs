//! The tester memory model.

use soctam_wrapper::{Cycles, TamWidth};

/// One point of a TAM-width sweep: the data behind Figures 9(a) and 9(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// SOC TAM width `W`.
    pub width: TamWidth,
    /// SOC testing time `T(W)` achieved by the scheduler.
    pub time: Cycles,
    /// Tester data volume `V(W) = W · T(W)`.
    pub volume: u64,
    /// Testing-time lower bound at this width.
    pub lower_bound: Cycles,
}

/// Total tester data volume implied by a schedule of length `time` on
/// `width` TAM pins: every pin's channel holds one bit per cycle of the
/// schedule, so `V = W · T`.
///
/// This reproduces the paper's Table 2 identity — e.g. p22810's reported
/// volume at `W = 48`, `T = 164,420` is `48 × 164,420 = 7,892,160` bits.
pub fn volume_of(width: TamWidth, time: Cycles) -> u64 {
    u64::from(width) * time
}

/// A tester memory configuration: per-pin buffer depth and channel count.
///
/// Reduced TAM widths that keep the per-pin depth within a single buffer
/// are what enable multisite test (§5); [`TesterMemoryModel::fits`] answers
/// whether a schedule fits without buffer reloads, and
/// [`TesterMemoryModel::sites`] how many SOCs one tester can serve in
/// parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TesterMemoryModel {
    /// Bits of vector memory behind each tester pin.
    pub depth_per_pin: u64,
    /// Number of tester channels (pins) available.
    pub channels: u32,
}

impl TesterMemoryModel {
    /// Creates a model with the given per-pin depth and channel count.
    pub fn new(depth_per_pin: u64, channels: u32) -> Self {
        Self {
            depth_per_pin,
            channels,
        }
    }

    /// Whether a schedule of `time` cycles fits in one buffer fill.
    pub fn fits(&self, time: Cycles) -> bool {
        time <= self.depth_per_pin
    }

    /// How many SOCs with TAM width `width` can be tested in parallel
    /// (multisite), limited only by channel count; 0 if one SOC needs more
    /// channels than the tester has.
    pub fn sites(&self, width: TamWidth) -> u32 {
        if width == 0 {
            return 0;
        }
        self.channels / u32::from(width)
    }

    /// Effective time to test a production batch of `batch` SOCs, assuming
    /// perfect multisite parallelism: `ceil(batch / sites) · T`.
    ///
    /// Returns `None` if the SOC does not fit the tester at all.
    pub fn batch_time(&self, width: TamWidth, time: Cycles, batch: u64) -> Option<u64> {
        let sites = u64::from(self.sites(width));
        if sites == 0 || !self.fits(time) {
            return None;
        }
        Some(batch.div_ceil(sites) * time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_reproduces_table2_identity() {
        assert_eq!(volume_of(48, 164_420), 7_892_160);
        assert_eq!(volume_of(44, 167_670), 7_377_480);
        assert_eq!(volume_of(27, 617_018), 16_659_486);
        assert_eq!(volume_of(22, 1_336_348), 29_399_656);
    }

    #[test]
    fn fits_is_a_threshold() {
        let m = TesterMemoryModel::new(1000, 64);
        assert!(m.fits(1000));
        assert!(!m.fits(1001));
    }

    #[test]
    fn sites_divide_channels() {
        let m = TesterMemoryModel::new(1000, 64);
        assert_eq!(m.sites(16), 4);
        assert_eq!(m.sites(33), 1);
        assert_eq!(m.sites(65), 0);
        assert_eq!(m.sites(0), 0);
    }

    #[test]
    fn narrower_tam_can_win_on_batches() {
        // Narrow TAM: slower per chip but 4 sites; wide: fast but 1 site.
        let m = TesterMemoryModel::new(1_000_000, 64);
        let narrow = m.batch_time(16, 40_000, 100).unwrap();
        let wide = m.batch_time(64, 11_000, 100).unwrap();
        assert!(narrow < wide, "narrow {narrow} vs wide {wide}");
    }

    #[test]
    fn batch_time_requires_fit() {
        let m = TesterMemoryModel::new(10, 64);
        assert_eq!(m.batch_time(16, 11, 5), None);
        assert_eq!(m.batch_time(128, 5, 5), None);
    }
}
