use crate::WrapperError;

/// Test-set parameters of one embedded core, as consumed by wrapper design.
///
/// This is the per-core record of the ITC'02 SOC benchmark format: counts of
/// functional inputs, outputs and bidirectional terminals, the lengths of
/// the core's internal scan chains (fixed, per the paper's assumption), and
/// the number of external test patterns.
///
/// Construct with [`CoreTest::builder`] or [`CoreTest::new`]; both validate
/// the data ([`WrapperError`]).
///
/// # Example
///
/// ```
/// use soctam_wrapper::CoreTest;
///
/// # fn main() -> Result<(), soctam_wrapper::WrapperError> {
/// let core = CoreTest::new(109, 32, 0, vec![34, 34, 33], 12)?;
/// assert_eq!(core.scan_flops(), 101);
/// assert!(core.is_sequential());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CoreTest {
    inputs: u32,
    outputs: u32,
    bidirs: u32,
    scan_chains: Vec<u32>,
    patterns: u64,
}

impl CoreTest {
    /// Creates a validated core test descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::EmptyCore`] if the core has no terminals and
    /// no scan chains, or zero patterns; [`WrapperError::ZeroLengthScanChain`]
    /// if any supplied scan chain is empty.
    pub fn new(
        inputs: u32,
        outputs: u32,
        bidirs: u32,
        scan_chains: Vec<u32>,
        patterns: u64,
    ) -> Result<Self, WrapperError> {
        if let Some(index) = scan_chains.iter().position(|&len| len == 0) {
            return Err(WrapperError::ZeroLengthScanChain { index });
        }
        if patterns == 0 || (inputs == 0 && outputs == 0 && bidirs == 0 && scan_chains.is_empty()) {
            return Err(WrapperError::EmptyCore);
        }
        Ok(Self {
            inputs,
            outputs,
            bidirs,
            scan_chains,
            patterns,
        })
    }

    /// Starts building a [`CoreTest`] field by field.
    pub fn builder() -> CoreTestBuilder {
        CoreTestBuilder::default()
    }

    /// Number of functional input terminals (each gets a wrapper input cell).
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// Number of functional output terminals (each gets a wrapper output cell).
    pub fn outputs(&self) -> u32 {
        self.outputs
    }

    /// Number of bidirectional terminals (wrapper cells on both directions).
    pub fn bidirs(&self) -> u32 {
        self.bidirs
    }

    /// Lengths of the core's internal scan chains, in design order.
    pub fn scan_chains(&self) -> &[u32] {
        &self.scan_chains
    }

    /// Number of external scan test patterns.
    pub fn patterns(&self) -> u64 {
        self.patterns
    }

    /// Total number of internal scan flip-flops.
    pub fn scan_flops(&self) -> u64 {
        self.scan_chains.iter().map(|&l| u64::from(l)).sum()
    }

    /// Whether the core has internal state accessed through scan.
    pub fn is_sequential(&self) -> bool {
        !self.scan_chains.is_empty()
    }

    /// Scan-in bits shifted per pattern at a given wrapper design, i.e. the
    /// total writable cells: input cells + bidir cells + scan flops.
    pub fn scan_in_bits(&self) -> u64 {
        u64::from(self.inputs) + u64::from(self.bidirs) + self.scan_flops()
    }

    /// Scan-out bits captured per pattern: output cells + bidir cells +
    /// scan flops.
    pub fn scan_out_bits(&self) -> u64 {
        u64::from(self.outputs) + u64::from(self.bidirs) + self.scan_flops()
    }

    /// Total test data bits held in tester memory for this core:
    /// `patterns × (scan-in bits + scan-out bits)`.
    ///
    /// Used by the paper's power model ("test data bits per test pattern")
    /// and by the tester data volume analysis.
    pub fn test_data_bits(&self) -> u64 {
        self.patterns * (self.scan_in_bits() + self.scan_out_bits())
    }
}

/// Builder for [`CoreTest`], convenient when not all fields are known at
/// one call site.
///
/// # Example
///
/// ```
/// use soctam_wrapper::CoreTest;
///
/// # fn main() -> Result<(), soctam_wrapper::WrapperError> {
/// let core = CoreTest::builder()
///     .inputs(35)
///     .outputs(49)
///     .scan_chains([46, 45, 44, 44])
///     .patterns(97)
///     .build()?;
/// assert_eq!(core.scan_flops(), 179);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoreTestBuilder {
    inputs: u32,
    outputs: u32,
    bidirs: u32,
    scan_chains: Vec<u32>,
    patterns: u64,
}

impl CoreTestBuilder {
    /// Sets the functional input count.
    pub fn inputs(mut self, inputs: u32) -> Self {
        self.inputs = inputs;
        self
    }

    /// Sets the functional output count.
    pub fn outputs(mut self, outputs: u32) -> Self {
        self.outputs = outputs;
        self
    }

    /// Sets the bidirectional terminal count.
    pub fn bidirs(mut self, bidirs: u32) -> Self {
        self.bidirs = bidirs;
        self
    }

    /// Sets the internal scan chain lengths.
    pub fn scan_chains<I: IntoIterator<Item = u32>>(mut self, chains: I) -> Self {
        self.scan_chains = chains.into_iter().collect();
        self
    }

    /// Adds `count` scan chains of identical `length` (common in the ITC'02
    /// benchmark descriptions, e.g. "16 chains of 41 flops").
    pub fn uniform_scan_chains(mut self, count: usize, length: u32) -> Self {
        self.scan_chains.extend(std::iter::repeat_n(length, count));
        self
    }

    /// Sets the external pattern count.
    pub fn patterns(mut self, patterns: u64) -> Self {
        self.patterns = patterns;
        self
    }

    /// Validates and builds the [`CoreTest`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`CoreTest::new`].
    pub fn build(self) -> Result<CoreTest, WrapperError> {
        CoreTest::new(
            self.inputs,
            self.outputs,
            self.bidirs,
            self.scan_chains,
            self.patterns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s5378() -> CoreTest {
        CoreTest::new(35, 49, 0, vec![46, 45, 44, 44], 97).unwrap()
    }

    #[test]
    fn rejects_zero_patterns() {
        assert_eq!(
            CoreTest::new(4, 4, 0, vec![8], 0),
            Err(WrapperError::EmptyCore)
        );
    }

    #[test]
    fn rejects_fully_empty_core() {
        assert_eq!(
            CoreTest::new(0, 0, 0, vec![], 10),
            Err(WrapperError::EmptyCore)
        );
    }

    #[test]
    fn rejects_zero_length_chain() {
        assert_eq!(
            CoreTest::new(4, 4, 0, vec![8, 0, 2], 10),
            Err(WrapperError::ZeroLengthScanChain { index: 1 })
        );
    }

    #[test]
    fn combinational_core_is_valid() {
        let c = CoreTest::new(32, 32, 0, vec![], 12).unwrap();
        assert!(!c.is_sequential());
        assert_eq!(c.scan_flops(), 0);
    }

    #[test]
    fn scan_bit_accounting() {
        let c = s5378();
        assert_eq!(c.scan_flops(), 179);
        assert_eq!(c.scan_in_bits(), 179 + 35);
        assert_eq!(c.scan_out_bits(), 179 + 49);
        assert_eq!(c.test_data_bits(), 97 * (214 + 228));
    }

    #[test]
    fn bidirs_count_on_both_sides() {
        let c = CoreTest::new(10, 20, 5, vec![7], 3).unwrap();
        assert_eq!(c.scan_in_bits(), 10 + 5 + 7);
        assert_eq!(c.scan_out_bits(), 20 + 5 + 7);
    }

    #[test]
    fn builder_uniform_chains() {
        let c = CoreTest::builder()
            .inputs(31)
            .outputs(121)
            .uniform_scan_chains(15, 41)
            .uniform_scan_chains(1, 54)
            .patterns(236)
            .build()
            .unwrap();
        assert_eq!(c.scan_chains().len(), 16);
        assert_eq!(c.scan_flops(), 15 * 41 + 54);
    }

    #[test]
    fn builder_matches_new() {
        let via_builder = CoreTest::builder()
            .inputs(35)
            .outputs(49)
            .scan_chains([46, 45, 44, 44])
            .patterns(97)
            .build()
            .unwrap();
        assert_eq!(via_builder, s5378());
    }
}
