use crate::{ByteSize, DataWidth};
use std::fmt;

/// The GLB sizes evaluated throughout the paper's result section, in kB.
pub const GLB_SIZES_KB: [u64; 5] = [64, 128, 256, 512, 1024];

/// Errors raised when assembling an [`AcceleratorConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The PE array must have at least one row and one column.
    EmptyPeArray,
    /// Operations per cycle must be nonzero (and even: one MAC = 2 OPs).
    BadOpsPerCycle(u64),
    /// The GLB must be able to hold at least one element.
    GlbTooSmall(ByteSize),
    /// Off-chip bandwidth must be nonzero.
    ZeroBandwidth,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyPeArray => write!(f, "PE array must be non-empty"),
            ConfigError::BadOpsPerCycle(ops) => {
                write!(f, "ops/cycle must be a positive even number, got {ops}")
            }
            ConfigError::GlbTooSmall(sz) => write!(f, "GLB of {sz} cannot hold one element"),
            ConfigError::ZeroBandwidth => write!(f, "off-chip bandwidth must be nonzero"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Accelerator specification, mirroring the paper's inputs (Figure 4):
/// operations per cycle, data width, GLB size, and off-chip bandwidth,
/// plus the PE-array geometry used by the systolic compute model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcceleratorConfig {
    /// Systolic array rows (16 in the paper).
    pub pe_rows: usize,
    /// Systolic array columns (16 in the paper).
    pub pe_cols: usize,
    /// Peak operations per cycle. A multiply-accumulate is 2 OPs, so the
    /// paper's 16×16 array is rated at 512 OPs (Section 4).
    pub ops_per_cycle: u64,
    /// Element width of all data types.
    pub data_width: DataWidth,
    /// Unified on-chip Global Buffer capacity. For the proposed scheme this
    /// is the *whole* on-chip pool (no separate double-buffer space).
    pub glb: ByteSize,
    /// Off-chip memory bandwidth in **bytes** per cycle. The paper fixes
    /// 16 elements/cycle at 8-bit width, i.e. 16 bytes/cycle.
    pub dram_bytes_per_cycle: u64,
}

impl AcceleratorConfig {
    /// The paper's experimental setup (Section 4): 16×16 PEs, 512 OPs/cycle,
    /// 8-bit data, 16 bytes/cycle off-chip bandwidth, caller-chosen GLB.
    pub fn paper_default(glb: ByteSize) -> Self {
        AcceleratorConfig {
            pe_rows: 16,
            pe_cols: 16,
            ops_per_cycle: 512,
            data_width: DataWidth::W8,
            glb,
            dram_bytes_per_cycle: 16,
        }
    }

    /// The full set of paper configurations: one per GLB size in
    /// [`GLB_SIZES_KB`].
    pub fn paper_sweep() -> Vec<Self> {
        GLB_SIZES_KB
            .iter()
            .map(|&kb| Self::paper_default(ByteSize::from_kb(kb)))
            .collect()
    }

    /// Same accelerator with a different data width (Figure 7 sweep).
    pub fn with_data_width(mut self, width: DataWidth) -> Self {
        self.data_width = width;
        self
    }

    /// Same accelerator with a different GLB capacity.
    pub fn with_glb(mut self, glb: ByteSize) -> Self {
        self.glb = glb;
        self
    }

    /// Multiply-accumulate throughput: one MAC takes two cycles' worth of
    /// OPs ("the number of MAC operations is half the number of OPs").
    #[inline]
    pub fn macs_per_cycle(&self) -> u64 {
        self.ops_per_cycle / 2
    }

    /// GLB capacity in elements at the configured data width.
    #[inline]
    pub fn glb_elements(&self) -> u64 {
        self.glb.elements(self.data_width)
    }

    /// Off-chip bandwidth in elements per cycle (floor; the interface is a
    /// fixed number of bytes wide, so wider elements transfer more slowly).
    #[inline]
    pub fn dram_elements_per_cycle(&self) -> u64 {
        (self.dram_bytes_per_cycle / self.data_width.bytes()).max(1)
    }

    /// Cycles to transfer `elements` over the off-chip interface (ceiling).
    #[inline]
    pub fn transfer_cycles(&self, elements: u64) -> u64 {
        elements.div_ceil(self.dram_elements_per_cycle())
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pe_rows == 0 || self.pe_cols == 0 {
            return Err(ConfigError::EmptyPeArray);
        }
        if self.ops_per_cycle == 0 || !self.ops_per_cycle.is_multiple_of(2) {
            return Err(ConfigError::BadOpsPerCycle(self.ops_per_cycle));
        }
        if self.glb.bytes() < self.data_width.bytes() {
            return Err(ConfigError::GlbTooSmall(self.glb));
        }
        if self.dram_bytes_per_cycle == 0 {
            return Err(ConfigError::ZeroBandwidth);
        }
        Ok(())
    }

    /// Start building a custom configuration from the paper defaults.
    pub fn builder() -> AcceleratorConfigBuilder {
        AcceleratorConfigBuilder::default()
    }
}

/// Builder for [`AcceleratorConfig`], starting from the paper defaults.
#[derive(Debug, Clone)]
pub struct AcceleratorConfigBuilder {
    cfg: AcceleratorConfig,
}

impl Default for AcceleratorConfigBuilder {
    fn default() -> Self {
        AcceleratorConfigBuilder {
            cfg: AcceleratorConfig::paper_default(ByteSize::from_kb(256)),
        }
    }
}

impl AcceleratorConfigBuilder {
    /// Set the PE array dimensions (and derive OPs/cycle from them).
    pub fn pe_array(mut self, rows: usize, cols: usize) -> Self {
        self.cfg.pe_rows = rows;
        self.cfg.pe_cols = cols;
        // Keep OPs consistent with the array unless overridden later:
        // each PE performs one MAC (2 OPs) per cycle.
        self.cfg.ops_per_cycle = (rows * cols * 2) as u64;
        self
    }

    /// Override the compute throughput in operations per cycle.
    pub fn ops_per_cycle(mut self, ops: u64) -> Self {
        self.cfg.ops_per_cycle = ops;
        self
    }

    /// Set the element data width.
    pub fn data_width(mut self, width: DataWidth) -> Self {
        self.cfg.data_width = width;
        self
    }

    /// Set the Global Buffer capacity.
    pub fn glb(mut self, glb: ByteSize) -> Self {
        self.cfg.glb = glb;
        self
    }

    /// Set the off-chip memory bandwidth in bytes per cycle.
    pub fn dram_bytes_per_cycle(mut self, bytes: u64) -> Self {
        self.cfg.dram_bytes_per_cycle = bytes;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<AcceleratorConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        assert_eq!(acc.pe_rows, 16);
        assert_eq!(acc.pe_cols, 16);
        assert_eq!(acc.ops_per_cycle, 512);
        assert_eq!(acc.macs_per_cycle(), 256);
        assert_eq!(acc.data_width, DataWidth::W8);
        assert_eq!(acc.dram_elements_per_cycle(), 16);
        acc.validate().unwrap();
    }

    #[test]
    fn paper_sweep_has_five_sizes() {
        let sweep = AcceleratorConfig::paper_sweep();
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0].glb, ByteSize::from_kb(64));
        assert_eq!(sweep[4].glb, ByteSize::from_mb(1));
    }

    #[test]
    fn wider_elements_reduce_element_bandwidth() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        assert_eq!(acc.dram_elements_per_cycle(), 16);
        assert_eq!(
            acc.with_data_width(DataWidth::W16)
                .dram_elements_per_cycle(),
            8
        );
        assert_eq!(
            acc.with_data_width(DataWidth::W32)
                .dram_elements_per_cycle(),
            4
        );
    }

    #[test]
    fn wider_elements_reduce_glb_elements() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        assert_eq!(acc.glb_elements(), 65536);
        assert_eq!(acc.with_data_width(DataWidth::W32).glb_elements(), 16384);
    }

    #[test]
    fn transfer_cycles_rounds_up() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        assert_eq!(acc.transfer_cycles(0), 0);
        assert_eq!(acc.transfer_cycles(1), 1);
        assert_eq!(acc.transfer_cycles(16), 1);
        assert_eq!(acc.transfer_cycles(17), 2);
    }

    #[test]
    fn builder_keeps_ops_consistent_with_array() {
        let acc = AcceleratorConfig::builder()
            .pe_array(8, 8)
            .glb(ByteSize::from_kb(32))
            .build()
            .unwrap();
        assert_eq!(acc.ops_per_cycle, 128);
        assert_eq!(acc.macs_per_cycle(), 64);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        acc.pe_rows = 0;
        assert_eq!(acc.validate(), Err(ConfigError::EmptyPeArray));

        let mut acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        acc.ops_per_cycle = 3;
        assert!(matches!(
            acc.validate(),
            Err(ConfigError::BadOpsPerCycle(3))
        ));

        let mut acc = AcceleratorConfig::paper_default(ByteSize(0));
        acc.glb = ByteSize(0);
        assert!(matches!(acc.validate(), Err(ConfigError::GlbTooSmall(_))));

        let mut acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        acc.dram_bytes_per_cycle = 0;
        assert_eq!(acc.validate(), Err(ConfigError::ZeroBandwidth));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ConfigError::BadOpsPerCycle(3);
        assert!(e.to_string().contains('3'));
    }
}
