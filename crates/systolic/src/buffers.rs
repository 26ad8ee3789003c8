//! The baseline's fixed buffer partitions (Section 4 of the paper).

use smm_arch::{AcceleratorConfig, ByteSize};

/// A fixed ifmap/filter split of the remaining buffer space (after the
/// 4 kB ofmap buffer is carved out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSplit {
    /// Percentage of the split space assigned to the ifmap buffer.
    pub ifmap_pct: u32,
    /// Percentage assigned to the filter buffer.
    pub filter_pct: u32,
}

impl BufferSplit {
    /// `sa_25_75`: 25 % ifmap / 75 % filters.
    pub const SA_25_75: BufferSplit = BufferSplit {
        ifmap_pct: 25,
        filter_pct: 75,
    };
    /// `sa_50_50`.
    pub const SA_50_50: BufferSplit = BufferSplit {
        ifmap_pct: 50,
        filter_pct: 50,
    };
    /// `sa_75_25`.
    pub const SA_75_25: BufferSplit = BufferSplit {
        ifmap_pct: 75,
        filter_pct: 25,
    };

    /// The three baseline configurations evaluated in the paper.
    pub const ALL: [BufferSplit; 3] = [Self::SA_25_75, Self::SA_50_50, Self::SA_75_25];

    /// Figure 5 label, e.g. `sa_25_75`.
    pub fn label(&self) -> String {
        format!("sa_{}_{}", self.ifmap_pct, self.filter_pct)
    }
}

/// The complete baseline accelerator configuration: the shared
/// accelerator spec plus the static buffer partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineConfig {
    pub acc: AcceleratorConfig,
    pub split: BufferSplit,
    /// Fixed ofmap staging buffer ("a small ofmap buffer size of 4 kB for
    /// all configurations").
    pub ofmap_buffer: ByteSize,
}

impl BaselineConfig {
    /// Paper setup: given total on-chip budget and a split.
    pub fn paper(acc: AcceleratorConfig, split: BufferSplit) -> Self {
        BaselineConfig {
            acc,
            split,
            ofmap_buffer: ByteSize::from_kb(4),
        }
    }

    /// Space split between ifmap and filter buffers (total minus ofmap).
    fn split_space(&self) -> ByteSize {
        self.acc.glb.saturating_sub(self.ofmap_buffer)
    }

    /// Active-half capacity of the ifmap buffer in elements. "The buffers
    /// in SCALE-Sim are double-buffered … the assigned buffer size is
    /// divided in half", so only half the assigned size holds live data.
    pub fn ifmap_cap_elems(&self) -> u64 {
        let assigned = ByteSize(self.split_space().bytes() * self.split.ifmap_pct as u64 / 100);
        assigned.halved().elements(self.acc.data_width)
    }

    /// Active-half capacity of the filter buffer in elements.
    pub fn filter_cap_elems(&self) -> u64 {
        let assigned = ByteSize(self.split_space().bytes() * self.split.filter_pct as u64 / 100);
        assigned.halved().elements(self.acc.data_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_5() {
        assert_eq!(BufferSplit::SA_25_75.label(), "sa_25_75");
        assert_eq!(BufferSplit::SA_50_50.label(), "sa_50_50");
        assert_eq!(BufferSplit::SA_75_25.label(), "sa_75_25");
    }

    #[test]
    fn capacities_halve_for_double_buffering() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        let cfg = BaselineConfig::paper(acc, BufferSplit::SA_50_50);
        // (64 − 4) kB split 50/50 → 30 kB each, half active → 15 kB.
        assert_eq!(cfg.ifmap_cap_elems(), 15 * 1024);
        assert_eq!(cfg.filter_cap_elems(), 15 * 1024);
    }

    #[test]
    fn asymmetric_split() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        let cfg = BaselineConfig::paper(acc, BufferSplit::SA_25_75);
        assert_eq!(cfg.ifmap_cap_elems(), 60 * 1024 / 4 / 2);
        assert_eq!(cfg.filter_cap_elems(), 60 * 1024 * 3 / 4 / 2);
    }

    #[test]
    fn wider_data_reduces_element_capacity() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64))
            .with_data_width(smm_arch::DataWidth::W32);
        let cfg = BaselineConfig::paper(acc, BufferSplit::SA_50_50);
        assert_eq!(cfg.ifmap_cap_elems(), 15 * 1024 / 4);
    }

    #[test]
    fn tiny_glb_saturates_to_zero_split_space() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(2));
        let cfg = BaselineConfig::paper(acc, BufferSplit::SA_50_50);
        assert_eq!(cfg.ifmap_cap_elems(), 0);
    }
}
