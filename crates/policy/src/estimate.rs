use crate::{FallbackTiling, PolicyKind};
use smm_arch::{AcceleratorConfig, ByteSize};

/// A per-data-type footprint in **elements** (the unit Algorithm 1's
/// estimators reason in; bytes are derived via the data width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Resident ifmap elements.
    pub ifmap: u64,
    /// Resident filter elements.
    pub filters: u64,
    /// Resident ofmap elements.
    pub ofmap: u64,
}

impl Footprint {
    /// Sum over the three data types.
    #[inline]
    pub fn total(&self) -> u64 {
        self.ifmap + self.filters + self.ofmap
    }

    /// Scale every component (e.g. ×2 for double-buffered prefetching).
    #[inline]
    pub fn scaled(&self, factor: u64) -> Footprint {
        Footprint {
            ifmap: self.ifmap * factor,
            filters: self.filters * factor,
            ofmap: self.ofmap * factor,
        }
    }

    /// Convert to bytes at the accelerator's data width.
    pub fn bytes(&self, acc: &AcceleratorConfig) -> ByteSize {
        ByteSize::from_elements(self.total(), acc.data_width)
    }
}

/// Off-chip traffic in elements, broken down by data type and cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCounts {
    /// Ifmap elements read from off-chip (padded ifmap × reload factor).
    pub ifmap_loads: u64,
    /// Filter elements read from off-chip.
    pub filter_loads: u64,
    /// Ofmap elements written off-chip.
    pub ofmap_stores: u64,
    /// Extra partial-sum elements written off-chip (fallback tiling only).
    pub psum_spill_stores: u64,
    /// Extra partial-sum elements read back (fallback tiling only).
    pub psum_spill_loads: u64,
}

impl AccessCounts {
    /// Total off-chip elements moved.
    #[inline]
    pub fn total(&self) -> u64 {
        self.ifmap_loads
            + self.filter_loads
            + self.ofmap_stores
            + self.psum_spill_stores
            + self.psum_spill_loads
    }

    /// Total off-chip volume in bytes at the accelerator's data width.
    pub fn bytes(&self, acc: &AcceleratorConfig) -> ByteSize {
        ByteSize::from_elements(self.total(), acc.data_width)
    }
}

/// The latency estimator's output for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyEstimate {
    /// Cycles the PE array needs for the layer's MACs.
    pub compute_cycles: u64,
    /// Cycles the off-chip interface needs for the layer's traffic.
    pub transfer_cycles: u64,
    /// Estimated layer latency. Without prefetching transfers serialize
    /// with compute (`compute + transfer`); with prefetching the two
    /// overlap in steady state (`max(compute, transfer)`).
    pub cycles: u64,
}

/// The full output of Algorithm 1's three estimators for one
/// (layer, policy, prefetch) combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyEstimate {
    /// Which policy this estimate describes.
    pub kind: PolicyKind,
    /// Whether the prefetching variant (Eq. 2) is used.
    pub prefetch: bool,
    /// Filter-block size for policies 4/5 (`n ∈ [1, F#)`).
    pub block_n: Option<u64>,
    /// Chosen blocking for the fallback policy.
    pub fallback: Option<FallbackTiling>,
    /// Single-copy resident footprint per data type (the Figure 6
    /// breakdown). With prefetching the *allocation* is twice this; see
    /// [`PolicyEstimate::allocation`].
    pub resident: Footprint,
    /// Off-chip traffic.
    pub accesses: AccessCounts,
    /// Latency estimate.
    pub latency: LatencyEstimate,
    /// True when the policy leaves the complete ofmap resident in the GLB
    /// at the end of the layer (enables inter-layer reuse towards the
    /// next layer).
    pub ofmap_resident_at_end: bool,
}

impl PolicyEstimate {
    /// Double-buffer factor: 2 with prefetching (Eq. 2), 1 without (Eq. 1).
    #[inline]
    pub fn buffer_factor(&self) -> u64 {
        if self.prefetch {
            2
        } else {
            1
        }
    }

    /// GLB elements this estimate actually allocates (per-type, including
    /// the prefetch doubling).
    #[inline]
    pub fn allocation(&self) -> Footprint {
        self.resident.scaled(self.buffer_factor())
    }

    /// `estimate_memory(policy)` of Algorithm 1 — total GLB elements
    /// required.
    #[inline]
    pub fn required_elems(&self) -> u64 {
        self.allocation().total()
    }

    /// Memory requirement in bytes at the accelerator's data width.
    pub fn required_bytes(&self, acc: &AcceleratorConfig) -> ByteSize {
        ByteSize::from_elements(self.required_elems(), acc.data_width)
    }

    /// Whether the estimate satisfies the GLB constraint (line 10 of
    /// Algorithm 1).
    pub fn fits(&self, acc: &AcceleratorConfig) -> bool {
        self.required_elems() <= acc.glb_elements()
    }

    /// Re-derive the latency for a different traffic volume — used when a
    /// plan-level optimization (inter-layer reuse) elides part of this
    /// layer's off-chip traffic after the policy was chosen.
    pub fn latency_for_traffic(
        &self,
        acc: &AcceleratorConfig,
        traffic_elems: u64,
    ) -> LatencyEstimate {
        latency_from(
            acc,
            self.latency.compute_cycles,
            traffic_elems,
            self.prefetch,
        )
    }
}

/// Assemble a [`LatencyEstimate`] from compute cycles and traffic.
pub(crate) fn latency_from(
    acc: &AcceleratorConfig,
    compute_cycles: u64,
    traffic_elems: u64,
    prefetch: bool,
) -> LatencyEstimate {
    let transfer_cycles = acc.transfer_cycles(traffic_elems);
    let cycles = if prefetch {
        compute_cycles.max(transfer_cycles)
    } else {
        compute_cycles + transfer_cycles
    };
    LatencyEstimate {
        compute_cycles,
        transfer_cycles,
        cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::ByteSize;

    fn acc() -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(64))
    }

    #[test]
    fn footprint_totals_and_scaling() {
        let f = Footprint {
            ifmap: 10,
            filters: 20,
            ofmap: 30,
        };
        assert_eq!(f.total(), 60);
        assert_eq!(f.scaled(2).total(), 120);
        assert_eq!(f.bytes(&acc()).bytes(), 60);
    }

    #[test]
    fn access_total_includes_spills() {
        let a = AccessCounts {
            ifmap_loads: 100,
            filter_loads: 50,
            ofmap_stores: 25,
            psum_spill_stores: 10,
            psum_spill_loads: 10,
        };
        assert_eq!(a.total(), 195);
    }

    #[test]
    fn latency_overlap_semantics() {
        let a = acc();
        // 1600 elements at 16 elem/cycle = 100 transfer cycles.
        let no_pf = latency_from(&a, 300, 1600, false);
        assert_eq!(no_pf.transfer_cycles, 100);
        assert_eq!(no_pf.cycles, 400);
        let pf = latency_from(&a, 300, 1600, true);
        assert_eq!(pf.cycles, 300);
        // Transfer-bound with prefetch: bounded by the transfer.
        let pf2 = latency_from(&a, 50, 1600, true);
        assert_eq!(pf2.cycles, 100);
    }

    #[test]
    fn prefetch_doubles_requirement() {
        let base = PolicyEstimate {
            kind: PolicyKind::P1IfmapReuse,
            prefetch: false,
            block_n: None,
            fallback: None,
            resident: Footprint {
                ifmap: 100,
                filters: 200,
                ofmap: 50,
            },
            accesses: AccessCounts::default(),
            latency: LatencyEstimate::default(),
            ofmap_resident_at_end: false,
        };
        assert_eq!(base.required_elems(), 350);
        let mut pf = base.clone();
        pf.prefetch = true;
        assert_eq!(pf.required_elems(), 700);
        assert_eq!(pf.allocation().ifmap, 200);
    }
}
