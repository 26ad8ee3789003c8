//! Energy accounting.
//!
//! The paper's motivation for minimizing off-chip traffic is energy:
//! "off-chip data transfers are the most energy costly operations,
//! approximately 10–100× of the energy for a local computation"
//! (Section 2.3). This module turns a plan's traffic totals into an
//! energy estimate so that claim can be examined quantitatively.
//!
//! The model is deliberately coarse — three coefficients, defaulting to
//! the commonly cited 45 nm figures (DRAM access ≈ 100× an 8-bit MAC,
//! SRAM access ≈ 5×) — because the *relative* comparison between
//! schemes, not absolute joules, is what the evaluation needs.

use crate::ExecutionPlan;
use smm_model::Network;

/// Per-operation energy coefficients in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy to move one byte across the off-chip interface.
    pub dram_pj_per_byte: f64,
    /// Energy to read or write one byte of the on-chip scratchpad.
    pub sram_pj_per_byte: f64,
    /// Energy of one multiply-accumulate.
    pub mac_pj: f64,
}

impl Default for EnergyModel {
    /// The canonical "DRAM ≈ 100× a MAC, SRAM ≈ 5×" ratios at an 8-bit
    /// MAC cost of 0.2 pJ.
    fn default() -> Self {
        EnergyModel {
            dram_pj_per_byte: 20.0,
            sram_pj_per_byte: 1.0,
            mac_pj: 0.2,
        }
    }
}

/// Energy breakdown for one network execution, in microjoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    pub dram_uj: f64,
    pub sram_uj: f64,
    pub mac_uj: f64,
}

impl EnergyBreakdown {
    pub fn total_uj(&self) -> f64 {
        self.dram_uj + self.sram_uj + self.mac_uj
    }

    /// Fraction of the total spent on off-chip transfers.
    pub fn dram_share(&self) -> f64 {
        let t = self.total_uj();
        if t == 0.0 {
            0.0
        } else {
            self.dram_uj / t
        }
    }
}

const PJ_PER_UJ: f64 = 1e6;

/// Energy of an execution plan: DRAM for every off-chip byte, SRAM for
/// staging each of those bytes into and out of the GLB, MACs for the
/// network's compute. (Register-file traffic inside the PE array is
/// dataflow-dependent and excluded on both sides of any comparison.)
pub fn plan_energy(model: &EnergyModel, plan: &ExecutionPlan, net: &Network) -> EnergyBreakdown {
    let bytes = plan.totals.accesses_bytes.bytes() as f64;
    let macs: u64 = net.layers.iter().map(|l| l.shape.macs()).sum();
    EnergyBreakdown {
        dram_uj: bytes * model.dram_pj_per_byte / PJ_PER_UJ,
        sram_uj: bytes * 2.0 * model.sram_pj_per_byte / PJ_PER_UJ,
        mac_uj: macs as f64 * model.mac_pj / PJ_PER_UJ,
    }
}

/// Energy of a baseline execution with the same conventions, from its
/// off-chip byte volume.
pub fn traffic_energy(model: &EnergyModel, offchip_bytes: u64, net: &Network) -> EnergyBreakdown {
    let bytes = offchip_bytes as f64;
    let macs: u64 = net.layers.iter().map(|l| l.shape.macs()).sum();
    EnergyBreakdown {
        dram_uj: bytes * model.dram_pj_per_byte / PJ_PER_UJ,
        sram_uj: bytes * 2.0 * model.sram_pj_per_byte / PJ_PER_UJ,
        mac_uj: macs as f64 * model.mac_pj / PJ_PER_UJ,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Manager, ManagerConfig, Objective};
    use smm_arch::{AcceleratorConfig, ByteSize};
    use smm_model::zoo;

    #[test]
    fn default_ratios_match_the_paper_claim() {
        // One 8-bit element over DRAM vs one MAC: 20 pJ vs 0.2 pJ = 100×.
        let m = EnergyModel::default();
        assert_eq!(m.dram_pj_per_byte / m.mac_pj, 100.0);
        assert!(m.dram_pj_per_byte / m.sram_pj_per_byte >= 10.0);
    }

    #[test]
    fn plan_energy_tracks_traffic() {
        let net = zoo::resnet18();
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        let m = Manager::new(acc, ManagerConfig::new(Objective::Accesses));
        let plan = m.heterogeneous(&net).unwrap();
        let e = plan_energy(&EnergyModel::default(), &plan, &net);
        assert!(e.total_uj() > 0.0);
        // ResNet18 @ 64 kB: ~16 MB off-chip → DRAM dominates MACs.
        assert!(e.dram_uj > e.mac_uj / 2.0);
        // Identical traffic via the generic helper gives the same answer.
        let e2 = traffic_energy(
            &EnergyModel::default(),
            plan.totals.accesses_bytes.bytes(),
            &net,
        );
        assert_eq!(e, e2);
    }

    #[test]
    fn access_reduction_translates_to_energy_reduction() {
        // The paper's core energy argument: cutting off-chip accesses cuts
        // energy nearly proportionally when DRAM dominates.
        let net = zoo::resnet18();
        let model = EnergyModel::default();
        let small = Manager::new(
            AcceleratorConfig::paper_default(ByteSize::from_kb(64)),
            ManagerConfig::new(Objective::Accesses),
        )
        .heterogeneous(&net)
        .unwrap();
        let plan_e = plan_energy(&model, &small, &net);
        // A 5× traffic blow-up (a bad baseline) must cost much more energy.
        let bloated = traffic_energy(&model, small.totals.accesses_bytes.bytes() * 5, &net);
        assert!(bloated.total_uj() > 3.0 * plan_e.total_uj());
    }

    #[test]
    fn dram_share_is_a_fraction() {
        let e = EnergyBreakdown {
            dram_uj: 3.0,
            sram_uj: 1.0,
            mac_uj: 1.0,
        };
        assert!((e.dram_share() - 0.6).abs() < 1e-12);
        assert_eq!(EnergyBreakdown::default().dram_share(), 0.0);
    }
}
