//! Alternative systolic dataflows (Section 2.3 of the paper).
//!
//! The baseline the paper compares against is output-stationary (OS),
//! but SCALE-Sim — and the paper's background — also describe
//! weight-stationary (WS) and input-stationary (IS) mappings. This
//! module provides analytical cycle and traffic models for all three so
//! the baseline's dataflow choice can be ablated:
//!
//! - **OS** — psums never leave the array; the reduction dimension `K`
//!   streams through. Folds: `⌈M/R⌉·⌈N/C⌉`.
//! - **WS** — a `R×C` tile of the filter matrix (K rows × N columns)
//!   stays resident; the `M` activations stream through. Folds:
//!   `⌈K/R⌉·⌈N/C⌉`. Partial sums leave the array every fold and must be
//!   re-accumulated across the `⌈K/R⌉` reduction folds — through the
//!   small ofmap buffer when the slice fits, spilling off-chip when not.
//! - **IS** — a `R×C` tile of the im2col input matrix (K rows × M
//!   columns) stays resident; the `N` filters stream. Folds:
//!   `⌈K/R⌉·⌈M/C⌉`, with the same psum re-accumulation behaviour.
//!
//! The element-exact trace mode covers OS only (the configuration the
//! paper evaluates); WS/IS are analytical.

use crate::analytic::LayerSim;
use crate::buffers::BaselineConfig;
use crate::compute::fold_cycles;
use crate::gemm::{FoldPlan, GemmShape};
use smm_model::{LayerShape, Network};

/// The mapping kept stationary in the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataflow {
    /// Output stationary — the paper's baseline configuration.
    OutputStationary,
    /// Weight stationary (TPU-style).
    WeightStationary,
    /// Input stationary.
    InputStationary,
}

impl Dataflow {
    pub const ALL: [Dataflow; 3] = [
        Dataflow::OutputStationary,
        Dataflow::WeightStationary,
        Dataflow::InputStationary,
    ];

    /// Short label (`OS` / `WS` / `IS`).
    pub fn label(self) -> &'static str {
        match self {
            Dataflow::OutputStationary => "OS",
            Dataflow::WeightStationary => "WS",
            Dataflow::InputStationary => "IS",
        }
    }
}

/// Per-layer result of a WS/IS simulation (OS goes through
/// [`crate::analytic::simulate_layer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowSim {
    pub ifmap_loads: u64,
    pub filter_loads: u64,
    pub ofmap_stores: u64,
    /// Off-chip partial-sum traffic (reads + writes) caused by reduction
    /// folds that overflow the ofmap staging buffer.
    pub psum_spills: u64,
    pub compute_cycles: u64,
}

impl DataflowSim {
    pub fn total_accesses(&self) -> u64 {
        self.ifmap_loads + self.filter_loads + self.ofmap_stores + self.psum_spills
    }

    fn from_layer_sim(sim: &LayerSim) -> Self {
        DataflowSim {
            ifmap_loads: sim.ifmap_loads,
            filter_loads: sim.filter_loads,
            ofmap_stores: sim.ofmap_stores,
            psum_spills: 0,
            compute_cycles: sim.compute_cycles,
        }
    }
}

/// Stall-free compute cycles of a layer under a dataflow.
pub fn dataflow_compute_cycles(cfg: &BaselineConfig, shape: &LayerShape, df: Dataflow) -> u64 {
    let g = GemmShape::of(shape);
    let (r, c) = (cfg.acc.pe_rows, cfg.acc.pe_cols);
    match df {
        Dataflow::OutputStationary => crate::compute::compute_cycles(&FoldPlan::new(r, c, g)),
        Dataflow::WeightStationary => {
            // K over rows, N over columns; the M activations stream
            // through each fold: fill R, stream M, drain C.
            let folds = g.k.div_ceil(r as u64) * g.n.div_ceil(c as u64);
            g.repeats * folds * (r as u64 + c as u64 + g.m - 1)
        }
        Dataflow::InputStationary => {
            let folds = g.k.div_ceil(r as u64) * g.m.div_ceil(c as u64);
            g.repeats * folds * (r as u64 + c as u64 + g.n - 1)
        }
    }
}

/// Off-chip partial-sum traffic for a stationary dataflow with
/// `k_folds` reduction folds over an output slice of `slice` elements:
/// each non-final fold writes the slice out and reads it back unless it
/// fits the staging buffer.
fn psum_spills(cfg: &BaselineConfig, k_folds: u64, slice: u64, slices: u64) -> u64 {
    if k_folds <= 1 {
        return 0;
    }
    let staging = cfg.ofmap_buffer.halved().elements(cfg.acc.data_width);
    if slice <= staging {
        return 0;
    }
    slices * (k_folds - 1) * slice * 2
}

/// Simulate one layer under a dataflow. OS delegates to the calibrated
/// per-layer model; WS/IS use the stationary-tile models above.
pub fn simulate_layer_dataflow(
    cfg: &BaselineConfig,
    shape: &LayerShape,
    df: Dataflow,
) -> DataflowSim {
    if df == Dataflow::OutputStationary {
        return DataflowSim::from_layer_sim(&crate::analytic::simulate_layer(cfg, shape));
    }
    let g = GemmShape::of(shape);
    let (r, c) = (cfg.acc.pe_rows as u64, cfg.acc.pe_cols as u64);
    let k_folds = g.k.div_ceil(r);
    let unique_ifmap = shape.ifmap_elems();
    let filters = shape.filter_elems();
    let ofmap = shape.ofmap_elems();
    match df {
        Dataflow::WeightStationary => {
            // Filters loaded once (they are the stationary operand); the
            // ifmap re-streams once per column fold unless it fits the
            // ifmap buffer.
            let n_folds = g.n.div_ceil(c);
            let ifmap_passes = if unique_ifmap <= cfg.ifmap_cap_elems() {
                1
            } else {
                n_folds
            };
            // Output slice per column fold: M × (filters in the fold).
            let slice = g.m * c.min(g.n);
            DataflowSim {
                ifmap_loads: ifmap_passes * unique_ifmap,
                filter_loads: filters,
                ofmap_stores: ofmap,
                psum_spills: g.repeats * psum_spills(cfg, k_folds, slice, n_folds),
                compute_cycles: dataflow_compute_cycles(cfg, shape, df),
            }
        }
        Dataflow::InputStationary => {
            // The im2col input tile is stationary; filters re-stream once
            // per pixel fold unless they fit the filter buffer.
            let m_folds = g.m.div_ceil(c);
            let filter_passes = if filters <= cfg.filter_cap_elems() {
                1
            } else {
                m_folds
            };
            let slice = g.n * c.min(g.m);
            DataflowSim {
                ifmap_loads: unique_ifmap,
                filter_loads: filter_passes * filters,
                ofmap_stores: ofmap,
                psum_spills: g.repeats * psum_spills(cfg, k_folds, slice, m_folds),
                compute_cycles: dataflow_compute_cycles(cfg, shape, df),
            }
        }
        Dataflow::OutputStationary => unreachable!("handled above"),
    }
}

/// Network totals under a dataflow.
pub fn simulate_network_dataflow(cfg: &BaselineConfig, net: &Network, df: Dataflow) -> (u64, u64) {
    let mut accesses = 0;
    let mut cycles = 0;
    for l in &net.layers {
        let sim = simulate_layer_dataflow(cfg, &l.shape, df);
        accesses += sim.total_accesses();
        cycles += sim.compute_cycles;
    }
    (accesses, cycles)
}

/// Keep `fold_cycles` linked for the docs above.
#[allow(dead_code)]
fn _doc_anchor() {
    let _ = fold_cycles;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::BufferSplit;
    use smm_arch::{AcceleratorConfig, ByteSize};
    use smm_model::zoo;

    fn cfg(kb: u64) -> BaselineConfig {
        BaselineConfig::paper(
            AcceleratorConfig::paper_default(ByteSize::from_kb(kb)),
            BufferSplit::SA_50_50,
        )
    }

    fn conv() -> LayerShape {
        LayerShape {
            ifmap_h: 28,
            ifmap_w: 28,
            in_channels: 64,
            filter_h: 3,
            filter_w: 3,
            num_filters: 96,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    #[test]
    fn os_matches_the_calibrated_model() {
        let c = cfg(256);
        let s = conv();
        let os = simulate_layer_dataflow(&c, &s, Dataflow::OutputStationary);
        let base = crate::analytic::simulate_layer(&c, &s);
        assert_eq!(os.total_accesses(), base.total_accesses());
        assert_eq!(os.compute_cycles, base.compute_cycles);
        assert_eq!(os.psum_spills, 0);
    }

    #[test]
    fn stationary_dataflows_spill_psums_on_deep_reductions() {
        // K = 3·3·64 = 576 ≫ 16 rows → 36 reduction folds; the output
        // slice (784×16) dwarfs the 2 kB staging half.
        let c = cfg(256);
        let ws = simulate_layer_dataflow(&c, &conv(), Dataflow::WeightStationary);
        assert!(ws.psum_spills > 0);
        // IS's slice is N × (pixels per fold): needs a wide filter set to
        // overflow the 2 kB staging half.
        let wide = LayerShape {
            num_filters: 256,
            ..conv()
        };
        let is = simulate_layer_dataflow(&c, &wide, Dataflow::InputStationary);
        assert!(is.psum_spills > 0);
    }

    #[test]
    fn shallow_reductions_do_not_spill() {
        // A 1×1 conv with 16 channels: K = 16 ≤ R → single reduction fold.
        let s = LayerShape {
            ifmap_h: 14,
            ifmap_w: 14,
            in_channels: 16,
            filter_h: 1,
            filter_w: 1,
            num_filters: 32,
            stride: 1,
            padding: 0,
            depthwise: false,
        };
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            let sim = simulate_layer_dataflow(&cfg(64), &s, df);
            assert_eq!(sim.psum_spills, 0, "{df:?}");
        }
    }

    #[test]
    fn ws_loads_filters_once() {
        let sim = simulate_layer_dataflow(&cfg(64), &conv(), Dataflow::WeightStationary);
        assert_eq!(sim.filter_loads, conv().filter_elems());
    }

    #[test]
    fn os_wins_on_conv_layers_at_small_buffers() {
        // The paper's choice of OS for the baseline is sound: for deep
        // convolution reductions, the stationary dataflows pay heavy psum
        // traffic.
        let c = cfg(64);
        let os = simulate_layer_dataflow(&c, &conv(), Dataflow::OutputStationary);
        let ws = simulate_layer_dataflow(&c, &conv(), Dataflow::WeightStationary);
        let is = simulate_layer_dataflow(&c, &conv(), Dataflow::InputStationary);
        assert!(os.total_accesses() <= ws.total_accesses());
        assert!(os.total_accesses() <= is.total_accesses());
    }

    #[test]
    fn network_totals_accumulate() {
        let c = cfg(256);
        let net = zoo::resnet18();
        let (acc_ws, cyc_ws) = simulate_network_dataflow(&c, &net, Dataflow::WeightStationary);
        assert!(acc_ws > 0);
        assert!(cyc_ws > 0);
        let (acc_os, _) = simulate_network_dataflow(&c, &net, Dataflow::OutputStationary);
        let base = crate::analytic::simulate_network(&c, &net);
        assert_eq!(acc_os, base.total_accesses);
    }

    #[test]
    fn labels() {
        assert_eq!(Dataflow::WeightStationary.label(), "WS");
        assert_eq!(Dataflow::ALL.len(), 3);
    }
}
