//! Fold-level analytical DRAM traffic for the baseline.
//!
//! The model follows the paper's description of the SCALE-Sim baseline:
//! fixed, double-buffered ifmap/filter buffers whose *active half* must
//! hold a working set for it to be reused. A data type whose whole
//! footprint fits its half buffer is fetched once; otherwise it is
//! re-fetched per outer fold. Both loop orders are evaluated and the
//! cheaper is reported, so the baseline is never penalized by an
//! unfavourable fixed schedule.

use crate::buffers::BaselineConfig;
use crate::compute::compute_cycles;
use crate::gemm::{FoldPlan, GemmShape};
use smm_arch::ByteSize;
use smm_model::{LayerShape, Network};

/// Which schedule the per-layer best case picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopOrderChoice {
    /// Row folds outer: the ifmap slides once, filter blocks re-stream.
    RowsOuter,
    /// Column folds outer: filters stream once, the ifmap re-sweeps.
    ColsOuter,
    /// Depth-wise layers: one independent pass per channel.
    DepthwisePerChannel,
}

/// How the ifmap is fetched under the chosen schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfmapMode {
    /// Every demanded element once (slides or fully resident).
    Once,
    /// One full sweep per column fold.
    PerColFold,
    /// Fold windows don't fit the half buffer: streamed per fold.
    StreamedWindows,
}

/// How filters are fetched under the chosen schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// Every filter element once.
    Once,
    /// Re-streamed for every row fold.
    PerRowFold,
}

/// The residency decisions for one layer — shared with the trace-mode
/// schedule so both count the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerPlan {
    pub order: LoopOrderChoice,
    pub ifmap_mode: IfmapMode,
    pub filter_mode: FilterMode,
}

/// Baseline result for one layer (traffic in elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSim {
    pub ifmap_loads: u64,
    pub filter_loads: u64,
    pub ofmap_stores: u64,
    pub compute_cycles: u64,
    pub order: LoopOrderChoice,
}

impl LayerSim {
    /// Total off-chip elements moved.
    pub fn total_accesses(&self) -> u64 {
        self.ifmap_loads + self.filter_loads + self.ofmap_stores
    }
}

/// Whole-network baseline report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineReport {
    pub layers: Vec<LayerSim>,
    /// Total off-chip elements.
    pub total_accesses: u64,
    /// Total off-chip volume in bytes.
    pub total_bytes: ByteSize,
    /// Stall-free latency in cycles (compute only, per Section 5.2).
    pub latency_cycles: u64,
}

/// Clipped **unpadded** input-row range demanded by output rows
/// `[oy_s, oy_e]` (inclusive).
pub(crate) fn input_rows_for(shape: &LayerShape, oy_s: u64, oy_e: u64) -> (u64, u64) {
    let s = shape.stride as u64;
    let p = shape.padding as u64;
    let ih = shape.ifmap_h as u64;
    let fh = shape.filter_h as u64;
    let row_s = (oy_s * s).saturating_sub(p).min(ih);
    let row_e = (oy_e * s + fh).saturating_sub(p).min(ih);
    (row_s, row_e.max(row_s))
}

/// Unpadded input rows demanded by one row fold covering output pixels
/// `pixels` (row-major over `O_W`).
pub(crate) fn fold_rows(shape: &LayerShape, pixels: std::ops::Range<u64>) -> (u64, u64) {
    let ow = shape.output_hw().1 as u64;
    let oy_s = pixels.start / ow;
    let oy_e = (pixels.end - 1) / ow;
    input_rows_for(shape, oy_s, oy_e)
}

/// Unique unpadded ifmap rows demanded across the whole layer (the union
/// of all output-row windows; with `stride > F_H` some rows are skipped).
pub(crate) fn unique_rows(shape: &LayerShape) -> u64 {
    let (oh, _) = shape.output_hw();
    let mut total = 0u64;
    let mut covered_to = 0u64;
    for oy in 0..oh as u64 {
        let (rs, re) = input_rows_for(shape, oy, oy);
        let rs = rs.max(covered_to);
        if re > rs {
            total += re - rs;
            covered_to = re;
        } else {
            covered_to = covered_to.max(re);
        }
    }
    total
}

/// Sum of per-row-fold window elements (all channels), the traffic when
/// fold windows are streamed without inter-fold reuse.
fn sum_fold_windows(shape: &LayerShape, plan: &FoldPlan, channels: u64) -> u64 {
    let iw = shape.ifmap_w as u64;
    let mut total = 0;
    for i in 0..plan.row_folds() {
        let (rs, re) = fold_rows(shape, plan.row_fold_pixels(i));
        total += (re - rs) * iw * channels;
    }
    total
}

/// Largest single row-fold window in elements.
fn max_fold_window(shape: &LayerShape, plan: &FoldPlan, channels: u64) -> u64 {
    let iw = shape.ifmap_w as u64;
    (0..plan.row_folds())
        .map(|i| {
            let (rs, re) = fold_rows(shape, plan.row_fold_pixels(i));
            (re - rs) * iw * channels
        })
        .max()
        .unwrap_or(0)
}

/// Decide the residency plan and traffic for one non-depth-wise layer
/// under one loop order.
fn traffic_for_order(
    cfg: &BaselineConfig,
    shape: &LayerShape,
    plan: &FoldPlan,
    order: LoopOrderChoice,
) -> (LayerPlan, u64, u64) {
    let ci = shape.in_channels as u64;
    let icap = cfg.ifmap_cap_elems();
    let fcap = cfg.filter_cap_elems();
    let g = plan.gemm;

    let unique = unique_rows(shape) * shape.ifmap_w as u64 * ci;
    let windows_fit = max_fold_window(shape, plan, ci) <= icap;
    let ifmap_all_fits = shape.ifmap_elems() <= icap;
    let filters_total = g.n * g.k;
    let filters_all_fit = filters_total <= fcap;
    let block_fits = g.n.min(plan.cols as u64) * g.k <= fcap;

    match order {
        LoopOrderChoice::RowsOuter => {
            // The ifmap slides once (overlap retained fold to fold); the
            // filter set is re-streamed per row fold unless fully resident.
            let (imode, ifmap) = if ifmap_all_fits || windows_fit {
                (IfmapMode::Once, unique)
            } else {
                (
                    IfmapMode::StreamedWindows,
                    sum_fold_windows(shape, plan, ci),
                )
            };
            let (fmode, filters) = if filters_all_fit {
                (FilterMode::Once, filters_total)
            } else {
                (FilterMode::PerRowFold, plan.row_folds() * filters_total)
            };
            (
                LayerPlan {
                    order,
                    ifmap_mode: imode,
                    filter_mode: fmode,
                },
                ifmap,
                filters,
            )
        }
        LoopOrderChoice::ColsOuter => {
            // Filter blocks stay resident across the inner row folds; the
            // ifmap re-sweeps once per column fold unless fully resident.
            let (imode, ifmap) = if ifmap_all_fits {
                (IfmapMode::Once, unique)
            } else if windows_fit {
                (IfmapMode::PerColFold, plan.col_folds() * unique)
            } else {
                (
                    IfmapMode::StreamedWindows,
                    plan.col_folds() * sum_fold_windows(shape, plan, ci),
                )
            };
            let (fmode, filters) = if block_fits {
                (FilterMode::Once, filters_total)
            } else {
                (FilterMode::PerRowFold, plan.row_folds() * filters_total)
            };
            (
                LayerPlan {
                    order,
                    ifmap_mode: imode,
                    filter_mode: fmode,
                },
                ifmap,
                filters,
            )
        }
        LoopOrderChoice::DepthwisePerChannel => unreachable!("handled by depthwise path"),
    }
}

/// Pick the plan the baseline uses for a layer (also consumed by the
/// trace-mode schedule).
pub(crate) fn plan_layer(cfg: &BaselineConfig, shape: &LayerShape) -> (LayerPlan, FoldPlan) {
    let gemm = GemmShape::of(shape);
    let plan = FoldPlan::new(cfg.acc.pe_rows, cfg.acc.pe_cols, gemm);
    if shape.depthwise {
        let icap = cfg.ifmap_cap_elems();
        let plane = shape.ifmap_h as u64 * shape.ifmap_w as u64;
        let windows_fit = max_fold_window(shape, &plan, 1) <= icap;
        let imode = if plane <= icap || windows_fit {
            IfmapMode::Once
        } else {
            IfmapMode::StreamedWindows
        };
        (
            LayerPlan {
                order: LoopOrderChoice::DepthwisePerChannel,
                ifmap_mode: imode,
                filter_mode: FilterMode::Once,
            },
            plan,
        )
    } else {
        let (pa, ia, fa) = traffic_for_order(cfg, shape, &plan, LoopOrderChoice::RowsOuter);
        let (pb, ib, fb) = traffic_for_order(cfg, shape, &plan, LoopOrderChoice::ColsOuter);
        if ia + fa <= ib + fb {
            (pa, plan)
        } else {
            (pb, plan)
        }
    }
}

/// Simulate one layer analytically.
pub fn simulate_layer(cfg: &BaselineConfig, shape: &LayerShape) -> LayerSim {
    let (lp, plan) = plan_layer(cfg, shape);
    let g = plan.gemm;
    let (ifmap_loads, filter_loads) = match lp.order {
        LoopOrderChoice::DepthwisePerChannel => {
            let per_channel = match lp.ifmap_mode {
                IfmapMode::Once => unique_rows(shape) * shape.ifmap_w as u64,
                IfmapMode::StreamedWindows => sum_fold_windows(shape, &plan, 1),
                IfmapMode::PerColFold => unreachable!("depth-wise has a single column fold"),
            };
            (per_channel * g.repeats, shape.filter_elems())
        }
        order => {
            let (_, i, f) = traffic_for_order(cfg, shape, &plan, order);
            (i, f)
        }
    };
    LayerSim {
        ifmap_loads,
        filter_loads,
        ofmap_stores: shape.ofmap_elems(),
        compute_cycles: compute_cycles(&plan),
        order: lp.order,
    }
}

/// Simulate a whole network.
pub fn simulate_network(cfg: &BaselineConfig, net: &Network) -> BaselineReport {
    let layers: Vec<LayerSim> = net
        .layers
        .iter()
        .map(|l| {
            let _span = smm_obs::span!("baseline.layer", "{}", l.name);
            simulate_layer(cfg, &l.shape)
        })
        .collect();
    let total_accesses = layers.iter().map(LayerSim::total_accesses).sum();
    let latency_cycles = layers.iter().map(|l| l.compute_cycles).sum();
    BaselineReport {
        total_accesses,
        total_bytes: ByteSize::from_elements(total_accesses, cfg.acc.data_width),
        latency_cycles,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::BufferSplit;
    use smm_arch::AcceleratorConfig;
    use smm_model::zoo;

    fn cfg(kb: u64, split: BufferSplit) -> BaselineConfig {
        BaselineConfig::paper(
            AcceleratorConfig::paper_default(ByteSize::from_kb(kb)),
            split,
        )
    }

    fn conv() -> LayerShape {
        LayerShape {
            ifmap_h: 28,
            ifmap_w: 28,
            in_channels: 128,
            filter_h: 3,
            filter_w: 3,
            num_filters: 128,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    #[test]
    fn generous_buffers_reach_minimum_traffic() {
        let sim = simulate_layer(&cfg(4096, BufferSplit::SA_50_50), &conv());
        let s = conv();
        assert_eq!(sim.ifmap_loads, s.ifmap_elems());
        assert_eq!(sim.filter_loads, s.filter_elems());
        assert_eq!(sim.ofmap_stores, s.ofmap_elems());
    }

    #[test]
    fn tight_filter_buffer_forces_refetch() {
        // 25% of 60kB = 15kB assigned, 7.5k elements active half; the
        // filter set is 147k elements → re-streamed per row fold under
        // RowsOuter, or the ifmap re-sweeps under ColsOuter. Either way
        // traffic must exceed the minimum.
        let s = conv();
        let sim = simulate_layer(&cfg(64, BufferSplit::SA_75_25), &s);
        let min = s.ifmap_elems() + s.filter_elems() + s.ofmap_elems();
        assert!(sim.total_accesses() > min);
    }

    #[test]
    fn bigger_buffers_never_increase_traffic() {
        let s = conv();
        let mut last = u64::MAX;
        for kb in [64, 128, 256, 512, 1024] {
            let sim = simulate_layer(&cfg(kb, BufferSplit::SA_50_50), &s);
            assert!(sim.total_accesses() <= last, "{kb}kB regressed");
            last = sim.total_accesses();
        }
    }

    #[test]
    fn split_matters_for_filter_heavy_layers() {
        // A late, filter-heavy layer should prefer more filter space.
        let s = LayerShape {
            ifmap_h: 7,
            ifmap_w: 7,
            in_channels: 512,
            filter_h: 3,
            filter_w: 3,
            num_filters: 512,
            stride: 1,
            padding: 1,
            depthwise: false,
        };
        let filter_heavy = simulate_layer(&cfg(256, BufferSplit::SA_25_75), &s);
        let ifmap_heavy = simulate_layer(&cfg(256, BufferSplit::SA_75_25), &s);
        assert!(filter_heavy.total_accesses() <= ifmap_heavy.total_accesses());
    }

    #[test]
    fn depthwise_layers_take_per_channel_path() {
        let s = LayerShape {
            ifmap_h: 56,
            ifmap_w: 56,
            in_channels: 128,
            filter_h: 3,
            filter_w: 3,
            num_filters: 128,
            stride: 1,
            padding: 1,
            depthwise: true,
        };
        let sim = simulate_layer(&cfg(64, BufferSplit::SA_50_50), &s);
        assert_eq!(sim.order, LoopOrderChoice::DepthwisePerChannel);
        // Depth-wise demand is inherently minimum-transfer here.
        assert_eq!(sim.ifmap_loads, s.ifmap_elems());
        assert_eq!(sim.filter_loads, s.filter_elems());
    }

    #[test]
    fn unique_rows_with_stride_gaps() {
        // 1×1 filter, stride 2, no padding: only even rows are demanded.
        let s = LayerShape {
            ifmap_h: 8,
            ifmap_w: 8,
            in_channels: 1,
            filter_h: 1,
            filter_w: 1,
            num_filters: 4,
            stride: 2,
            padding: 0,
            depthwise: false,
        };
        assert_eq!(unique_rows(&s), 4);
    }

    #[test]
    fn unique_rows_dense_conv_covers_everything() {
        let s = conv();
        assert_eq!(unique_rows(&s), 28);
    }

    #[test]
    fn compute_cycles_independent_of_buffers() {
        let s = conv();
        let a = simulate_layer(&cfg(64, BufferSplit::SA_25_75), &s);
        let b = simulate_layer(&cfg(1024, BufferSplit::SA_75_25), &s);
        assert_eq!(a.compute_cycles, b.compute_cycles);
    }

    #[test]
    fn network_report_sums_layers() {
        let net = zoo::resnet18();
        let c = cfg(256, BufferSplit::SA_50_50);
        let rep = simulate_network(&c, &net);
        assert_eq!(rep.layers.len(), 21);
        let sum: u64 = rep.layers.iter().map(LayerSim::total_accesses).sum();
        assert_eq!(rep.total_accesses, sum);
        assert_eq!(
            rep.total_bytes,
            ByteSize::from_elements(sum, c.acc.data_width)
        );
        assert!(rep.latency_cycles > 0);
    }

    #[test]
    fn fc_layers_are_fetched_once() {
        let s = LayerShape {
            ifmap_h: 1,
            ifmap_w: 1,
            in_channels: 1024,
            filter_h: 1,
            filter_w: 1,
            num_filters: 1000,
            stride: 1,
            padding: 0,
            depthwise: false,
        };
        // One row fold → filters can always stream exactly once.
        let sim = simulate_layer(&cfg(64, BufferSplit::SA_50_50), &s);
        assert_eq!(sim.filter_loads, s.filter_elems());
        assert_eq!(sim.ifmap_loads, 1024);
    }
}
