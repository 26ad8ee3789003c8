//! Executable trace-mode schedule.
//!
//! Replays the exact residency plan chosen by `analytic::plan_layer`
//! against element-granular [`smm_trace`] scratchpads, summing the DRAM
//! traffic every miss, stream and store causes. This is the cross-validation harness: the
//! fold-level formulas in [`analytic`] and the element-by-element replay
//! here must produce identical traffic, which the tests assert across
//! layer shapes and buffer sizes.

use crate::analytic::{self, plan_layer, FilterMode, IfmapMode, LayerSim, LoopOrderChoice};
use crate::buffers::BaselineConfig;
use crate::compute::compute_cycles;
use smm_model::LayerShape;
use smm_trace::{AddressMap, Scratchpad};

/// Traffic observed by the trace-mode replay (elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSim {
    pub ifmap_loads: u64,
    pub filter_loads: u64,
    pub ofmap_stores: u64,
    pub compute_cycles: u64,
}

impl TraceSim {
    pub fn total_accesses(&self) -> u64 {
        self.ifmap_loads + self.filter_loads + self.ofmap_stores
    }

    /// Compare against an analytical result.
    pub fn matches(&self, sim: &LayerSim) -> bool {
        self.ifmap_loads == sim.ifmap_loads
            && self.filter_loads == sim.filter_loads
            && self.ofmap_stores == sim.ofmap_stores
            && self.compute_cycles == sim.compute_cycles
    }
}

/// Fill exactly the input rows the fold's output rows demand, window by
/// window — with `stride > F_H` the contiguous fold range contains gap
/// rows no window touches, and the analytical `unique_rows` count is
/// gap-aware. Returns the elements fetched.
fn fill_fold_windows(
    sp: &mut Scratchpad,
    map: &AddressMap,
    shape: &LayerShape,
    c: u64,
    pixels: std::ops::Range<u64>,
) -> u64 {
    let ow = shape.output_hw().1 as u64;
    let oy_s = pixels.start / ow;
    let oy_e = (pixels.end - 1) / ow;
    let mut reads = 0;
    for oy in oy_s..=oy_e {
        let (rs, re) = analytic::input_rows_for(shape, oy, oy);
        if re > rs {
            reads += sp
                .fill(map.ifmap_rows(c, rs..re))
                .expect("window must fit per plan");
        }
    }
    reads
}

/// Elements in an address range (a streamed operand's DRAM reads).
fn len(range: std::ops::Range<u64>) -> u64 {
    range.end - range.start
}

/// Replay one layer element by element.
pub fn trace_layer(cfg: &BaselineConfig, shape: &LayerShape) -> TraceSim {
    let _span = smm_obs::span!("baseline.trace_layer");
    smm_obs::add(smm_obs::Counter::BaselineLayersTraced, 1);
    let (lp, plan) = plan_layer(cfg, shape);
    let ci = shape.in_channels as u64;
    let nf = shape.num_filters as u64;
    let map = AddressMap::new(
        shape.ifmap_h as u64,
        shape.ifmap_w as u64,
        ci,
        shape.single_filter_elems(),
        nf,
        shape.output_hw().0 as u64,
        shape.output_hw().1 as u64,
        shape.out_channels() as u64,
    );
    let (mut ifmap_loads, mut filter_loads, mut ofmap_stores) = (0u64, 0u64, 0u64);
    let mut sp_i = Scratchpad::new(cfg.ifmap_cap_elems());
    let mut sp_f = Scratchpad::new(cfg.filter_cap_elems());

    match lp.order {
        LoopOrderChoice::DepthwisePerChannel => {
            for c in 0..ci {
                // One tiny filter per channel; stream it (it is consumed
                // once per channel pass).
                filter_loads += len(map.filters(c..c + 1));
                for i in 0..plan.row_folds() {
                    let pixels = plan.row_fold_pixels(i);
                    let n_px = pixels.end - pixels.start;
                    let (rs, re) = analytic::fold_rows(shape, pixels.clone());
                    match lp.ifmap_mode {
                        IfmapMode::Once => {
                            if rs > 0 {
                                sp_i.evict(map.ifmap_rows(c, 0..rs));
                            }
                            ifmap_loads +=
                                fill_fold_windows(&mut sp_i, &map, shape, c, pixels.clone());
                        }
                        IfmapMode::StreamedWindows => {
                            if re > rs {
                                ifmap_loads += len(map.ifmap_rows(c, rs..re));
                            }
                        }
                        IfmapMode::PerColFold => {
                            unreachable!("depth-wise has a single column fold")
                        }
                    }
                    ofmap_stores += n_px;
                }
                sp_i.evict_all();
            }
        }
        LoopOrderChoice::RowsOuter => {
            if lp.filter_mode == FilterMode::Once {
                filter_loads += sp_f
                    .fill(map.filters(0..nf))
                    .expect("filters must fit per plan");
            }
            for i in 0..plan.row_folds() {
                let pixels = plan.row_fold_pixels(i);
                let n_px = pixels.end - pixels.start;
                let (rs, re) = analytic::fold_rows(shape, pixels.clone());
                for c in 0..ci {
                    match lp.ifmap_mode {
                        IfmapMode::Once => {
                            if rs > 0 {
                                sp_i.evict(map.ifmap_rows(c, 0..rs));
                            }
                            ifmap_loads +=
                                fill_fold_windows(&mut sp_i, &map, shape, c, pixels.clone());
                        }
                        IfmapMode::StreamedWindows => {
                            if re > rs {
                                ifmap_loads += len(map.ifmap_rows(c, rs..re));
                            }
                        }
                        IfmapMode::PerColFold => unreachable!("not chosen under RowsOuter"),
                    }
                }
                for j in 0..plan.col_folds() {
                    let fs = plan.col_fold_filters(j);
                    if lp.filter_mode == FilterMode::PerRowFold {
                        filter_loads += len(map.filters(fs.clone()));
                    }
                    ofmap_stores += n_px * (fs.end - fs.start);
                }
            }
        }
        LoopOrderChoice::ColsOuter => {
            for j in 0..plan.col_folds() {
                let fs = plan.col_fold_filters(j);
                if lp.filter_mode == FilterMode::Once {
                    filter_loads += sp_f
                        .fill(map.filters(fs.clone()))
                        .expect("filter block must fit per plan");
                }
                for i in 0..plan.row_folds() {
                    let pixels = plan.row_fold_pixels(i);
                    let n_px = pixels.end - pixels.start;
                    let (rs, re) = analytic::fold_rows(shape, pixels.clone());
                    for c in 0..ci {
                        match lp.ifmap_mode {
                            // Whole ifmap resident: fill and keep across
                            // column folds.
                            IfmapMode::Once => {
                                ifmap_loads +=
                                    fill_fold_windows(&mut sp_i, &map, shape, c, pixels.clone());
                            }
                            // Re-sweep per column fold, sliding within one.
                            IfmapMode::PerColFold => {
                                if rs > 0 {
                                    sp_i.evict(map.ifmap_rows(c, 0..rs));
                                }
                                ifmap_loads +=
                                    fill_fold_windows(&mut sp_i, &map, shape, c, pixels.clone());
                            }
                            IfmapMode::StreamedWindows => {
                                if re > rs {
                                    ifmap_loads += len(map.ifmap_rows(c, rs..re));
                                }
                            }
                        }
                    }
                    if lp.filter_mode == FilterMode::PerRowFold {
                        filter_loads += len(map.filters(fs.clone()));
                    }
                    ofmap_stores += n_px * (fs.end - fs.start);
                }
                if lp.filter_mode == FilterMode::Once {
                    sp_f.evict(map.filters(fs.clone()));
                }
                if lp.ifmap_mode == IfmapMode::PerColFold {
                    sp_i.evict_all();
                }
            }
        }
    }

    TraceSim {
        ifmap_loads,
        filter_loads,
        ofmap_stores,
        compute_cycles: compute_cycles(&plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::simulate_layer;
    use crate::buffers::BufferSplit;
    use smm_arch::{AcceleratorConfig, ByteSize};

    fn cfg(kb: u64, split: BufferSplit) -> BaselineConfig {
        BaselineConfig::paper(
            AcceleratorConfig::paper_default(ByteSize::from_kb(kb)),
            split,
        )
    }

    fn check(shape: &LayerShape, kb: u64, split: BufferSplit) {
        let c = cfg(kb, split);
        let analytic = simulate_layer(&c, shape);
        let traced = trace_layer(&c, shape);
        assert!(
            traced.matches(&analytic),
            "mismatch at {kb}kB {}: analytic {analytic:?} vs trace {traced:?}",
            split.label()
        );
    }

    fn conv(ih: u32, ci: u32, f: u32, nf: u32, s: u32, p: u32, dw: bool) -> LayerShape {
        let shape = LayerShape {
            ifmap_h: ih,
            ifmap_w: ih,
            in_channels: ci,
            filter_h: f,
            filter_w: f,
            num_filters: nf,
            stride: s,
            padding: p,
            depthwise: dw,
        };
        shape.validate().unwrap();
        shape
    }

    #[test]
    fn trace_matches_analytic_for_standard_conv() {
        let s = conv(14, 64, 3, 96, 1, 1, false);
        for kb in [16, 64, 256, 1024] {
            for split in BufferSplit::ALL {
                check(&s, kb, split);
            }
        }
    }

    #[test]
    fn trace_matches_analytic_for_strided_conv() {
        let s = conv(28, 16, 3, 32, 2, 1, false);
        for kb in [16, 64, 256] {
            check(&s, kb, BufferSplit::SA_50_50);
        }
    }

    #[test]
    fn trace_matches_analytic_for_depthwise() {
        let s = conv(28, 64, 3, 64, 1, 1, true);
        for kb in [8, 64, 256] {
            check(&s, kb, BufferSplit::SA_50_50);
        }
    }

    #[test]
    fn trace_matches_analytic_for_pointwise() {
        let s = conv(14, 128, 1, 256, 1, 0, false);
        for kb in [16, 64, 256] {
            for split in BufferSplit::ALL {
                check(&s, kb, split);
            }
        }
    }

    #[test]
    fn trace_matches_analytic_for_fc() {
        let s = conv(1, 512, 1, 1000, 1, 0, false);
        check(&s, 64, BufferSplit::SA_25_75);
        check(&s, 64, BufferSplit::SA_75_25);
    }

    #[test]
    fn trace_matches_analytic_for_large_filter() {
        let s = conv(14, 32, 5, 48, 1, 2, false);
        for kb in [16, 64] {
            check(&s, kb, BufferSplit::SA_50_50);
        }
    }

    #[test]
    fn trace_matches_under_starved_buffers() {
        // 8kB GLB − 4kB ofmap leaves 2kB per side at 50/50, 1kB active:
        // everything must stream, and the counts must still agree.
        let s = conv(28, 32, 3, 64, 1, 1, false);
        check(&s, 8, BufferSplit::SA_50_50);
    }
}
