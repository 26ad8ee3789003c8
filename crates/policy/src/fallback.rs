//! The fallback tiling search of Algorithm 1.
//!
//! When no named policy satisfies `memory ≤ GLB_size` for a layer, the
//! paper "search[es] for appropriate tile sizes that will satisfy the
//! condition. This may lead to an increased off-chip accesses." This
//! module implements that search: a generic blocked schedule over output
//! rows (`r`), filters (`n`) and input channels (`c`), evaluated under
//! two loop orders that trade filter re-streaming against partial-sum
//! spilling.

use crate::estimate::{AccessCounts, Footprint};
use smm_model::LayerShape;

/// Loop order of the fallback schedule (filter blocks are always the
/// outermost loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopOrder {
    /// `filters → rows → channels`: the ofmap tile stays resident while
    /// channels accumulate (no partial-sum spill), but a filter block
    /// larger than its buffer is re-streamed once per row tile.
    RowsOuter,
    /// `filters → channels → rows`: every filter element is loaded once,
    /// but partial sums spill to off-chip between channel passes.
    ChannelsOuter,
}

/// A concrete fallback blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackTiling {
    /// Output rows per tile.
    pub row_block: u64,
    /// Filters per block.
    pub filter_block: u64,
    /// Input channels per block.
    pub channel_block: u64,
    /// Chosen loop order.
    pub order: LoopOrder,
}

/// Everything the estimator needs to know about one evaluated blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FallbackEstimate {
    pub tiling: FallbackTiling,
    pub resident: Footprint,
    pub accesses: AccessCounts,
}

/// Resident footprint of a blocking (elements).
fn footprint(shape: &LayerShape, t: &FallbackTiling) -> Footprint {
    let fh = shape.filter_h as u64;
    let fw = shape.filter_w as u64;
    let s = shape.stride as u64;
    let pad_w = shape.padded_w() as u64;
    let (_, ow) = shape.output_hw();
    // Input rows needed by `row_block` consecutive output rows.
    let in_rows = ((t.row_block - 1) * s + fh).min(shape.padded_h() as u64);
    Footprint {
        ifmap: in_rows * pad_w * t.channel_block,
        filters: fh * fw * t.channel_block * t.filter_block,
        ofmap: t.row_block * ow as u64 * t.filter_block,
    }
}

/// Off-chip traffic of a blocking (elements).
fn traffic(shape: &LayerShape, t: &FallbackTiling) -> AccessCounts {
    let fh = shape.filter_h as u64;
    let s = shape.stride as u64;
    let pad_h = shape.padded_h() as u64;
    let pad_w = shape.padded_w() as u64;
    let (oh, _) = shape.output_hw();
    let oh = oh as u64;
    let ci = shape.in_channels as u64;
    let nf = shape.num_filters as u64;

    let n_rt = oh.div_ceil(t.row_block);
    let n_fb = nf.div_ceil(t.filter_block);
    let n_cb = ci.div_ceil(t.channel_block);

    // Row-overlap refetch: consecutive row tiles share `F_H − S` input
    // rows. Rows fetched per full vertical sweep, bounded by fetching
    // every tile in full.
    let ov = fh.saturating_sub(s);
    let rows_per_tile = (t.row_block - 1) * s + fh;
    let rows_swept = (pad_h + (n_rt - 1) * ov).min(n_rt * rows_per_tile);
    let ifmap_sweep = rows_swept * pad_w * ci;

    let filter_total = shape.filter_elems();
    let ofmap_total = shape.ofmap_elems();

    match t.order {
        LoopOrder::RowsOuter => {
            // Channels accumulate innermost: no spills. The filter block is
            // re-streamed per row tile unless its channels are all resident.
            let filter_loads = if t.channel_block >= ci {
                filter_total
            } else {
                n_rt * filter_total
            };
            AccessCounts {
                ifmap_loads: n_fb * ifmap_sweep,
                filter_loads,
                ofmap_stores: ofmap_total,
                psum_spill_stores: 0,
                psum_spill_loads: 0,
            }
        }
        LoopOrder::ChannelsOuter => {
            // Filters loaded once; partial sums spill between channel
            // passes (each ofmap element written `n_cb` times, read back
            // `n_cb − 1` times).
            AccessCounts {
                ifmap_loads: n_fb * ifmap_sweep,
                filter_loads: filter_total,
                ofmap_stores: ofmap_total,
                psum_spill_stores: (n_cb - 1) * ofmap_total,
                psum_spill_loads: (n_cb - 1) * ofmap_total,
            }
        }
    }
}

/// Candidate block sizes: powers of two up to `max`, plus `max` itself.
fn pow2_candidates(max: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut x = 1;
    while x < max {
        v.push(x);
        x *= 2;
    }
    v.push(max);
    v
}

/// Search for the feasible blocking with the fewest off-chip accesses
/// (ties broken towards fewer resident elements). `budget` is the GLB
/// budget in elements for a *single* copy of the tiles — the caller
/// halves the GLB for the prefetching variant.
///
/// Depth-wise layers couple filters to channels: each filter block brings
/// exactly its own channels, so the channel block mirrors the filter
/// block, the ifmap is swept once in total, and nothing spills.
pub(crate) fn search(shape: &LayerShape, budget: u64) -> Option<FallbackEstimate> {
    let _span = smm_obs::span!("fallback.search");
    let (oh, _) = shape.output_hw();
    let nf = shape.num_filters as u64;
    let ci = shape.in_channels as u64;

    let mut best: Option<FallbackEstimate> = None;
    let mut iterations = 0u64;
    let mut consider = |est: FallbackEstimate| {
        iterations += 1;
        if est.resident.total() > budget {
            return;
        }
        let better = match &best {
            None => true,
            Some(b) => {
                let (ea, eb) = (est.accesses.total(), b.accesses.total());
                ea < eb || (ea == eb && est.resident.total() < b.resident.total())
            }
        };
        if better {
            best = Some(est);
        }
    };

    if shape.depthwise {
        for &r in &pow2_candidates(oh as u64) {
            for &n in &pow2_candidates(nf) {
                let tiling = FallbackTiling {
                    row_block: r,
                    filter_block: n,
                    channel_block: n, // one channel per depth-wise filter
                    order: LoopOrder::RowsOuter,
                };
                let mut resident = footprint(shape, &tiling);
                // Depth-wise filters carry one channel each.
                resident.filters = shape.single_filter_elems() * n;
                // Ifmap channels travel with their filters: per-block rows
                // over `n` channels.
                let fh = shape.filter_h as u64;
                let s = shape.stride as u64;
                let in_rows = ((r - 1) * s + fh).min(shape.padded_h() as u64);
                resident.ifmap = in_rows * shape.padded_w() as u64 * n;
                let ov = fh.saturating_sub(s);
                let n_rt = (oh as u64).div_ceil(r);
                let rows_swept =
                    (shape.padded_h() as u64 + (n_rt - 1) * ov).min(n_rt * ((r - 1) * s + fh));
                let accesses = AccessCounts {
                    ifmap_loads: rows_swept * shape.padded_w() as u64 * ci,
                    filter_loads: shape.filter_elems(),
                    ofmap_stores: shape.ofmap_elems(),
                    psum_spill_stores: 0,
                    psum_spill_loads: 0,
                };
                consider(FallbackEstimate {
                    tiling,
                    resident,
                    accesses,
                });
            }
        }
    } else {
        for &r in &pow2_candidates(oh as u64) {
            for &n in &pow2_candidates(nf) {
                for &c in &pow2_candidates(ci) {
                    for order in [LoopOrder::RowsOuter, LoopOrder::ChannelsOuter] {
                        let tiling = FallbackTiling {
                            row_block: r,
                            filter_block: n,
                            channel_block: c,
                            order,
                        };
                        consider(FallbackEstimate {
                            tiling,
                            resident: footprint(shape, &tiling),
                            accesses: traffic(shape, &tiling),
                        });
                    }
                }
            }
        }
    }
    if smm_obs::enabled() {
        smm_obs::add(smm_obs::Counter::FallbackSearches, 1);
        smm_obs::add(smm_obs::Counter::FallbackIterations, iterations);
        smm_obs::observe(smm_obs::Histogram::FallbackIterationsPerSearch, iterations);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::{AcceleratorConfig, ByteSize};

    fn big_layer() -> LayerShape {
        LayerShape {
            ifmap_h: 112,
            ifmap_w: 112,
            in_channels: 64,
            filter_h: 3,
            filter_w: 3,
            num_filters: 128,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    #[test]
    fn minimal_blocking_fits_tiny_budget() {
        let shape = big_layer();
        // 4096-element budget: far below any named policy's requirement.
        let est = search(&shape, 4096).expect("search should find a blocking");
        assert!(est.resident.total() <= 4096);
        // Tiling can never beat the one-load lower bound.
        let min = shape.padded_ifmap_elems() + shape.filter_elems() + shape.ofmap_elems();
        assert!(est.accesses.total() >= min);
    }

    #[test]
    fn generous_budget_converges_to_minimum_traffic() {
        let shape = big_layer();
        let min = shape.padded_ifmap_elems() + shape.filter_elems() + shape.ofmap_elems();
        let est = search(&shape, u64::MAX / 4).unwrap();
        assert_eq!(est.accesses.total(), min);
    }

    #[test]
    fn tighter_budget_never_reduces_accesses() {
        let shape = big_layer();
        let mut last = u64::MAX;
        // Budgets from generous to tight; accesses must be monotone
        // non-increasing as the budget grows (scanned here in reverse).
        for budget in [1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22] {
            let est = search(&shape, budget).unwrap();
            assert!(
                est.accesses.total() <= last,
                "budget {budget}: {} > {last}",
                est.accesses.total()
            );
            last = est.accesses.total();
        }
    }

    #[test]
    fn impossible_budget_returns_none() {
        let shape = big_layer();
        assert!(search(&shape, 8).is_none());
    }

    #[test]
    fn depthwise_never_spills() {
        let shape = LayerShape {
            ifmap_h: 112,
            ifmap_w: 112,
            in_channels: 96,
            filter_h: 3,
            filter_w: 3,
            num_filters: 96,
            stride: 1,
            padding: 1,
            depthwise: true,
        };
        let est = search(&shape, 8192).unwrap();
        assert_eq!(est.accesses.psum_spill_loads, 0);
        assert_eq!(est.accesses.psum_spill_stores, 0);
        assert_eq!(est.accesses.filter_loads, shape.filter_elems());
    }

    #[test]
    fn channel_spilling_accounted_symmetrically() {
        let shape = big_layer();
        let t = FallbackTiling {
            row_block: 8,
            filter_block: 16,
            channel_block: 16, // 4 channel passes
            order: LoopOrder::ChannelsOuter,
        };
        let a = traffic(&shape, &t);
        assert_eq!(a.psum_spill_loads, a.psum_spill_stores);
        assert_eq!(a.psum_spill_loads, 3 * shape.ofmap_elems());
        assert_eq!(a.filter_loads, shape.filter_elems());
    }

    #[test]
    fn budget_in_bytes_is_callers_concern() {
        // The search works in elements; make sure a realistic byte budget
        // converts sensibly at the call site.
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
        let est = search(&big_layer(), acc.glb_elements()).unwrap();
        assert!(est.resident.total() <= acc.glb_elements());
    }
}
