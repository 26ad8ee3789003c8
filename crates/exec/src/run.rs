//! Per-policy schedule lowering.
//!
//! Each function replays exactly the tile schedule Section 3.2 describes
//! for its policy. Streaming semantics: rows the window skips (stride
//! gaps) and rows after the last window still cross the DRAM interface
//! once — the estimators count the whole padded ifmap per pass, and a
//! burst DMA engine fetches it that way.

use crate::engine::{Engine, ExecError, Replay};
use smm_model::LayerShape;
use smm_policy::{FallbackTiling, LoopOrder, PolicyEstimate, PolicyKind};
use std::ops::Range;

/// A height-wise sliding window over a set of channels: tracks the next
/// unfetched row per channel so overlap is retained, gaps are streamed,
/// and each padded row is charged exactly once per pass.
struct Slider {
    fetched: Vec<u64>,
    pad_h: u64,
}

impl Slider {
    fn new(channels: usize, pad_h: u64) -> Self {
        Slider {
            fetched: vec![0; channels],
            pad_h,
        }
    }

    /// Single-channel slider tracking one concrete channel.
    fn single(pad_h: u64) -> Self {
        Slider::new(1, pad_h)
    }

    /// Advance the window over engine channel `chan` (tracked in
    /// `slot`) to `rows`, evicting everything above the window and
    /// charging skipped rows as streamed.
    fn advance(
        &mut self,
        e: &mut Engine,
        slot: usize,
        chan: u64,
        rows: Range<u64>,
    ) -> Result<(), ExecError> {
        let f = &mut self.fetched[slot];
        e.evict_ifmap_rows(chan, 0..rows.start);
        if *f < rows.start {
            e.stream_ifmap_rows(chan, *f..rows.start);
            *f = rows.start;
        }
        if *f < rows.end {
            e.fill_ifmap_rows(chan, rows.start.max(*f)..rows.end)?;
            *f = rows.end;
        } else {
            // Window already fetched (fill would dedup anyway); ensure the
            // overlap that survived eviction is still resident.
            e.fill_ifmap_rows(chan, rows.clone())?;
        }
        Ok(())
    }

    /// Stream the trailing padded rows of the channel in `slot` and
    /// release it.
    fn finish(&mut self, e: &mut Engine, slot: usize, chan: u64) {
        let f = &mut self.fetched[slot];
        if *f < self.pad_h {
            e.stream_ifmap_rows(chan, *f..self.pad_h);
            *f = self.pad_h;
        }
        e.evict_ifmap_rows(chan, 0..self.pad_h);
    }
}

/// Input-row window of output row `oy`, clipped to the padded height.
fn window(shape: &LayerShape, oy: u64) -> Range<u64> {
    let s = shape.stride as u64;
    let fh = shape.filter_h as u64;
    let pad_h = shape.padded_h() as u64;
    let start = (oy * s).min(pad_h);
    start..(oy * s + fh).min(pad_h)
}

/// Replay a policy estimate's schedule for `shape`. The engine's
/// scratchpad is sized to exactly the estimator's single-copy footprint;
/// overflow means the memory estimator is wrong.
pub fn replay(shape: &LayerShape, est: &PolicyEstimate) -> Result<Replay, ExecError> {
    run(Engine::new(shape, est.resident.total()), shape, est).map(|(r, _, _)| r)
}

/// Replay with command recording: the [`crate::Program`] lowering path.
pub(crate) fn replay_recorded(
    shape: &LayerShape,
    est: &PolicyEstimate,
) -> Result<crate::Program, ExecError> {
    let (replay, commands, meta) = run(Engine::recording(shape, est.resident.total()), shape, est)?;
    Ok(crate::Program {
        commands,
        meta,
        replay,
    })
}

type RunOutput = (
    Replay,
    Vec<crate::program::Command>,
    Vec<crate::program::CommandMeta>,
);

fn run(mut e: Engine, shape: &LayerShape, est: &PolicyEstimate) -> Result<RunOutput, ExecError> {
    let _span = smm_obs::span!("exec.replay", "{:?}", est.kind);
    let dma_before = smm_obs::counter_value(smm_obs::Counter::ReplayDmaCommands);
    let ci = shape.in_channels as u64;
    let nf = shape.num_filters as u64;
    let (oh, _) = shape.output_hw();
    let (oh, pad_h) = (oh as u64, shape.padded_h() as u64);

    match est.kind {
        PolicyKind::IntraLayer => {
            for c in 0..ci {
                e.fill_ifmap_rows(c, 0..pad_h)?;
            }
            e.fill_filters(0..nf)?;
            for f in 0..shape.out_channels() as u64 {
                e.alloc_ofmap_rows(f, 0..oh)?;
            }
            for f in 0..shape.out_channels() as u64 {
                e.store_ofmap_rows(f, 0..oh);
            }
        }
        PolicyKind::P1IfmapReuse => {
            e.fill_filters(0..nf)?;
            let mut slider = Slider::new(ci as usize, pad_h);
            for oy in 0..oh {
                let w = window(shape, oy);
                for c in 0..ci {
                    slider.advance(&mut e, c as usize, c, w.clone())?;
                }
                for f in 0..shape.out_channels() as u64 {
                    e.alloc_ofmap_rows(f, oy..oy + 1)?;
                }
                for f in 0..shape.out_channels() as u64 {
                    e.store_ofmap_rows(f, oy..oy + 1);
                }
            }
            for c in 0..ci {
                slider.finish(&mut e, c as usize, c);
            }
        }
        PolicyKind::P2FilterReuse => {
            for c in 0..ci {
                e.fill_ifmap_rows(c, 0..pad_h)?;
            }
            for f in 0..nf {
                e.fill_filters(f..f + 1)?;
                e.alloc_ofmap_rows(f, 0..oh)?;
                e.store_ofmap_rows(f, 0..oh);
                e.evict_filters(f..f + 1);
            }
        }
        PolicyKind::P3PerChannel => {
            // The whole ofmap accumulates on-chip across channel passes.
            for f in 0..shape.out_channels() as u64 {
                e.alloc_ofmap_rows(f, 0..oh)?;
            }
            if shape.depthwise {
                // Single-channel filters: all resident at once, each
                // channel pair processed independently.
                e.fill_filters(0..nf)?;
                for c in 0..ci {
                    let mut slider = Slider::single(pad_h);
                    for oy in 0..oh {
                        slider.advance(&mut e, 0, c, window(shape, oy))?;
                    }
                    slider.finish(&mut e, 0, c);
                }
                e.evict_filters(0..nf);
            } else {
                for c in 0..ci {
                    e.fill_filter_channel(0..nf, c)?;
                    let mut slider = Slider::single(pad_h);
                    for oy in 0..oh {
                        slider.advance(&mut e, 0, c, window(shape, oy))?;
                    }
                    slider.finish(&mut e, 0, c);
                    e.evict_filter_channel(0..nf, c);
                }
            }
            for f in 0..shape.out_channels() as u64 {
                e.store_ofmap_rows(f, 0..oh);
            }
        }
        PolicyKind::P4PartialIfmap => {
            let n = est.block_n.expect("P4 carries a block size");
            let blocks = nf.div_ceil(n);
            for b in 0..blocks {
                let fs = b * n..((b + 1) * n).min(nf);
                e.fill_filters(fs.clone())?;
                if shape.depthwise {
                    // Each filter touches only its own channel: slide the
                    // window over the block's channels only.
                    for c in fs.clone() {
                        let mut slider = Slider::single(pad_h);
                        for oy in 0..oh {
                            slider.advance(&mut e, 0, c, window(shape, oy))?;
                            e.alloc_ofmap_rows(c, oy..oy + 1)?;
                            e.store_ofmap_rows(c, oy..oy + 1);
                        }
                        slider.finish(&mut e, 0, c);
                    }
                } else {
                    let mut slider = Slider::new(ci as usize, pad_h);
                    for oy in 0..oh {
                        let w = window(shape, oy);
                        for c in 0..ci {
                            slider.advance(&mut e, c as usize, c, w.clone())?;
                        }
                        for f in fs.clone() {
                            e.alloc_ofmap_rows(f, oy..oy + 1)?;
                        }
                        for f in fs.clone() {
                            e.store_ofmap_rows(f, oy..oy + 1);
                        }
                    }
                    for c in 0..ci {
                        slider.finish(&mut e, c as usize, c);
                    }
                }
                e.evict_filters(fs);
            }
        }
        PolicyKind::P5PartialPerChannel => {
            let n = est.block_n.expect("P5 carries a block size");
            let blocks = nf.div_ceil(n);
            for b in 0..blocks {
                let fs = b * n..((b + 1) * n).min(nf);
                for f in fs.clone() {
                    e.alloc_ofmap_rows(f, 0..oh)?;
                }
                if shape.depthwise {
                    for c in fs.clone() {
                        e.fill_filter_channel(c..c + 1, 0)?;
                        let mut slider = Slider::single(pad_h);
                        for oy in 0..oh {
                            slider.advance(&mut e, 0, c, window(shape, oy))?;
                        }
                        slider.finish(&mut e, 0, c);
                        e.evict_filter_channel(c..c + 1, 0);
                    }
                } else {
                    for c in 0..ci {
                        e.fill_filter_channel(fs.clone(), c)?;
                        let mut slider = Slider::single(pad_h);
                        for oy in 0..oh {
                            slider.advance(&mut e, 0, c, window(shape, oy))?;
                        }
                        slider.finish(&mut e, 0, c);
                        e.evict_filter_channel(fs.clone(), c);
                    }
                }
                for f in fs.clone() {
                    e.store_ofmap_rows(f, 0..oh);
                }
            }
        }
        PolicyKind::Fallback => {
            let tiling = est.fallback.expect("fallback carries its tiling");
            replay_fallback(&mut e, shape, &tiling)?;
        }
    }

    if smm_obs::enabled() {
        let issued = smm_obs::counter_value(smm_obs::Counter::ReplayDmaCommands) - dma_before;
        smm_obs::observe(smm_obs::Histogram::DmaCommandsPerReplay, issued);
    }
    let commands = e.take_commands();
    let meta = e.take_meta();
    Ok((e.replay, commands, meta))
}

/// Replay the generic blocked fallback schedule.
fn replay_fallback(
    e: &mut Engine,
    shape: &LayerShape,
    t: &FallbackTiling,
) -> Result<(), ExecError> {
    let ci = shape.in_channels as u64;
    let nf = shape.num_filters as u64;
    let (oh, _) = shape.output_hw();
    let (oh, pad_h) = (oh as u64, shape.padded_h() as u64);
    let s = shape.stride as u64;
    let fh = shape.filter_h as u64;
    let n_rt = oh.div_ceil(t.row_block);
    let n_fb = nf.div_ceil(t.filter_block);
    let n_cb = ci.div_ceil(t.channel_block);

    let tile_in_rows = |rt: u64| -> Range<u64> {
        let start = (rt * t.row_block * s).min(pad_h);
        let end = (start + (t.row_block - 1) * s + fh).min(pad_h);
        start..end
    };
    let tile_out_rows = |rt: u64| -> Range<u64> {
        let start = rt * t.row_block;
        start..(start + t.row_block).min(oh)
    };

    if shape.depthwise {
        // One channel per filter: the filter block brings its channels.
        for fb in 0..n_fb {
            let fs = fb * t.filter_block..((fb + 1) * t.filter_block).min(nf);
            e.fill_filters(fs.clone())?;
            for rt in 0..n_rt {
                e.evict_ifmap_all();
                let rows = tile_in_rows(rt);
                for c in fs.clone() {
                    e.fill_ifmap_rows(c, rows.clone())?;
                }
                let orows = tile_out_rows(rt);
                for c in fs.clone() {
                    e.alloc_ofmap_rows(c, orows.clone())?;
                }
                for c in fs.clone() {
                    e.store_ofmap_rows(c, orows.clone());
                }
            }
            e.evict_ifmap_all();
            e.evict_filters(fs);
        }
        return Ok(());
    }

    match t.order {
        LoopOrder::RowsOuter => {
            for fb in 0..n_fb {
                let fs = fb * t.filter_block..((fb + 1) * t.filter_block).min(nf);
                let block_resident = t.channel_block >= ci;
                if block_resident {
                    e.fill_filters(fs.clone())?;
                }
                for rt in 0..n_rt {
                    e.evict_ifmap_all();
                    let rows = tile_in_rows(rt);
                    if !block_resident {
                        // Re-stream the whole block for this row tile.
                        e.stream_filters(fs.clone());
                    }
                    // Channel chunks accumulate into the resident ofmap
                    // tile; each chunk's ifmap rows come and go.
                    let orows = tile_out_rows(rt);
                    for f in fs.clone() {
                        e.alloc_ofmap_rows(f, orows.clone())?;
                    }
                    for cb in 0..n_cb {
                        let cs = cb * t.channel_block..((cb + 1) * t.channel_block).min(ci);
                        for c in cs.clone() {
                            e.fill_ifmap_rows(c, rows.clone())?;
                        }
                        for c in cs {
                            e.evict_ifmap_rows(c, rows.clone());
                        }
                    }
                    for f in fs.clone() {
                        e.store_ofmap_rows(f, orows.clone());
                    }
                }
                if block_resident {
                    e.evict_filters(fs);
                }
            }
        }
        LoopOrder::ChannelsOuter => {
            for fb in 0..n_fb {
                let fs = fb * t.filter_block..((fb + 1) * t.filter_block).min(nf);
                for cb in 0..n_cb {
                    let cs = cb * t.channel_block..((cb + 1) * t.channel_block).min(ci);
                    for c in cs.clone() {
                        e.fill_filter_channel(fs.clone(), c)?;
                    }
                    for rt in 0..n_rt {
                        e.evict_ifmap_all();
                        let rows = tile_in_rows(rt);
                        for c in cs.clone() {
                            e.fill_ifmap_rows(c, rows.clone())?;
                        }
                        let orows = tile_out_rows(rt);
                        if cb == 0 {
                            for f in fs.clone() {
                                e.alloc_ofmap_rows(f, orows.clone())?;
                            }
                        } else {
                            for f in fs.clone() {
                                e.reload_psum_rows(f, orows.clone())?;
                            }
                        }
                        for f in fs.clone() {
                            e.store_ofmap_rows(f, orows.clone());
                        }
                    }
                    e.evict_ifmap_all();
                    for c in cs.clone() {
                        e.evict_filter_channel(fs.clone(), c);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::{AcceleratorConfig, ByteSize};
    use smm_policy::estimate;

    fn acc(kb: u64) -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(kb))
    }

    fn conv(ih: u32, ci: u32, k: u32, nf: u32, s: u32, dw: bool) -> LayerShape {
        let shape = LayerShape {
            ifmap_h: ih,
            ifmap_w: ih,
            in_channels: ci,
            filter_h: k,
            filter_w: k,
            num_filters: if dw { ci } else { nf },
            stride: s,
            padding: k / 2,
            depthwise: dw,
        };
        shape.validate().unwrap();
        shape
    }

    fn check(shape: &LayerShape, kind: PolicyKind, kb: u64) {
        let Some(est) = estimate(kind, shape, &acc(kb), false) else {
            return;
        };
        let replayed = replay(shape, &est).unwrap_or_else(|e| {
            panic!("{kind:?} on {shape:?}: {e}");
        });
        assert!(
            replayed.matches(&est),
            "{kind:?} on {shape:?}:\n  est  {:?}\n  got  {replayed:?}",
            est.accesses
        );
    }

    #[test]
    fn named_policies_replay_exactly_on_standard_conv() {
        let s = conv(14, 32, 3, 48, 1, false);
        for kind in PolicyKind::NAMED {
            check(&s, kind, 256);
        }
    }

    #[test]
    fn named_policies_replay_exactly_on_strided_conv() {
        let s = conv(28, 16, 3, 32, 2, false);
        for kind in PolicyKind::NAMED {
            check(&s, kind, 128);
        }
    }

    #[test]
    fn named_policies_replay_exactly_on_pointwise() {
        let s = conv(14, 64, 1, 128, 1, false);
        for kind in PolicyKind::NAMED {
            check(&s, kind, 128);
        }
    }

    #[test]
    fn strided_pointwise_projection_replays() {
        // The gap-row case: 1×1 stride-2 windows skip every other row.
        let s = conv(28, 32, 1, 64, 2, false);
        for kind in PolicyKind::NAMED {
            check(&s, kind, 128);
        }
    }

    #[test]
    fn depthwise_policies_replay_exactly() {
        let s = conv(28, 48, 3, 48, 1, true);
        for kind in PolicyKind::NAMED {
            check(&s, kind, 64);
        }
    }

    #[test]
    fn fully_connected_policies_replay_exactly() {
        let s = conv(1, 256, 1, 100, 1, false);
        for kind in PolicyKind::NAMED {
            check(&s, kind, 64);
        }
    }

    #[test]
    fn per_channel_passes_emit_one_filter_fill_and_one_evict() {
        use crate::program::Command;
        let s = conv(14, 32, 3, 48, 1, false);
        for (kind, kb) in [
            (PolicyKind::P3PerChannel, 256),
            (PolicyKind::P5PartialPerChannel, 32),
        ] {
            let est = estimate(kind, &s, &acc(kb), false).unwrap();
            let blocks = est.block_n.map_or(1, |n| 48u64.div_ceil(n));
            if kind == PolicyKind::P5PartialPerChannel {
                assert!(blocks > 1, "{kind:?} should split the filters");
            }
            let p = crate::Program::lower(&s, &est).unwrap();
            assert!(p.replay.matches(&est), "{kind:?}");
            let filter_cmds = p
                .commands
                .iter()
                .filter(|c| {
                    matches!(
                        c,
                        Command::FillFilters { .. }
                            | Command::StreamFilters { .. }
                            | Command::EvictFilters { .. }
                            | Command::FillFilterChannel { .. }
                            | Command::EvictFilterChannel { .. }
                    )
                })
                .count() as u64;
            assert_eq!(filter_cmds, 2 * blocks * 32, "{kind:?}");
        }
    }

    #[test]
    fn small_blocks_force_many_p4_passes() {
        let s = conv(14, 32, 3, 48, 1, false);
        // Tiny budget → small n → several ifmap passes.
        let est = estimate(PolicyKind::P4PartialIfmap, &s, &acc(16), false).unwrap();
        assert!(est.block_n.unwrap() < 48);
        let replayed = replay(&s, &est).unwrap();
        assert!(replayed.matches(&est));
        assert!(replayed.ifmap_loads > s.padded_ifmap_elems());
    }

    #[test]
    fn fallback_rows_outer_replays() {
        let s = conv(28, 64, 3, 96, 1, false);
        // Budget small enough that no named policy fits.
        let est = estimate(PolicyKind::Fallback, &s, &acc(8), false).unwrap();
        let replayed = replay(&s, &est).unwrap();
        assert!(
            replayed.matches(&est),
            "est {:?}\ngot {replayed:?}",
            est.accesses
        );
    }

    #[test]
    fn fallback_depthwise_replays() {
        let s = conv(56, 64, 3, 64, 1, true);
        let est = estimate(PolicyKind::Fallback, &s, &acc(4), false).unwrap();
        let replayed = replay(&s, &est).unwrap();
        assert!(replayed.matches(&est));
    }

    #[test]
    fn peak_residency_validates_memory_estimator() {
        // The scratchpad is sized to exactly the estimator's footprint;
        // a successful replay is itself the capacity proof. Spot-check
        // that the peak actually approaches the bound for the resident
        // policies (they claim to *use* that memory).
        let s = conv(14, 32, 3, 48, 1, false);
        let est = estimate(PolicyKind::IntraLayer, &s, &acc(1024), false).unwrap();
        let replayed = replay(&s, &est).unwrap();
        assert_eq!(replayed.peak_resident, est.resident.total());
    }
}
