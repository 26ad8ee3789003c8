//! The discrete-event core: one layer's lowered command stream executed
//! against the modeled memory system.
//!
//! Time is kept in *ticks* — `SCALE` ticks per transferred element at
//! nominal bandwidth — so one simulated cycle is `bandwidth × SCALE`
//! ticks. Sub-cycle resolution matters: the analytic model charges one
//! ceiling over a layer's whole traffic, and a simulator that rounded
//! every DMA command up to a full cycle would drift thousands of cycles
//! apart on command-dense schedules for no modeling reason.
//!
//! The event loop walks the command stream in order, maintaining three
//! clocks: `read_free` (the read stream of the DRAM channel),
//! `write_free` (the posted-write drain stream), and `compute_done`
//! (all compute attributable to already-consumed data has finished).
//! Reads release a proportional slice of the layer's compute when
//! their data lands; under prefetch reads run ahead of compute,
//! bounded by the DMA queue depth, and stores are *posted* — each one
//! waits for the slice of compute that produced its data (interpolated
//! on the recorded compute timeline, so an all-resident lowering whose
//! stores trail the whole read stream still drains them as rows are
//! produced), then drains on the write stream without head-of-line
//! blocking later reads (a write buffer with read priority, as real
//! DMA engines arbitrate). The channel is still one physical resource:
//! the layer cannot end before `total busy ticks` have elapsed, so
//! bandwidth is conserved even though the two streams overlap. Without
//! prefetch every transfer serializes with compute on a single clock,
//! which reproduces the paper's no-prefetch latency (Eq. 1) exactly.
//! Scenario knobs (derate, jitter, drops, contention) stretch channel
//! occupancy only — logical traffic accounting is untouched by them.

use crate::{ComputeModel, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smm_arch::AcceleratorConfig;
use smm_exec::{Command, Program};
use smm_model::LayerShape;
use smm_policy::{AccessCounts, PolicyEstimate};
use std::collections::VecDeque;

/// Ticks per element at nominal bandwidth (sub-cycle resolution).
const SCALE: u64 = 256;

/// Upper bound on re-issues of one dropped transfer, so a drop rate
/// close to 1 cannot hang the simulation.
const MAX_RETRIES: u32 = 16;

/// Mixing constant for per-layer RNG streams (splitmix64's golden
/// gamma): layer `i` draws from an independent deterministic stream, so
/// per-layer results do not depend on how many layers ran before.
const LAYER_SEED_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Inter-layer elision flags of one plan decision: tensors the plan
/// keeps on-chip across the layer boundary never touch the channel.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Elision {
    /// Ifmap reads come from the GLB (producer kept its ofmap).
    pub ifmap: bool,
    /// Ofmap stores stay in the GLB (consumer reads them next).
    pub stores: bool,
}

/// Measured outcome of simulating one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerStats {
    /// End-to-end simulated cycles.
    pub cycles: u64,
    /// Cycles the compute array was busy (the compute model's total).
    pub compute_busy_cycles: u64,
    /// Cycles' worth of DRAM channel occupancy (includes derate,
    /// jitter, contention, and retried transfers).
    pub dram_busy_cycles: u64,
    /// Cycles not covered by compute: `cycles − compute_busy_cycles`.
    pub stall_cycles: u64,
    /// Logical off-chip traffic, estimator-shaped. Scenario knobs never
    /// change these numbers — only how long the traffic takes.
    pub traffic: AccessCounts,
    /// Elements physically transferred, including re-issued drops.
    pub physical_elems: u64,
    /// Elements re-transferred due to injected drops.
    pub retried_elems: u64,
    /// Dropped-and-re-issued DMA transfers.
    pub retries: u64,
    /// Discrete events processed (one per command).
    pub events: u64,
    /// Peak GLB occupancy in elements, including the prefetch
    /// double-buffer factor.
    pub peak_occupancy_elems: u64,
    /// Commands after which occupancy exceeded GLB capacity (always 0
    /// for a plan the planner accepted).
    pub occupancy_violations: u64,
}

/// What a command means to the memory system.
enum Kind {
    IfmapRead,
    FilterRead,
    Store,
    PsumReload,
    /// Evicts and allocs: scratchpad bookkeeping, no data movement.
    Bookkeeping,
}

fn classify(c: &Command) -> Kind {
    match c {
        Command::FillIfmapRows { .. } | Command::StreamIfmapRows { .. } => Kind::IfmapRead,
        Command::FillFilters { .. }
        | Command::StreamFilters { .. }
        | Command::FillFilterChannel { .. } => Kind::FilterRead,
        Command::StoreOfmapRows { .. } => Kind::Store,
        Command::ReloadPsumRows { .. } => Kind::PsumReload,
        Command::EvictIfmapRows { .. }
        | Command::EvictFilters { .. }
        | Command::EvictFilterChannel { .. }
        | Command::AllocOfmapRows { .. } => Kind::Bookkeeping,
    }
}

/// Wall tick at which `target` cumulative compute ticks had completed,
/// per the recorded chunk checkpoints. Compute runs linearly inside a
/// chunk, so the answer interpolates within the covering chunk; if the
/// timeline has not reached `target` yet, fall back to `now` (all
/// compute released so far).
fn compute_ready_at(checkpoints: &[(u128, u64)], target: u128, now: u64) -> u64 {
    if target == 0 {
        return 0;
    }
    match checkpoints.binary_search_by(|&(cum, _)| cum.cmp(&target)) {
        Ok(i) => checkpoints[i].1,
        Err(i) if i < checkpoints.len() => {
            let (cum, done) = checkpoints[i];
            done - (cum - target) as u64
        }
        Err(_) => now,
    }
}

pub(crate) fn simulate_commands(
    program: &Program,
    shape: &LayerShape,
    est: &PolicyEstimate,
    acc: &AcceleratorConfig,
    cfg: &SimConfig,
    layer_index: usize,
    elide: Elision,
) -> LayerStats {
    let bw = acc.dram_elements_per_cycle();
    let ticks_per_cycle = bw * SCALE;
    // Channel cost per element: derate stretches the per-element time,
    // fair sharing among `contenders` multiplies it (each stream sees
    // 1/N of the channel).
    let elem_cost = {
        let derated = (SCALE as f64 * cfg.bw_derate).ceil() as u64;
        derated.max(1) * cfg.contenders.max(1)
    };
    let compute_cycles = match cfg.compute {
        ComputeModel::Analytic => est.latency.compute_cycles,
        ComputeModel::SystolicFolds => {
            smm_systolic::compute::layer_compute_cycles(shape, acc.pe_rows, acc.pe_cols)
        }
    };
    let compute_total_ticks = u128::from(compute_cycles) * u128::from(ticks_per_cycle);

    // Compute attribution weights: each read command (elided or not —
    // elision changes where data comes from, not what gets computed)
    // releases a slice of the layer's compute proportional to the
    // elements it delivered.
    let weights: Vec<u64> = program
        .meta
        .iter()
        .map(|m| if m.is_write { 0 } else { m.dram_elems })
        .collect();
    let weight_total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let write_total: u128 = program
        .meta
        .iter()
        .filter(|m| m.is_write)
        .map(|m| u128::from(m.dram_elems))
        .sum();

    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (layer_index as u64).wrapping_mul(LAYER_SEED_GAMMA));
    let drop_rate = cfg.drop_rate.clamp(0.0, 0.95);
    let queue_depth = cfg.queue_depth.max(1);
    let capacity = acc.glb_elements();
    let buffer_factor = est.buffer_factor();

    let mut read_free: u64 = 0;
    let mut write_free: u64 = 0;
    // With no read traffic at all there is nothing to pace compute:
    // the whole layer computes from resident data immediately.
    let mut compute_done: u64 = if weight_total == 0 {
        compute_total_ticks as u64
    } else {
        0
    };
    let mut cum_weight: u128 = 0;
    let mut cum_chunks: u128 = 0;
    let mut cum_write: u128 = 0;
    // Compute-timeline checkpoints, one per released chunk: (cumulative
    // compute ticks completed, wall tick they completed at). Stores
    // look up when "their" fraction of compute finished.
    let mut checkpoints: Vec<(u128, u64)> = Vec::new();
    let mut dram_busy_ticks: u64 = 0;
    // Consumption-start ticks of in-flight prefetches: transfer `i`
    // may not start until transfer `i − depth`'s data began feeding
    // the array (a bounded DMA queue, not an infinite run-ahead).
    let mut inflight: VecDeque<u64> = VecDeque::with_capacity(queue_depth);

    let mut stats = LayerStats {
        cycles: 0,
        compute_busy_cycles: compute_cycles,
        dram_busy_cycles: 0,
        stall_cycles: 0,
        traffic: AccessCounts::default(),
        physical_elems: 0,
        retried_elems: 0,
        retries: 0,
        events: program.commands.len() as u64,
        peak_occupancy_elems: 0,
        occupancy_violations: 0,
    };

    for (i, (cmd, meta)) in program.commands.iter().zip(&program.meta).enumerate() {
        let kind = classify(cmd);
        let elided = match kind {
            Kind::IfmapRead => elide.ifmap,
            Kind::Store => elide.stores,
            _ => false,
        };
        let logical = if elided { 0 } else { meta.dram_elems };
        match kind {
            Kind::IfmapRead => stats.traffic.ifmap_loads += logical,
            Kind::FilterRead => stats.traffic.filter_loads += logical,
            Kind::Store => stats.traffic.ofmap_stores += logical,
            Kind::PsumReload => stats.traffic.psum_spill_loads += logical,
            Kind::Bookkeeping => {}
        }
        let physical = logical > 0;
        if meta.is_write {
            // Advance the write fraction even for elided stores, so the
            // remaining physical stores keep their correct compute
            // dependency points.
            cum_write += u128::from(meta.dram_elems);
        }

        let mut arrival: u64 = 0;
        let mut start_tick = read_free.max(compute_done);
        if physical {
            stats.physical_elems += logical;
            let base = logical * elem_cost;
            let jitter = if cfg.jitter_max_cycles > 0 {
                rng.gen_range(0..=cfg.jitter_max_cycles) * ticks_per_cycle
            } else {
                0
            };
            let mut cost = base + jitter;
            if drop_rate > 0.0 {
                let mut attempts = 0;
                while attempts < MAX_RETRIES && rng.gen_bool(drop_rate) {
                    attempts += 1;
                    stats.retries += 1;
                    stats.retried_elems += logical;
                    cost += base;
                }
            }
            dram_busy_ticks += cost;
            if !est.prefetch {
                // Eq. 1's regime: one clock, everything serializes with
                // compute (reads and writes alike).
                start_tick = read_free.max(write_free).max(compute_done);
                let end = start_tick + cost;
                read_free = end;
                write_free = end;
                arrival = end;
            } else if meta.is_write {
                // Posted write: ready once the compute slice that
                // produced its data finished, then drains on the write
                // stream without blocking later reads.
                let target = compute_total_ticks * cum_write / write_total.max(1);
                let ready = compute_ready_at(&checkpoints, target, compute_done);
                start_tick = write_free.max(ready);
                write_free = start_tick + cost;
            } else {
                // Prefetched read: runs ahead of compute, bounded by
                // the DMA queue — a full queue waits until the oldest
                // outstanding prefetch starts being consumed.
                start_tick = if inflight.len() >= queue_depth {
                    read_free.max(inflight.pop_front().unwrap_or(0))
                } else {
                    read_free
                };
                let end = start_tick + cost;
                read_free = end;
                arrival = end;
            }
        }

        // Reads (including elided ones: on-chip data arrives at tick 0)
        // release their compute slice once the data is available. Under
        // prefetch the transfer streams into the array: compute may
        // begin as the first elements land but cannot finish before
        // the transfer does — without prefetch the whole command must
        // arrive first (Eq. 1's full serialization).
        if !meta.is_write && weights[i] > 0 && weight_total > 0 {
            cum_weight += u128::from(weights[i]);
            let new_cum = compute_total_ticks * cum_weight / weight_total;
            let chunk = (new_cum - cum_chunks) as u64;
            cum_chunks = new_cum;
            let chunk_start = if est.prefetch && physical {
                compute_done.max(start_tick)
            } else {
                compute_done.max(arrival)
            };
            compute_done = (chunk_start + chunk).max(arrival);
            checkpoints.push((cum_chunks, compute_done));
            if physical && est.prefetch {
                inflight.push_back(chunk_start);
            }
        }

        let occupancy = meta.resident_after * buffer_factor;
        stats.peak_occupancy_elems = stats.peak_occupancy_elems.max(occupancy);
        if occupancy > capacity {
            stats.occupancy_violations += 1;
        }
    }

    // The layer ends when compute, the read stream, and the write
    // drain have all finished — but never before the channel's total
    // busy time: the two streams overlap in *ordering*, not bandwidth.
    let total_ticks = compute_done
        .max(read_free)
        .max(write_free)
        .max(dram_busy_ticks);
    stats.cycles = total_ticks.div_ceil(ticks_per_cycle);
    stats.dram_busy_cycles = dram_busy_ticks.div_ceil(ticks_per_cycle);
    stats.stall_cycles = stats.cycles.saturating_sub(stats.compute_busy_cycles);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::ByteSize;
    use smm_policy::{estimate, PolicyKind};

    fn layer() -> LayerShape {
        LayerShape {
            ifmap_h: 16,
            ifmap_w: 16,
            in_channels: 8,
            filter_h: 3,
            filter_w: 3,
            num_filters: 16,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    fn acc() -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(64))
    }

    fn sim(est: &PolicyEstimate, cfg: &SimConfig) -> LayerStats {
        let p = Program::lower(&layer(), est).unwrap();
        simulate_commands(&p, &layer(), est, &acc(), cfg, 0, Elision::default())
    }

    #[test]
    fn no_prefetch_matches_the_analytic_latency_exactly() {
        // Without prefetch the DES fully serializes transfer and
        // compute, which is precisely Eq. 1's sum.
        for kind in PolicyKind::NAMED {
            let est = estimate(kind, &layer(), &acc(), false).unwrap();
            assert!(!est.prefetch);
            let s = sim(&est, &SimConfig::default());
            assert_eq!(s.cycles, est.latency.cycles, "{kind:?}");
            assert_eq!(s.traffic.total(), est.accesses.total(), "{kind:?}");
            assert_eq!(s.occupancy_violations, 0, "{kind:?}");
        }
    }

    #[test]
    fn prefetch_lands_near_the_overlap_model() {
        // With prefetch the analytic model says max(compute, transfer);
        // the DES adds the un-overlappable head and tail.
        for kind in PolicyKind::NAMED {
            let Some(est) = estimate(kind, &layer(), &acc(), true) else {
                continue;
            };
            if !est.prefetch {
                continue;
            }
            let s = sim(&est, &SimConfig::default());
            assert!(
                s.cycles >= est.latency.cycles,
                "{kind:?}: overlap is a lower bound"
            );
            let bound = est.latency.cycles + est.latency.cycles / 2 + 64;
            assert!(s.cycles <= bound, "{kind:?}: {} > {bound}", s.cycles);
        }
    }

    #[test]
    fn derate_slows_the_clock_but_not_the_traffic() {
        let est = estimate(PolicyKind::P1IfmapReuse, &layer(), &acc(), true).unwrap();
        let clean = sim(&est, &SimConfig::default());
        let derated = sim(
            &est,
            &SimConfig {
                bw_derate: 2.0,
                ..SimConfig::default()
            },
        );
        assert!(derated.cycles > clean.cycles);
        assert_eq!(derated.traffic, clean.traffic);
        assert_eq!(derated.physical_elems, clean.physical_elems);
    }

    #[test]
    fn contention_shares_the_channel_fairly() {
        let est = estimate(PolicyKind::IntraLayer, &layer(), &acc(), false).unwrap();
        let alone = sim(&est, &SimConfig::default());
        let contended = sim(
            &est,
            &SimConfig {
                contenders: 2,
                ..SimConfig::default()
            },
        );
        // Serialized transfer time doubles exactly; compute is unchanged.
        let transfer = alone.cycles - est.latency.compute_cycles;
        assert_eq!(contended.cycles, est.latency.compute_cycles + 2 * transfer);
        assert_eq!(contended.traffic, alone.traffic);
    }

    #[test]
    fn drops_retry_and_inflate_physical_traffic_only() {
        let est = estimate(PolicyKind::P2FilterReuse, &layer(), &acc(), false).unwrap();
        let clean = sim(&est, &SimConfig::default());
        let faulty = sim(
            &est,
            &SimConfig {
                drop_rate: 0.5,
                seed: 7,
                ..SimConfig::default()
            },
        );
        assert!(faulty.retries > 0);
        assert!(faulty.retried_elems > 0);
        assert_eq!(
            faulty.traffic, clean.traffic,
            "logical traffic is invariant"
        );
        assert_eq!(
            faulty.physical_elems, clean.physical_elems,
            "re-issues are counted in retried_elems, not physical_elems"
        );
        assert!(faulty.cycles > clean.cycles);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let est = estimate(PolicyKind::P1IfmapReuse, &layer(), &acc(), true).unwrap();
        let cfg = SimConfig {
            jitter_max_cycles: 8,
            seed: 42,
            ..SimConfig::default()
        };
        let a = sim(&est, &cfg);
        let b = sim(&est, &cfg);
        assert_eq!(a, b);
        let c = sim(&est, &SimConfig { seed: 43, ..cfg });
        assert_ne!(a.cycles, c.cycles, "different seed, different jitter");
    }

    #[test]
    fn undersized_glb_is_flagged_as_occupancy_violations() {
        let est = estimate(PolicyKind::IntraLayer, &layer(), &acc(), false).unwrap();
        let p = Program::lower(&layer(), &est).unwrap();
        let tiny = AcceleratorConfig::paper_default(ByteSize(64));
        let s = simulate_commands(
            &p,
            &layer(),
            &est,
            &tiny,
            &SimConfig::default(),
            0,
            Elision::default(),
        );
        assert!(s.occupancy_violations > 0);
        assert!(s.peak_occupancy_elems > tiny.glb_elements());
    }

    #[test]
    fn elision_zeroes_the_elided_traffic_and_shortens_the_layer() {
        let est = estimate(PolicyKind::P1IfmapReuse, &layer(), &acc(), false).unwrap();
        let p = Program::lower(&layer(), &est).unwrap();
        let plain = simulate_commands(
            &p,
            &layer(),
            &est,
            &acc(),
            &SimConfig::default(),
            0,
            Elision::default(),
        );
        let elided = simulate_commands(
            &p,
            &layer(),
            &est,
            &acc(),
            &SimConfig::default(),
            0,
            Elision {
                ifmap: true,
                stores: true,
            },
        );
        assert_eq!(elided.traffic.ifmap_loads, 0);
        assert_eq!(elided.traffic.ofmap_stores, 0);
        assert_eq!(elided.traffic.filter_loads, plain.traffic.filter_loads);
        assert!(elided.cycles < plain.cycles);
    }

    #[test]
    fn systolic_compute_model_is_slower_than_ideal_macs() {
        let est = estimate(PolicyKind::IntraLayer, &layer(), &acc(), false).unwrap();
        let folds = sim(
            &est,
            &SimConfig {
                compute: ComputeModel::SystolicFolds,
                ..SimConfig::default()
            },
        );
        // Fill/drain overhead makes the fold model strictly slower than
        // the ideal-MAC count for any real layer.
        assert!(folds.compute_busy_cycles > est.latency.compute_cycles);
        assert!(folds.cycles > 0);
    }
}
