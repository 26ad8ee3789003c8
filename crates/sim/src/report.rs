//! Simulation reports: per-layer and network-level results, the
//! deterministic JSON emitter.

use crate::engine::LayerStats;
use crate::SimConfig;
use smm_arch::{AcceleratorConfig, ByteSize};
use smm_core::report::json_escape;
use smm_core::ExecutionPlan;
use smm_policy::{AccessCounts, PolicyKind};

/// One layer's simulation outcome next to its analytic claim.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSimReport {
    /// Layer index in execution order.
    pub layer_index: usize,
    /// Layer name.
    pub layer_name: String,
    /// Policy the plan chose for the layer.
    pub policy: PolicyKind,
    /// Whether the layer double-buffers (Eq. 2).
    pub prefetch: bool,
    /// The plan's analytic effective latency for this layer (cycles).
    pub analytic_cycles: u64,
    /// What the discrete-event simulation measured.
    pub stats: LayerStats,
}

impl LayerSimReport {
    /// Relative divergence of simulated from analytic latency.
    pub fn divergence(&self) -> f64 {
        let want = self.analytic_cycles as f64;
        (self.stats.cycles as f64 - want).abs() / want.max(1.0)
    }
}

/// Network-level sums over all layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimTotals {
    /// Simulated end-to-end latency (cycles).
    pub cycles: u64,
    /// The plan's analytic end-to-end latency (cycles).
    pub analytic_cycles: u64,
    /// Total compute-busy cycles.
    pub compute_busy_cycles: u64,
    /// Total DRAM-channel-busy cycles.
    pub dram_busy_cycles: u64,
    /// Total stall cycles.
    pub stall_cycles: u64,
    /// Logical off-chip traffic (elements).
    pub traffic: AccessCounts,
    /// Elements physically transferred.
    pub physical_elems: u64,
    /// Elements re-transferred due to injected drops.
    pub retried_elems: u64,
    /// Dropped-and-re-issued transfers.
    pub retries: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Peak GLB occupancy over the whole network (elements).
    pub peak_occupancy_elems: u64,
    /// Commands that exceeded GLB capacity (0 on clean plans).
    pub occupancy_violations: u64,
}

/// The full result of simulating one execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Network the plan targets.
    pub network: String,
    /// Scheme label ("Het"/"Hom").
    pub scheme: String,
    /// GLB capacity the simulation enforced (elements).
    pub capacity_elems: u64,
    /// The scenario configuration the simulation ran under.
    pub config: SimConfig,
    /// Per-layer outcomes, in execution order.
    pub layers: Vec<LayerSimReport>,
    /// Network-level sums.
    pub totals: SimTotals,
}

impl SimReport {
    pub(crate) fn assemble(
        plan: &ExecutionPlan,
        acc: &AcceleratorConfig,
        cfg: &SimConfig,
        layers: Vec<LayerSimReport>,
    ) -> SimReport {
        let mut totals = SimTotals {
            analytic_cycles: plan.totals.latency_cycles,
            ..SimTotals::default()
        };
        for l in &layers {
            totals.cycles += l.stats.cycles;
            totals.compute_busy_cycles += l.stats.compute_busy_cycles;
            totals.dram_busy_cycles += l.stats.dram_busy_cycles;
            totals.stall_cycles += l.stats.stall_cycles;
            totals.traffic.ifmap_loads += l.stats.traffic.ifmap_loads;
            totals.traffic.filter_loads += l.stats.traffic.filter_loads;
            totals.traffic.ofmap_stores += l.stats.traffic.ofmap_stores;
            totals.traffic.psum_spill_stores += l.stats.traffic.psum_spill_stores;
            totals.traffic.psum_spill_loads += l.stats.traffic.psum_spill_loads;
            totals.physical_elems += l.stats.physical_elems;
            totals.retried_elems += l.stats.retried_elems;
            totals.retries += l.stats.retries;
            totals.events += l.stats.events;
            totals.peak_occupancy_elems = totals
                .peak_occupancy_elems
                .max(l.stats.peak_occupancy_elems);
            totals.occupancy_violations += l.stats.occupancy_violations;
        }
        SimReport {
            network: plan.network.clone(),
            scheme: plan.scheme.label().to_string(),
            capacity_elems: acc.glb_elements(),
            config: *cfg,
            layers,
            totals,
        }
    }

    /// Relative divergence of the simulated end-to-end latency from the
    /// analytic plan latency — the quantity SMM011 bounds.
    pub fn divergence(&self) -> f64 {
        let want = self.totals.analytic_cycles as f64;
        (self.totals.cycles as f64 - want).abs() / want.max(1.0)
    }

    /// Logical off-chip traffic volume at `width`-bit elements.
    pub fn traffic_bytes(&self, acc: &AcceleratorConfig) -> ByteSize {
        self.traffic_counts().bytes(acc)
    }

    /// The network-level logical traffic, estimator-shaped.
    pub fn traffic_counts(&self) -> AccessCounts {
        self.totals.traffic
    }
}

/// Serialize a report as deterministic JSON: field order fixed, maps
/// avoided, floats printed with fixed precision — two identical
/// simulations serialize to byte-identical strings (the determinism
/// guarantee the seeded-jitter test pins).
pub fn report_json(report: &SimReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256 + 256 * report.layers.len());
    let cfg = &report.config;
    let _ = write!(
        out,
        "{{\"network\":\"{}\",\"scheme\":\"{}\",\"capacity_elems\":{},",
        json_escape(&report.network),
        json_escape(&report.scheme),
        report.capacity_elems
    );
    let _ = write!(
        out,
        "\"config\":{{\"queue_depth\":{},\"bw_derate\":{:.4},\"jitter_max_cycles\":{},\
         \"drop_rate\":{:.4},\"seed\":{},\"contenders\":{},\"compute\":\"{}\"}},",
        cfg.queue_depth,
        cfg.bw_derate,
        cfg.jitter_max_cycles,
        cfg.drop_rate,
        cfg.seed,
        cfg.contenders,
        cfg.compute.label()
    );
    out.push_str("\"layers\":[");
    for (i, l) in report.layers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"index\":{},\"name\":\"{}\",\"policy\":\"{}\",\"prefetch\":{},\
             \"analytic_cycles\":{},\"cycles\":{},\"compute_busy\":{},\"dram_busy\":{},\
             \"stall\":{},\"traffic_elems\":{},\"physical_elems\":{},\"retries\":{},\
             \"peak_occupancy\":{},\"violations\":{}}}",
            l.layer_index,
            json_escape(&l.layer_name),
            l.policy.label(),
            l.prefetch,
            l.analytic_cycles,
            l.stats.cycles,
            l.stats.compute_busy_cycles,
            l.stats.dram_busy_cycles,
            l.stats.stall_cycles,
            l.stats.traffic.total(),
            l.stats.physical_elems,
            l.stats.retries,
            l.stats.peak_occupancy_elems,
            l.stats.occupancy_violations
        );
    }
    let t = &report.totals;
    let _ = write!(
        out,
        "],\"totals\":{{\"cycles\":{},\"analytic_cycles\":{},\"divergence\":{:.6},\
         \"compute_busy\":{},\"dram_busy\":{},\"stall\":{},\"traffic_elems\":{},\
         \"physical_elems\":{},\"retried_elems\":{},\"retries\":{},\"events\":{},\
         \"peak_occupancy\":{},\"violations\":{}}}}}",
        t.cycles,
        t.analytic_cycles,
        report.divergence(),
        t.compute_busy_cycles,
        t.dram_busy_cycles,
        t.stall_cycles,
        t.traffic.total(),
        t.physical_elems,
        t.retried_elems,
        t.retries,
        t.events,
        t.peak_occupancy_elems,
        t.occupancy_violations
    );
    out
}
