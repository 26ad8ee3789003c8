//! `smm-sim`: a discrete-event execution simulator for lowered plans.
//!
//! The planner *derives* latency and traffic analytically (Eq. 1/2);
//! nothing in the stack ever executed a plan against a modeled memory
//! system, so the prefetch-overlap and bandwidth assumptions behind
//! those equations went untested end-to-end. This crate closes the
//! loop: it takes the DMA [`Command`](smm_exec::Command) streams
//! produced by [`Program::lower`](smm_exec::Program::lower) and runs
//! them through —
//!
//! - a **DMA engine** with a bounded prefetch queue (transfers run
//!   ahead of compute by at most `queue_depth` outstanding fills);
//! - a single **DRAM channel** with configurable per-element cost,
//!   shared fairly when `contenders > 1`;
//! - a **compute model** releasing each layer's cycles as its input
//!   data lands (ideal-MAC by default, `smm-systolic`'s fold model on
//!   request);
//! - a per-command **GLB occupancy ledger** that must never exceed
//!   capacity (it never does on a plan the planner accepted);
//! - **scenario injection**: bandwidth derating, per-transfer latency
//!   jitter from a seeded deterministic PRNG, and dropped/re-issued
//!   transfers.
//!
//! Simulated latency is cross-checked against the plan's analytic
//! estimate by `smm check`'s SMM011 diagnostic
//! (`smm_check::check_sim_divergence`); the logical traffic the
//! simulator reports equals the replay engine's
//! [`Replay::as_access_counts`](smm_exec::Replay::as_access_counts)
//! exactly, scenario knobs included — faults stretch time, never
//! byte counts. See `docs/SIMULATION.md` for the model in detail.
//!
//! # Example
//!
//! ```
//! use smm_arch::{AcceleratorConfig, ByteSize};
//! use smm_core::{CancelToken, Manager, ManagerConfig, Objective};
//! use smm_model::zoo;
//! use smm_sim::{simulate_plan, SimConfig};
//!
//! let net = zoo::mobilenet();
//! let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(256));
//! let plan = Manager::new(acc, ManagerConfig::new(Objective::Accesses))
//!     .heterogeneous(&net)
//!     .unwrap();
//! let report = simulate_plan(&plan, &net, &acc, &SimConfig::default()).unwrap();
//! assert_eq!(report.layers.len(), net.layers.len());
//! assert_eq!(report.totals.occupancy_violations, 0);
//! assert!(report.divergence() < 0.02);
//! ```

mod engine;
mod report;

pub use engine::LayerStats;
pub use report::{report_json, LayerSimReport, SimReport, SimTotals};

use smm_arch::AcceleratorConfig;
use smm_core::ExecutionPlan;
use smm_exec::{ExecError, Program};
use smm_model::{LayerShape, Network};
use smm_policy::PolicyEstimate;
use std::fmt;

/// Which compute-timing model paces the array between DMA arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeModel {
    /// The estimator's ideal-MAC cycle count (`macs / macs_per_cycle`)
    /// — the same number Eq. 1/2 use, so clean simulations stay within
    /// SMM011's tolerance of the analytic latency.
    #[default]
    Analytic,
    /// `smm-systolic`'s output-stationary fold model (`2R + C + K − 2`
    /// per fold): adds the array's fill/drain overhead, so latency runs
    /// above the analytic estimate — a scenario knob, not cross-checked.
    SystolicFolds,
}

impl ComputeModel {
    /// Stable lower-case label (CLI flag values, JSON).
    pub fn label(self) -> &'static str {
        match self {
            ComputeModel::Analytic => "analytic",
            ComputeModel::SystolicFolds => "folds",
        }
    }
}

/// Scenario configuration of one simulation run. The default is the
/// *clean* configuration: nominal bandwidth, no jitter, no drops, one
/// tenant — the setting under which SMM011 compares simulated to
/// analytic latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Outstanding-prefetch bound of the DMA engine (≥ 1). A prefetch
    /// may run at most this many transfers ahead of consumption.
    pub queue_depth: usize,
    /// Bandwidth derating factor (≥ small positive): 2.0 halves the
    /// effective channel bandwidth. Stretches time, never traffic.
    pub bw_derate: f64,
    /// Per-transfer latency jitter: each physical transfer pays an
    /// extra `0..=jitter_max_cycles` cycles, drawn from the seeded PRNG.
    pub jitter_max_cycles: u64,
    /// Probability a physical transfer is dropped and re-issued
    /// (clamped to 0.95; re-issues are bounded so the sim always ends).
    pub drop_rate: f64,
    /// PRNG seed. Layer `i` draws from stream `seed ⊕ mix(i)`, so
    /// results are reproducible and independent of execution order.
    pub seed: u64,
    /// Streams sharing the DRAM channel fairly (this plan is one of
    /// them): per-element cost multiplies by this count.
    pub contenders: u64,
    /// Compute-timing model.
    pub compute: ComputeModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue_depth: 4,
            bw_derate: 1.0,
            jitter_max_cycles: 0,
            drop_rate: 0.0,
            seed: 0,
            contenders: 1,
            compute: ComputeModel::Analytic,
        }
    }
}

impl SimConfig {
    /// True when no scenario knob moves latency away from the analytic
    /// model — the precondition for the SMM011 cross-check to be
    /// meaningful.
    pub fn is_clean(&self) -> bool {
        self.bw_derate == 1.0
            && self.jitter_max_cycles == 0
            && self.drop_rate == 0.0
            && self.contenders <= 1
            && self.compute == ComputeModel::Analytic
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.queue_depth == 0 {
            return Err(SimError::invalid("queue_depth must be at least 1"));
        }
        if !self.bw_derate.is_finite() || self.bw_derate <= 0.0 {
            return Err(SimError::invalid("bw_derate must be a positive number"));
        }
        if !self.drop_rate.is_finite() || !(0.0..1.0).contains(&self.drop_rate) {
            return Err(SimError::invalid("drop_rate must be in [0, 1)"));
        }
        if self.contenders == 0 {
            return Err(SimError::invalid("contenders must be at least 1"));
        }
        Ok(())
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A [`SimConfig`] knob is out of range.
    InvalidConfig { message: String },
    /// The plan does not describe the given network.
    PlanMismatch { message: String },
    /// Lowering a decision into a command stream failed.
    Lower(ExecError),
}

impl SimError {
    fn invalid(message: &str) -> Self {
        SimError::InvalidConfig {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { message } => write!(f, "invalid sim config: {message}"),
            SimError::PlanMismatch { message } => write!(f, "plan/network mismatch: {message}"),
            SimError::Lower(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Lower(e)
    }
}

/// Simulate one already-lowered program in isolation (no inter-layer
/// elision): the entry point for program-level studies and for the
/// traffic-equality property the proptest suite pins — the returned
/// [`LayerStats::traffic`] equals `program.replay.as_access_counts()`
/// exactly.
pub fn simulate_program(
    program: &Program,
    shape: &LayerShape,
    est: &PolicyEstimate,
    acc: &AcceleratorConfig,
    cfg: &SimConfig,
) -> Result<LayerStats, SimError> {
    cfg.validate()?;
    Ok(engine::simulate_commands(
        program,
        shape,
        est,
        acc,
        cfg,
        0,
        engine::Elision::default(),
    ))
}

/// Simulate a whole execution plan against `net` on `acc` under the
/// scenario `cfg`: lower each decision, run its command stream through
/// the discrete-event engine (honouring the plan's inter-layer elision
/// flags), and aggregate. Emits `sim.plan`/`sim.layer` spans and the
/// `sim.*` counters through `smm-obs`.
pub fn simulate_plan(
    plan: &ExecutionPlan,
    net: &Network,
    acc: &AcceleratorConfig,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    if plan.decisions.len() != net.layers.len() {
        return Err(SimError::PlanMismatch {
            message: format!(
                "plan has {} decisions, network {:?} has {} layers",
                plan.decisions.len(),
                net.name,
                net.layers.len()
            ),
        });
    }
    let _span = smm_obs::span!("sim.plan", "{}", plan.network);
    let mut layers = Vec::with_capacity(plan.decisions.len());
    for (d, layer) in plan.decisions.iter().zip(&net.layers) {
        let _layer_span = smm_obs::span!("sim.layer", "{}", layer.name);
        let program = Program::lower(&layer.shape, &d.estimate)?;
        let stats = engine::simulate_commands(
            &program,
            &layer.shape,
            &d.estimate,
            acc,
            cfg,
            d.layer_index,
            engine::Elision {
                ifmap: d.ifmap_from_glb,
                stores: d.ofmap_kept_on_chip,
            },
        );
        smm_obs::add(smm_obs::Counter::SimEvents, stats.events);
        smm_obs::add(smm_obs::Counter::SimStallCycles, stats.stall_cycles);
        smm_obs::add(smm_obs::Counter::SimDmaRetries, stats.retries);
        smm_obs::add(
            smm_obs::Counter::SimOccupancyViolations,
            stats.occupancy_violations,
        );
        layers.push(LayerSimReport {
            layer_index: d.layer_index,
            layer_name: d.layer_name.clone(),
            policy: d.estimate.kind,
            prefetch: d.estimate.prefetch,
            analytic_cycles: d.effective_latency(acc).cycles,
            stats,
        });
    }
    Ok(SimReport::assemble(plan, acc, cfg, layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::ByteSize;
    use smm_core::{
        CancelToken, Manager, ManagerConfig, NetworkRef, Objective, PlanScheme, PlanSpec,
    };
    use smm_model::zoo;

    fn acc(kb: u64) -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(kb))
    }

    fn plan_for(net: &Network, a: AcceleratorConfig) -> ExecutionPlan {
        Manager::new(a, ManagerConfig::new(Objective::Accesses))
            .heterogeneous(net)
            .unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(SimConfig::default().validate().is_ok());
        for bad in [
            SimConfig {
                queue_depth: 0,
                ..SimConfig::default()
            },
            SimConfig {
                bw_derate: 0.0,
                ..SimConfig::default()
            },
            SimConfig {
                bw_derate: f64::NAN,
                ..SimConfig::default()
            },
            SimConfig {
                drop_rate: 1.0,
                ..SimConfig::default()
            },
            SimConfig {
                drop_rate: -0.5,
                ..SimConfig::default()
            },
            SimConfig {
                contenders: 0,
                ..SimConfig::default()
            },
        ] {
            assert!(matches!(
                bad.validate(),
                Err(SimError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn clean_config_classification() {
        assert!(SimConfig::default().is_clean());
        assert!(!SimConfig {
            bw_derate: 2.0,
            ..SimConfig::default()
        }
        .is_clean());
        assert!(!SimConfig {
            compute: ComputeModel::SystolicFolds,
            ..SimConfig::default()
        }
        .is_clean());
        // The seed alone does not make a run dirty: with no jitter or
        // drops the PRNG is never consulted.
        assert!(SimConfig {
            seed: 99,
            ..SimConfig::default()
        }
        .is_clean());
    }

    #[test]
    fn plan_network_mismatch_is_rejected() {
        let net = zoo::mobilenet();
        let plan = plan_for(&net, acc(256));
        let other = zoo::resnet18();
        assert!(matches!(
            simulate_plan(&plan, &other, &acc(256), &SimConfig::default()),
            Err(SimError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn simulating_a_clean_plan_reports_no_violations() {
        let net = zoo::mobilenet();
        let a = acc(256);
        let plan = plan_for(&net, a);
        let report = simulate_plan(&plan, &net, &a, &SimConfig::default()).unwrap();
        assert_eq!(report.layers.len(), net.layers.len());
        assert_eq!(report.totals.occupancy_violations, 0);
        assert!(report.totals.cycles > 0);
        assert!(report.totals.peak_occupancy_elems <= a.glb_elements());
        // Traffic matches the plan's effective totals element-for-element.
        assert_eq!(
            report.totals.traffic.total(),
            plan.totals.accesses_elems,
            "simulated logical traffic must equal the plan's"
        );
    }

    #[test]
    fn report_json_is_deterministic_and_parsable_shape() {
        let net = zoo::resnet18();
        let a = acc(64);
        let plan = plan_for(&net, a);
        let cfg = SimConfig {
            jitter_max_cycles: 4,
            drop_rate: 0.1,
            seed: 1234,
            ..SimConfig::default()
        };
        let r1 = simulate_plan(&plan, &net, &a, &cfg).unwrap();
        let r2 = simulate_plan(&plan, &net, &a, &cfg).unwrap();
        assert_eq!(r1, r2);
        let j1 = report_json(&r1);
        let j2 = report_json(&r2);
        assert_eq!(j1, j2, "same seed must serialize byte-identically");
        assert!(j1.starts_with('{') && j1.ends_with('}'));
        assert!(j1.contains("\"divergence\":"));
        assert!(j1.contains("\"drop_rate\":0.1000"));
    }

    #[test]
    fn spec_batch_contention_equivalence() {
        // A batch-of-N spec contends for the channel like N tenants: the
        // contenders knob is how a caller models that in the simulator.
        let spec = PlanSpec::new(
            NetworkRef::Zoo("mobilenet".into()),
            acc(256),
            ManagerConfig::new(Objective::Accesses),
            PlanScheme::Heterogeneous,
        );
        let net = spec.resolve().unwrap();
        let plan = spec.run(&CancelToken::none()).unwrap();
        let alone = simulate_plan(&plan, &net, &spec.accelerator, &SimConfig::default()).unwrap();
        let shared = simulate_plan(
            &plan,
            &net,
            &spec.accelerator,
            &SimConfig {
                contenders: 4,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(shared.totals.cycles > alone.totals.cycles);
        assert_eq!(shared.totals.traffic, alone.totals.traffic);
    }
}
