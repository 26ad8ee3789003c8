use crate::plan::ExecutionPlan;
use crate::planner::{LayerPlanner, Planner};
use smm_arch::AcceleratorConfig;
use smm_model::Network;
use smm_policy::{PolicyEstimate, PolicyKind};
use std::fmt;

/// The two optimization objectives of Section 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Objective 1: reduce off-chip data transfers under the memory
    /// constraint.
    Accesses,
    /// Objective 2: reduce latency under the memory constraint.
    Latency,
}

impl Objective {
    /// Figure 8 suffix (`_a` / `_l`).
    pub fn suffix(&self) -> &'static str {
        match self {
            Objective::Accesses => "_a",
            Objective::Latency => "_l",
        }
    }

    /// The lexicographic comparison key of Algorithm 1 lines 11–15:
    /// the primary metric first, the other as tie-breaker. Candidate
    /// `a` beats candidate `b` iff `key(a) < key(b)` — strictly better
    /// on the primary metric, or equal primary and strictly better
    /// secondary. Every objective comparison in the workspace (layer
    /// selection, best-homogeneous search, the §5.4 inter-layer pass,
    /// tenancy partitioning, the checker) goes through this helper.
    pub fn key(self, accesses: u64, latency: u64) -> (u64, u64) {
        match self {
            Objective::Accesses => (accesses, latency),
            Objective::Latency => (latency, accesses),
        }
    }

    /// [`key`](Self::key) applied to a policy estimate.
    pub fn estimate_key(self, e: &PolicyEstimate) -> (u64, u64) {
        self.key(e.accesses.total(), e.latency.cycles)
    }
}

/// Which inter-layer scheduler assembles the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The paper's pipeline: Algorithm 1 per layer, optionally followed
    /// by the Section 5.4 greedy handoff pass.
    Greedy,
    /// The [`GlobalSchedule`](crate::global) pass: an exact dynamic
    /// program over per-layer policy choices and inter-layer handoff
    /// state. Guaranteed to beat or match the greedy plan on the
    /// objective; falls back byte-identically to the greedy plan when
    /// the search finds nothing strictly better.
    Global,
}

impl SchedulerKind {
    /// CLI / wire label (`greedy` / `global`).
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Greedy => "greedy",
            SchedulerKind::Global => "global",
        }
    }

    /// Parse a CLI / wire label.
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "greedy" => Some(SchedulerKind::Greedy),
            "global" => Some(SchedulerKind::Global),
            _ => None,
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Knobs of the memory-management technique. Prefetching and inter-layer
/// reuse can be disabled to reproduce the Figure 10 / Figure 11
/// ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ManagerConfig {
    pub objective: Objective,
    /// Allow the double-buffered `+p` policy variants (Eq. 2).
    pub allow_prefetch: bool,
    /// Enable the Section 5.4 inter-layer reuse pass.
    pub inter_layer_reuse: bool,
    /// Which inter-layer scheduler assembles the plan.
    pub scheduler: SchedulerKind,
}

impl ManagerConfig {
    /// Default configuration for an objective: prefetching allowed,
    /// inter-layer reuse off (the paper's base `Hom`/`Het` schemes;
    /// Section 5.4 evaluates inter-layer reuse separately), greedy
    /// scheduling.
    pub fn new(objective: Objective) -> Self {
        ManagerConfig {
            objective,
            allow_prefetch: true,
            inter_layer_reuse: false,
            scheduler: SchedulerKind::Greedy,
        }
    }

    pub fn with_prefetch(mut self, allow: bool) -> Self {
        self.allow_prefetch = allow;
        self
    }

    pub fn with_inter_layer_reuse(mut self, enable: bool) -> Self {
        self.inter_layer_reuse = enable;
        self
    }

    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Planning failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No policy — not even the fallback tiling — fits the layer in the
    /// GLB.
    LayerDoesNotFit { layer: String, glb_elements: u64 },
    /// A [`CancelToken`](crate::CancelToken) fired (deadline passed or
    /// stop flag raised) before the plan completed; `layers_done` layers
    /// had been planned.
    Cancelled { layers_done: usize },
    /// A [`PlanSpec`](crate::PlanSpec) could not be resolved into a
    /// planning job (unknown zoo model, malformed inline topology, …).
    InvalidSpec { message: String },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::LayerDoesNotFit {
                layer,
                glb_elements,
            } => write!(
                f,
                "layer {layer}: no policy fits a GLB of {glb_elements} elements"
            ),
            PlanError::Cancelled { layers_done } => {
                write!(f, "planning cancelled after {layers_done} layers")
            }
            PlanError::InvalidSpec { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One candidate's diagnostics from [`Manager::explain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateReport {
    pub estimate: PolicyEstimate,
    /// Satisfies the GLB constraint (Algorithm 1 line 10).
    pub feasible: bool,
    /// Would win Algorithm 1's inner loop.
    pub chosen: bool,
}

/// The memory-management analyser (Figure 4's "Analyser" box).
///
/// Since the pass-based refactor this is a thin facade over
/// [`Planner`](crate::Planner): it keeps the original entry points
/// (`heterogeneous`, `homogeneous`, `best_homogeneous`, `explain`)
/// working unchanged, always with the layer-decision memo disabled so
/// its observable behaviour — candidate counts, estimator calls, spans —
/// is exactly the pre-refactor one. Callers that want memoization or
/// explicit pass control use [`Planner`](crate::Planner) directly.
#[derive(Debug, Clone)]
pub struct Manager {
    acc: AcceleratorConfig,
    cfg: ManagerConfig,
}

impl Manager {
    pub fn new(acc: AcceleratorConfig, cfg: ManagerConfig) -> Self {
        Manager { acc, cfg }
    }

    pub fn accelerator(&self) -> &AcceleratorConfig {
        &self.acc
    }

    pub fn config(&self) -> &ManagerConfig {
        &self.cfg
    }

    /// The unmemoized pipeline this facade delegates to.
    fn planner(&self) -> Planner {
        Planner::new(self.acc, self.cfg)
    }

    /// Explain Algorithm 1's choice for one layer: every candidate with
    /// its metrics, feasibility, and whether it won. Chosen = the same
    /// candidate the selection pass would pick.
    pub fn explain(&self, shape: &smm_model::LayerShape) -> Vec<CandidateReport> {
        LayerPlanner::new(self.acc, self.cfg).explain(shape)
    }

    /// The heterogeneous execution plan (`Het`): Algorithm 1 applied per
    /// layer.
    pub fn heterogeneous(&self, net: &Network) -> Result<ExecutionPlan, PlanError> {
        self.heterogeneous_with(net, &crate::CancelToken::none())
    }

    /// [`heterogeneous`](Self::heterogeneous) with cooperative
    /// cancellation: the token is checked before each layer, so a fired
    /// deadline aborts within one layer's planning time.
    pub fn heterogeneous_with(
        &self,
        net: &Network,
        cancel: &crate::CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        self.planner().heterogeneous_with(net, cancel)
    }

    /// A homogeneous execution plan: every layer constrained to `kind`.
    pub fn homogeneous(&self, net: &Network, kind: PolicyKind) -> Result<ExecutionPlan, PlanError> {
        self.homogeneous_with(net, kind, &crate::CancelToken::none())
    }

    /// [`homogeneous`](Self::homogeneous) with cooperative cancellation.
    pub fn homogeneous_with(
        &self,
        net: &Network,
        kind: PolicyKind,
        cancel: &crate::CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        self.planner().homogeneous_with(net, kind, cancel)
    }

    /// The best homogeneous plan under the objective (`Hom` in the
    /// figures): evaluate all named policies and keep the winner.
    pub fn best_homogeneous(&self, net: &Network) -> Result<ExecutionPlan, PlanError> {
        self.best_homogeneous_with(net, &crate::CancelToken::none())
    }

    /// [`best_homogeneous`](Self::best_homogeneous) with cooperative
    /// cancellation. A fired token aborts the whole evaluation rather
    /// than returning a partially-compared winner.
    pub fn best_homogeneous_with(
        &self,
        net: &Network,
        cancel: &crate::CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        self.planner().best_homogeneous_with(net, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_arch::ByteSize;
    use smm_model::zoo;

    fn manager(kb: u64, objective: Objective) -> Manager {
        Manager::new(
            AcceleratorConfig::paper_default(ByteSize::from_kb(kb)),
            ManagerConfig::new(objective),
        )
    }

    #[test]
    fn het_plan_covers_every_layer() {
        let m = manager(64, Objective::Accesses);
        let plan = m.heterogeneous(&zoo::resnet18()).unwrap();
        assert_eq!(plan.decisions.len(), 21);
        for d in &plan.decisions {
            assert!(d.estimate.fits(m.accelerator()), "{}", d.layer_name);
        }
    }

    #[test]
    fn het_never_loses_to_hom() {
        // The heterogeneous plan optimizes each layer independently, so it
        // can never do worse than any homogeneous plan.
        for kb in [64, 256, 1024] {
            let m = manager(kb, Objective::Accesses);
            for net in zoo::all_networks() {
                let het = m.heterogeneous(&net).unwrap();
                let hom = m.best_homogeneous(&net).unwrap();
                assert!(
                    het.totals.accesses_elems <= hom.totals.accesses_elems,
                    "{} @ {kb}kB",
                    net.name
                );
            }
        }
    }

    #[test]
    fn latency_objective_never_slower_than_accesses_objective() {
        for net in zoo::all_networks() {
            let ma = manager(64, Objective::Accesses);
            let ml = manager(64, Objective::Latency);
            let pa = ma.heterogeneous(&net).unwrap();
            let pl = ml.heterogeneous(&net).unwrap();
            assert!(
                pl.totals.latency_cycles <= pa.totals.latency_cycles,
                "{}",
                net.name
            );
            // And symmetrically for accesses.
            assert!(pa.totals.accesses_elems <= pl.totals.accesses_elems);
        }
    }

    #[test]
    fn bigger_glb_never_hurts() {
        let net = zoo::mobilenetv2();
        let mut last = u64::MAX;
        for kb in [64, 128, 256, 512, 1024] {
            let m = manager(kb, Objective::Accesses);
            let plan = m.heterogeneous(&net).unwrap();
            assert!(plan.totals.accesses_elems <= last, "{kb}kB regressed");
            last = plan.totals.accesses_elems;
        }
    }

    #[test]
    fn disallowing_prefetch_removes_prefetch_decisions() {
        let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(256));
        let m = Manager::new(
            acc,
            ManagerConfig::new(Objective::Latency).with_prefetch(false),
        );
        let plan = m.heterogeneous(&zoo::mobilenet()).unwrap();
        assert_eq!(plan.prefetch_coverage(), 0.0);
    }

    #[test]
    fn latency_objective_uses_prefetch() {
        let m = manager(256, Objective::Latency);
        let plan = m.heterogeneous(&zoo::mobilenet()).unwrap();
        assert!(plan.prefetch_coverage() > 0.5);
    }

    #[test]
    fn homogeneous_plans_use_single_kind_or_fallback() {
        let m = manager(64, Objective::Accesses);
        let plan = m
            .homogeneous(&zoo::resnet18(), PolicyKind::P2FilterReuse)
            .unwrap();
        for d in &plan.decisions {
            assert!(
                d.estimate.kind == PolicyKind::P2FilterReuse
                    || d.estimate.kind == PolicyKind::Fallback,
                "{}: {:?}",
                d.layer_name,
                d.estimate.kind
            );
        }
    }

    #[test]
    fn tiny_glb_fails_with_layer_name() {
        let m = manager(1, Objective::Accesses);
        let err = m.heterogeneous(&zoo::resnet18()).unwrap_err();
        assert!(matches!(err, PlanError::LayerDoesNotFit { .. }));
        assert!(err.to_string().contains("elements"));
    }

    #[test]
    fn expired_token_cancels_both_schemes() {
        let m = manager(64, Objective::Accesses);
        let net = zoo::resnet18();
        let expired = crate::CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            m.heterogeneous_with(&net, &expired).unwrap_err(),
            PlanError::Cancelled { layers_done: 0 }
        );
        assert!(matches!(
            m.best_homogeneous_with(&net, &expired).unwrap_err(),
            PlanError::Cancelled { layers_done: 0 }
        ));
        // A token that never fires changes nothing.
        let open = crate::CancelToken::none();
        assert_eq!(
            m.heterogeneous_with(&net, &open).unwrap(),
            m.heterogeneous(&net).unwrap()
        );
    }

    #[test]
    fn objective_suffixes() {
        assert_eq!(Objective::Accesses.suffix(), "_a");
        assert_eq!(Objective::Latency.suffix(), "_l");
    }

    #[test]
    fn objective_key_orders_lexicographically() {
        let o = Objective::Accesses;
        // Strictly better primary wins regardless of secondary.
        assert!(o.key(10, 999) < o.key(11, 0));
        // Equal primary falls back to secondary.
        assert!(o.key(10, 5) < o.key(10, 6));
        // Latency swaps the roles.
        let l = Objective::Latency;
        assert!(l.key(999, 10) < l.key(0, 11));
        assert_eq!(l.key(3, 7), (7, 3));
    }

    #[test]
    fn explain_marks_exactly_one_winner() {
        let m = manager(64, Objective::Accesses);
        let net = zoo::resnet18();
        for layer in &net.layers {
            let report = m.explain(&layer.shape);
            let winners = report.iter().filter(|c| c.chosen).count();
            assert_eq!(winners, 1, "{}", layer.name);
            let winner = report.iter().find(|c| c.chosen).unwrap();
            assert!(winner.feasible, "{}", layer.name);
            // No feasible candidate beats the winner on the objective.
            for c in report.iter().filter(|c| c.feasible) {
                assert!(
                    (c.estimate.accesses.total(), c.estimate.latency.cycles)
                        >= (
                            winner.estimate.accesses.total(),
                            winner.estimate.latency.cycles
                        )
                        || c.chosen,
                    "{}",
                    layer.name
                );
            }
        }
    }
}
