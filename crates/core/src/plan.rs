use smm_arch::{AcceleratorConfig, ByteSize};
use smm_policy::{AccessCounts, LatencyEstimate, PolicyEstimate, PolicyKind};

/// Whether a plan applies one policy everywhere or the per-layer best.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Every layer runs the same policy (`Hom` in the paper's figures).
    Homogeneous(PolicyKind),
    /// Each layer runs the policy that best serves the objective (`Het`).
    Heterogeneous,
}

impl Scheme {
    /// Figure label (`Hom` / `Het`).
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Homogeneous(_) => "Hom",
            Scheme::Heterogeneous => "Het",
        }
    }
}

/// One layer's assignment in an execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDecision {
    /// Index in the network's layer order.
    pub layer_index: usize,
    /// Layer name.
    pub layer_name: String,
    /// The chosen policy estimate.
    pub estimate: PolicyEstimate,
    /// Inter-layer reuse consumer: the ifmap is already resident in the
    /// GLB (produced by the previous layer), so no ifmap loads happen.
    pub ifmap_from_glb: bool,
    /// Inter-layer reuse producer: the ofmap stays on-chip for the next
    /// layer, so no ofmap stores happen.
    pub ofmap_kept_on_chip: bool,
}

impl LayerDecision {
    pub(crate) fn new(layer_index: usize, layer_name: String, estimate: PolicyEstimate) -> Self {
        LayerDecision {
            layer_index,
            layer_name,
            estimate,
            ifmap_from_glb: false,
            ofmap_kept_on_chip: false,
        }
    }

    /// Off-chip traffic after plan-level optimizations.
    pub fn effective_accesses(&self) -> AccessCounts {
        let mut a = self.estimate.accesses;
        if self.ifmap_from_glb {
            a.ifmap_loads = 0;
        }
        if self.ofmap_kept_on_chip {
            a.ofmap_stores = 0;
        }
        a
    }

    /// Latency after plan-level optimizations.
    pub fn effective_latency(&self, acc: &AcceleratorConfig) -> LatencyEstimate {
        let traffic = self.effective_accesses().total();
        if traffic == self.estimate.accesses.total() {
            self.estimate.latency
        } else {
            self.estimate.latency_for_traffic(acc, traffic)
        }
    }
}

/// Aggregate totals of an execution plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanTotals {
    /// Off-chip elements moved over the whole network.
    pub accesses_elems: u64,
    /// Off-chip volume in bytes (Figure 5's unit is MB).
    pub accesses_bytes: ByteSize,
    /// End-to-end latency estimate in cycles.
    pub latency_cycles: u64,
    /// Total compute cycles (for reference).
    pub compute_cycles: u64,
    /// Total transfer cycles (for reference).
    pub transfer_cycles: u64,
}

/// A complete per-layer policy assignment for one network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionPlan {
    /// Network name.
    pub network: String,
    /// Plan flavour (Hom/Het).
    pub scheme: Scheme,
    /// Per-layer assignments, in execution order.
    pub decisions: Vec<LayerDecision>,
    /// Aggregate totals (kept in sync by [`refresh_totals`](Self::refresh_totals)).
    pub totals: PlanTotals,
}

impl ExecutionPlan {
    pub(crate) fn new(
        network: String,
        scheme: Scheme,
        decisions: Vec<LayerDecision>,
        acc: &AcceleratorConfig,
    ) -> Self {
        let mut plan = ExecutionPlan {
            network,
            scheme,
            decisions,
            totals: PlanTotals {
                accesses_elems: 0,
                accesses_bytes: ByteSize::ZERO,
                latency_cycles: 0,
                compute_cycles: 0,
                transfer_cycles: 0,
            },
        };
        plan.refresh_totals(acc);
        plan
    }

    /// Recompute the aggregate totals from the per-layer decisions (call
    /// after mutating decisions, e.g. in the inter-layer reuse pass).
    pub fn refresh_totals(&mut self, acc: &AcceleratorConfig) {
        let mut elems = 0u64;
        let mut latency = 0u64;
        let mut compute = 0u64;
        let mut transfer = 0u64;
        for d in &self.decisions {
            elems += d.effective_accesses().total();
            let l = d.effective_latency(acc);
            latency += l.cycles;
            compute += l.compute_cycles;
            transfer += l.transfer_cycles;
        }
        self.totals = PlanTotals {
            accesses_elems: elems,
            accesses_bytes: ByteSize::from_elements(elems, acc.data_width),
            latency_cycles: latency,
            compute_cycles: compute,
            transfer_cycles: transfer,
        };
    }

    /// Fraction of layers whose chosen policy prefetches (Figure 10's
    /// "prefetching coverage").
    pub fn prefetch_coverage(&self) -> f64 {
        if self.decisions.is_empty() {
            return 0.0;
        }
        let n = self
            .decisions
            .iter()
            .filter(|d| d.estimate.prefetch)
            .count();
        n as f64 / self.decisions.len() as f64
    }

    /// Fraction of producer→consumer transitions that keep the ofmap
    /// on-chip (Figure 11's "inter-layer reuse coverage"), over the
    /// transitions where reuse is possible at all (`possible` comes from
    /// the inter-layer pass).
    pub fn inter_layer_coverage(&self, possible: usize) -> f64 {
        if possible == 0 {
            return 0.0;
        }
        let n = self.decisions.iter().filter(|d| d.ifmap_from_glb).count();
        n as f64 / possible as f64
    }

    /// The distinct policies the plan uses, with their prefetch flags —
    /// the "memory policies used" column of Table 4.
    pub fn policies_used(&self) -> Vec<(PolicyKind, bool)> {
        let mut used: Vec<(PolicyKind, bool)> = Vec::new();
        for d in &self.decisions {
            let key = (d.estimate.kind, d.estimate.prefetch);
            if !used.contains(&key) {
                used.push(key);
            }
        }
        used.sort_by_key(|(k, p)| (k.label(), *p));
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_model::LayerShape;
    use smm_policy::estimate;

    fn acc() -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(256))
    }

    fn shape() -> LayerShape {
        LayerShape {
            ifmap_h: 28,
            ifmap_w: 28,
            in_channels: 64,
            filter_h: 3,
            filter_w: 3,
            num_filters: 64,
            stride: 1,
            padding: 1,
            depthwise: false,
        }
    }

    fn decision(prefetch: bool) -> LayerDecision {
        let est = estimate(PolicyKind::P1IfmapReuse, &shape(), &acc(), prefetch).unwrap();
        LayerDecision::new(0, "l".into(), est)
    }

    #[test]
    fn effective_accesses_honour_flags() {
        let mut d = decision(false);
        let base = d.effective_accesses();
        assert_eq!(base.total(), d.estimate.accesses.total());
        d.ifmap_from_glb = true;
        assert_eq!(d.effective_accesses().ifmap_loads, 0);
        d.ofmap_kept_on_chip = true;
        assert_eq!(d.effective_accesses().ofmap_stores, 0);
        assert_eq!(d.effective_accesses().total(), base.filter_loads);
    }

    #[test]
    fn effective_latency_shrinks_with_elided_traffic() {
        let mut d = decision(false);
        let before = d.effective_latency(&acc()).cycles;
        d.ifmap_from_glb = true;
        let after = d.effective_latency(&acc()).cycles;
        assert!(after < before);
    }

    #[test]
    fn totals_track_decisions() {
        let a = acc();
        let mut plan = ExecutionPlan::new(
            "net".into(),
            Scheme::Heterogeneous,
            vec![decision(false), decision(true)],
            &a,
        );
        let t0 = plan.totals;
        assert_eq!(
            t0.accesses_elems,
            2 * decision(false).effective_accesses().total()
        );
        plan.decisions[1].ofmap_kept_on_chip = true;
        plan.refresh_totals(&a);
        assert!(plan.totals.accesses_elems < t0.accesses_elems);
    }

    #[test]
    fn coverage_metrics() {
        let a = acc();
        let mut plan = ExecutionPlan::new(
            "net".into(),
            Scheme::Heterogeneous,
            vec![decision(false), decision(true), decision(true)],
            &a,
        );
        assert!((plan.prefetch_coverage() - 2.0 / 3.0).abs() < 1e-9);
        plan.decisions[2].ifmap_from_glb = true;
        assert!((plan.inter_layer_coverage(2) - 0.5).abs() < 1e-9);
        assert_eq!(plan.inter_layer_coverage(0), 0.0);
    }

    #[test]
    fn policies_used_deduplicates() {
        let a = acc();
        let plan = ExecutionPlan::new(
            "net".into(),
            Scheme::Heterogeneous,
            vec![decision(false), decision(false), decision(true)],
            &a,
        );
        let used = plan.policies_used();
        assert_eq!(used.len(), 2);
        assert!(used.contains(&(PolicyKind::P1IfmapReuse, false)));
        assert!(used.contains(&(PolicyKind::P1IfmapReuse, true)));
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Heterogeneous.label(), "Het");
        assert_eq!(
            Scheme::Homogeneous(PolicyKind::P2FilterReuse).label(),
            "Hom"
        );
    }
}
