//! The pass-based planning pipeline.
//!
//! [`Planner`] runs a plan as explicit passes over a network:
//!
//! 1. **Selection pass** — Algorithm 1's per-layer inner loop, executed
//!    for every layer, through one [`LayerPlanner`] that owns candidate
//!    enumeration, the GLB feasibility filter, and the lexicographic
//!    objective comparison.
//! 2. **Inter-layer pass** — the Section 5.4 producer/consumer reuse
//!    rewrite ([`crate::interlayer::apply`]), when enabled in
//!    [`ManagerConfig`].
//! 3. **Finish pass** — totals refresh and plan assembly
//!    ([`ExecutionPlan`] construction).
//!
//! The [`LayerPlanner`] can be given a shape-keyed [`LayerMemo`]:
//! layers with identical [`LayerShape`](smm_model::LayerShape)s (the
//! repeated blocks of ResNet/VGG, or the same model planned by many
//! concurrent serve requests) are planned once and the decision reused,
//! with byte-identical results to the unmemoized path.

use crate::manager::{CandidateReport, ManagerConfig, PlanError};
use crate::plan::{ExecutionPlan, LayerDecision, Scheme};
use crate::{CancelToken, PlanScheme};
use parking_lot::Mutex;
use smm_arch::AcceleratorConfig;
use smm_model::{LayerShape, Network};
use smm_policy::{estimate, PolicyEstimate, PolicyKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Memo key for one layer-selection problem. Two selections share a
/// memo entry only when every input that can influence Algorithm 1's
/// answer matches: the layer shape, the policy constraint (`None` for
/// the heterogeneous search, `Some(kind)` for homogeneous plans), the
/// accelerator, and the objective/prefetch knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    shape: LayerShape,
    constraint: Option<PolicyKind>,
    acc: AcceleratorConfig,
    objective: crate::Objective,
    allow_prefetch: bool,
}

/// Hit/miss counters of a [`LayerMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
}

impl MemoStats {
    /// Hits as a fraction of all lookups (0.0 when the memo is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// A shape-keyed memo of layer-selection decisions, shared across plans
/// (and across serve requests) via `Arc`.
///
/// The memo caches the full outcome of a selection — including "does
/// not fit" (`None`) — so repeated shapes skip candidate enumeration
/// entirely. Results are byte-identical to the unmemoized path because
/// the selection is deterministic in the memo key. Lookups and inserts
/// are counted both locally ([`stats`](Self::stats)) and through
/// `smm-obs` (`planner.memo_hits` / `planner.memo_misses`).
#[derive(Debug)]
pub struct LayerMemo {
    entries: Mutex<HashMap<MemoKey, Option<PolicyEstimate>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for LayerMemo {
    fn default() -> Self {
        LayerMemo::new(Self::DEFAULT_CAPACITY)
    }
}

impl LayerMemo {
    /// Default entry cap. Entries are a few hundred bytes; the cap only
    /// exists to bound a long-lived server's memory.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A memo holding at most `capacity` decisions. Once full it keeps
    /// serving hits but stops inserting (selection stays correct, just
    /// unmemoized for new shapes).
    pub fn new(capacity: usize) -> Self {
        LayerMemo {
            entries: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Hit/miss counts since construction.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized decisions.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no decision has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look `key` up, computing and (capacity permitting) inserting on a
    /// miss. The lock is not held across `compute`, so a slow selection
    /// never blocks hits on other shapes.
    fn get_or_compute(
        &self,
        key: MemoKey,
        compute: impl FnOnce() -> Option<PolicyEstimate>,
    ) -> Option<PolicyEstimate> {
        if let Some(cached) = self.entries.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if smm_obs::enabled() {
                smm_obs::add(smm_obs::Counter::LayerMemoHits, 1);
            }
            return cached.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if smm_obs::enabled() {
            smm_obs::add(smm_obs::Counter::LayerMemoMisses, 1);
        }
        let value = compute();
        let mut entries = self.entries.lock();
        if entries.len() < self.capacity {
            entries.insert(key, value.clone());
        }
        value
    }
}

/// Algorithm 1's per-layer inner loop behind one API: enumerate policy
/// candidates (optionally constrained to a named policy), filter by GLB
/// feasibility, and keep the lexicographic winner under the objective.
/// Optionally backed by a shared [`LayerMemo`].
#[derive(Debug, Clone)]
pub struct LayerPlanner {
    acc: AcceleratorConfig,
    cfg: ManagerConfig,
    memo: Option<Arc<LayerMemo>>,
}

impl LayerPlanner {
    pub fn new(acc: AcceleratorConfig, cfg: ManagerConfig) -> Self {
        LayerPlanner {
            acc,
            cfg,
            memo: None,
        }
    }

    /// Reuse decisions for repeated shapes via `memo`.
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<LayerMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    pub fn accelerator(&self) -> &AcceleratorConfig {
        &self.acc
    }

    pub fn config(&self) -> &ManagerConfig {
        &self.cfg
    }

    fn prefetch_options(&self) -> &'static [bool] {
        if self.cfg.allow_prefetch {
            &[false, true]
        } else {
            &[false]
        }
    }

    fn memoized(
        &self,
        shape: &LayerShape,
        constraint: Option<PolicyKind>,
        compute: impl FnOnce() -> Option<PolicyEstimate>,
    ) -> Option<PolicyEstimate> {
        let Some(memo) = &self.memo else {
            return compute();
        };
        let key = MemoKey {
            shape: *shape,
            constraint,
            acc: self.acc,
            objective: self.cfg.objective,
            allow_prefetch: self.cfg.allow_prefetch,
        };
        memo.get_or_compute(key, compute)
    }

    /// Algorithm 1's inner loop for one layer: the best feasible
    /// candidate among the named policies (and their prefetch variants).
    /// The paper only reaches for the tile-size search when nothing named
    /// fits; we keep it in the candidate list unconditionally — a strict
    /// superset that can only improve the plan (named policies win ties
    /// because they are evaluated first).
    pub fn select(&self, shape: &LayerShape) -> Option<PolicyEstimate> {
        self.memoized(shape, None, || self.select_uncached(shape))
    }

    fn select_uncached(&self, shape: &LayerShape) -> Option<PolicyEstimate> {
        let mut best: Option<PolicyEstimate> = None;
        let mut candidates = 0u64;
        let mut rejected = 0u64;
        for kind in PolicyKind::ALL {
            for &prefetch in self.prefetch_options() {
                let Some(e) = estimate(kind, shape, &self.acc, prefetch) else {
                    continue;
                };
                candidates += 1;
                if !e.fits(&self.acc) {
                    if prefetch {
                        rejected += 1;
                    }
                    continue;
                }
                if best.as_ref().is_none_or(|b| {
                    self.cfg.objective.estimate_key(&e) < self.cfg.objective.estimate_key(b)
                }) {
                    best = Some(e);
                }
            }
        }
        if smm_obs::enabled() {
            smm_obs::add(smm_obs::Counter::PlannerCandidates, candidates);
            smm_obs::add(smm_obs::Counter::PlannerPrefetchRejected, rejected);
            smm_obs::observe(smm_obs::Histogram::CandidatesPerLayer, candidates);
        }
        best
    }

    /// The best estimate for one layer when constrained to a single named
    /// policy (used by homogeneous plans): the policy itself or its
    /// prefetch variant, falling back to the tiled search when the policy
    /// cannot fit (so a homogeneous plan still executes every layer).
    pub fn select_constrained(
        &self,
        kind: PolicyKind,
        shape: &LayerShape,
    ) -> Option<PolicyEstimate> {
        self.memoized(shape, Some(kind), || {
            self.select_constrained_uncached(kind, shape)
        })
    }

    fn select_constrained_uncached(
        &self,
        kind: PolicyKind,
        shape: &LayerShape,
    ) -> Option<PolicyEstimate> {
        let mut best: Option<PolicyEstimate> = None;
        for candidate_kind in [kind, PolicyKind::Fallback] {
            for &prefetch in self.prefetch_options() {
                let Some(e) = estimate(candidate_kind, shape, &self.acc, prefetch) else {
                    continue;
                };
                if !e.fits(&self.acc) {
                    continue;
                }
                if best.as_ref().is_none_or(|b| {
                    self.cfg.objective.estimate_key(&e) < self.cfg.objective.estimate_key(b)
                }) {
                    best = Some(e);
                }
            }
            if best.is_some() {
                break;
            }
        }
        best
    }

    /// Every feasible candidate for a layer, in deterministic
    /// enumeration order — the search space the
    /// [`global`](crate::global) scheduler's dynamic program ranges
    /// over. Unconstrained, this is Algorithm 1's full candidate list
    /// (`select` picks its objective-minimum); constrained, it mirrors
    /// [`select_constrained`](Self::select_constrained): the named
    /// policy's variants, or the fallback's only when nothing named
    /// fits.
    pub(crate) fn feasible_candidates(
        &self,
        shape: &LayerShape,
        constraint: Option<PolicyKind>,
    ) -> Vec<PolicyEstimate> {
        let mut out = Vec::new();
        let push_group = |kinds: &[PolicyKind], out: &mut Vec<PolicyEstimate>| {
            for &kind in kinds {
                for &prefetch in self.prefetch_options() {
                    if let Some(e) = estimate(kind, shape, &self.acc, prefetch) {
                        if e.fits(&self.acc) && !out.contains(&e) {
                            out.push(e);
                        }
                    }
                }
            }
        };
        match constraint {
            None => push_group(&PolicyKind::ALL, &mut out),
            Some(kind) => {
                push_group(&[kind], &mut out);
                if out.is_empty() {
                    push_group(&[PolicyKind::Fallback], &mut out);
                }
            }
        }
        out
    }

    /// Explain Algorithm 1's choice for one layer: every candidate with
    /// its metrics, feasibility, and whether it won. Chosen = the same
    /// candidate [`select`](Self::select) would pick.
    pub fn explain(&self, shape: &LayerShape) -> Vec<CandidateReport> {
        let chosen = self.select(shape);
        let mut out = Vec::new();
        for kind in PolicyKind::ALL {
            for &prefetch in self.prefetch_options() {
                let Some(e) = estimate(kind, shape, &self.acc, prefetch) else {
                    continue;
                };
                let feasible = e.fits(&self.acc);
                let is_chosen = chosen.as_ref() == Some(&e);
                out.push(CandidateReport {
                    estimate: e,
                    feasible,
                    chosen: is_chosen,
                });
            }
        }
        out
    }
}

/// The pass-based planner: selection pass → inter-layer pass → finish
/// pass (see the module docs for the pipeline). All planning entry
/// points — [`Manager`](crate::Manager), sweeps, tenancy, the serving
/// worker, the CLI — run through this type.
#[derive(Debug, Clone)]
pub struct Planner {
    acc: AcceleratorConfig,
    cfg: ManagerConfig,
    layers: LayerPlanner,
}

impl Planner {
    pub fn new(acc: AcceleratorConfig, cfg: ManagerConfig) -> Self {
        Planner {
            acc,
            cfg,
            layers: LayerPlanner::new(acc, cfg),
        }
    }

    /// Share `memo` across this planner's selection passes (and with any
    /// other planner holding a clone of the same `Arc`).
    #[must_use]
    pub fn with_memo(mut self, memo: Arc<LayerMemo>) -> Self {
        self.layers = self.layers.clone().with_memo(memo);
        self
    }

    pub fn accelerator(&self) -> &AcceleratorConfig {
        &self.acc
    }

    pub fn config(&self) -> &ManagerConfig {
        &self.cfg
    }

    /// The layer-level planner backing the selection pass.
    pub fn layer_planner(&self) -> &LayerPlanner {
        &self.layers
    }

    /// Plan `net` under `scheme` — the single entry point the cache key,
    /// serve worker, CLI, and sweeps dispatch through.
    pub fn plan(
        &self,
        net: &Network,
        scheme: PlanScheme,
        cancel: &CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        match scheme {
            PlanScheme::Heterogeneous => self.heterogeneous_with(net, cancel),
            PlanScheme::BestHomogeneous => self.best_homogeneous_with(net, cancel),
        }
    }

    /// The heterogeneous execution plan (`Het`): Algorithm 1 applied per
    /// layer under the configured scheduler. With
    /// [`SchedulerKind::Global`](crate::SchedulerKind) the greedy plan is
    /// still built first — the global pass must beat it or fall back to
    /// it byte-identically.
    pub fn heterogeneous_with(
        &self,
        net: &Network,
        cancel: &CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        match self.cfg.scheduler {
            crate::SchedulerKind::Greedy => self.greedy_heterogeneous_with(net, cancel),
            crate::SchedulerKind::Global => crate::global::heterogeneous(self, net, cancel),
        }
    }

    /// The greedy heterogeneous pipeline (selection → inter-layer →
    /// finish), regardless of the configured scheduler. The global pass
    /// uses this as its fallback baseline.
    pub(crate) fn greedy_heterogeneous_with(
        &self,
        net: &Network,
        cancel: &CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        let _net_span = smm_obs::span!("plan.network", "{} ({})", net.name, "het");
        let decisions = self.selection_pass(net, None, cancel)?;
        Ok(self.finish_pass(net, Scheme::Heterogeneous, decisions))
    }

    /// A homogeneous execution plan: every layer constrained to `kind`,
    /// under the configured scheduler.
    pub fn homogeneous_with(
        &self,
        net: &Network,
        kind: PolicyKind,
        cancel: &CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        match self.cfg.scheduler {
            crate::SchedulerKind::Greedy => self.greedy_homogeneous_with(net, kind, cancel),
            crate::SchedulerKind::Global => crate::global::homogeneous(self, net, kind, cancel),
        }
    }

    /// The greedy homogeneous pipeline, regardless of the configured
    /// scheduler. The global pass uses this as its fallback baseline.
    pub(crate) fn greedy_homogeneous_with(
        &self,
        net: &Network,
        kind: PolicyKind,
        cancel: &CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        let _net_span = smm_obs::span!("plan.network", "{} (hom {:?})", net.name, kind);
        let decisions = self.selection_pass(net, Some(kind), cancel)?;
        Ok(self.finish_pass(net, Scheme::Homogeneous(kind), decisions))
    }

    /// The best homogeneous plan under the objective (`Hom` in the
    /// figures): evaluate all named policies and keep the lexicographic
    /// winner. A fired token aborts the whole evaluation rather than
    /// returning a partially-compared winner.
    pub fn best_homogeneous_with(
        &self,
        net: &Network,
        cancel: &CancelToken,
    ) -> Result<ExecutionPlan, PlanError> {
        let mut best: Option<ExecutionPlan> = None;
        let mut last_err = None;
        for kind in PolicyKind::NAMED {
            match self.homogeneous_with(net, kind, cancel) {
                Ok(plan) => {
                    let obj = self.cfg.objective;
                    let better = best.as_ref().is_none_or(|b| {
                        obj.key(plan.totals.accesses_elems, plan.totals.latency_cycles)
                            < obj.key(b.totals.accesses_elems, b.totals.latency_cycles)
                    });
                    if better {
                        best = Some(plan);
                    }
                }
                Err(e @ PlanError::Cancelled { .. }) => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        best.ok_or_else(|| last_err.expect("at least one policy attempted"))
    }

    /// Pass 1 — per-layer selection, in layer order. The token is checked
    /// per layer, so a fired deadline aborts within one layer's planning
    /// time and reports how many layers had completed.
    fn selection_pass(
        &self,
        net: &Network,
        constraint: Option<PolicyKind>,
        cancel: &CancelToken,
    ) -> Result<Vec<LayerDecision>, PlanError> {
        if cancel.is_cancelled() {
            return Err(PlanError::Cancelled { layers_done: 0 });
        }
        net.layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                if cancel.is_cancelled() {
                    return Err(PlanError::Cancelled { layers_done: i });
                }
                let _layer_span = smm_obs::span!("plan.layer", "{}", layer.name);
                let est = match constraint {
                    None => self.layers.select(&layer.shape),
                    Some(kind) => self.layers.select_constrained(kind, &layer.shape),
                };
                let est = est.ok_or_else(|| PlanError::LayerDoesNotFit {
                    layer: layer.name.clone(),
                    glb_elements: self.acc.glb_elements(),
                })?;
                if constraint.is_none() {
                    smm_obs::add(smm_obs::Counter::PlannerLayersPlanned, 1);
                }
                Ok(LayerDecision::new(i, layer.name.clone(), est))
            })
            .collect()
    }

    /// Passes 2 and 3 — the Section 5.4 inter-layer rewrite (when
    /// enabled) followed by plan assembly and totals refresh. Prefetch
    /// accounting (the Eq. 2 allocation doubling) already happened per
    /// candidate inside the selection pass; the finish pass only folds
    /// the per-layer results into plan totals.
    fn finish_pass(
        &self,
        net: &Network,
        scheme: Scheme,
        decisions: Vec<LayerDecision>,
    ) -> ExecutionPlan {
        let mut plan = ExecutionPlan::new(net.name.clone(), scheme, decisions, &self.acc);
        if self.cfg.inter_layer_reuse {
            crate::interlayer::apply(&mut plan, net, &self.acc, self.cfg.objective);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use smm_arch::ByteSize;
    use smm_model::zoo;

    fn planner(kb: u64, objective: Objective) -> Planner {
        Planner::new(
            AcceleratorConfig::paper_default(ByteSize::from_kb(kb)),
            ManagerConfig::new(objective),
        )
    }

    #[test]
    fn memoized_plan_is_identical_to_unmemoized() {
        for objective in [Objective::Accesses, Objective::Latency] {
            for kb in [64, 256] {
                let plain = planner(kb, objective);
                let memo = Arc::new(LayerMemo::default());
                let memoized = planner(kb, objective).with_memo(Arc::clone(&memo));
                for net in zoo::all_networks() {
                    let a = plain
                        .heterogeneous_with(&net, &CancelToken::none())
                        .unwrap();
                    let b = memoized
                        .heterogeneous_with(&net, &CancelToken::none())
                        .unwrap();
                    assert_eq!(a, b, "{} @ {kb}kB {objective:?}", net.name);
                }
            }
        }
    }

    #[test]
    fn memo_hits_repeated_shapes_within_one_network() {
        let memo = Arc::new(LayerMemo::default());
        let p = planner(64, Objective::Accesses).with_memo(Arc::clone(&memo));
        let net = zoo::resnet18();
        p.heterogeneous_with(&net, &CancelToken::none()).unwrap();
        let distinct: std::collections::HashSet<_> = net.layers.iter().map(|l| l.shape).collect();
        let stats = memo.stats();
        assert_eq!(stats.misses as usize, distinct.len());
        assert_eq!(
            stats.hits as usize,
            net.layers.len() - distinct.len(),
            "every repeated shape must hit"
        );
        assert!(stats.hits > 0, "ResNet-18 has repeated blocks");
        assert_eq!(memo.len(), distinct.len());
    }

    #[test]
    fn memo_is_shared_across_plans_of_the_same_model() {
        let memo = Arc::new(LayerMemo::default());
        let p = planner(64, Objective::Accesses).with_memo(Arc::clone(&memo));
        let net = zoo::resnet18();
        p.heterogeneous_with(&net, &CancelToken::none()).unwrap();
        let after_first = memo.stats();
        p.heterogeneous_with(&net, &CancelToken::none()).unwrap();
        let after_second = memo.stats();
        // The second plan is all hits: same shapes, same accelerator.
        assert_eq!(after_second.misses, after_first.misses);
        assert_eq!(
            after_second.hits,
            after_first.hits + net.layers.len() as u64
        );
        assert!(after_second.hit_rate() > after_first.hit_rate());
    }

    #[test]
    fn memo_distinguishes_constraint_and_accelerator() {
        let memo = Arc::new(LayerMemo::default());
        let net = zoo::resnet18();
        let p64 = planner(64, Objective::Accesses).with_memo(Arc::clone(&memo));
        let p256 = planner(256, Objective::Accesses).with_memo(Arc::clone(&memo));
        let a64 = p64.heterogeneous_with(&net, &CancelToken::none()).unwrap();
        let a256 = p256.heterogeneous_with(&net, &CancelToken::none()).unwrap();
        // Different GLB sizes must not share entries: the plans differ.
        assert_ne!(a64.totals.accesses_elems, a256.totals.accesses_elems);
        // Constrained and unconstrained selections are keyed apart too.
        let hom = p64
            .homogeneous_with(&net, PolicyKind::P2FilterReuse, &CancelToken::none())
            .unwrap();
        assert_eq!(
            a64,
            p64.heterogeneous_with(&net, &CancelToken::none()).unwrap()
        );
        assert_ne!(a64, hom);
    }

    #[test]
    fn zero_capacity_memo_still_plans_correctly() {
        let memo = Arc::new(LayerMemo::new(0));
        let p = planner(64, Objective::Accesses).with_memo(Arc::clone(&memo));
        let net = zoo::resnet18();
        let with = p.heterogeneous_with(&net, &CancelToken::none()).unwrap();
        let without = planner(64, Objective::Accesses)
            .heterogeneous_with(&net, &CancelToken::none())
            .unwrap();
        assert_eq!(with, without);
        assert!(memo.is_empty(), "capacity 0 must never insert");
        assert_eq!(memo.stats().hits, 0);
    }

    #[test]
    fn plan_dispatches_on_scheme() {
        let p = planner(64, Objective::Accesses);
        let net = zoo::resnet18();
        let het = p
            .plan(&net, PlanScheme::Heterogeneous, &CancelToken::none())
            .unwrap();
        let hom = p
            .plan(&net, PlanScheme::BestHomogeneous, &CancelToken::none())
            .unwrap();
        assert_eq!(
            het,
            p.heterogeneous_with(&net, &CancelToken::none()).unwrap()
        );
        assert_eq!(
            hom,
            p.best_homogeneous_with(&net, &CancelToken::none()).unwrap()
        );
    }

    #[test]
    fn cancelled_selection_reports_progress() {
        let p = planner(64, Objective::Accesses);
        let net = zoo::resnet18();
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            p.heterogeneous_with(&net, &expired).unwrap_err(),
            PlanError::Cancelled { layers_done: 0 }
        );
    }
}
