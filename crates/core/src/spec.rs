//! The serializable description of one planning job.
//!
//! [`PlanSpec`] is the single source of truth every planning entry
//! point reduces to: the CLI's parsed arguments, a serve request, and
//! one cell of a sweep all build a spec, and the cache key
//! ([`PlanKey::from_spec`]), the planner configuration, and the plan
//! itself are derived from it. Adding a knob means adding a field here
//! (and to the key derivation) — a local change instead of a five-site
//! one.

use crate::cache::{PlanKey, PlanScheme};
use crate::manager::{ManagerConfig, PlanError};
use crate::plan::ExecutionPlan;
use crate::planner::Planner;
use crate::CancelToken;
use smm_arch::AcceleratorConfig;
use smm_model::{topology, zoo, Network};

/// How a spec names its network: a bundled zoo model or an inline
/// topology in the CSV format of [`smm_model::topology`]. Both forms
/// are plain data, so a spec can travel through config files and the
/// serve protocol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NetworkRef {
    /// A bundled model, looked up via [`zoo::by_name`]
    /// (case-insensitive).
    Zoo(String),
    /// An inline topology: display name plus CSV layer rows.
    Inline { name: String, topology: String },
}

impl NetworkRef {
    /// Reference an already-built network by embedding its CSV form.
    /// Round-tripping through the topology format is lossless, so plans
    /// derived from the ref match plans of the original network.
    pub fn from_network(net: &Network) -> Self {
        NetworkRef::Inline {
            name: net.name.clone(),
            topology: topology::write(net),
        }
    }

    /// The display name of the referenced network.
    pub fn name(&self) -> &str {
        match self {
            NetworkRef::Zoo(name) | NetworkRef::Inline { name, .. } => name,
        }
    }

    /// Materialize the network.
    pub fn resolve(&self) -> Result<Network, PlanError> {
        match self {
            NetworkRef::Zoo(name) => zoo::by_name(name).ok_or_else(|| PlanError::InvalidSpec {
                message: format!("unknown model {name:?}"),
            }),
            NetworkRef::Inline { name, topology } => topology::parse(name.clone(), topology)
                .map_err(|e| PlanError::InvalidSpec {
                    message: format!("bad topology: {e}"),
                }),
        }
    }
}

/// A complete, serializable planning job: network reference,
/// accelerator, manager knobs, scheme, and batch size. See the module
/// docs for how the entry points use it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    pub network: NetworkRef,
    pub accelerator: AcceleratorConfig,
    pub config: ManagerConfig,
    pub scheme: PlanScheme,
    /// Inference batch size (1 = single-image planning; the batch
    /// totals of `smm_core::batch` scale from the per-image plan).
    pub batch: u64,
}

impl PlanSpec {
    /// A spec with the default batch size of 1.
    pub fn new(
        network: NetworkRef,
        accelerator: AcceleratorConfig,
        config: ManagerConfig,
        scheme: PlanScheme,
    ) -> Self {
        PlanSpec {
            network,
            accelerator,
            config,
            scheme,
            batch: 1,
        }
    }

    #[must_use]
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Materialize the network reference.
    pub fn resolve(&self) -> Result<Network, PlanError> {
        self.network.resolve()
    }

    /// The canonical cache key of this spec ([`PlanKey::from_spec`]).
    /// `net` must be the result of [`resolve`](Self::resolve).
    pub fn cache_key(&self, net: &Network) -> PlanKey {
        PlanKey::from_spec(self, net)
    }

    /// A planner configured for this spec (no memo; attach one with
    /// [`Planner::with_memo`]).
    pub fn planner(&self) -> Planner {
        Planner::new(self.accelerator, self.config)
    }

    /// Resolve and plan in one step — the short path for callers that
    /// don't need the network for anything else.
    pub fn run(&self, cancel: &CancelToken) -> Result<ExecutionPlan, PlanError> {
        let net = self.resolve()?;
        self.planner().plan(&net, self.scheme, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Manager, Objective};
    use smm_arch::ByteSize;

    fn spec(network: NetworkRef) -> PlanSpec {
        PlanSpec::new(
            network,
            AcceleratorConfig::paper_default(ByteSize::from_kb(64)),
            ManagerConfig::new(Objective::Accesses),
            PlanScheme::Heterogeneous,
        )
    }

    #[test]
    fn zoo_ref_resolves_case_insensitively() {
        let net = NetworkRef::Zoo("ResNet18".into()).resolve().unwrap();
        assert_eq!(net, zoo::resnet18());
    }

    #[test]
    fn unknown_model_is_an_invalid_spec() {
        let err = spec(NetworkRef::Zoo("nope".into())).run(&CancelToken::none());
        assert!(
            matches!(err, Err(PlanError::InvalidSpec { ref message }) if message.contains("nope"))
        );
    }

    #[test]
    fn malformed_topology_is_an_invalid_spec() {
        let r = NetworkRef::Inline {
            name: "bad".into(),
            topology: "not,a,topology".into(),
        };
        assert!(matches!(
            r.resolve(),
            Err(PlanError::InvalidSpec { ref message }) if message.contains("bad topology")
        ));
    }

    #[test]
    fn inline_ref_plans_identically_to_the_zoo_model() {
        let net = zoo::resnet18();
        let inline = spec(NetworkRef::from_network(&net));
        let zoo_spec = spec(NetworkRef::Zoo("resnet18".into()));
        assert_eq!(inline.network.name(), "ResNet18");
        let a = inline.run(&CancelToken::none()).unwrap();
        let b = zoo_spec.run(&CancelToken::none()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn spec_run_matches_manager_facade() {
        let s = spec(NetworkRef::Zoo("mobilenet".into()));
        let net = s.resolve().unwrap();
        let m = Manager::new(s.accelerator, s.config);
        assert_eq!(
            s.run(&CancelToken::none()).unwrap(),
            m.heterogeneous(&net).unwrap()
        );
        let hom = PlanSpec {
            scheme: PlanScheme::BestHomogeneous,
            ..s
        };
        assert_eq!(
            hom.run(&CancelToken::none()).unwrap(),
            m.best_homogeneous(&net).unwrap()
        );
    }

    #[test]
    fn every_spec_field_feeds_the_cache_key() {
        let s = spec(NetworkRef::Zoo("resnet18".into()));
        let net = s.resolve().unwrap();
        let base = s.cache_key(&net);
        assert_eq!(base, s.clone().cache_key(&net), "key must be deterministic");
        assert_ne!(base, s.clone().with_batch(4).cache_key(&net));
        let mut other = s.clone();
        other.scheme = PlanScheme::BestHomogeneous;
        assert_ne!(base, other.cache_key(&net));
        let mut other = s.clone();
        other.config = other.config.with_prefetch(false);
        assert_ne!(base, other.cache_key(&net));
        let mut other = s.clone();
        other.config = other.config.with_scheduler(crate::SchedulerKind::Global);
        assert_ne!(base, other.cache_key(&net));
        let mut other = s;
        other.accelerator = other.accelerator.with_glb(ByteSize::from_kb(128));
        assert_ne!(base, other.cache_key(&net));
    }

    #[test]
    fn cancelled_spec_run_propagates() {
        let s = spec(NetworkRef::Zoo("resnet18".into()));
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            s.run(&expired).unwrap_err(),
            PlanError::Cancelled { layers_done: 0 }
        );
    }
}
