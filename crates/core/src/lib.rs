//! The scratchpad memory-management technique (Section 3.3 of the paper).
//!
//! This crate is the paper's primary contribution: the analyser that
//! matches every layer of a network with the reuse policy that best
//! serves an optimization objective under the GLB capacity constraint.
//!
//! - [`PlanSpec`] — the serializable description of one planning job
//!   (network ref + accelerator + config + scheme + batch), from which
//!   the cache key and the plan are derived.
//! - [`Planner`] — the pass-based pipeline (per-layer selection →
//!   §5.4 inter-layer pass → totals/finish) behind every entry point,
//!   with an optional shape-keyed [`LayerMemo`].
//! - [`Manager`] — Algorithm 1 (objective: off-chip accesses) and its
//!   latency-objective twin as a thin facade over [`Planner`]; produces
//!   [`ExecutionPlan`]s.
//! - [`ExecutionPlan`] — a per-layer policy assignment (homogeneous or
//!   heterogeneous) with traffic/latency totals and coverage metrics.
//! - [`interlayer`] — the inter-layer reuse pass of Section 5.4: when a
//!   layer's ofmap stays resident and the next layer consumes it, the
//!   store and re-load are both elided.
//! - [`global`] — the `GlobalSchedule` pass: an exact dynamic program
//!   over per-layer policy choices *and* inter-layer handoff state,
//!   selected via [`SchedulerKind`] in [`ManagerConfig`]. Beats or
//!   matches the greedy plan on the objective, falling back to it
//!   byte-identically when the search finds nothing strictly better
//!   (see `docs/SCHEDULING.md`).
//! - [`sweep`] — an experiment matrix runner for the
//!   figure-scale sweeps (models × buffer sizes × schemes).
//! - [`cache`] — an LRU cache of plans keyed by the canonical hash of
//!   the full planning input, shared across serving workers.
//! - [`CancelToken`] — cooperative deadlines/cancellation for the
//!   planning loops, checked between layers.
//!
//! # Example
//!
//! ```
//! use smm_arch::{AcceleratorConfig, ByteSize};
//! use smm_core::{Manager, ManagerConfig, Objective};
//! use smm_model::zoo;
//!
//! let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
//! let manager = Manager::new(acc, ManagerConfig::new(Objective::Accesses));
//! let plan = manager.heterogeneous(&zoo::resnet18()).unwrap();
//! assert_eq!(plan.decisions.len(), 21);
//! assert!(plan.totals.accesses_bytes.mb() > 0.0);
//! ```

pub mod batch;
pub mod cache;
mod cancel;
pub mod energy;
pub mod global;
pub mod interlayer;
mod manager;
mod plan;
mod planner;
pub mod predict;
pub mod report;
pub mod runtime;
mod spec;
pub mod sweep;
pub mod tenancy;

pub use cache::{CacheStats, KeyMemo, PlanCache, PlanKey, PlanScheme, KEY_HASH_VERSION};
pub use cancel::CancelToken;
pub use manager::{CandidateReport, Manager, ManagerConfig, Objective, PlanError, SchedulerKind};
pub use plan::{ExecutionPlan, LayerDecision, PlanTotals, Scheme};
pub use planner::{LayerMemo, LayerPlanner, MemoStats, Planner};
pub use predict::{cycles_to_us, predict, PredictedCost};
pub use spec::{NetworkRef, PlanSpec};
