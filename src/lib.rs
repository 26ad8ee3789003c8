//! Scratchpad memory management for deep learning accelerators.
//!
//! Umbrella crate re-exporting the workspace API. See the individual
//! crates for the subsystems:
//!
//! - [`arch`] — accelerator specification (PE array, GLB size, bandwidth).
//! - [`model`] — CNN layer descriptions, the six-network model zoo, topology IO.
//! - [`policy`] — the on-chip memory policies of Section 3.2 and their estimators.
//! - [`core`] — the memory-management analyser (Algorithm 1), execution plans,
//!   prefetching and inter-layer reuse passes.
//! - [`trace`] — address streams and the SRAM/DRAM models behind the baseline.
//! - [`systolic`] — the SCALE-Sim-like output-stationary baseline accelerator.
//! - [`exec`] — executable tile schedules that replay each policy against the
//!   memory models and validate the estimators element-for-element.
//! - [`obs`] — planner observability: counters, span timings, profile
//!   reports, Chrome-trace export.
//! - [`serve`] — the concurrent planning server: JSON-lines over TCP
//!   with an LRU plan cache, load shedding, and per-request deadlines.
//! - [`check`] — the static plan verifier behind `smm check` and its
//!   SMM001–SMM011 diagnostics.
//! - [`sim`] — the discrete-event execution simulator: DMA prefetch
//!   queue, DRAM channel contention, fault injection, SMM011
//!   cross-checks against the analytic model.
//! - [`lint`] — the static dataflow analyzer for lowered DMA command
//!   streams behind `smm lint` and its SMM012–SMM018 diagnostics:
//!   hazard proofs, occupancy proofs, redundant-transfer detection.
//! - [`fleet`] — sharded multi-node planning: a consistent-hash router
//!   over serve nodes with backend health tracking and warm-cache
//!   handoff on membership changes.
//! - [`stream`] — windowed traffic analytics: compact request events,
//!   watermark-driven tumbling/sliding window aggregation, and
//!   the per-cell statistics behind the serve stack's pre-warm and
//!   predictive-shed controllers.
//!
//! # Quickstart
//!
//! The README's quickstart, verified as a doctest:
//!
//! ```
//! use scratchpad_mm::arch::{AcceleratorConfig, ByteSize};
//! use scratchpad_mm::core::{Manager, ManagerConfig, Objective};
//! use scratchpad_mm::model::zoo;
//!
//! // The paper's accelerator: 16×16 PEs, 512 OPs/cycle, 8-bit data,
//! // 16 B/cycle DRAM bandwidth, 64 kB unified GLB.
//! let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
//! let manager = Manager::new(acc, ManagerConfig::new(Objective::Accesses));
//!
//! let plan = manager.heterogeneous(&zoo::resnet18()).unwrap();
//! println!("{:.2} MB off-chip, {} cycles",
//!          plan.totals.accesses_bytes.mb(), plan.totals.latency_cycles);
//! for d in &plan.decisions {
//!     println!("{:<14} -> {}{}", d.layer_name, d.estimate.kind,
//!              if d.estimate.prefetch { "+p" } else { "" });
//! }
//! # assert_eq!(plan.decisions.len(), 21);
//! # assert!(plan.totals.accesses_bytes.mb() > 0.0);
//! ```
pub use smm_arch as arch;
pub use smm_check as check;
pub use smm_core as core;
pub use smm_exec as exec;
pub use smm_fleet as fleet;
pub use smm_lint as lint;
pub use smm_model as model;
pub use smm_obs as obs;
pub use smm_policy as policy;
pub use smm_serve as serve;
pub use smm_sim as sim;
pub use smm_stream as stream;
pub use smm_systolic as systolic;
pub use smm_trace as trace;
