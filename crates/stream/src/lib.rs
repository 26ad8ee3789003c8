//! # smm-stream — windowed traffic analytics for the serving stack
//!
//! The serving layer (smm-serve, PR 9's sharded reactor) classifies
//! every request — inline hit, worker hit, planned miss, shed,
//! deadline, error — but until this crate those classifications only
//! ticked counters: the system could see *that* it was loaded, never
//! *what* the workload mix was. smm-stream turns the request stream
//! into queryable, windowed aggregates and gives the serving layer the
//! raw material for closed-loop decisions:
//!
//! - [`StreamEvent`] / [`CellRegistry`] — one compact `Copy` event per
//!   classified request, tagged with an interned **cell** id (model ×
//!   GLB size × tenant), the unit all aggregation keys on.
//! - [`WindowEngine`] — watermark-driven tumbling and sliding windows
//!   in event time, with allowed lateness, late-event accounting, and
//!   per-cell aggregates (arrivals, outcome mix, latency histogram).
//! - [`WindowStore`] — bounded retention of closed windows, the query
//!   surface for the `stats stream` protocol verb, `smm top`, and the
//!   pre-warming controller in smm-serve.
//!
//! The windowing semantics are documented in [`window`] and pinned by
//! deterministic boundary tests plus a brute-force-replay proptest in
//! `tests/window_semantics.rs`.

#![warn(missing_docs)]

pub mod event;
pub mod window;

pub use event::{CellMeta, CellRegistry, EventKind, StreamEvent};
pub use window::{
    CellAgg, EngineStats, WindowConfig, WindowEngine, WindowSnapshot, WindowStore, LAT_BUCKETS,
};
