//! `smm-serve` — a concurrent planning server for the scratchpad
//! memory manager.
//!
//! Turns the offline planner into a daemon: clients send JSON-lines
//! requests over TCP (`{"model":"resnet18","glb_kb":64}`) and receive
//! the full execution plan as JSON. Built entirely on `std::net`, raw
//! `epoll` FFI, and the repo's hand-written JSON — no external serving
//! frameworks, no vendored I/O crates.
//!
//! The moving parts, each in its own module:
//!
//! - [`protocol`] — the wire format: request parsing (strict, never
//!   panics on garbage) and deterministic response rendering, with
//!   allocation-free `_into` renderers for the reactor hot path.
//! - [`epoll`] — a thin safe wrapper over the Linux `epoll` and
//!   `eventfd` syscalls (hand-rolled FFI; no `libc` crate).
//! - [`frame`] — per-connection reusable buffers: newline framing
//!   tolerant of partial reads and a write buffer tolerant of partial
//!   writes, both grow-once/recycle-on-keepalive.
//! - [`reactor`] — the sharded, shared-nothing event loop: one epoll
//!   reactor per core, connections pinned at accept time, protocol
//!   logic plugged in via [`LineHandler`].
//! - [`queue`] — bounded MPMC queues; [`ShardedQueue`] stripes them
//!   per reactor shard with work-stealing workers. When a stripe is
//!   full new requests are *shed* with an explicit response instead of
//!   queuing without bound.
//! - [`admission`] — one admission decision per cache miss over one
//!   estimator type: the static queue cap, an effective cap that keeps
//!   queue *time* (not length) bounded under slow-plan overload, and
//!   the cell's predicted miss cost against the request's deadline.
//! - [`stream_hub`] — windowed traffic analytics: reactor shards and
//!   workers tap terminal request outcomes into lock-free SPSC lanes; a
//!   collector drains them into watermark-driven tumbling and sliding
//!   [`smm_stream`] windows, keeps a per-cell predicted-cost book, and
//!   ranks pre-warm candidates by arrival rate × predicted cost.
//! - [`server`] — wires the above into the planning server: shared
//!   [`smm_core::PlanCache`] with inline cache hits answered on the
//!   reactor, per-request deadlines (enforced cooperatively inside the
//!   planning loops via [`smm_core::CancelToken`]), and graceful
//!   draining shutdown.
//! - [`loadgen`] — an epoll-based closed-loop load generator driving
//!   thousands of concurrent connections from one thread, reporting
//!   throughput, p50/p95/p99 latency, cache hit rate, and shed counts.
//!
//! # Example
//!
//! ```
//! use smm_serve::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let handle = Server::spawn(ServerConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(handle.local_addr()).unwrap();
//! writeln!(conn, r#"{{"model":"resnet18"}}"#).unwrap();
//! let mut response = String::new();
//! BufReader::new(conn.try_clone().unwrap()).read_line(&mut response).unwrap();
//! assert!(response.contains("\"status\":\"ok\""));
//! handle.stop();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod epoll;
pub mod frame;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod stream_hub;

pub use admission::{Admission, Decision, Estimate, ShedReason};
pub use loadgen::{
    parse_mix, CellTally, LoadgenConfig, LoadgenReport, MixEntry, NodeTally, ServerStats,
};
pub use protocol::{Op, Request};
pub use queue::{BoundedQueue, PushError, ShardedQueue, TryPop};
pub use reactor::{Completion, LineHandler, Outcome, Reactor, ReactorConfig};
pub use server::{key_memo, Server, ServerConfig, ServerHandle};
