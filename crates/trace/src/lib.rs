//! Address streams and memory models behind the baseline simulator.
//!
//! SCALE-Sim-style simulators work by generating the address streams a
//! systolic array demands and replaying them against double-buffered
//! scratchpads backed by DRAM. This crate provides those pieces:
//!
//! - [`AddressMap`] — a flat element-granular address layout for one
//!   layer's ifmap / filter / ofmap operands.
//! - [`Scratchpad`] — a capacity-limited resident set with explicit
//!   fill/evict, counting the DRAM traffic its misses cause.
//! - [`DramCounter`] — thread-safe read/write accounting, convertible to
//!   transfer cycles at a configured bandwidth.
//!
//! # Example
//!
//! ```
//! use smm_trace::{DramCounter, Scratchpad};
//!
//! let dram = DramCounter::new();
//! let mut sp = Scratchpad::new(100, dram.clone());
//! sp.fill(0..60).unwrap();   // 60 misses
//! sp.fill(40..80).unwrap();  // 20 new elements
//! assert_eq!(dram.reads(), 80);
//! assert_eq!(sp.resident_count(), 80);
//! ```

mod address;
mod dram;
mod scratchpad;

pub use address::{AddressMap, Region};
pub use dram::DramCounter;
pub use scratchpad::Scratchpad;
