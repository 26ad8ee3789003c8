//! Address streams and memory models behind the baseline simulator.
//!
//! SCALE-Sim-style simulators work by generating the address streams a
//! systolic array demands and replaying them against double-buffered
//! scratchpads backed by DRAM. This crate provides those pieces:
//!
//! - [`AddressMap`] — a flat element-granular address layout for one
//!   layer's ifmap / filter / ofmap operands.
//! - [`Scratchpad`] — a capacity-limited resident set with explicit
//!   fill/evict; each fill returns the DRAM reads its misses cause, and
//!   the caller sums them.
//!
//! # Example
//!
//! ```
//! use smm_trace::Scratchpad;
//!
//! let mut sp = Scratchpad::new(100);
//! let mut reads = sp.fill(0..60).unwrap(); // 60 misses
//! reads += sp.fill(40..80).unwrap();       // 20 new elements
//! assert_eq!(reads, 80);
//! assert_eq!(sp.resident_count(), 80);
//! ```

mod address;
mod scratchpad;

pub use address::{AddressMap, Region};
pub use scratchpad::Scratchpad;
