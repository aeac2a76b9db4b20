//! # vagg-mem
//!
//! The memory-system substrate for the ISCA 2016 aggregation-vectorisation
//! paper: set-associative caches ([`cache`]), XOR-based L2 set interleaving
//! ([`xor`]), a DDR3-1333 DRAM timing model replacing DRAMSim2 ([`dram`]),
//! and the composed hierarchy with the paper's vector L1-bypass path
//! ([`hierarchy`]).
//!
//! Timing is request-level: each access returns the processor cycle at which
//! it completes, letting the out-of-order model in `vagg-cpu` overlap
//! memory operations while still observing bank conflicts, row-buffer
//! locality and bus occupancy.

#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod hierarchy;
#[cfg(test)]
mod reference;
// The reservation lists' storage, one source file for both timing
// crates (neither depends on the other): see its module docs.
#[path = "../../cpu/src/window.rs"]
mod window;
pub mod xor;

pub use cache::{Access, Cache, CacheStats};
pub use dram::{Dram, DramParams, DramStats, RowOutcome};
pub use hierarchy::{HierarchyParams, HierarchyStats, MemoryHierarchy};
pub use xor::poly_mod_index;
