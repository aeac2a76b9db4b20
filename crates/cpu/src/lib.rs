//! # vagg-cpu
//!
//! Approximate out-of-order superscalar timing model standing in for
//! PTLsim, configured as Table I of the ISCA 2016 aggregation paper
//! (Westmere-like: 4-wide, 128-entry ROB, six scalar execution clusters
//! plus the two vector clusters the paper adds).
//!
//! The model is a greedy scoreboard driven in program order by `vagg-sim`:
//! it applies dispatch bandwidth, ROB occupancy, per-cluster issue queues
//! and widths, functional-unit occupancy and load/store queue capacity, and
//! reports in-order commit times from which total cycle counts derive.

#![warn(missing_docs)]

pub mod params;
pub mod pipeline;
mod window;

pub use params::{CpuParams, FuKind};
pub use pipeline::Pipeline;
