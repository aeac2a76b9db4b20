//! # vagg-bench
//!
//! The harness regenerating every table and figure of the paper's
//! evaluation. The [`grid`] module sweeps the 110-dataset experimental
//! grid and renders figure series (CSV) and speedup tables (markdown);
//! the `repro` binary drives it from the command line
//! (`repro all --rows 1000000 --out results/`). Every number it prints
//! is simulated cycles; `tests/repro_tables.rs` holds a reduced grid's
//! output to the files under `tables/`.
//!
//! The two benches under `benches/` (`morsel`, `join`) time service
//! questions that no `benchmark/` metric asks yet.

#![warn(missing_docs)]

pub mod grid;
pub mod plot;

pub use grid::{Cell, GridRunner, Series, SpeedupTable};
