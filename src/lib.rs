//! # vagg — Vector Microprocessor Extensions for Data Aggregations
//!
//! A full reproduction of Hayes, Palomar, Unsal, Cristal & Valero,
//! *"Future Vector Microprocessor Extensions for Data Aggregations"*
//! (ISCA 2016): the simulated vector machine, the VPI/VLU/VGAx
//! irregular-DLP instructions, the six aggregation algorithms and the
//! complete experimental grid.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`isa`] — the vector instruction set (functional semantics + timing
//!   metadata, CAM model for the irregular instructions);
//! * [`mem`] — caches, XOR-interleaved L2 placement, DDR3-1333 DRAM;
//! * [`cpu`] — the out-of-order superscalar timing model (Table I);
//! * [`sim`] — the [`sim::Machine`] fusing all of the
//!   above with a simulated address space;
//! * [`datagen`] — the 110-dataset workload grid (5 distributions × 22
//!   cardinalities);
//! * [`sort`] — vectorised radix sort and VSR sort (full + partial);
//! * [`core`] — the aggregation algorithms and adaptive selection;
//! * [`db`] — a miniature column-store query engine tying it together,
//!   built around a plan/execute split: typed [`db::QueryPlan`]s (with
//!   `EXPLAIN`), reusable [`db::Session`]s, typed [`db::PlanError`]s,
//!   and a serving layer — a [`db::PlanCache`] keyed by normalized
//!   query shape, [`db::PreparedStatement`]s (`?` placeholders, bind
//!   per execution), a [`db::SharedCatalogue`] for concurrent
//!   sessions, and a [`db::ShardedDatabase`] merging partial
//!   aggregates — composite `GROUP BY` included, fused in one key
//!   space from the plan's global key domains — across morsels run on
//!   a persistent work-stealing [`db::Executor`] pool.
//!
//! ## Quickstart
//!
//! ```
//! use vagg::core::{run_algorithm, Algorithm, reference};
//! use vagg::datagen::{DatasetSpec, Distribution};
//! use vagg::sim::SimConfig;
//!
//! // One cell of the paper's grid: zipf keys, max cardinality 1,220.
//! let ds = DatasetSpec::paper(Distribution::Zipf, 1_220)
//!     .with_rows(20_000)
//!     .generate();
//!
//! // Run the paper's monotable algorithm on the simulated machine.
//! let run = run_algorithm(Algorithm::Monotable, &SimConfig::paper(), &ds);
//! assert_eq!(run.result, reference(&ds.g, &ds.v));
//! println!("monotable: {:.2} cycles/tuple", run.cpt);
//! ```
//!
//! ## Planned queries
//!
//! The query layer separates planning from execution, the shape every
//! real column-store uses: plan once (typed steps, inspectable with
//! `explain()`), then run many plans on one long-lived session machine.
//!
//! ```
//! use vagg::db::{AggregateQuery, Engine, Session, Table};
//!
//! let t = Table::new("r")
//!     .with_column("g", vec![1, 2, 1, 2])
//!     .with_column("v", vec![10, 20, 30, 40]);
//! let plan = Engine::new().plan(&t, &AggregateQuery::paper("g", "v"))?;
//! println!("{}", plan.explain());
//!
//! let mut session = Session::new();
//! let out = session.run(&plan);
//! assert_eq!(out.rows.len(), 2);
//! # Ok::<(), vagg::db::PlanError>(())
//! ```

#![warn(missing_docs)]

pub use vagg_core as core;
pub use vagg_cpu as cpu;
pub use vagg_datagen as datagen;
pub use vagg_db as db;
pub use vagg_isa as isa;
pub use vagg_mem as mem;
pub use vagg_sim as sim;
pub use vagg_sort as sort;

/// The README's Rust blocks, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
