//! # vagg-core
//!
//! The primary contribution of *"Future Vector Microprocessor Extensions
//! for Data Aggregations"* (Hayes et al., ISCA 2016): six implementations
//! of the `SELECT g, COUNT(*), SUM(v) FROM r GROUP BY g` query running on
//! the simulated vector machine, plus the adaptive selector that picks
//! among them at runtime.
//!
//! | algorithm | kind | module |
//! |---|---|---|
//! | scalar baseline | — | [`scalar`] |
//! | standard sorted reduce | evasion | [`sorted_reduce`] |
//! | polytable | evasion | [`polytable`] |
//! | advanced sorted reduce | confrontation | [`sorted_reduce`] |
//! | monotable | confrontation | [`monotable`] |
//! | partially sorted monotable | confrontation | [`psm`] |
//! | adaptive selection | — | [`adaptive`] |
//! | cdi monotable (related work) | comparator | [`related_work`] |
//! | scatter-add monotable (related work) | comparator | [`related_work`] |
//!
//! ```
//! use vagg_core::{run_algorithm, Algorithm, reference};
//! use vagg_datagen::{DatasetSpec, Distribution};
//! use vagg_sim::SimConfig;
//!
//! let ds = DatasetSpec::paper(Distribution::Zipf, 76)
//!     .with_rows(500)
//!     .generate();
//! let run = run_algorithm(Algorithm::Monotable, &SimConfig::paper(), &ds);
//! assert_eq!(run.result, reference(&ds.g, &ds.v));
//! println!("monotable: {:.2} cycles/tuple", run.cpt);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod algorithm;
pub mod compact;
pub mod input;
pub mod minmax;
pub mod monotable;
pub mod multicore;
pub mod polytable;
pub mod prefix;
pub mod psm;
pub mod related_work;
pub mod result;
pub mod scalar;
pub mod sorted_reduce;

pub use adaptive::{run_adaptive, select_algorithm, AdaptiveMode, PlannerInputs};
pub use algorithm::{run_algorithm, AggRun, Algorithm};
pub use input::{OutputTable, StagedInput};
pub use minmax::{minmax_aggregate, reference_minmax, MinMaxResult};
pub use multicore::{cores_to_match, multicore_scalar_aggregate, MulticoreRun};
pub use result::{reference, AggResult, PartialAggregate};
pub use sorted_reduce::SortKind;
