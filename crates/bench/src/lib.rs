//! # eccparity-bench — the paper-reproduction harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index); this library holds the shared machinery: running the full
//! scheme x workload simulation matrix in parallel, aggregating per-bin
//! statistics, and rendering aligned text tables with the paper's reported
//! values alongside ours.

#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod faultcampaign;
pub mod harness;
pub mod hash;
pub mod provenance;
pub mod supervisor;

pub use cache::{cached_run, print_cache_summary, RunCache, MODEL_VERSION};
pub use harness::*;
pub use provenance::RunMeter;
pub use supervisor::{supervise, OutcomeClass, Shard, SupervisedRun, SupervisorConfig};
