//! Partitioned execution + batched multi-query serving: the glue between
//! the sharded engine driver ([`gswitch_core::sharded`]) and a resident
//! service.
//!
//! The single-query runtime amortizes *tuning* across queries; this
//! crate additionally amortizes the **partitioning**: cutting a graph
//! into K shards (renumbering, halo tables, per-shard stats) costs more
//! than one traversal, so it only pays off when the sharded form stays
//! resident and many queries run against it — ideally at the same time,
//! since K shard workers give a single query at most K-way parallelism
//! but a *batch* keeps every worker busy across query boundaries.
//!
//! - [`store`] — [`ShardStore`]: a bounded cache of partitioned graphs
//!   keyed by graph identity and K, each entry an `Arc` shared by every
//!   in-flight query.
//! - [`batch`] — [`run_query`]: one query over a resident
//!   [`ShardPlan`]; and [`execute_batch`]: a set of concurrent queries
//!   against one plan on a panic-isolated slot pool, reporting
//!   per-query outcomes plus batch-level occupancy, exchange volume,
//!   and shard imbalance.
//!
//! `gswitch-runtime`'s scheduler runs a sharded job through
//! [`run_query`] over its own [`ShardStore`] (the `batch` request and
//! `--shards K` of `gswitch-serve`); [`execute_batch`] is the library
//! call the perf ledger and the benchmark drive. This crate stays
//! independent of the runtime so the partitioned path is testable
//! without a scheduler.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod store;

pub use batch::{
    execute_batch, run_query, BatchOptions, BatchOutcome, BatchQuery, BatchReport, BatchResult,
    QueryStatus,
};
pub use store::{ShardPlan, ShardStore};
