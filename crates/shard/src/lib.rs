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
//!   keyed by (graph name, K), each entry an `Arc` shared by every
//!   in-flight query.
//! - [`batch`] — [`BatchQuery`]/[`execute_batch`]: run a set of
//!   concurrent queries against one resident [`ShardPlan`] on a
//!   panic-isolated worker pool, reporting per-query outcomes plus
//!   batch-level occupancy, exchange volume, and shard imbalance.
//! - [`quota`] — [`TenantQuotas`]: per-tenant in-flight admission
//!   caps with RAII release, so one tenant's burst cannot monopolize
//!   the batch slots.
//!
//! `gswitch-runtime` mounts all three behind the `gswitch-serve`
//! protocol (`--shards K`, the `batch` request); this crate stays
//! independent of the runtime so the partitioned path is testable
//! without a scheduler.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
pub mod quota;
pub mod store;

pub use batch::{
    execute_batch, BatchOptions, BatchOutcome, BatchQuery, BatchReport, BatchResult, QueryStatus,
};
pub use quota::{QuotaError, QuotaPermit, TenantQuotas};
pub use store::{ShardPlan, ShardStore};
