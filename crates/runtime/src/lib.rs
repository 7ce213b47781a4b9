//! Long-lived serving runtime over the gswitch engine.
//!
//! The paper's engine answers one query per process: build a graph, run
//! an algorithm, exit. This crate turns it into a resident service, the
//! deployment shape an autotuner actually pays off in — the tuning work
//! done for one query is remembered and re-applied to the next:
//!
//! - [`registry`] — loads and fingerprints each graph **once**, then
//!   shares it across all queries via `Arc` (plus a lazily built
//!   weighted twin for SSSP).
//! - [`scheduler`] — a bounded-queue worker pool executing typed
//!   queries ([`Query`]) with admission control, per-job timeouts and
//!   cancellation, returning structured [`JobOutcome`]s with
//!   per-iteration traces. The same path runs sharded jobs
//!   ([`Scheduler::submit_sharded`]) over resident K-shard plans
//!   ([`gswitch_shard::ShardStore`]); the `batch` verb and the
//!   `--shards` flag submit one per query.
//! - [`cache`] — the tuned-config cache: keyed by (graph fingerprint,
//!   algorithm, feature bucket), it persists the dominant
//!   [`KernelConfig`](gswitch_kernels::KernelConfig) of a completed run
//!   to disk as JSON and warm-starts later runs through
//!   [`run_with_seed_config`](gswitch_core::run_with_seed_config).
//! - [`faults`] — deterministic fault injection at named sites
//!   (panics, slow iterations, corrupt cache text), compiled to no-ops
//!   unless the `fault-injection` cargo feature is on; the lever the
//!   fault-tolerance integration suite uses to prove the pool survives
//!   panicking jobs, poisoned locks and corrupt cache files.
//! - [`breaker`] / [`brownout`] / [`health`] — overload resilience:
//!   per-(graph, algorithm) circuit breakers that fail fast after
//!   repeated worker failures, degraded-mode serving under sustained
//!   queue pressure, and the `health` verb's per-component report.
//!   Priority-aware load shedding lives in [`scheduler`]; see
//!   DESIGN.md §4.14.
//!
//! The `gswitch-serve` binary speaks line-delimited JSON over
//! stdin/stdout; see `protocol` and the README's "Serving" section.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod breaker;
pub mod brownout;
pub mod cache;
pub mod executor;
pub mod faults;
pub mod health;
pub mod obs;
pub mod protocol;
pub mod query;
pub mod registry;
pub mod scheduler;

pub use breaker::{BreakerConfig, BreakerSet, BreakerState};
pub use brownout::{Brownout, BrownoutConfig};
pub use cache::{CacheCounters, CacheKey, ConfigCache};
pub use executor::{execute, execute_sharded};
pub use health::HealthReport;
pub use obs::RuntimeObs;
pub use query::{IterStat, JobOutcome, JobSpec, JobStatus, Metric, Payload, Priority, Query};
pub use registry::{GraphEntry, GraphRegistry};
pub use scheduler::{JobHandle, Scheduler, SchedulerConfig, SubmitError};
