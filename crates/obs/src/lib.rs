//! Observability for the GSWITCH autotuner: a lock-cheap metrics
//! registry, a decision trace of the Inspector→Selector→Executor loop,
//! and analytics over exported traces.
//!
//! The paper's evaluation hinges on *why* a configuration was chosen —
//! which features drove the Selector, whether the stability bypass
//! skipped it, how far the expectation missed the measurement. This
//! crate captures exactly that, one [`TraceEvent`] per engine
//! iteration, behind a [`Recorder`] trait that costs a null-check when
//! disabled:
//!
//! * [`metrics`] — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s with mergeable snapshots and p50/p95/p99 estimates.
//! * [`trace`] — the per-iteration [`TraceEvent`], the bounded
//!   [`TraceRing`] it lands in, and JSONL export/import.
//! * [`summary`] — switch counts, direction-flip timeline, regret and
//!   load-balance imbalance; what the `gswitch-trace` binary prints.
//! * [`span`] — causal wall-clock spans: RAII guards with explicit
//!   parent ids over a monotonic [`Clock`], bounded per-thread buffers
//!   merged into a [`SpanRing`], Chrome trace-event timeline export and
//!   the self-time [`profile`] behind `gswitch-trace --timeline` /
//!   `--profile`.
//! * [`faults`] — the workspace's one fault-injection registry: named
//!   sites, seeded schedules, no-ops unless the `fault-injection`
//!   feature is on.
//! * [`sync`] — poison-recovering lock wrappers, so one panicking
//!   thread cannot wedge every other holder of shared state.
//!
//! Counts of the tuner's fallbacks are not kept here: each is returned
//! with its outcome (a model load's report, a run's sentinel report)
//! and, when serving, summed in the runtime's [`MetricsRegistry`].

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod faults;
pub mod metrics;
pub mod span;
pub mod summary;
pub mod sync;
pub mod trace;
mod wire;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    LATENCY_MS_BUCKETS, SIZE_BUCKETS,
};
pub use span::{
    parse_spans_jsonl, profile, timeline_json, Clock, KindProfile, LocalSpans, SpanCollector,
    SpanCtx, SpanGuard, SpanKind, SpanProfile, SpanRecord, SpanRing, ADMISSION_WORKER,
};
pub use summary::{
    parse_jsonl, resilience_summary, summarize, DirectionFlip, LbStats, ParsedTrace, TraceSummary,
};
pub use trace::{Provenance, Recorder, RecorderHandle, StampedEvent, TraceEvent, TraceRing};
