//! The serving runtime's observability root: one shared
//! [`MetricsRegistry`] plus one bounded decision-trace ring, handed to
//! every component so `gswitch-serve` can expose a single unified
//! snapshot through the `stats` and `trace` verbs.
//!
//! Metric names are centralized here (the `metric` module) so the
//! scheduler, the cache and the CLI agree on spelling.

use gswitch_obs::sync::Flag;
use gswitch_obs::{Clock, MetricsRegistry, RecorderHandle, SpanCollector, SpanRing, TraceRing};
use std::sync::Arc;

/// Canonical metric names for the serving runtime.
pub mod metric {
    /// Gauge: jobs currently waiting for a worker.
    pub const QUEUE_DEPTH: &str = "scheduler_queue_depth";
    /// Counter: jobs admitted into the queue.
    pub const JOBS_SUBMITTED: &str = "jobs_submitted";
    /// Counter: submissions refused (queue full, unknown graph).
    pub const JOBS_REJECTED: &str = "jobs_rejected";
    /// Counter: jobs that completed `Ok`.
    pub const JOBS_OK: &str = "jobs_ok";
    /// Counter: jobs that completed `Error`.
    pub const JOBS_ERROR: &str = "jobs_error";
    /// Counter: jobs cancelled — while queued (never ran) or mid-run
    /// (the engine stopped at a super-step boundary).
    pub const JOBS_CANCELLED: &str = "jobs_cancelled";
    /// Counter: jobs that panicked in a worker (status `Failed`); the
    /// worker survived and kept serving.
    pub const JOBS_FAILED: &str = "jobs_failed";
    /// Counter: jobs whose deadline passed while queued (never ran).
    pub const JOBS_TIMEOUT_QUEUED: &str = "jobs_timeout_queued";
    /// Counter: jobs stopped *mid-run* because their deadline passed —
    /// the engine exited cooperatively at the next super-step.
    pub const JOBS_TIMEOUT_MIDRUN: &str = "jobs_timeout_midrun";
    /// Counter: jobs that ran to completion but finished past their
    /// deadline (result withheld).
    pub const JOBS_TIMEOUT_LATE: &str = "jobs_timeout_late";
    /// Counter: transiently-failed jobs resubmitted by the retry layer.
    pub const JOBS_RETRIED: &str = "jobs_retried";
    /// Histogram: admission-to-pickup wait, ms.
    pub const QUEUE_WAIT_MS: &str = "queue_wait_ms";
    /// Histogram: worker execution time per job, ms.
    pub const EXECUTE_MS: &str = "execute_ms";
    /// Histogram: admission-to-terminal-state time per job, ms.
    pub const JOB_TOTAL_MS: &str = "job_total_ms";
    /// Counter: tuned-config cache lookups that found a seed.
    pub const CACHE_HITS: &str = "cache_hits";
    /// Counter: tuned-config cache lookups that found nothing.
    pub const CACHE_MISSES: &str = "cache_misses";
    /// Counter: tuned-config cache writes.
    pub const CACHE_STORES: &str = "cache_stores";
    /// Counter: persisted-cache loads that failed to parse and degraded
    /// to an empty cache.
    pub const CACHE_LOAD_FAILED: &str = "cache_load_failed";
    /// Counter: frontier-exchange records routed between shards.
    pub const SHARD_EXCHANGE_RECORDS: &str = "shard_exchange_records";
    /// Counter: frontier-exchange bytes routed between shards.
    pub const SHARD_EXCHANGE_BYTES: &str = "shard_exchange_bytes";
    /// Histogram: per sharded job, shard busy-time imbalance
    /// (busiest / average; 1.0 = balanced).
    pub const SHARD_IMBALANCE: &str = "shard_imbalance";
    /// Counter: queued jobs dropped by the overload shed policy to
    /// admit higher-priority work (terminal status `Shed`).
    pub const JOBS_SHED: &str = "jobs_shed";
    /// Counter: jobs failed fast because their (graph, algorithm)
    /// circuit breaker was open (terminal status `BreakerOpen`).
    pub const JOBS_BREAKER_OPEN: &str = "jobs_breaker_open";
    /// Counter: breaker transitions Closed/HalfOpen → Open.
    pub const BREAKER_OPENED: &str = "breaker_opened";
    /// Counter: breaker transitions Open → HalfOpen (cooldown elapsed,
    /// one probe admitted).
    pub const BREAKER_HALF_OPEN: &str = "breaker_half_open";
    /// Counter: breaker transitions HalfOpen → Closed (probe succeeded).
    pub const BREAKER_CLOSED: &str = "breaker_closed";
    /// Counter: jobs run without the divergence sentinel because the
    /// queue their worker left behind was at or above the shed
    /// watermark (only counted while the sentinel is on).
    pub const SENTINEL_SKIPPED: &str = "sentinel_skipped";
    /// Counter: divergence-sentinel mismatches, summed over every job's
    /// `RunReport::sentinel`.
    pub const SENTINEL_MISMATCH: &str = "sentinel_mismatch";
    /// Counter: graph-file loads refused with an error (unreadable
    /// file, parse error, size limit, strict-mode repair).
    pub const LOAD_REJECTED: &str = "load_rejected";
    /// Counter: repairs made by repair-mode graph-file loads (self
    /// loops dropped, parallel edges deduped, weights raised).
    pub const EDGES_REPAIRED: &str = "edges_repaired";
    /// Counter: graphs refused by structural validation at
    /// registration.
    pub const GRAPHS_REJECTED: &str = "graphs_rejected";
}

/// Default decision-trace ring capacity (events, not bytes). A
/// ~200-byte event makes this a ≈13 MB worst-case ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Default span-ring capacity. A [`gswitch_obs::SpanRecord`] is 64
/// bytes, so the worst case is a ≈4 MB ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Shared observability state for one serving process.
pub struct RuntimeObs {
    /// The unified metrics registry every component reports into.
    pub metrics: Arc<MetricsRegistry>,
    /// The decision-trace ring engine iterations land in while tracing
    /// is enabled.
    pub trace: Arc<TraceRing>,
    /// The wall-clock span ring: request/queue-wait/execute spans from
    /// the scheduler plus nested super-step phases from the engine.
    /// Always collected (the ring is bounded; recording is one atomic
    /// push), and its clock is the runtime's only wall-time source.
    pub spans: Arc<SpanRing>,
    tracing: Flag,
}

impl RuntimeObs {
    /// Fresh state with the default trace capacity; tracing off.
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Fresh state with an explicit trace-ring capacity; tracing off.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        RuntimeObs {
            metrics: Arc::new(MetricsRegistry::new()),
            trace: Arc::new(TraceRing::new(capacity)),
            spans: Arc::new(SpanRing::new(DEFAULT_SPAN_CAPACITY)),
            tracing: Flag::new(false),
        }
    }

    /// An always-enabled collector over the shared span ring.
    pub fn span_collector(&self) -> SpanCollector {
        self.spans.collector()
    }

    /// The monotonic clock every runtime component times against (the
    /// span ring's clock, so spans and metrics agree on "now").
    pub fn clock(&self) -> Clock {
        self.spans.clock().clone()
    }

    /// Turn decision tracing on or off. Takes effect for jobs whose
    /// execution starts after the call; a worker that observes the
    /// enable also observes any trace-sink setup done before it.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.set(on);
    }

    /// Whether decision tracing is currently on.
    pub fn tracing(&self) -> bool {
        self.tracing.get()
    }

    /// A recorder handle for one job: enabled (stamping `job`/`graph`/
    /// `algo` onto every event) while tracing is on, free otherwise.
    pub fn recorder_for(&self, job: u64, graph: &str, algo: &str) -> RecorderHandle {
        if self.tracing() {
            RecorderHandle::new(self.trace.recorder(job, graph, algo))
        } else {
            RecorderHandle::none()
        }
    }
}

impl Default for RuntimeObs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RuntimeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeObs")
            .field("tracing", &self.tracing())
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_follows_tracing_flag() {
        let obs = RuntimeObs::new();
        assert!(!obs.recorder_for(1, "g", "bfs").is_enabled());
        obs.set_tracing(true);
        assert!(obs.tracing());
        assert!(obs.recorder_for(1, "g", "bfs").is_enabled());
        obs.set_tracing(false);
        assert!(!obs.recorder_for(1, "g", "bfs").is_enabled());
    }

    #[test]
    fn events_recorded_through_handle_land_in_the_ring() {
        let obs = RuntimeObs::with_trace_capacity(8);
        obs.set_tracing(true);
        let handle = obs.recorder_for(3, "kron", "cc");
        let ev = gswitch_obs::TraceEvent {
            iteration: 0,
            config: gswitch_kernels::KernelConfig::push_baseline(),
            provenance: gswitch_obs::Provenance::Decided,
            predicted_ms: 0.0,
            measured_ms: 1.0,
            filter_ms: 0.2,
            overhead_ms: 0.01,
            v_active: 1,
            e_active: 2,
            edges_touched: 2,
            activations: 1,
            duplicates: 0,
            task_total_cycles: 10.0,
            task_max_cycles: 10.0,
            task_count: 1,
            features: [0.0; gswitch_ml::FEATURE_COUNT],
            shard: None,
        };
        handle.active().unwrap().record(&ev);
        let events = obs.trace.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].job, 3);
        assert_eq!(events[0].algo, "cc");
    }
}
