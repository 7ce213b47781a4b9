//! Property-based saturation suite (DESIGN.md §4.14).
//!
//! The chaos-soak harness (`tests/soak.rs`) drives one long scripted
//! scenario; these properties instead throw *randomized* workloads —
//! arbitrary priority/deadline mixes at at least twice the queue's
//! capacity — at a small scheduler and check the accounting identities
//! that overload handling must never break:
//!
//! - every accepted submission settles in exactly one terminal state,
//!   and the registry's terminal counters sum to `jobs_submitted`;
//! - rejections at admission are counted and are *not* submissions.
//!
//! The vendored proptest derives its RNG deterministically from the
//! test name, so failures replay.

use gswitch_graph::gen;
use gswitch_runtime::obs::metric;
use gswitch_runtime::{
    ConfigCache, GraphRegistry, JobSpec, Priority, Query, RuntimeObs, Scheduler, SchedulerConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

const QUEUE_CAPACITY: usize = 8;

fn priority_from(raw: u8) -> Priority {
    match raw % 3 {
        0 => Priority::Interactive,
        1 => Priority::Batch,
        _ => Priority::BestEffort,
    }
}

/// Deadline mix: mostly unconstrained, some already-hopeless 1 ms
/// deadlines that exercise the queued-expiry purge, some comfortable.
fn deadline_from(raw: u8) -> Option<u64> {
    match raw % 4 {
        0 => Some(1),
        1 => Some(5_000),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random priority/deadline mixes at ≥2× queue capacity: whatever
    /// the shed policy and workers do, the counters balance and every
    /// handle resolves.
    #[test]
    fn saturated_scheduler_conserves_outcomes(
        jobs in proptest::collection::vec((0u8..3, 0u8..4, 0u8..2), 2 * QUEUE_CAPACITY..5 * QUEUE_CAPACITY),
    ) {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(6, 8, 3));
        let obs = Arc::new(RuntimeObs::new());
        let config = SchedulerConfig {
            workers: 2,
            queue_capacity: QUEUE_CAPACITY,
            default_timeout_ms: 10_000,
            ..Default::default()
        };
        let scheduler = Scheduler::with_obs(
            registry,
            Arc::new(ConfigCache::new()),
            config,
            Arc::clone(&obs),
        );

        let mut handles = Vec::new();
        let mut rejected: u64 = 0;
        for &(p, d, q) in &jobs {
            let query = if q == 0 { Query::Bfs { src: 0 } } else { Query::Cc };
            let spec = JobSpec {
                graph: "kron".into(),
                query,
                timeout_ms: deadline_from(d),
                priority: Some(priority_from(p)),
            };
            match scheduler.submit(spec) {
                Ok(h) => handles.push(h),
                Err(_) => rejected += 1,
            }
        }
        let accepted = handles.len() as u64;
        // No deadlock: every accepted handle resolves.
        for h in handles {
            let _ = h.wait();
        }
        scheduler.shutdown();

        let snap = obs.metrics.snapshot();
        let bucket = |name: &str| snap.counter(name);
        prop_assert_eq!(accepted + rejected, jobs.len() as u64);
        prop_assert_eq!(bucket(metric::JOBS_SUBMITTED), accepted);
        prop_assert_eq!(bucket(metric::JOBS_REJECTED), rejected);
        let terminal = bucket(metric::JOBS_OK)
            + bucket(metric::JOBS_ERROR)
            + bucket(metric::JOBS_FAILED)
            + bucket(metric::JOBS_CANCELLED)
            + bucket(metric::JOBS_SHED)
            + bucket(metric::JOBS_BREAKER_OPEN)
            + bucket(metric::JOBS_TIMEOUT_QUEUED)
            + bucket(metric::JOBS_TIMEOUT_MIDRUN)
            + bucket(metric::JOBS_TIMEOUT_LATE);
        prop_assert_eq!(terminal, accepted);
    }
}
