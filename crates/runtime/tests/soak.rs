//! The chaos-soak harness (DESIGN.md §4.14).
//!
//! One long scenario drives a mixed query/batch workload — thousands of
//! submissions across priority classes and algorithms, with sharded
//! batch jobs on a second graph — through a scheduler under
//! deterministic seeded fault schedules: a recurring panic storm that
//! must open a circuit breaker, then sustained slow-downs plus random
//! panics that must push the runtime into brownout. Throughout, the
//! suite holds the serving invariants:
//!
//! - **Outcome conservation** — every admitted job, sharded or not,
//!   reaches exactly one terminal state, and the terminal counters sum
//!   to `jobs_submitted`; the client-side ledger agrees with the
//!   metrics registry bucket by bucket.
//! - **No deadlock** — every `JobHandle::wait` returns, even for work
//!   shed at admission or failed fast by an open breaker.
//! - **Health always answers** — `HealthReport::gather` responds every
//!   round, including while the queue is full and workers are dying.
//! - **Self-healing** — every breaker the chaos opened re-closes after
//!   its cooldown probe and brownout disengages once pressure eases;
//!   the run ends with an all-ok health report.
//!
//! The fault schedule is fully determined by [`SEED`]; wall-clock
//! timing only shifts *where* outcomes land between buckets, never out
//! of them. Runs in a few seconds (CI budget: under 60).

#![cfg(feature = "fault-injection")]

use gswitch_graph::gen;
use gswitch_runtime::faults::{arm, arm_schedule, reset, site, Fault, Schedule};
use gswitch_runtime::obs::metric;
use gswitch_runtime::{
    BreakerConfig, BrownoutConfig, ConfigCache, GraphRegistry, HealthReport, JobSpec, JobStatus,
    Priority, Query, RuntimeObs, Scheduler, SchedulerConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Everything random in the soak derives from this one constant.
const SEED: u64 = 0xC0FFEE;
/// Breaker cooldown: long enough that a failure storm opens the breaker
/// before its first probe window, short enough to re-close in-test.
const COOLDOWN_MS: u64 = 120;
/// Shards per batch job.
const K: u32 = 4;
/// The algorithms the batch jobs run (one breaker key each on
/// `er-soak`).
const BATCH_QUERIES: [Query; 2] = [Query::Bfs { src: 0 }, Query::Cc];

fn spec(query: Query, priority: Priority, timeout_ms: Option<u64>) -> JobSpec {
    JobSpec { graph: "kron".into(), query, timeout_ms, priority: Some(priority) }
}

fn batch_spec(query: Query, priority: Priority) -> JobSpec {
    JobSpec { graph: "er-soak".into(), query, timeout_ms: None, priority: Some(priority) }
}

fn rotate_query(i: u64) -> Query {
    match i % 4 {
        0 => Query::Bfs { src: (i % 251) as u32 },
        1 => Query::Cc,
        2 => Query::Pr { eps: 1e-4 },
        _ => Query::Sssp { src: (i % 251) as u32 },
    }
}

fn rotate_priority(i: u64) -> Priority {
    match i % 3 {
        0 => Priority::Interactive,
        1 => Priority::Batch,
        _ => Priority::BestEffort,
    }
}

#[test]
fn chaos_soak_upholds_serving_invariants() {
    reset();
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("kron", gen::kronecker(8, 8, 3));
    registry.insert("er-soak", gen::erdos_renyi(400, 1600, SEED));
    let cache = Arc::new(ConfigCache::new());
    let obs = Arc::new(RuntimeObs::new());
    let config = SchedulerConfig {
        workers: 2,
        queue_capacity: 16,
        default_timeout_ms: 10_000,
        breaker: BreakerConfig { failure_threshold: 3, cooldown_ms: COOLDOWN_MS },
        brownout: BrownoutConfig {
            enter_occupancy: 0.70,
            exit_occupancy: 0.30,
            enter_after: 4,
            exit_after: 4,
        },
        ..Default::default()
    };
    let scheduler =
        Scheduler::with_obs(Arc::clone(&registry), Arc::clone(&cache), config, Arc::clone(&obs));

    // Client-side ledger: every terminal status we ever observe.
    let mut tally: BTreeMap<JobStatus, u64> = BTreeMap::new();
    let mut client_rejected: u64 = 0;
    let mut attempts: u64 = 0;
    let settle = |tally: &mut BTreeMap<JobStatus, u64>, status: JobStatus| {
        *tally.entry(status).or_insert(0) += 1;
    };

    // ---- Phase 1: recurring panic storm opens the bfs breaker. ------
    // Every execution dies, so three sequential submissions feed the
    // breaker its threshold and the next one must fail fast.
    arm_schedule(site::EXECUTOR_START, Schedule::every(1), Fault::Panic("soak storm".into()));
    let mut saw_fastfail = false;
    for i in 0..32u64 {
        attempts += 1;
        let out = scheduler
            .submit(spec(Query::Bfs { src: 0 }, Priority::Batch, None))
            .expect("phase-1 submissions fit an empty queue")
            .wait();
        settle(&mut tally, out.status);
        if out.status == JobStatus::BreakerOpen {
            saw_fastfail = true;
            break;
        }
        assert_eq!(out.status, JobStatus::Failed, "storm execution {i} must panic");
    }
    assert!(saw_fastfail, "breaker never opened under a 100% failure storm");
    {
        let snap = obs.metrics.snapshot();
        assert!(snap.counter(metric::BREAKER_OPENED) >= 1);
        assert!(snap.counter(metric::JOBS_FAILED) >= 3);
    }

    // ---- Phase 2: sustained overload with random chaos. -------------
    // Iterations crawl and a seeded coin kills roughly one execution in
    // eight; burst submissions outrun two slow workers, so the queue
    // saturates, sheds, and brownout engages.
    reset();
    arm(site::ENGINE_ITERATION, Fault::SlowMs(4));
    arm_schedule(
        site::EXECUTOR_START,
        Schedule::random(SEED, 8),
        Fault::Panic("soak chaos".into()),
    );
    let mut handles = Vec::new();
    let mut batch_admitted: u64 = 0;
    for round in 0..40u64 {
        for i in 0..50u64 {
            attempts += 1;
            let n = round * 50 + i;
            let deadline = if n % 7 == 0 { Some(1) } else { None };
            match scheduler.submit(spec(rotate_query(n), rotate_priority(n), deadline)) {
                Ok(handle) => handles.push(handle),
                Err(_) => client_rejected += 1,
            }
        }
        // Health must answer mid-overload, every round.
        let report = HealthReport::gather(&scheduler, &cache);
        assert!(report.components.len() >= 5, "health went mute in round {round}");
        // Sprinkle sharded batch jobs through the same queue, breakers
        // and brownout.
        if round % 5 == 0 {
            for query in BATCH_QUERIES {
                attempts += 1;
                match scheduler.submit_sharded(batch_spec(query, Priority::Interactive), K) {
                    Ok(handle) => {
                        batch_admitted += 1;
                        handles.push(handle);
                    }
                    Err(_) => client_rejected += 1,
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(batch_admitted > 0, "no batch job was ever admitted");

    // ---- Phase 3: heal the faults and drain everything. -------------
    reset();
    for handle in handles {
        settle(&mut tally, handle.wait().status); // no deadlock: every wait returns
    }

    // Past the cooldown, one clean probe per algorithm re-closes any
    // breaker the chaos opened.
    std::thread::sleep(Duration::from_millis(COOLDOWN_MS + 30));
    for n in 0..8u64 {
        attempts += 1;
        let out = scheduler
            .submit(spec(rotate_query(n), Priority::Interactive, None))
            .expect("recovery submissions fit a drained queue")
            .wait();
        settle(&mut tally, out.status);
        assert_eq!(out.status, JobStatus::Ok, "recovery probe {n} on a healed runtime");
    }
    // One clean sharded probe per (er-soak, algorithm) key the batch
    // jobs used re-closes any of those breakers the chaos opened.
    for query in BATCH_QUERIES {
        attempts += 1;
        let out = scheduler
            .submit_sharded(batch_spec(query, Priority::Interactive), K)
            .expect("recovery submissions fit a drained queue")
            .wait();
        settle(&mut tally, out.status);
        assert_eq!(
            out.status,
            JobStatus::Ok,
            "sharded recovery probe {}: {:?}",
            out.algo,
            out.error
        );
    }
    // Low-occupancy traffic walks brownout back out.
    for n in 0..8u64 {
        attempts += 1;
        let out = scheduler.submit(spec(Query::Cc, Priority::Batch, None)).unwrap().wait();
        settle(&mut tally, out.status);
        assert_eq!(out.status, JobStatus::Ok);
        if !scheduler.brownout().active() && n >= 3 {
            break;
        }
    }

    // ---- Invariants. -------------------------------------------------
    let snap = obs.metrics.snapshot();
    let bucket = |name: &str| snap.counter(name);
    let submitted = bucket(metric::JOBS_SUBMITTED);
    let terminal = bucket(metric::JOBS_OK)
        + bucket(metric::JOBS_ERROR)
        + bucket(metric::JOBS_FAILED)
        + bucket(metric::JOBS_CANCELLED)
        + bucket(metric::JOBS_SHED)
        + bucket(metric::JOBS_BREAKER_OPEN)
        + bucket(metric::JOBS_TIMEOUT_QUEUED)
        + bucket(metric::JOBS_TIMEOUT_MIDRUN)
        + bucket(metric::JOBS_TIMEOUT_LATE);
    assert_eq!(submitted, terminal, "outcome conservation: {tally:?}");
    // The client ledger — one entry per handle, sharded or not — agrees
    // with the registry, bucket by bucket.
    let client_total: u64 = tally.values().sum();
    assert_eq!(client_total, submitted, "every admitted job settled exactly once");
    assert_eq!(client_total + client_rejected, attempts);
    assert_eq!(client_rejected, bucket(metric::JOBS_REJECTED));
    let client = |s: JobStatus| tally.get(&s).copied().unwrap_or(0);
    assert_eq!(client(JobStatus::Ok), bucket(metric::JOBS_OK));
    assert_eq!(client(JobStatus::Error), bucket(metric::JOBS_ERROR));
    assert_eq!(client(JobStatus::Failed), bucket(metric::JOBS_FAILED));
    assert_eq!(client(JobStatus::Shed), bucket(metric::JOBS_SHED));
    assert_eq!(client(JobStatus::BreakerOpen), bucket(metric::JOBS_BREAKER_OPEN));
    assert_eq!(
        client(JobStatus::DeadlineExceeded),
        bucket(metric::JOBS_TIMEOUT_QUEUED)
            + bucket(metric::JOBS_TIMEOUT_MIDRUN)
            + bucket(metric::JOBS_TIMEOUT_LATE)
    );
    assert!(attempts >= 2_000, "the soak must push thousands of jobs, pushed {attempts}");

    // The breaker both opened and re-closed; brownout engaged and
    // disengaged; nothing is stuck degraded.
    assert!(bucket(metric::BREAKER_OPENED) >= 1, "breaker never opened");
    assert!(bucket(metric::BREAKER_CLOSED) >= 1, "breaker never re-closed");
    assert!(bucket(metric::BROWNOUT_ENTERED) >= 1, "overload never triggered brownout");
    assert!(bucket(metric::BROWNOUT_EXITED) >= 1, "brownout never disengaged");
    assert_eq!(scheduler.breakers().open_count(), 0, "a breaker is stuck open");
    assert!(!scheduler.brownout().active(), "brownout is stuck active");

    // And the final health report is clean.
    let report = HealthReport::gather(&scheduler, &cache);
    assert_eq!(report.status, "ok", "{report:?}");
    assert!(!report.brownout);
    assert_eq!(report.breakers_open, 0);

    scheduler.shutdown();
    reset();
}
