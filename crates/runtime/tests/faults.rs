//! Fault-tolerance integration suite, driven by deterministic fault
//! injection (`gswitch_runtime::faults`, `fault-injection` feature).
//!
//! Each test injures the runtime at a named site and asserts two
//! things: the *outcome* is the right structured failure (never a dead
//! worker or a panicking client), and the *observability* agrees (the
//! matching counter moved). Fault state is process-global, so every
//! test holds `faults::exclusive()`, which empties the fault table on
//! entry and exit.

#![cfg(feature = "fault-injection")]

use gswitch_core::engine::fault_site::FRONTIER_CORRUPT;
use gswitch_core::{AutoPolicy, ProbeHandle};
use gswitch_graph::gen;
use gswitch_obs::sync::poison_recoveries;
use gswitch_obs::{RecorderHandle, SpanCtx};
use gswitch_runtime::faults::{
    arm, arm_after, arm_schedule, exclusive, fired, reset, site, Fault, Schedule,
};
use gswitch_runtime::obs::metric;
use gswitch_runtime::{
    execute, BreakerConfig, ConfigCache, GraphRegistry, JobSpec, JobStatus, Query, RuntimeObs,
    Scheduler, SchedulerConfig,
};
use std::sync::Arc;
use std::time::Duration;

struct Harness {
    scheduler: Scheduler,
    obs: Arc<RuntimeObs>,
    cache: Arc<ConfigCache>,
}

fn harness(workers: usize) -> Harness {
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("kron", gen::kronecker(8, 8, 3));
    let cache = Arc::new(ConfigCache::new());
    let obs = Arc::new(RuntimeObs::new());
    let config = SchedulerConfig { workers, ..Default::default() };
    let scheduler = Scheduler::with_obs(registry, Arc::clone(&cache), config, Arc::clone(&obs));
    Harness { scheduler, obs, cache }
}

fn bfs(src: u32) -> JobSpec {
    JobSpec { graph: "kron".into(), query: Query::Bfs { src }, timeout_ms: None, priority: None }
}

/// A job that panics at executor start becomes `Failed` with the panic
/// message, the counter records it, and the pool keeps serving.
#[test]
fn panicking_job_fails_structured_and_pool_survives() {
    let _g = exclusive();
    let h = harness(1);

    arm(site::EXECUTOR_START, Fault::Panic("simulated executor crash".into()));
    let out = h.scheduler.submit(bfs(0)).unwrap().wait();
    assert_eq!(out.status, JobStatus::Failed);
    let err = out.error.expect("failed job carries its panic message");
    assert!(err.contains("simulated executor crash"), "error was `{err}`");
    assert!(out.payload.is_none(), "failed job must not leak partial results");

    // The same worker — there is only one — serves the next job fine.
    assert_eq!(h.scheduler.submit(bfs(0)).unwrap().wait().status, JobStatus::Ok);

    let snap = h.obs.metrics.snapshot();
    assert_eq!(snap.counter(metric::JOBS_FAILED), 1);
    assert_eq!(snap.counter(metric::JOBS_OK), 1);
    h.scheduler.shutdown();
    reset();
}

/// A panic *mid-run* — on the fourth engine super-step, while frontier
/// state is live — is isolated exactly the same way.
#[test]
fn panic_mid_expand_is_isolated() {
    let _g = exclusive();
    let h = harness(1);

    arm_after(site::ENGINE_ITERATION, 3, Fault::Panic("boom on iteration 3".into()));
    let out = h.scheduler.submit(bfs(0)).unwrap().wait();
    assert_eq!(out.status, JobStatus::Failed);
    assert!(out.error.unwrap().contains("boom on iteration 3"));

    assert_eq!(h.scheduler.submit(bfs(0)).unwrap().wait().status, JobStatus::Ok);
    assert_eq!(h.obs.metrics.snapshot().counter(metric::JOBS_FAILED), 1);
    h.scheduler.shutdown();
    reset();
}

/// An overrunning job is stopped cooperatively at a super-step boundary
/// and reports `DeadlineExceeded` (mid-run counter, not the queued or
/// late one), withholding results.
#[test]
fn deadline_enforced_mid_run() {
    let _g = exclusive();
    let h = harness(1);

    // Each super-step sleeps 20 ms; a tight PageRank tolerance needs
    // far more iterations than the 60 ms budget allows.
    arm(site::ENGINE_ITERATION, Fault::SlowMs(20));
    let spec = JobSpec {
        graph: "kron".into(),
        query: Query::Pr { eps: 1e-12 },
        timeout_ms: Some(60),
        priority: None,
    };
    let out = h.scheduler.submit(spec).unwrap().wait();
    assert_eq!(out.status, JobStatus::DeadlineExceeded);
    assert!(out.payload.is_none(), "deadline-exceeded job must withhold results");
    assert!(out.iterations.is_empty());
    reset(); // stop slowing the follow-up job

    assert_eq!(h.scheduler.submit(bfs(0)).unwrap().wait().status, JobStatus::Ok);
    let snap = h.obs.metrics.snapshot();
    assert_eq!(snap.counter(metric::JOBS_TIMEOUT_MIDRUN), 1);
    assert_eq!(snap.counter(metric::JOBS_TIMEOUT_QUEUED), 0);
    assert_eq!(snap.counter(metric::JOBS_TIMEOUT_LATE), 0);
    h.scheduler.shutdown();
}

/// Cancelling a job that is already executing stops it at the next
/// super-step via its cancel token.
#[test]
fn cancel_reaches_a_running_job() {
    let _g = exclusive();
    let h = harness(1);

    // ~5 ms per super-step keeps the job running long enough to be
    // cancelled mid-flight with a comfortable margin.
    arm(site::ENGINE_ITERATION, Fault::SlowMs(5));
    let spec = JobSpec {
        graph: "kron".into(),
        query: Query::Pr { eps: 1e-12 },
        timeout_ms: None,
        priority: None,
    };
    let handle = h.scheduler.submit(spec).unwrap();
    // The only worker is idle, so the job starts immediately; give it
    // time to be well inside the engine loop before cancelling.
    std::thread::sleep(Duration::from_millis(30));
    h.scheduler.cancel(handle.id);
    let out = handle.wait();
    assert_eq!(out.status, JobStatus::Cancelled);
    assert!(out.payload.is_none());
    reset();

    assert_eq!(h.scheduler.submit(bfs(0)).unwrap().wait().status, JobStatus::Ok);
    assert_eq!(h.obs.metrics.snapshot().counter(metric::JOBS_CANCELLED), 1);
    h.scheduler.shutdown();
}

/// A sharded job is a scheduler job: a panic at executor start ends it
/// `Failed`, its deadline stops it and `cancel` reaches it mid-run,
/// exactly as for a whole-graph query.
#[test]
fn sharded_job_honours_faults_deadline_and_cancel() {
    let _g = exclusive();
    let h = harness(1);
    let pr = |timeout_ms| JobSpec {
        graph: "kron".into(),
        query: Query::Pr { eps: 1e-12 },
        timeout_ms,
        priority: None,
    };

    arm(site::EXECUTOR_START, Fault::Panic("sharded executor crash".into()));
    let out = h.scheduler.submit_sharded(pr(None), 2).unwrap().wait();
    assert_eq!(out.status, JobStatus::Failed);
    assert!(out.error.as_deref().unwrap_or("").contains("sharded executor crash"), "{out:?}");
    reset();

    arm(site::ENGINE_ITERATION, Fault::SlowMs(20));
    let out = h.scheduler.submit_sharded(pr(Some(1)), 2).unwrap().wait();
    assert_eq!(out.status, JobStatus::DeadlineExceeded);
    assert!(out.payload.is_none(), "deadline-exceeded job must withhold results");

    arm(site::ENGINE_ITERATION, Fault::SlowMs(5));
    let handle = h.scheduler.submit_sharded(pr(None), 2).unwrap();
    // The only worker is idle, so the job starts at once; let it get
    // well inside the super-step loop before cancelling.
    std::thread::sleep(Duration::from_millis(30));
    h.scheduler.cancel(handle.id);
    let out = handle.wait();
    assert_eq!(out.status, JobStatus::Cancelled);
    assert!(out.payload.is_none());
    reset();

    let snap = h.obs.metrics.snapshot();
    assert_eq!(snap.counter(metric::JOBS_FAILED), 1);
    assert_eq!(snap.counter(metric::JOBS_CANCELLED), 1);
    let timeouts = snap.counter(metric::JOBS_TIMEOUT_QUEUED)
        + snap.counter(metric::JOBS_TIMEOUT_MIDRUN)
        + snap.counter(metric::JOBS_TIMEOUT_LATE);
    assert_eq!(timeouts, 1);
    h.scheduler.shutdown();
}

/// With the sentinel on every super-step and `frontier::corrupt` armed,
/// a job's mismatches reach the `sentinel_mismatch` counter: exactly as
/// many as the same run's engine report counts.
#[test]
fn sentinel_mismatches_of_a_job_reach_the_metrics() {
    let _g = exclusive();
    let registry = Arc::new(GraphRegistry::new());
    let entry = registry.insert("kron", gen::kronecker(8, 8, 3));
    let config = SchedulerConfig { workers: 1, verify_every: 1, ..Default::default() };
    arm(FRONTIER_CORRUPT, Fault::Trip);
    // The job's run outside the scheduler, on a cache of its own.
    let exec = execute(
        &entry,
        &Query::Bfs { src: 0 },
        &ConfigCache::new(),
        &AutoPolicy,
        &config.device,
        RecorderHandle::none(),
        ProbeHandle::none(),
        config.verify_every,
        SpanCtx::default(),
    )
    .unwrap();
    assert!(exec.sentinel_mismatches >= 1, "the corrupted frontier went unnoticed");

    let obs = Arc::new(RuntimeObs::new());
    let s = Scheduler::with_obs(registry, Arc::new(ConfigCache::new()), config, Arc::clone(&obs));
    let out = s.submit(bfs(0)).unwrap().wait();
    reset();
    assert_eq!(out.status, JobStatus::Ok);
    let counted = obs.metrics.snapshot().counter(metric::SENTINEL_MISMATCH);
    assert_eq!(counted, u64::from(exec.sentinel_mismatches));
    s.shutdown();
}

/// A panic while the cache's write lock is held poisons the lock; the
/// poison-recovering wrapper absorbs it and the cache keeps working.
#[test]
fn poisoned_cache_lock_recovers() {
    let _g = exclusive();
    let h = harness(1);
    let before = poison_recoveries();

    // The store fault fires *inside* the cache's write lock, so the
    // panic unwinds with the guard held.
    arm(site::CACHE_STORE, Fault::Panic("die holding the cache lock".into()));
    let out = h.scheduler.submit(bfs(0)).unwrap().wait();
    assert_eq!(out.status, JobStatus::Failed);

    // The next job takes the poisoned lock, recovers, and completes;
    // the failed store never landed, so this run misses and re-stores.
    let out = h.scheduler.submit(bfs(0)).unwrap().wait();
    assert_eq!(out.status, JobStatus::Ok);
    assert_eq!(out.cache.as_deref(), Some("miss"));
    assert!(
        poison_recoveries() > before,
        "recovering from the poisoned cache lock must be counted"
    );
    assert_eq!(h.cache.counters().entries, 1, "the retried store landed");

    // And a third run hits the now-populated cache.
    let out = h.scheduler.submit(bfs(0)).unwrap().wait();
    assert_eq!(out.status, JobStatus::Ok);
    assert_eq!(out.cache.as_deref(), Some("hit"));
    h.scheduler.shutdown();
    reset();
}

/// A corrupt persisted cache degrades to an empty cache with the
/// `cache_load_failed` counter set — the server still starts.
#[test]
fn corrupt_cache_file_degrades_to_empty() {
    let _g = exclusive();

    // Persist a healthy cache to disk.
    let path = std::env::temp_dir().join("gswitch-faults-corrupt-cache.json");
    let healthy = ConfigCache::new();
    healthy.store(
        &gswitch_runtime::CacheKey::new(gswitch_graph::Fingerprint(7), "bfs", "v8d3g4"),
        gswitch_kernels::KernelConfig::push_baseline(),
    );
    healthy.save(&path).unwrap();

    // Corrupt it between disk and parser.
    arm(site::CACHE_LOAD, Fault::CorruptText);
    let cache = ConfigCache::load_or_empty(&path);
    assert_eq!(cache.counters().entries, 0, "corrupt cache must come up empty");
    assert_eq!(cache.counters().load_failed, 1);
    reset();

    // The counter flows into a bound registry under the canonical name.
    let registry = gswitch_obs::MetricsRegistry::new();
    cache.bind_metrics(&registry);
    assert_eq!(registry.snapshot().counter(metric::CACHE_LOAD_FAILED), 1);

    // Undamaged, the same file loads fine.
    let cache = ConfigCache::load_or_empty(&path);
    assert_eq!(cache.counters().entries, 1);
    assert_eq!(cache.counters().load_failed, 0);
    let _ = std::fs::remove_file(&path);
}

/// The crash-safe persistence regression: a save that dies in its
/// crash window — temp file written and fsynced, rename not yet
/// performed — leaves the destination untouched, so the next
/// `load_or_empty` sees the previous generation with `load_failed` 0.
#[test]
fn interrupted_save_never_corrupts_the_cache() {
    let _g = exclusive();
    let path = std::env::temp_dir().join("gswitch-faults-atomic-save.json");
    let tmp = std::env::temp_dir().join("gswitch-faults-atomic-save.json.tmp");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);

    let key = |fp: u64, algo: &str| {
        gswitch_runtime::CacheKey::new(gswitch_graph::Fingerprint(fp), algo, "v8d3g4")
    };
    let cache = ConfigCache::new();
    cache.store(&key(7, "bfs"), gswitch_kernels::KernelConfig::push_baseline());
    cache.save(&path).unwrap();

    // The second generation dies mid-save.
    cache.store(&key(8, "pr"), gswitch_kernels::KernelConfig::push_baseline());
    arm(site::CACHE_SAVE, Fault::Panic("power loss before rename".into()));
    let died =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.save(&path))).is_err();
    assert!(died, "the armed save must die in the crash window");
    reset();

    // The destination still holds the first generation, parseable.
    let loaded = ConfigCache::load_or_empty(&path);
    assert_eq!(loaded.counters().entries, 1, "old cache must survive the interrupted save");
    assert_eq!(loaded.counters().load_failed, 0, "interrupted save must never corrupt");

    // A healthy save replaces it atomically and leaves no temp residue.
    cache.save(&path).unwrap();
    assert_eq!(ConfigCache::load_or_empty(&path).counters().entries, 2);
    assert!(!tmp.exists(), "temp residue after a successful save");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
}

/// End-to-end breaker lifecycle under recurring injected panics: K
/// consecutive worker failures open the breaker, submissions then fail
/// fast with `BreakerOpen`, and after the cooldown a half-open probe
/// re-closes it — all visible in the transition counters.
#[test]
fn breaker_opens_on_recurring_panics_then_recloses() {
    let _g = exclusive();
    let registry = Arc::new(GraphRegistry::new());
    registry.insert("kron", gen::kronecker(8, 8, 3));
    let cache = Arc::new(ConfigCache::new());
    let obs = Arc::new(RuntimeObs::new());
    let config = SchedulerConfig {
        workers: 1,
        breaker: BreakerConfig { failure_threshold: 3, cooldown_ms: 50 },
        ..Default::default()
    };
    let scheduler = Scheduler::with_obs(registry, cache, config, Arc::clone(&obs));

    // Unlike the legacy one-shot arm, a scheduled panic recurs: every
    // execution dies until the site is disarmed.
    arm_schedule(site::EXECUTOR_START, Schedule::every(1), Fault::Panic("chaos".into()));
    for i in 0..3 {
        let out = scheduler.submit(bfs(i)).unwrap().wait();
        assert_eq!(out.status, JobStatus::Failed, "failure {i} feeds the breaker");
    }
    // Threshold reached: the breaker answers before the queue.
    let out = scheduler.submit(bfs(9)).unwrap().wait();
    assert_eq!(out.status, JobStatus::BreakerOpen);
    assert!(out.error.as_deref().unwrap_or("").contains("circuit breaker open"));
    reset(); // heal the executor

    // After the cooldown a single probe runs clean and closes it.
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(scheduler.submit(bfs(0)).unwrap().wait().status, JobStatus::Ok);
    assert_eq!(scheduler.submit(bfs(1)).unwrap().wait().status, JobStatus::Ok);

    let snap = obs.metrics.snapshot();
    assert_eq!(snap.counter(metric::BREAKER_OPENED), 1);
    assert_eq!(snap.counter(metric::BREAKER_HALF_OPEN), 1);
    assert_eq!(snap.counter(metric::BREAKER_CLOSED), 1);
    assert_eq!(snap.counter(metric::JOBS_BREAKER_OPEN), 1);
    // Conservation across the whole episode: every submission reached
    // exactly one terminal state.
    let terminal = snap.counter(metric::JOBS_OK)
        + snap.counter(metric::JOBS_FAILED)
        + snap.counter(metric::JOBS_BREAKER_OPEN);
    assert_eq!(snap.counter(metric::JOBS_SUBMITTED), terminal);
    scheduler.shutdown();
    reset();
}

/// `submit_with_retry` turns a transient worker panic into a success:
/// the injected panic is one-shot, so the resubmission runs clean.
#[test]
fn retry_recovers_from_transient_panic() {
    let _g = exclusive();
    let h = harness(1);

    arm(site::EXECUTOR_START, Fault::Panic("transient".into()));
    let out = h.scheduler.submit_with_retry(bfs(0), 2, Duration::from_millis(1)).unwrap();
    assert_eq!(out.status, JobStatus::Ok, "retry after one-shot panic must succeed");

    let snap = h.obs.metrics.snapshot();
    assert_eq!(snap.counter(metric::JOBS_RETRIED), 1);
    assert_eq!(snap.counter(metric::JOBS_FAILED), 1);
    assert_eq!(snap.counter(metric::JOBS_OK), 1);
    h.scheduler.shutdown();
    reset();
}

/// Regression: a shutdown that lands while an idle worker sits between
/// its shutdown check and its wait for work must still wake it. The
/// idle site holds the worker in that window; a shutdown that skipped
/// the queue lock sent its wake-up there, the worker then waited
/// forever, and `shutdown` never returned.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "shutdown runs on a thread of its own so that a hang fails the test instead of \
              holding it"
)]
fn shutdown_reaches_a_worker_between_check_and_wait() {
    let _g = exclusive();
    arm_schedule(site::WORKER_IDLE, Schedule::once(), Fault::SlowMs(300));
    let h = harness(1);
    // The worker found the queue empty and shutdown unset, and sleeps
    // in the window with the queue lock held.
    for _ in 0..5_000 {
        if fired(site::WORKER_IDLE) > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(fired(site::WORKER_IDLE), 1, "the idle worker never reached its site");

    let (done, joined) = std::sync::mpsc::sync_channel(1);
    std::thread::spawn(move || {
        h.scheduler.shutdown();
        let _ = done.send(());
    });
    let returned = joined.recv_timeout(Duration::from_secs(10)).is_ok();
    reset();
    assert!(returned, "shutdown did not return: the idle worker missed its wake-up");
}
