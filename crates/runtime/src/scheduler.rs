//! The job scheduler: a bounded queue feeding a worker pool.
//!
//! Admission control is explicit — [`Scheduler::submit`] fails fast
//! with [`SubmitError::QueueFull`] instead of buffering unboundedly,
//! and with [`SubmitError::UnknownGraph`] before a bad job ever
//! occupies a queue slot. Each job carries a deadline measured from
//! admission (so queue wait counts); jobs whose deadline passes before
//! a worker picks them up are dropped unrun, running jobs are stopped
//! cooperatively at the next engine super-step, and jobs that finish
//! past it report [`JobStatus::DeadlineExceeded`] with the result
//! withheld.
//!
//! Each job has one life-cycle. Admission gives it a [`CancelToken`]
//! (anchored at its deadline) and registers it until the job settles,
//! so a [`Scheduler::cancel`] accepted while the job is live always
//! reaches it: a queued job never runs, and a running one stops at its
//! next engine super-step; both report [`JobStatus::Cancelled`]. Every
//! way a job ends — breaker fast-fail, purge or shed at admission,
//! cancelled or expired at pickup, graph gone, executed — goes through
//! one exit, `settle`, which votes the breaker, observes `job_total_ms`,
//! records the `Request` span and answers the job. A job is answered
//! only through its `Reply`, whose one method books the terminal
//! counter before it sends, so no outcome reaches a waiter uncounted.
//!
//! Workers are panic-isolated: each job body runs under
//! `catch_unwind`, so a panicking job becomes a structured
//! [`JobStatus::Failed`] outcome (panic payload in `error`) while the
//! worker thread — and every other queued or running job — carries on.
//! Shared state uses poison-recovering locks (`gswitch_obs::sync`), so
//! even a panic at an unlucky point cannot wedge the scheduler.
//!
//! Overload management (DESIGN.md §4.14) layers three mechanisms over
//! that base. **Shedding**: every job carries a [`Priority`] class;
//! when the queue is full, already-expired queued jobs are purged and,
//! failing that, the lowest-priority / most-expired queued job strictly
//! below the incoming class is dropped with the typed
//! [`JobStatus::Shed`] status to admit the newcomer — equal-priority
//! traffic still sees [`SubmitError::QueueFull`]. **Circuit breakers**
//! ([`BreakerSet`]): per (graph fingerprint, algorithm), repeated
//! worker failures open the breaker and subsequent submissions fail
//! fast with [`JobStatus::BreakerOpen`] until a cooldown probe
//! succeeds. **Sentinel skip**: a job a worker picks up while the queue
//! it leaves behind is at or above the watermark runs without the
//! divergence sentinel; each pickup decides for itself, so nothing
//! latches. Decision tracing stays on: it costs about 1 %.
//!
//! A sharded job ([`Scheduler::submit_sharded`]) takes the same path
//! from admission to terminal state. Only the worker's execute step
//! differs: the query runs over a resident K-shard plan from the
//! scheduler's [`ShardStore`].

use crate::breaker::{BreakerDecision, BreakerKey, BreakerSet};
use crate::cache::ConfigCache;
use crate::executor::{execute, execute_sharded, Execution};
use crate::obs::{metric, RuntimeObs};
use crate::query::{JobOutcome, JobSpec, JobStatus, Metric, Priority};
use crate::registry::{GraphEntry, GraphRegistry};
use gswitch_core::{panic_message, AutoPolicy, CancelToken, ProbeHandle, RunProbe, StopReason};
use gswitch_obs::sync::Lock;
use gswitch_obs::{
    Clock, Counter, Gauge, Histogram, MetricsRegistry, SpanCtx, SpanKind, SpanRecord,
    ADMISSION_WORKER,
};
use gswitch_shard::ShardStore;
use gswitch_simt::DeviceSpec;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::time::Duration;

pub use crate::breaker::BreakerConfig;

/// Queue-wait observations required before the p95 estimate is
/// reported (a cold histogram says nothing).
pub const MIN_WAIT_SAMPLES: u64 = 16;

/// Resident shard plans the sharded path keeps: a plan duplicates its
/// graph's CSR, so only a handful.
const PLAN_CAPACITY: usize = 8;

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Worker threads.
    pub workers: usize,
    /// Admission bound: jobs queued (not yet picked up) beyond which
    /// submissions are rejected.
    pub queue_capacity: usize,
    /// Deadline for jobs that do not set one, in milliseconds.
    pub default_timeout_ms: u64,
    /// The simulated device every job runs on.
    pub device: DeviceSpec,
    /// Divergence-sentinel cadence forwarded to every engine run:
    /// cross-check the tuned variant against the serial reference
    /// derivation every N standalone super-steps (0 = off, the
    /// default). See [`gswitch_core::EngineOptions::verify_every`].
    /// Skipped for a job picked up under pressure (`shed_watermark`).
    pub verify_every: u32,
    /// Queue occupancy (0.0–1.0) at or above which the queue is under
    /// pressure: a job picked up leaving the queue there runs without
    /// the sentinel, and `health` degrades the scheduler row.
    pub shed_watermark: f64,
    /// Circuit-breaker thresholds (per graph fingerprint × algorithm).
    pub breaker: BreakerConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8),
            queue_capacity: 256,
            default_timeout_ms: 60_000,
            device: DeviceSpec::default(),
            verify_every: 0,
            shed_watermark: 0.75,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Why a submission was refused at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity and no lower-priority victim
    /// could be shed; retry later.
    QueueFull,
    /// The named graph is not registered.
    UnknownGraph(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "job queue is full"),
            SubmitError::UnknownGraph(g) => write!(f, "unknown graph `{g}`"),
        }
    }
}

#[derive(Debug)]
struct Job {
    id: u64,
    spec: JobSpec,
    /// Admission timestamp on the obs clock.
    admitted_ns: u64,
    /// Pre-allocated id of this job's `Request` span, so queue-wait and
    /// execute spans can parent under it from any worker.
    span_id: u64,
    /// Deadline, nanoseconds after admission.
    deadline_ns: u64,
    /// Resolved priority class (shed policy and pickup order).
    priority: Priority,
    /// Circuit-breaker identity, resolved at admission so the job can
    /// vote its outcome even if the graph is replaced mid-flight.
    key: BreakerKey,
    /// Whether this job holds its breaker's half-open probe slot.
    probe: bool,
    /// Shard count of a sharded job; `None` runs on the whole graph.
    shards: Option<u32>,
    /// Cancel flag and deadline probe, from admission to `settle`.
    token: Arc<CancelToken>,
    /// When a worker took the job from the queue.
    picked_ns: Option<u64>,
    reply: Reply,
}

/// The one way to answer a job. The sender is private to this module,
/// so every outcome a waiter sees went through [`Reply::book`].
mod reply {
    use super::{JobOutcome, JobStatus, SchedulerMetrics};
    use std::sync::mpsc;

    /// Where a job was when it ended: what tells the three
    /// `DeadlineExceeded` counters apart.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum Ended {
        /// Never ran: ended at admission, in the queue or at pickup.
        Queued,
        /// A worker ran it: a deadline that ended it stopped it mid-run.
        Ran,
        /// Ran to completion, past its deadline.
        Late,
    }

    /// The sending half of a job's one-shot outcome channel.
    #[derive(Debug)]
    pub(super) struct Reply(mpsc::Sender<JobOutcome>);

    /// A job's reply and the receiver its handle waits on.
    #[expect(
        clippy::disallowed_methods,
        reason = "a one-shot rendezvous: exactly one JobOutcome is sent per channel, and queue \
                  admission bounds how many channels exist at once"
    )]
    pub(super) fn channel() -> (Reply, mpsc::Receiver<JobOutcome>) {
        let (tx, rx) = mpsc::channel();
        (Reply(tx), rx)
    }

    impl Reply {
        /// Book `out` in its terminal counter, then send it. The match
        /// has no catch-all: a new status does not compile without one.
        pub(super) fn book(self, m: &SchedulerMetrics, out: JobOutcome, ended: Ended) {
            match out.status {
                JobStatus::Ok => m.ok.inc(),
                JobStatus::Error => m.error.inc(),
                JobStatus::Failed => m.failed.inc(),
                JobStatus::Cancelled => m.cancelled.inc(),
                JobStatus::DeadlineExceeded => match ended {
                    Ended::Queued => m.timeout_queued.inc(),
                    Ended::Ran => m.timeout_midrun.inc(),
                    Ended::Late => m.timeout_late.inc(),
                },
                JobStatus::Shed => m.shed.inc(),
                JobStatus::BreakerOpen => m.breaker_fastfail.inc(),
            }
            // A waiter that gave up has nothing left to tell.
            let _ = self.0.send(out);
        }
    }
}

use reply::{Ended, Reply};

/// What [`settle`] is told beyond a job's status.
enum Detail {
    /// Nothing: the status says it all.
    None,
    /// Why the job ended, for the outcome's `error`.
    Why(String),
    /// The job ran: the executor's result, or the panic that ended it.
    Ran(std::thread::Result<Result<Execution, (JobStatus, String)>>),
}

/// Pre-resolved metric handles, so the hot paths never touch the
/// registry's name map.
#[derive(Debug)]
struct SchedulerMetrics {
    queue_depth: Gauge,
    submitted: Counter,
    rejected: Counter,
    ok: Counter,
    error: Counter,
    failed: Counter,
    cancelled: Counter,
    timeout_queued: Counter,
    timeout_midrun: Counter,
    timeout_late: Counter,
    retried: Counter,
    shed: Counter,
    breaker_fastfail: Counter,
    sentinel_skipped: Counter,
    sentinel_mismatch: Counter,
    queue_wait_ms: Histogram,
    execute_ms: Histogram,
    total_ms: Histogram,
    exchange_records: Counter,
    exchange_bytes: Counter,
    imbalance: Histogram,
}

impl SchedulerMetrics {
    fn bind(r: &MetricsRegistry) -> Self {
        SchedulerMetrics {
            queue_depth: r.gauge(metric::QUEUE_DEPTH),
            submitted: r.counter(metric::JOBS_SUBMITTED),
            rejected: r.counter(metric::JOBS_REJECTED),
            ok: r.counter(metric::JOBS_OK),
            error: r.counter(metric::JOBS_ERROR),
            failed: r.counter(metric::JOBS_FAILED),
            cancelled: r.counter(metric::JOBS_CANCELLED),
            timeout_queued: r.counter(metric::JOBS_TIMEOUT_QUEUED),
            timeout_midrun: r.counter(metric::JOBS_TIMEOUT_MIDRUN),
            timeout_late: r.counter(metric::JOBS_TIMEOUT_LATE),
            retried: r.counter(metric::JOBS_RETRIED),
            shed: r.counter(metric::JOBS_SHED),
            breaker_fastfail: r.counter(metric::JOBS_BREAKER_OPEN),
            sentinel_skipped: r.counter(metric::SENTINEL_SKIPPED),
            sentinel_mismatch: r.counter(metric::SENTINEL_MISMATCH),
            queue_wait_ms: r.latency(metric::QUEUE_WAIT_MS),
            execute_ms: r.latency(metric::EXECUTE_MS),
            total_ms: r.latency(metric::JOB_TOTAL_MS),
            exchange_records: r.counter(metric::SHARD_EXCHANGE_RECORDS),
            exchange_bytes: r.counter(metric::SHARD_EXCHANGE_BYTES),
            imbalance: r.histogram(metric::SHARD_IMBALANCE, &[1.1, 1.25, 1.5, 2.0, 4.0]),
        }
    }

    /// Fold one sharded run's exchange volume and shard imbalance in.
    fn record_exchange(&self, metrics: &[Metric]) {
        let value = |name: &str| metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        self.exchange_records.add(value("exchange_records") as u64);
        self.exchange_bytes.add(value("exchange_bytes") as u64);
        self.imbalance.observe(value("imbalance"));
    }
}

#[derive(Debug)]
struct Shared {
    registry: Arc<GraphRegistry>,
    cache: Arc<ConfigCache>,
    obs: Arc<RuntimeObs>,
    m: SchedulerMetrics,
    device: DeviceSpec,
    verify_every: u32,
    /// Admission bound on queued jobs.
    capacity: usize,
    /// Occupancy fraction at or above which the queue is under pressure.
    shed_watermark: f64,
    /// The one outer lock (`gswitch_obs::sync`): admission and the
    /// workers touch `live`, the breakers, the metrics and the span ring
    /// while they hold it, each a leaf taken and released in turn.
    queue: Lock<Queue>,
    work_ready: Condvar,
    /// Cancel tokens of live jobs, from admission until `settle`, so
    /// [`Scheduler::cancel`] reaches a job wherever it is. Bounded by
    /// the queue capacity plus one running job per worker.
    live: Lock<HashMap<u64, Arc<CancelToken>>>,
    /// Circuit breakers per (graph fingerprint, algorithm).
    breakers: Arc<BreakerSet>,
    /// Resident shard plans sharded jobs run over.
    plans: ShardStore,
}

impl Shared {
    /// Whether `queued` jobs put the queue at or above the watermark.
    fn pressured(&self, queued: usize) -> bool {
        queued as f64 / self.capacity as f64 >= self.shed_watermark
    }
}

/// The jobs waiting for a worker, and whether the workers should exit
/// once it is empty. One lock guards both: a worker holds it from its
/// shutdown check until `wait` releases it, so the shutdown and its
/// wake-up cannot fall between the two.
#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The engine-facing stop probe for one job: the job's cancel token
/// (which also carries the deadline), with a fault-injection site per
/// super-step so the test harness can stretch or kill iterations.
struct JobProbe {
    token: Arc<CancelToken>,
}

impl RunProbe for JobProbe {
    fn check(&self, iteration: u32) -> Option<StopReason> {
        crate::faults::fire(crate::faults::site::ENGINE_ITERATION);
        self.token.check(iteration)
    }
}

/// Handle to one admitted job; wait on it for the outcome.
#[derive(Debug)]
pub struct JobHandle {
    /// Id assigned at admission (use for [`Scheduler::cancel`]).
    pub id: u64,
    rx: mpsc::Receiver<JobOutcome>,
    graph: String,
    algo: String,
    clock: Clock,
    admitted_ns: u64,
}

impl JobHandle {
    /// Block until the job reaches a terminal state.
    ///
    /// Never panics: if the worker died without reporting (its thread
    /// was killed, or the scheduler was torn down mid-job), the outcome
    /// is a synthesized [`JobStatus::Failed`] instead.
    pub fn wait(self) -> JobOutcome {
        match self.rx.recv() {
            Ok(out) => out,
            Err(_) => JobOutcome {
                id: self.id,
                graph: self.graph,
                algo: self.algo,
                status: JobStatus::Failed,
                error: Some(
                    "worker dropped without reporting (worker thread died or the scheduler \
                     was torn down mid-job)"
                        .to_string(),
                ),
                cache: None,
                config: None,
                wall_ms: self.clock.elapsed_ms(self.admitted_ns),
                sim_ms: 0.0,
                converged: false,
                metrics: Vec::new(),
                iterations: Vec::new(),
                payload: None,
            },
        }
    }
}

/// The worker pool.
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    default_timeout_ms: u64,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Start `config.workers` workers over `registry` and `cache`, with
    /// a private [`RuntimeObs`] (metrics still work; nobody reads them).
    pub fn new(
        registry: Arc<GraphRegistry>,
        cache: Arc<ConfigCache>,
        config: SchedulerConfig,
    ) -> Self {
        Self::with_obs(registry, cache, config, Arc::new(RuntimeObs::new()))
    }

    /// Start workers reporting into a caller-owned observability root:
    /// scheduler gauges/counters/latency histograms land in
    /// `obs.metrics`, the cache counters are bound into the same
    /// registry, and decision traces (when `obs` has tracing on) land
    /// in `obs.trace`.
    pub fn with_obs(
        registry: Arc<GraphRegistry>,
        cache: Arc<ConfigCache>,
        config: SchedulerConfig,
        obs: Arc<RuntimeObs>,
    ) -> Self {
        cache.bind_metrics(&obs.metrics);
        registry.bind_metrics(&obs.metrics);
        let breakers = Arc::new(BreakerSet::new(config.breaker.clone(), obs.clock(), &obs.metrics));
        let shared = Arc::new(Shared {
            registry,
            cache,
            m: SchedulerMetrics::bind(&obs.metrics),
            obs,
            device: config.device.clone(),
            verify_every: config.verify_every,
            capacity: config.queue_capacity.max(1),
            shed_watermark: config.shed_watermark.clamp(0.0, 1.0),
            queue: Lock::outer(Queue::default()),
            work_ready: Condvar::new(),
            live: Lock::new(HashMap::new()),
            breakers,
            plans: ShardStore::new(PLAN_CAPACITY),
        });
        #[expect(
            clippy::disallowed_methods,
            clippy::expect_used,
            reason = "workers spawn once, before any job is accepted; a process that cannot \
                      spawn them cannot serve, and aborting startup loudly beats limping with \
                      a partial pool"
        )]
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gswitch-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i as u32))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler {
            shared,
            next_id: AtomicU64::new(1),
            default_timeout_ms: config.default_timeout_ms,
            workers,
        }
    }

    /// Submit a job; fails fast on admission problems.
    ///
    /// Under overload this is where the shed policy runs: a full queue
    /// first purges already-expired jobs, then evicts the
    /// lowest-priority / most-expired queued job strictly below the
    /// incoming class (its handle resolves to [`JobStatus::Shed`]).
    /// Only when neither frees a slot does the submission see
    /// [`SubmitError::QueueFull`]. An open circuit breaker for the
    /// (graph, algorithm) short-circuits everything: the returned
    /// handle resolves immediately to [`JobStatus::BreakerOpen`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.admit(spec, None)
    }

    /// [`submit`](Self::submit) for a query over the graph's resident
    /// `k`-shard plan, partitioned on first use and kept in
    /// [`plans`](Self::plans). Admission, shedding, deadline,
    /// cancellation, breaker vote and accounting are `submit`'s; only
    /// the execute step differs. BFS, PR and CC only — any other query
    /// ends `Error`.
    pub fn submit_sharded(&self, spec: JobSpec, k: u32) -> Result<JobHandle, SubmitError> {
        self.admit(spec, Some(k))
    }

    /// The one admission routine behind both entry points.
    fn admit(&self, spec: JobSpec, shards: Option<u32>) -> Result<JobHandle, SubmitError> {
        let shared = &*self.shared;
        let Some(entry) = shared.registry.get(&spec.graph) else {
            shared.m.rejected.inc();
            return Err(SubmitError::UnknownGraph(spec.graph.clone()));
        };
        let key = BreakerKey { fingerprint: entry.fingerprint().0, algo: spec.query.algo() };
        drop(entry);
        let deadline = Duration::from_millis(spec.timeout_ms.unwrap_or(self.default_timeout_ms));
        let deadline_ns = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX);
        let (reply, rx) = reply::channel();
        let clock = shared.obs.clock();
        let admitted_ns = clock.now_ns();
        // The token doubles as the job's deadline probe. A manual (test)
        // clock has no `Instant` anchor; such jobs run without a mid-run
        // deadline and are still caught at completion.
        let token = match clock.instant_at_ns(admitted_ns.saturating_add(deadline_ns)) {
            Some(at) => CancelToken::with_deadline(at),
            None => CancelToken::new(),
        };
        let mut job = Job {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            priority: spec.priority(),
            spec,
            admitted_ns,
            span_id: shared.obs.span_collector().alloc_id(),
            deadline_ns,
            key,
            probe: false,
            shards,
            token: Arc::new(token),
            picked_ns: None,
            reply,
        };
        let (graph, algo) = (job.spec.graph.clone(), job.spec.query.algo().to_string());
        let handle = JobHandle { id: job.id, rx, graph, algo, clock: clock.clone(), admitted_ns };

        // Circuit breaker: an open breaker answers before the queue is
        // touched. The job still counts as submitted and settles like
        // any other, so the conservation identity (submitted == sum of
        // terminal counters) holds with breakers in play.
        job.probe = match shared.breakers.admit(key) {
            BreakerDecision::Allow => false,
            BreakerDecision::AllowProbe => true,
            BreakerDecision::FailFast { retry_after_ms } => {
                shared.m.submitted.inc();
                let why = format!(
                    "circuit breaker open for {}/{}: retry in ~{retry_after_ms} ms",
                    handle.graph, handle.algo
                );
                settle(shared, job, ADMISSION_WORKER, JobStatus::BreakerOpen, Detail::Why(why));
                return Ok(handle);
            }
        };

        {
            let mut queue = shared.queue.lock();
            let q = &mut queue.jobs;
            if q.len() >= shared.capacity {
                // Shed stage 1: purge queued jobs whose deadline has
                // already passed — they could only ever report
                // DeadlineExceeded, so settle them now and free slots.
                let now = clock.now_ns();
                let expired = |j: &Job| now.saturating_sub(j.admitted_ns) > j.deadline_ns;
                let (purged, kept): (VecDeque<Job>, VecDeque<Job>) =
                    std::mem::take(q).into_iter().partition(expired);
                *q = kept;
                for j in purged {
                    settle(shared, j, ADMISSION_WORKER, JobStatus::DeadlineExceeded, Detail::None);
                }
                // Shed stage 2: evict the lowest-priority, most-expired
                // queued job strictly below the incoming class. Equal
                // priorities never shed each other — FIFO fairness
                // within a class survives overload.
                if q.len() >= shared.capacity {
                    let victim_idx = q
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| j.priority < job.priority)
                        .min_by_key(|(_, j)| {
                            let age = now.saturating_sub(j.admitted_ns);
                            (j.priority, j.deadline_ns.saturating_sub(age))
                        })
                        .map(|(i, _)| i);
                    let Some(victim) = victim_idx.and_then(|i| q.remove(i)) else {
                        shared.m.rejected.inc();
                        shared.breakers.record_neutral(key, job.probe);
                        return Err(SubmitError::QueueFull);
                    };
                    let why = format!(
                        "shed at admission: queue full and a higher-priority submission \
                         outranked this {} job",
                        victim.priority.tag()
                    );
                    settle(shared, victim, ADMISSION_WORKER, JobStatus::Shed, Detail::Why(why));
                }
            }
            // Live before it is visible in the queue: a cancel issued
            // once `submit` has returned always finds the job.
            shared.live.lock().insert(job.id, Arc::clone(&job.token));
            q.push_back(job);
            shared.m.queue_depth.set(q.len() as i64);
        }
        shared.m.submitted.inc();
        shared.work_ready.notify_one();
        Ok(handle)
    }

    /// Submit `spec`, wait for the outcome, and transparently resubmit
    /// when the outcome is retryable (a worker [`JobStatus::Failed`] or
    /// an overload [`JobStatus::Shed`], never a user error) — up to
    /// `retries` extra attempts, sleeping a jittered `backoff` before
    /// the first retry and doubling the base each time. The jitter is
    /// deterministic per (job id, attempt) and bounded in
    /// `[base, 2·base)` (see [`retry_jitter`]), so synchronized clients
    /// spread out instead of retrying in lockstep. Admission errors
    /// propagate immediately; each retry is counted in the
    /// `jobs_retried` metric.
    pub fn submit_with_retry(
        &self,
        spec: JobSpec,
        retries: u32,
        backoff: Duration,
    ) -> Result<JobOutcome, SubmitError> {
        let mut delay = backoff;
        for attempt in 0..=retries {
            let out = self.submit(spec.clone())?.wait();
            if !out.status.is_retryable() || attempt == retries {
                return Ok(out);
            }
            self.shared.m.retried.inc();
            std::thread::sleep(retry_jitter(delay, out.id ^ u64::from(attempt)));
            delay = delay.saturating_mul(2);
        }
        unreachable!("the final attempt returns above")
    }

    /// Request cancellation of job `id`. A live job — queued or running
    /// — always sees it: a queued job never runs, a running one stops
    /// at its next super-step, and both report [`JobStatus::Cancelled`].
    /// A settled (or unknown) id is a no-op that leaves no state behind.
    pub fn cancel(&self, id: u64) {
        if let Some(token) = self.shared.live.lock().get(&id) {
            token.cancel();
        }
    }

    /// Jobs currently waiting for a worker.
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().jobs.len()
    }

    /// The admission bound this scheduler was built with.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Whether `queued` jobs put the queue at or above its shed
    /// watermark: the one test of pressure pickup and `health` apply.
    pub fn pressured(&self, queued: usize) -> bool {
        self.shared.pressured(queued)
    }

    /// The circuit-breaker set.
    pub fn breakers(&self) -> &Arc<BreakerSet> {
        &self.shared.breakers
    }

    /// The resident shard plans sharded jobs run over.
    pub fn plans(&self) -> &ShardStore {
        &self.shared.plans
    }

    /// Observed p95 admission-to-pickup queue wait in milliseconds, or
    /// `None` until [`MIN_WAIT_SAMPLES`] observations exist.
    pub fn queue_wait_p95_ms(&self) -> Option<f64> {
        let snap = self.shared.m.queue_wait_ms.snapshot();
        (snap.count >= MIN_WAIT_SAMPLES).then(|| snap.quantile(0.95))
    }

    /// The observability root this scheduler reports into.
    pub fn obs(&self) -> &Arc<RuntimeObs> {
        &self.shared.obs
    }

    /// Stop accepting jobs, drain the queue, and join the workers.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // Published under the queue lock, so no worker sits between its
        // shutdown check and its wait when the wake-up goes out.
        self.shared.queue.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Deterministic retry jitter: a delay in `[base, 2·base)` derived from
/// `seed` through the splitmix64 finalizer. Synchronized clients retry
/// spread out instead of in lockstep, yet any (job id, attempt) pair
/// replays to the identical delay — no shared RNG, no global state.
pub fn retry_jitter(base: Duration, seed: u64) -> Duration {
    let z = crate::faults::splitmix64(seed);
    // 53 high-quality bits → a uniform float in [0, 1).
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    base + base.mul_f64(unit)
}

/// Pop the highest-priority queued job, FIFO within a class. An O(n)
/// scan under the queue lock; the queue is bounded by `queue_capacity`,
/// so the scan is capped and trivial next to an engine run.
fn pop_highest_priority(q: &mut VecDeque<Job>) -> Option<Job> {
    let mut best: Option<(usize, Priority)> = None;
    for (i, j) in q.iter().enumerate() {
        match best {
            Some((_, p)) if j.priority <= p => {}
            _ => best = Some((i, j.priority)),
        }
        if j.priority == Priority::Interactive {
            break; // nothing outranks the earliest interactive job
        }
    }
    best.and_then(|(i, _)| q.remove(i))
}

/// The one exit every job takes, however it ends: it votes the
/// breaker, observes `job_total_ms`, records the `Request` span (plus a
/// `QueueWait` child for a job that was queued, ending at pickup or
/// now) on `worker`'s track, and answers through the job's [`Reply`],
/// which books the terminal counter. A run passes `Ok` and its result
/// decides; a result that arrives past the deadline is withheld.
fn settle(shared: &Shared, job: Job, worker: u32, status: JobStatus, detail: Detail) {
    // Only a job that entered the queue was ever live.
    let queued = shared.live.lock().remove(&job.id).is_some();
    let (m, clock) = (&shared.m, shared.obs.clock());
    let mut out = JobOutcome {
        id: job.id,
        graph: job.spec.graph,
        algo: job.spec.query.algo().to_string(),
        status,
        error: None,
        cache: None,
        config: None,
        wall_ms: 0.0,
        sim_ms: 0.0,
        converged: false,
        metrics: Vec::new(),
        iterations: Vec::new(),
        payload: None,
    };
    let mut ended = if matches!(detail, Detail::Ran(_)) { Ended::Ran } else { Ended::Queued };
    match detail {
        Detail::None => {}
        Detail::Why(why) => out.error = Some(why),
        Detail::Ran(Ok(Ok(exec))) => match exec.stopped {
            Some(StopReason::Cancelled) => out.status = JobStatus::Cancelled,
            Some(StopReason::DeadlineExceeded) => out.status = JobStatus::DeadlineExceeded,
            None => {
                out.cache = exec.cache.map(str::to_string);
                out.config = exec.config;
                out.sim_ms = exec.sim_ms;
                out.converged = exec.converged;
                if clock.now_ns().saturating_sub(job.admitted_ns) > job.deadline_ns {
                    (out.status, ended) = (JobStatus::DeadlineExceeded, Ended::Late);
                } else {
                    out.metrics = exec.metrics;
                    out.iterations = exec.iterations;
                    out.payload = Some(exec.payload);
                }
            }
        },
        Detail::Ran(Ok(Err((refused, why)))) => (out.status, out.error) = (refused, Some(why)),
        Detail::Ran(Err(panic)) => {
            out.status = JobStatus::Failed;
            out.error = Some(format!("worker panic: {}", panic_message(panic)));
        }
    }
    // Breaker vote. `Ok` and `Error` from a run are successes: an
    // engine-level error (bad source vertex, unsupported query) means
    // the infrastructure answered correctly. Only `Failed` (a panic)
    // votes to open; every other end, a graph gone before the run
    // included, says nothing either way and just releases any probe slot.
    match out.status {
        JobStatus::Ok | JobStatus::Error if ended != Ended::Queued => {
            shared.breakers.record_success(job.key, job.probe)
        }
        JobStatus::Failed => shared.breakers.record_failure(job.key, job.probe),
        _ => shared.breakers.record_neutral(job.key, job.probe),
    }
    out.wall_ms = clock.elapsed_ms(job.admitted_ns);
    m.total_ms.observe(out.wall_ms);
    // Recorded and flushed before the outcome is sent, so a waiter that
    // wakes finds the job's whole span tree in the ring.
    let (spans, now) = (shared.obs.span_collector().local(worker, job.id), clock.now_ns());
    if queued {
        let end = job.picked_ns.unwrap_or(now);
        spans.record_interval(SpanKind::QueueWait, job.span_id, job.admitted_ns, end, None, 0);
    }
    spans.record(SpanRecord {
        id: job.span_id,
        parent: 0,
        kind: SpanKind::Request,
        job: job.id,
        worker,
        shard: None,
        iter: 0,
        start_ns: job.admitted_ns,
        dur_ns: now.saturating_sub(job.admitted_ns),
    });
    drop(spans);
    job.reply.book(m, out, ended);
}

/// One job's engine run, on the whole graph or over its K-shard plan,
/// with the sentinel cadence its pickup chose. A refusal carries its
/// terminal status.
fn execute_job(
    shared: &Shared,
    job: &Job,
    entry: &GraphEntry,
    verify_every: u32,
    spans: SpanCtx,
) -> Result<Execution, (JobStatus, String)> {
    let recorder = shared.obs.recorder_for(job.id, &job.spec.graph, job.spec.query.algo());
    let probe = ProbeHandle::new(Arc::new(JobProbe { token: Arc::clone(&job.token) }));
    let (query, device) = (&job.spec.query, &shared.device);
    match job.shards {
        None => execute(
            entry,
            query,
            &shared.cache,
            &AutoPolicy,
            device,
            recorder,
            probe,
            verify_every,
            spans,
        )
        .map_err(|why| (JobStatus::Error, why)),
        Some(k) => execute_sharded(entry, k, query, &shared.plans, device, recorder, probe, spans),
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    let collector = shared.obs.span_collector();
    let clock = shared.obs.clock();
    loop {
        let (mut job, pressured) = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(job) = pop_highest_priority(&mut q.jobs) {
                    shared.m.queue_depth.set(q.jobs.len() as i64);
                    break (job, shared.pressured(q.jobs.len()));
                }
                if q.shutdown {
                    return;
                }
                crate::faults::fire(crate::faults::site::WORKER_IDLE);
                q = q.wait(&shared.work_ready);
            }
        };
        let picked_ns = clock.now_ns();
        job.picked_ns = Some(picked_ns);
        shared.m.queue_wait_ms.observe(picked_ns.saturating_sub(job.admitted_ns) as f64 / 1e6);
        if job.token.is_cancelled() {
            settle(shared, job, worker, JobStatus::Cancelled, Detail::None);
            continue;
        }
        if picked_ns.saturating_sub(job.admitted_ns) > job.deadline_ns {
            settle(shared, job, worker, JobStatus::DeadlineExceeded, Detail::None);
            continue;
        }
        let Some(entry) = shared.registry.get(&job.spec.graph) else {
            // Registered at admission but replaced/removed since.
            let why = format!("graph `{}` disappeared", job.spec.graph);
            settle(shared, job, worker, JobStatus::Error, Detail::Why(why));
            continue;
        };
        // A job picked up under pressure runs without the divergence
        // sentinel (a full serial re-derivation every N super-steps).
        // Tracing stays: it is ~1 % of a step, and a run under pressure
        // is the one an operator most wants to read.
        let mut verify_every = shared.verify_every;
        if pressured && verify_every > 0 && job.shards.is_none() {
            verify_every = 0;
            shared.m.sentinel_skipped.inc();
        }
        let exec_start = clock.now_ns();
        let result = {
            let spans = collector.local(worker, job.id);
            let exec = spans.start(SpanKind::Execute, job.span_id);
            let exec_spans = SpanCtx::new(collector.clone(), exec.id(), worker, job.id);
            // While every core runs a job, the kernels' exact phases stay
            // on their caller (`gswitch_pool::idle`).
            let _busy = gswitch_pool::occupy();
            // Panic isolation: a panicking job must not take the worker
            // — or any lock-holding bystander — down with it. The shared
            // state is poison-recovering, so unwinding through it is safe.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_job(shared, &job, &entry, verify_every, exec_spans)
            }))
        };
        shared.m.execute_ms.observe(clock.elapsed_ms(exec_start));
        if let Ok(Ok(exec)) = &result {
            shared.m.sentinel_mismatch.add(exec.sentinel_mismatches.into());
            if job.shards.is_some() {
                shared.m.record_exchange(&exec.metrics);
            }
        }
        settle(shared, job, worker, JobStatus::Ok, Detail::Ran(result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use gswitch_graph::gen;
    use std::collections::HashSet;

    fn make_scheduler(workers: usize) -> (Scheduler, Arc<GraphRegistry>, Arc<ConfigCache>) {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let config = SchedulerConfig { workers, ..Default::default() };
        let s = Scheduler::new(Arc::clone(&registry), Arc::clone(&cache), config);
        (s, registry, cache)
    }

    fn bfs_spec(src: u32) -> JobSpec {
        JobSpec {
            graph: "kron".into(),
            query: Query::Bfs { src },
            timeout_ms: None,
            priority: None,
        }
    }

    #[test]
    fn unknown_graph_is_rejected_at_admission() {
        let (s, _r, _c) = make_scheduler(1);
        let err = s
            .submit(JobSpec {
                graph: "nope".into(),
                query: Query::Cc,
                timeout_ms: None,
                priority: None,
            })
            .err()
            .unwrap();
        assert_eq!(err, SubmitError::UnknownGraph("nope".into()));
        s.shutdown();
    }

    #[test]
    fn queue_overflow_fails_fast() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        // Zero workers are clamped to one, so stuff the queue faster than
        // a single worker drains it by using a tiny capacity.
        let config = SchedulerConfig { workers: 1, queue_capacity: 2, ..Default::default() };
        let s = Scheduler::new(registry, cache, config);
        let mut handles = Vec::new();
        let mut saw_full = false;
        for src in 0..64 {
            match s.submit(bfs_spec(src)) {
                Ok(h) => handles.push(h),
                Err(SubmitError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        assert!(saw_full, "a capacity-2 queue never filled under burst submission");
        for h in handles {
            assert_eq!(h.wait().status, JobStatus::Ok);
        }
        s.shutdown();
    }

    #[test]
    fn zero_deadline_times_out_without_running() {
        let (s, _r, _c) = make_scheduler(1);
        let spec =
            JobSpec { graph: "kron".into(), query: Query::Cc, timeout_ms: Some(0), priority: None };
        let out = s.submit(spec).unwrap().wait();
        assert_eq!(out.status, JobStatus::DeadlineExceeded);
        assert!(out.iterations.is_empty(), "timed-out job must not leak results");
        assert!(out.payload.is_none());
        s.shutdown();
    }

    #[test]
    fn cancel_while_queued_prevents_execution() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let config = SchedulerConfig { workers: 1, ..Default::default() };
        let s = Scheduler::new(registry, cache, config);
        // One long-ish job occupies the single worker while we cancel
        // the jobs stacked behind it.
        let busy = s.submit(JobSpec {
            graph: "kron".into(),
            query: Query::Pr { eps: 1e-6 },
            timeout_ms: None,
            priority: None,
        });
        let mut cancelled = 0;
        let mut handles = Vec::new();
        for src in 0..8 {
            let h = s.submit(bfs_spec(src)).unwrap();
            s.cancel(h.id);
            handles.push(h);
        }
        for h in handles {
            let out = h.wait();
            if out.status == JobStatus::Cancelled {
                cancelled += 1;
                assert!(out.iterations.is_empty());
            }
        }
        assert!(cancelled > 0, "no queued job observed its cancellation");
        assert_eq!(busy.unwrap().wait().status, JobStatus::Ok);
        s.shutdown();
    }

    #[test]
    fn lost_outcomes_surface_as_counters() {
        // Deadline-exceeded-while-queued and cancelled-while-queued jobs
        // used to leave no server-side record at all; both must show up
        // in the unified registry now.
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let obs = Arc::new(RuntimeObs::new());
        let config = SchedulerConfig { workers: 1, ..Default::default() };
        let s = Scheduler::with_obs(registry, cache, config, Arc::clone(&obs));

        // A busy job pins the single worker so queued jobs age.
        let busy = s.submit(JobSpec {
            graph: "kron".into(),
            query: Query::Pr { eps: 1e-6 },
            timeout_ms: None,
            priority: None,
        });
        let dead = s
            .submit(JobSpec {
                graph: "kron".into(),
                query: Query::Cc,
                timeout_ms: Some(0),
                priority: None,
            })
            .unwrap();
        let doomed = s.submit(bfs_spec(0)).unwrap();
        s.cancel(doomed.id);
        let _ = s.submit(JobSpec {
            graph: "nope".into(),
            query: Query::Cc,
            timeout_ms: None,
            priority: None,
        });

        assert_eq!(dead.wait().status, JobStatus::DeadlineExceeded);
        let doomed_status = doomed.wait().status;
        assert_eq!(busy.unwrap().wait().status, JobStatus::Ok);

        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter(metric::JOBS_TIMEOUT_QUEUED), 1);
        if doomed_status == JobStatus::Cancelled {
            assert_eq!(snap.counter(metric::JOBS_CANCELLED), 1);
        }
        assert_eq!(snap.counter(metric::JOBS_REJECTED), 1);
        assert!(snap.counter(metric::JOBS_SUBMITTED) >= 3);
        assert!(snap.counter(metric::JOBS_OK) >= 1);
        // Stage histograms saw every terminal job.
        let waits = snap.histograms.get(metric::QUEUE_WAIT_MS).expect("wait histogram");
        assert!(waits.count >= 3);
        let totals = snap.histograms.get(metric::JOB_TOTAL_MS).expect("total histogram");
        assert!(totals.count >= 3);
        // Cache counters live in the same registry (shared state).
        assert!(snap.counter(metric::CACHE_MISSES) >= 1);
        s.shutdown();
    }

    #[test]
    fn tracing_produces_events_for_scheduled_jobs() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let obs = Arc::new(RuntimeObs::new());
        obs.set_tracing(true);
        let s = Scheduler::with_obs(
            registry,
            cache,
            SchedulerConfig { workers: 2, ..Default::default() },
            Arc::clone(&obs),
        );
        let out = s.submit(bfs_spec(0)).unwrap().wait();
        assert_eq!(out.status, JobStatus::Ok);
        let events = obs.trace.snapshot();
        assert!(!events.is_empty(), "traced job produced no events");
        assert!(events.iter().all(|e| e.algo == "bfs" && e.graph == "kron"));
        assert_eq!(events.len(), out.iterations.len());
        s.shutdown();
    }

    /// Every scheduled job leaves a causal span tree: a root `Request`
    /// span with `QueueWait` and `Execute` children, and the engine's
    /// super-steps nested under `Execute`.
    #[test]
    fn jobs_emit_request_queue_execute_spans() {
        use gswitch_obs::SpanKind;
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let obs = Arc::new(RuntimeObs::new());
        let s = Scheduler::with_obs(
            registry,
            cache,
            SchedulerConfig { workers: 2, ..Default::default() },
            Arc::clone(&obs),
        );
        let out = s.submit(bfs_spec(0)).unwrap().wait();
        assert_eq!(out.status, JobStatus::Ok);
        // Worker-local span buffers flush when the workers wind down.
        s.shutdown();

        let spans = obs.spans.snapshot();
        let requests: Vec<_> = spans.iter().filter(|r| r.kind == SpanKind::Request).collect();
        assert_eq!(requests.len(), 1, "one job, one request span");
        let req = requests[0];
        assert_eq!(req.parent, 0, "request spans are roots");
        let qw = spans.iter().find(|r| r.kind == SpanKind::QueueWait).expect("queue-wait span");
        assert_eq!(qw.parent, req.id);
        let ex = spans.iter().find(|r| r.kind == SpanKind::Execute).expect("execute span");
        assert_eq!(ex.parent, req.id);
        assert!(ex.dur_ns <= req.dur_ns, "execute cannot outlast its request");
        // The engine's super-steps nest under this job's execute span.
        let steps: Vec<_> = spans.iter().filter(|r| r.kind == SpanKind::SuperStep).collect();
        assert!(!steps.is_empty(), "engine emitted no super-step spans");
        assert!(steps.iter().all(|st| st.parent == ex.id && st.job == req.job));
        // Self-time accounting holds over the whole tree.
        let p = gswitch_obs::profile(&spans);
        assert!(p.excl_total_ms() <= p.total_ms + 1e-9);
    }

    /// The satellite concurrency test: a mixed batch through a real
    /// worker pool, every answer checked against the sequential
    /// reference implementations.
    #[test]
    fn concurrent_mixed_queries_match_references() {
        use crate::query::Payload;
        use gswitch_algos::reference;

        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        registry.insert("grid", gen::grid2d(16, 16, 0.0, 5));
        let cache = Arc::new(ConfigCache::new());
        let s = Scheduler::new(
            Arc::clone(&registry),
            cache,
            SchedulerConfig { workers: 4, ..Default::default() },
        );

        let mut handles = Vec::new();
        for graph in ["kron", "grid"] {
            for src in [0u32, 7, 99] {
                for query in [Query::Bfs { src }, Query::Sssp { src }, Query::Cc] {
                    let spec =
                        JobSpec { graph: graph.into(), query, timeout_ms: None, priority: None };
                    handles.push((graph, spec.clone(), s.submit(spec).unwrap()));
                }
            }
        }

        for (graph, spec, h) in handles {
            let out = h.wait();
            assert_eq!(out.status, JobStatus::Ok, "{graph}/{}: {:?}", out.algo, out.error);
            let entry = registry.get(graph).unwrap();
            match (spec.query, out.payload.expect("payload")) {
                (Query::Bfs { src }, Payload::Levels { values }) => {
                    assert_eq!(values, reference::bfs(entry.graph(), src), "{graph} bfs {src}");
                }
                (Query::Sssp { src }, Payload::Distances { values }) => {
                    assert_eq!(
                        values,
                        reference::sssp(&entry.weighted(), src),
                        "{graph} sssp {src}"
                    );
                }
                (Query::Cc, Payload::Labels { values }) => {
                    assert_eq!(values, reference::cc(entry.graph()), "{graph} cc");
                }
                (q, p) => panic!("mismatched payload for {q:?}: {p:?}"),
            }
        }
        s.shutdown();
    }

    /// Regression: `wait()` used to panic with "worker dropped without
    /// reporting" when the sender side vanished. It must synthesize a
    /// structured `Failed` outcome instead.
    #[test]
    fn wait_on_dropped_worker_reports_failed_not_panic() {
        let (reply, rx) = reply::channel();
        let clock = Clock::monotonic();
        let admitted_ns = clock.now_ns();
        let handle =
            JobHandle { id: 42, rx, graph: "kron".into(), algo: "bfs".into(), clock, admitted_ns };
        drop(reply); // the "worker died" case
        let out = handle.wait();
        assert_eq!(out.status, JobStatus::Failed);
        assert_eq!(out.id, 42);
        assert_eq!(out.graph, "kron");
        assert!(out.error.as_deref().unwrap_or("").contains("worker dropped"));
    }

    /// Regression: cancelling ids of completed (or never-admitted) jobs
    /// used to accumulate forever in a cancelled-ids set. Now a cancel
    /// only flips the token of a live job, and `settle` unregisters
    /// every job, so arbitrary cancels leave no residue.
    #[test]
    fn cancel_of_completed_ids_leaves_no_residue() {
        let (s, _r, _c) = make_scheduler(2);
        let h = s.submit(bfs_spec(0)).unwrap();
        let finished = h.id;
        assert_eq!(h.wait().status, JobStatus::Ok);

        // Cancel the finished job plus a pile of ids that never existed.
        s.cancel(finished);
        for bogus in 1_000..1_100 {
            s.cancel(bogus);
        }
        assert_eq!(s.shared.live.lock().len(), 0, "a settled job must leave no live token");

        // The scheduler still works afterwards.
        assert_eq!(s.submit(bfs_spec(1)).unwrap().wait().status, JobStatus::Ok);
        s.shutdown();
    }

    /// A scheduler with the divergence sentinel on still produces
    /// reference-exact answers on healthy runs (the sentinel only
    /// intervenes on divergence, which a correct engine never shows).
    #[test]
    fn sentinel_enabled_scheduler_matches_references() {
        use crate::query::Payload;
        use gswitch_algos::reference;

        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let config = SchedulerConfig { workers: 2, verify_every: 2, ..Default::default() };
        let s = Scheduler::new(Arc::clone(&registry), cache, config);
        let out = s.submit(bfs_spec(0)).unwrap().wait();
        assert_eq!(out.status, JobStatus::Ok);
        let entry = registry.get("kron").unwrap();
        match out.payload.expect("payload") {
            Payload::Levels { values } => {
                assert_eq!(values, reference::bfs(entry.graph(), 0));
            }
            p => panic!("wrong payload: {p:?}"),
        }
        s.shutdown();
    }

    /// Each pickup decides on the sentinel from the queue its worker
    /// leaves behind. At watermark 0.0 every pickup is at or above it,
    /// the empty queue included: the job runs without the sentinel and
    /// the skip is counted. At 1.0 none is, since a pop always leaves
    /// room: the job runs the sentinel. A sharded job never runs the
    /// sentinel, so its pickup counts no skip.
    #[test]
    fn jobs_picked_up_under_pressure_skip_the_sentinel() {
        for (watermark, skipped) in [(0.0, 1), (1.0, 0)] {
            let registry = Arc::new(GraphRegistry::new());
            registry.insert("kron", gen::kronecker(8, 8, 3));
            let obs = Arc::new(RuntimeObs::new());
            let config = SchedulerConfig {
                workers: 1,
                verify_every: 1,
                shed_watermark: watermark,
                ..Default::default()
            };
            let s =
                Scheduler::with_obs(registry, Arc::new(ConfigCache::new()), config, obs.clone());
            let job = s.submit(bfs_spec(0)).unwrap();
            let id = job.id;
            assert_eq!(job.wait().status, JobStatus::Ok);
            let sharded = s.submit_sharded(sharded_spec(Query::Cc), 2).unwrap();
            assert_eq!(sharded.wait().status, JobStatus::Ok);
            s.shutdown(); // flushes the worker's span buffer
            let sentinels = obs
                .spans
                .snapshot()
                .iter()
                .filter(|r| r.job == id && r.kind == SpanKind::Sentinel)
                .count();
            assert_eq!(sentinels == 0, skipped == 1, "watermark {watermark}: {sentinels} spans");
            assert_eq!(obs.metrics.snapshot().counter(metric::SENTINEL_SKIPPED), skipped);
        }
    }

    /// `submit_with_retry` with zero budget behaves exactly like
    /// `submit().wait()` for healthy jobs, and never sleeps.
    #[test]
    fn submit_with_retry_passes_healthy_jobs_through() {
        let (s, _r, _c) = make_scheduler(2);
        let out = s.submit_with_retry(bfs_spec(0), 2, Duration::from_millis(1)).unwrap();
        assert_eq!(out.status, JobStatus::Ok);
        let snap = s.obs().metrics.snapshot();
        assert_eq!(snap.counter(metric::JOBS_RETRIED), 0);
        s.shutdown();
    }

    /// Retry backoff jitter is deterministic per seed, bounded in
    /// `[base, 2·base)`, and actually varies across seeds.
    #[test]
    fn retry_jitter_is_bounded_and_deterministic() {
        let base = Duration::from_millis(8);
        for seed in 0..512u64 {
            let d = retry_jitter(base, seed);
            assert!(d >= base, "seed {seed}: {d:?} below base");
            assert!(d < base * 2, "seed {seed}: {d:?} at or above 2x base");
            assert_eq!(d, retry_jitter(base, seed), "seed {seed} not deterministic");
        }
        let d0 = retry_jitter(base, 0);
        assert!(
            (1..512u64).any(|s| retry_jitter(base, s) != d0),
            "jitter is constant across 512 seeds"
        );
    }

    /// Workers drain the queue by priority class (interactive > batch >
    /// best-effort) and FIFO within a class.
    #[test]
    fn pop_highest_priority_orders_by_class_then_fifo() {
        let clock = Clock::manual();
        let mk = |id: u64, priority: Priority| {
            // These jobs are only popped, never answered.
            let (reply, _rx) = reply::channel();
            Job {
                id,
                spec: bfs_spec(0),
                admitted_ns: clock.now_ns(),
                span_id: id,
                deadline_ns: 60_000_000_000,
                priority,
                key: BreakerKey { fingerprint: 0, algo: "bfs" },
                probe: false,
                shards: None,
                token: Arc::new(CancelToken::new()),
                picked_ns: None,
                reply,
            }
        };
        let mut q = VecDeque::new();
        q.push_back(mk(1, Priority::BestEffort));
        q.push_back(mk(2, Priority::Batch));
        q.push_back(mk(3, Priority::Interactive));
        q.push_back(mk(4, Priority::Batch));
        q.push_back(mk(5, Priority::Interactive));
        let order: Vec<u64> =
            std::iter::from_fn(|| pop_highest_priority(&mut q).map(|j| j.id)).collect();
        assert_eq!(order, vec![3, 5, 2, 4, 1]);
    }

    /// A full queue sheds the lowest-priority queued job to admit a
    /// higher-priority submission; the victim's handle resolves to the
    /// typed `Shed` status and the shed counter records it.
    #[test]
    fn higher_priority_submission_sheds_queued_best_effort() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        // A heavier graph keeps the single worker busy long enough for
        // the queue to stay full while we submit.
        registry.insert("big", gen::kronecker(12, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let config = SchedulerConfig { workers: 1, queue_capacity: 2, ..Default::default() };
        let s = Scheduler::new(registry, cache, config);

        let busy = s
            .submit(JobSpec {
                graph: "big".into(),
                query: Query::Pr { eps: 1e-10 },
                timeout_ms: None,
                priority: Some(Priority::Batch),
            })
            .unwrap();
        // Wait for the worker to pick the busy job up, then fill the
        // queue with best-effort work.
        while s.queued() > 0 {
            std::thread::yield_now();
        }
        let mut spec = bfs_spec(0);
        spec.priority = Some(Priority::BestEffort);
        let low_a = s.submit(spec.clone()).unwrap();
        let low_b = s.submit(spec).unwrap();
        assert_eq!(s.queued(), 2, "queue should be at capacity");

        let mut hi = bfs_spec(1);
        hi.priority = Some(Priority::Interactive);
        let hi = s.submit(hi).unwrap();

        let (a, b) = (low_a.wait(), low_b.wait());
        let shed: Vec<_> =
            [&a, &b].iter().filter(|o| o.status == JobStatus::Shed).cloned().collect();
        assert_eq!(shed.len(), 1, "exactly one best-effort job shed: {a:?} / {b:?}");
        assert!(shed[0].error.as_deref().unwrap_or("").contains("shed at admission"));
        assert_eq!(hi.wait().status, JobStatus::Ok);
        assert_eq!(busy.wait().status, JobStatus::Ok);
        let snap = s.obs().metrics.snapshot();
        assert_eq!(snap.counter(metric::JOBS_SHED), 1);
        // Conservation: both terminal paths (run and shed) reported.
        assert_eq!(snap.counter(metric::JOBS_SUBMITTED), 4);
        let obs = Arc::clone(s.obs());
        s.shutdown();
        // The shed job's causal record: a root `Request` span on the
        // admission track, with the queue wait it had as its child.
        let spans = obs.spans.snapshot();
        let shed_id = shed[0].id;
        let of_shed = |kind| spans.iter().filter(move |r| r.job == shed_id && r.kind == kind);
        let req: Vec<_> = of_shed(SpanKind::Request).collect();
        assert_eq!(req.len(), 1, "{spans:?}");
        assert_eq!((req[0].parent, req[0].worker), (0, ADMISSION_WORKER));
        let qw: Vec<_> = of_shed(SpanKind::QueueWait).collect();
        assert_eq!(qw.len(), 1);
        assert_eq!(qw[0].parent, req[0].id);
        assert!(qw[0].end_ns() <= req[0].end_ns());
        assert_eq!(of_shed(SpanKind::Execute).count(), 0, "a shed job never ran");
    }

    /// An open breaker answers submissions immediately with the typed
    /// `BreakerOpen` status — no queue slot burned — while other
    /// (graph, algorithm) keys are unaffected.
    #[test]
    fn open_breaker_fails_fast_without_touching_the_queue() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let config = SchedulerConfig {
            workers: 1,
            breaker: BreakerConfig { failure_threshold: 3, cooldown_ms: 600_000 },
            ..Default::default()
        };
        let s = Scheduler::new(Arc::clone(&registry), cache, config);
        let key =
            BreakerKey { fingerprint: registry.get("kron").unwrap().fingerprint().0, algo: "bfs" };
        for _ in 0..3 {
            s.breakers().record_failure(key, false);
        }

        let out = s.submit(bfs_spec(0)).unwrap().wait();
        assert_eq!(out.status, JobStatus::BreakerOpen);
        assert!(out.error.as_deref().unwrap_or("").contains("circuit breaker open"));
        // Settled at admission, it still leaves its root span — and no
        // queue wait, since it never queued.
        let spans = s.obs().spans.snapshot();
        let mine: Vec<_> = spans.iter().filter(|r| r.job == out.id).collect();
        assert_eq!(mine.len(), 1, "{mine:?}");
        assert_eq!((mine[0].kind, mine[0].parent), (SpanKind::Request, 0));
        // A different algorithm on the same graph is its own key.
        let ok = s
            .submit(JobSpec {
                graph: "kron".into(),
                query: Query::Cc,
                timeout_ms: None,
                priority: None,
            })
            .unwrap()
            .wait();
        assert_eq!(ok.status, JobStatus::Ok);
        let snap = s.obs().metrics.snapshot();
        assert_eq!(snap.counter(metric::JOBS_BREAKER_OPEN), 1);
        assert_eq!(snap.counter(metric::JOBS_SUBMITTED), 2);
        assert_eq!(snap.histograms.get(metric::JOB_TOTAL_MS).map(|h| h.count), Some(2));
        s.shutdown();
    }

    /// Above the watermark, long waits of lower classes say nothing about
    /// an Interactive job, which is picked before any of them: it is
    /// admitted, and answers once the worker frees up.
    #[test]
    fn interactive_job_is_admitted_above_watermark_despite_long_waits() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        registry.insert("big", gen::kronecker(12, 8, 3));
        let cache = Arc::new(ConfigCache::new());
        let config = SchedulerConfig { workers: 1, queue_capacity: 4, ..Default::default() };
        let s = Scheduler::new(registry, cache, config);

        // Pin the worker, then hold three of four slots with best-effort
        // work: occupancy 0.75 sits exactly at the default watermark.
        let busy = s
            .submit(JobSpec {
                graph: "big".into(),
                query: Query::Pr { eps: 1e-10 },
                timeout_ms: None,
                priority: None,
            })
            .unwrap();
        while s.queued() > 0 {
            std::thread::yield_now();
        }
        let mut held = Vec::new();
        for src in 0..3 {
            let mut spec = bfs_spec(src);
            spec.priority = Some(Priority::BestEffort);
            held.push(s.submit(spec).unwrap());
        }
        assert!(s.pressured(s.queued()));
        // Seed the wait histogram past MIN_WAIT_SAMPLES with waits that
        // dwarf the incoming deadline.
        for _ in 0..MIN_WAIT_SAMPLES {
            s.shared.m.queue_wait_ms.observe(10_000.0);
        }
        let mut urgent = bfs_spec(9);
        urgent.priority = Some(Priority::Interactive);
        urgent.timeout_ms = Some(5_000);
        let urgent = s.submit(urgent).expect("admitted above the watermark");
        s.cancel(busy.id);
        assert_eq!(urgent.wait().status, JobStatus::Ok);
        assert_eq!(busy.wait().status, JobStatus::Cancelled);
        for h in held {
            assert_eq!(h.wait().status, JobStatus::Ok);
        }
        s.shutdown();
    }

    fn sharded_spec(query: Query) -> JobSpec {
        JobSpec { graph: "kron".into(), query, timeout_ms: None, priority: None }
    }

    /// A sharded job answers like the whole-graph engine at every K:
    /// BFS and CC equal the references exactly, PR is within 1e-9 of
    /// the unsharded job (f64 sums run in another order across shards).
    /// Each K is its own resident plan.
    #[test]
    fn sharded_jobs_match_references_at_every_k() {
        use crate::query::Payload;
        use gswitch_algos::reference;

        let (s, registry, _c) = make_scheduler(2);
        let entry = registry.get("kron").unwrap();
        let pr = Query::Pr { eps: 1e-3 };
        let Some(Payload::Ranks { values: whole }) =
            s.submit(sharded_spec(pr.clone())).unwrap().wait().payload
        else {
            panic!("unsharded pr payload")
        };
        for k in [1u32, 2, 4] {
            let run = |query| {
                let out = s.submit_sharded(sharded_spec(query), k).unwrap().wait();
                assert_eq!(out.status, JobStatus::Ok, "k={k} {}: {:?}", out.algo, out.error);
                assert_eq!(out.cache, None, "the sharded path has no tuned-config seed");
                out.payload.expect("payload")
            };
            let levels = Payload::Levels { values: reference::bfs(entry.graph(), 0) };
            assert_eq!(run(Query::Bfs { src: 0 }), levels, "bfs k={k}");
            let labels = Payload::Labels { values: reference::cc(entry.graph()) };
            assert_eq!(run(Query::Cc), labels, "cc k={k}");
            let Payload::Ranks { values } = run(pr.clone()) else { panic!("pr payload") };
            assert_eq!(values.len(), whole.len());
            assert!(values.iter().zip(&whole).all(|(a, b)| (a - b).abs() <= 1e-9), "pr k={k}");
        }
        let ks: Vec<u32> = s.plans().keys().into_iter().map(|(_, k)| k).collect();
        assert_eq!(ks, vec![1, 2, 4]);
        s.shutdown();
    }

    /// Each sharded job records its exchange volume and imbalance once,
    /// and the second job on a graph reuses the first one's plan.
    #[test]
    fn sharded_jobs_record_exchange_metrics_and_reuse_plans() {
        let (s, _r, _c) = make_scheduler(1);
        for query in [Query::Bfs { src: 0 }, Query::Cc] {
            let out = s.submit_sharded(sharded_spec(query), 4).unwrap().wait();
            assert_eq!(out.status, JobStatus::Ok, "{:?}", out.error);
            assert!(out.metric("exchange_records").unwrap_or(0.0) > 0.0, "{:?}", out.metrics);
            assert!(out.metric("supersteps").unwrap_or(0.0) > 0.0);
        }
        assert_eq!((s.plans().misses(), s.plans().hits()), (1, 1));
        let snap = s.obs().metrics.snapshot();
        assert!(snap.counter(metric::SHARD_EXCHANGE_RECORDS) > 0);
        assert!(snap.counter(metric::SHARD_EXCHANGE_BYTES) > 0);
        assert_eq!(snap.histograms.get(metric::SHARD_IMBALANCE).map(|h| h.count), Some(2));
        assert_eq!(snap.counter(metric::JOBS_OK), 2);
        s.shutdown();
    }

    /// SSSP and BC do not shard: such a job ends `Error` with a pointer
    /// to `query`, and nothing is partitioned.
    #[test]
    fn unsupported_sharded_queries_end_error_without_partitioning() {
        let (s, _r, _c) = make_scheduler(1);
        for query in [Query::Sssp { src: 0 }, Query::Bc { src: 0 }] {
            let out = s.submit_sharded(sharded_spec(query), 2).unwrap().wait();
            assert_eq!(out.status, JobStatus::Error);
            assert!(out.error.as_deref().unwrap_or("").contains("single-shard"), "{out:?}");
        }
        assert!(s.plans().is_empty(), "partitioned despite refusing the query");
        // Bad parameters are refused as on the whole-graph path.
        for query in
            [Query::Bfs { src: 1 << 20 }, Query::Pr { eps: 0.0 }, Query::Pr { eps: f64::NAN }]
        {
            let out = s.submit_sharded(sharded_spec(query), 2).unwrap().wait();
            assert_eq!(out.status, JobStatus::Error, "{out:?}");
        }
        assert_eq!(s.obs().metrics.snapshot().counter(metric::JOBS_ERROR), 5);
        s.shutdown();
    }

    /// A sharded job votes under the same (graph, algorithm) breaker as
    /// a whole-graph one: an open breaker fails it fast, before any
    /// partitioning.
    #[test]
    fn open_breaker_fails_sharded_jobs_fast_without_partitioning() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let config = SchedulerConfig {
            workers: 1,
            breaker: BreakerConfig { failure_threshold: 2, cooldown_ms: 600_000 },
            ..Default::default()
        };
        let s = Scheduler::new(Arc::clone(&registry), Arc::new(ConfigCache::new()), config);
        let fingerprint = registry.get("kron").unwrap().fingerprint().0;
        for _ in 0..2 {
            s.breakers().record_failure(BreakerKey { fingerprint, algo: "cc" }, false);
        }
        let out = s.submit_sharded(sharded_spec(Query::Cc), 2).unwrap().wait();
        assert_eq!(out.status, JobStatus::BreakerOpen);
        assert!(s.plans().is_empty(), "partitioned despite the open breaker");
        // Another algorithm is another key: it runs.
        let ok = s.submit_sharded(sharded_spec(Query::Bfs { src: 0 }), 2).unwrap().wait();
        assert_eq!(ok.status, JobStatus::Ok);
        s.shutdown();
    }

    /// Batch jobs have no admission rule of their own: with the queue
    /// full of `Batch`-class sharded jobs, an `Interactive` query sheds
    /// one of them, as it would any lower-class query.
    #[test]
    fn queued_sharded_jobs_are_shed_for_higher_classes() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        // Keeps the single worker busy while the queue fills.
        registry.insert("big", gen::kronecker(12, 8, 3));
        let config = SchedulerConfig { workers: 1, queue_capacity: 2, ..Default::default() };
        let s = Scheduler::new(registry, Arc::new(ConfigCache::new()), config);
        let busy = s
            .submit(JobSpec {
                graph: "big".into(),
                query: Query::Pr { eps: 1e-10 },
                timeout_ms: None,
                priority: Some(Priority::Batch),
            })
            .unwrap();
        while s.queued() > 0 {
            std::thread::yield_now();
        }
        let batch = |query| JobSpec { priority: Some(Priority::Batch), ..sharded_spec(query) };
        let a = s.submit_sharded(batch(Query::Bfs { src: 0 }), 2).unwrap();
        let b = s.submit_sharded(batch(Query::Cc), 2).unwrap();
        assert_eq!(s.queued(), 2, "queue should be at capacity");
        let mut hi = bfs_spec(1);
        hi.priority = Some(Priority::Interactive);
        let hi = s.submit(hi).unwrap();

        let mut statuses = [a.wait().status, b.wait().status];
        statuses.sort();
        let mut expected = [JobStatus::Ok, JobStatus::Shed];
        expected.sort();
        assert_eq!(statuses, expected);
        assert_eq!(hi.wait().status, JobStatus::Ok);
        assert_eq!(busy.wait().status, JobStatus::Ok);
        assert_eq!(s.obs().metrics.snapshot().counter(metric::JOBS_SHED), 1);
        s.shutdown();
    }

    /// One id space: with tracing on, run a query, then a two-query
    /// batch. Every decision event and span of the batch carries one of
    /// the ids its handles reported, and none carries the query's id.
    /// With the sentinel on and one `execute_batch` over the same ring,
    /// the ring then holds every span kind there is.
    #[test]
    fn batch_jobs_trace_and_span_under_their_own_ids() {
        let registry = Arc::new(GraphRegistry::new());
        registry.insert("kron", gen::kronecker(8, 8, 3));
        let obs = Arc::new(RuntimeObs::new());
        obs.set_tracing(true);
        let s = Scheduler::with_obs(
            Arc::clone(&registry),
            Arc::new(ConfigCache::new()),
            SchedulerConfig { workers: 2, verify_every: 1, ..Default::default() },
            Arc::clone(&obs),
        );
        let query = s.submit(bfs_spec(0)).unwrap();
        let query_id = query.id;
        assert_eq!(query.wait().status, JobStatus::Ok);
        let batch: Vec<JobHandle> = [Query::Bfs { src: 0 }, Query::Cc]
            .into_iter()
            .map(|q| s.submit_sharded(sharded_spec(q), 2).unwrap())
            .collect();
        let ids: HashSet<u64> = batch.iter().map(|h| h.id).collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&query_id));
        for h in batch {
            assert_eq!(h.wait().status, JobStatus::Ok);
        }
        let graph = Arc::clone(registry.get("kron").unwrap().graph());
        let plan = s.plans().get_or_partition(&graph, 2).unwrap();
        s.shutdown(); // flushes the workers' span buffers

        let events = obs.trace.snapshot();
        let spans = obs.spans.snapshot();
        let known = |job: u64| job == query_id || ids.contains(&job);
        assert!(events.iter().all(|e| known(e.job)), "an event under a foreign id");
        assert!(spans.iter().all(|r| known(r.job)), "a span under a foreign id");
        // Shard-tagged records are the batch's, and each batch job left
        // sharded events and its own request span.
        assert!(events.iter().filter(|e| e.event.shard.is_some()).all(|e| ids.contains(&e.job)));
        assert!(spans.iter().filter(|r| r.shard.is_some()).all(|r| ids.contains(&r.job)));
        for id in &ids {
            assert!(events.iter().any(|e| e.job == *id && e.event.shard.is_some()), "job {id}");
            assert!(spans.iter().any(|r| r.job == *id && r.kind == SpanKind::Request));
            assert!(spans.iter().any(|r| r.job == *id && r.shard.is_some()), "job {id}");
        }
        // The query's records carry no shard.
        assert!(events.iter().any(|e| e.job == query_id));
        assert!(events.iter().filter(|e| e.job == query_id).all(|e| e.event.shard.is_none()));
        assert!(spans.iter().filter(|r| r.job == query_id).all(|r| r.shard.is_none()));

        // The library batch call records the two kinds no job does.
        let opts = gswitch_shard::BatchOptions {
            spans: SpanCtx::new(obs.span_collector(), 0, 0, 0),
            ..Default::default()
        };
        gswitch_shard::execute_batch(&plan, &[gswitch_shard::BatchQuery::Cc], &opts);
        let kinds: HashSet<SpanKind> = obs.spans.snapshot().iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            HashSet::from(gswitch_obs::span::SPAN_KINDS),
            "a span kind nobody records"
        );
    }
}
