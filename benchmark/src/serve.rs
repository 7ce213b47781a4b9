//! `serve-mixed`: two client threads drive `gswitch_runtime::Scheduler`
//! in a closed loop, each doing what `gswitch-serve`'s `query` verb does
//! per request — decode the line, `submit_with_retry`, encode the outcome
//! without its payload. The only workload where queue wait, admission,
//! the tuned-config cache and the JSON codec sit on the blocking path.

use crate::drive::{Config, Setup, Workload};
use crate::inputs::{self, Algo, Cell, Rng};
use crate::metrics::Values;
use crate::record::{device, sample_sum_per_pass, Call, Graphs, Pass};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::verify::{digest_metric_names, Answer, Digest};
use gswitch_core::{SpanKind, SpanRing};
use gswitch_runtime::obs::metric;
use gswitch_runtime::protocol::Request;
use gswitch_runtime::{
    ConfigCache, GraphRegistry, JobOutcome, JobSpec, JobStatus, Payload, RuntimeObs, Scheduler,
    SchedulerConfig, SubmitError,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads of the load generator (= `nproc` of the sizing box) and
/// scheduler workers.
pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Sources each graph's requests draw from.
const POOL: usize = 16;
/// Requests per algorithm and pass on each graph (tiny, tiny, mid, mid):
/// 5 x (15 + 15 + 9 + 9) = 240.
const PER_PAIR: [usize; 4] = [15, 15, 9, 9];
/// Frozen size against the recipe in `inputs::serve_graphs`.
const SCALE: f64 = 0.5;
/// Retries on a retryable outcome, as `gswitch-serve --retries` would.
const RETRIES: u32 = 2;

pub struct Serve {
    graphs: Graphs,
    cache: Arc<ConfigCache>,
    obs: Arc<RuntimeObs>,
    scheduler: Scheduler,
    requests: Vec<Vec<(Cell, String)>>,
    digests: BTreeMap<Cell, Digest>,
}

/// What one client saw on one pass.
#[derive(Default)]
struct ClientLog {
    op_ms: Vec<f64>,
    calls: Vec<(Cell, Call)>,
    failed: usize,
    queue_full: usize,
    response_bytes: usize,
    cold: BTreeMap<Cell, (Answer, bool)>,
}

fn answer_of(payload: Payload) -> Answer {
    match payload {
        Payload::Levels { values } => Answer::Levels(values),
        Payload::Distances { values } => Answer::Distances(values),
        Payload::Labels { values } => Answer::Labels(values),
        Payload::Ranks { values } => Answer::Ranks(values),
        Payload::Scores { values } => Answer::Scores(values),
    }
}

fn digest_of(algo: Algo, outcome: &JobOutcome) -> Option<Digest> {
    let (first, second) = digest_metric_names(algo);
    Some(Digest {
        algo,
        first: outcome.metric(first)?,
        second: match second {
            Some(name) => outcome.metric(name)?,
            None => 0.0,
        },
        converged: outcome.converged,
    })
}

fn call_of(algo: Algo, outcome: &JobOutcome) -> Call {
    let mut call = Call { algo: Some(algo), wall_ms: outcome.wall_ms, ..Call::default() };
    for it in &outcome.iterations {
        call.filter_ms += it.filter_ms;
        call.expand_ms += it.expand_ms;
        call.overhead_ms += it.overhead_ms;
        call.supersteps += 1;
        call.decided += u64::from(it.decided);
        // The wire trace carries active edges, not edges traversed.
        call.edges += it.e_active;
    }
    call
}

impl Serve {
    /// One request, start to finish, as the `query` verb handles it.
    fn request(
        &self,
        line: &str,
        tracer: &Tracer,
        parent: u64,
        op: u64,
        log: &mut ClientLog,
    ) -> Option<JobOutcome> {
        let req: Request =
            tracer.span("runtime.decode", parent, op, |_| serde_json::from_str(line)).ok()?;
        let spec = JobSpec {
            graph: req.graph?,
            query: req.query?,
            timeout_ms: req.timeout_ms,
            priority: req.priority,
        };
        let outcome = tracer.span("runtime.submit_wait", parent, op, |_| loop {
            match self.scheduler.submit_with_retry(spec.clone(), RETRIES, Duration::from_millis(5))
            {
                Ok(out) => break Some(out),
                Err(SubmitError::QueueFull) => {
                    log.queue_full += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => break None,
            }
        })?;
        Some(outcome)
    }

    fn client(
        &self,
        list: &[(Cell, String)],
        first_op: u64,
        tracer: &Tracer,
        parent: u64,
        collect: bool,
    ) -> ClientLog {
        let mut log = ClientLog::default();
        for (i, (cell, line)) in list.iter().enumerate() {
            let op = first_op + i as u64;
            let t0 = Instant::now();
            let served = tracer.span("serve.request", parent, op, |span| {
                let mut outcome = self.request(line, tracer, span, op, &mut log)?;
                let payload = if collect { outcome.payload.take() } else { None };
                let (outcome, text) = tracer.span("runtime.encode", span, op, |_| {
                    let stripped = outcome.without_payload();
                    let text = serde_json::to_string(&stripped);
                    (stripped, text)
                });
                Some((outcome, payload, text.ok()?.len()))
            });
            log.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let Some((outcome, payload, bytes)) = served else {
                log.failed += 1;
                continue;
            };
            log.response_bytes += bytes;
            let ok = outcome.status == JobStatus::Ok;
            if collect {
                if let (true, Some(p)) = (ok, payload) {
                    log.cold.entry(*cell).or_insert((answer_of(p), outcome.converged));
                }
            } else if !(ok
                && digest_of(cell.algo, &outcome)
                    .is_some_and(|d| self.digests.get(cell).is_some_and(|want| d.agrees(want))))
            {
                log.failed += 1;
            }
            log.calls.push((*cell, call_of(cell.algo, &outcome)));
        }
        log
    }

    fn run_clients(
        &self,
        tracer: &Tracer,
        collect: bool,
    ) -> (Pass, BTreeMap<Cell, (Answer, bool)>) {
        let mut pass = Pass::default();
        let mut cold = BTreeMap::new();
        tracer.span("bench.pass", 0, 0, |pass_span| {
            let t0 = Instant::now();
            let logs: Vec<ClientLog> = std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .requests
                    .iter()
                    .enumerate()
                    .map(|(c, list)| {
                        let first_op = (c * 1_000_000 + 1) as u64;
                        s.spawn(move || self.client(list, first_op, tracer, pass_span, collect))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
            });
            pass.wall_s = t0.elapsed().as_secs_f64();
            for log in logs {
                pass.sample("runtime.queue_full_retries", log.queue_full as f64);
                pass.sample("runtime.protocol.response_bytes", log.response_bytes as f64);
                pass.op_ms.extend(log.op_ms);
                pass.calls.extend(log.calls);
                pass.failed += log.failed;
                for (cell, answer) in log.cold {
                    cold.entry(cell).or_insert(answer);
                }
            }
        });
        (pass, cold)
    }
}

/// Build the serving stack, register the graphs, and fill the
/// tuned-config cache with one cold pass.
pub fn setup(cfg: &Config, tracer: &Tracer, ring: Option<&Arc<SpanRing>>) -> Setup<Serve> {
    let specs = inputs::serve_graphs(SCALE * cfg.size);
    let plain = Graphs::build_plain(&specs, tracer);

    let t0 = Instant::now();
    let mut rng = Rng::new(cfg.seed, "serve-requests");
    let pools: Vec<_> = plain.iter().map(|g| inputs::sources(g, POOL, &mut rng)).collect();
    let requests = inputs::serve_requests(&specs, &pools, &PER_PAIR, CLIENTS, &mut rng);
    let excluded_s = t0.elapsed().as_secs_f64();

    let registry = Arc::new(GraphRegistry::new());
    let entries: Vec<_> = specs
        .iter()
        .zip(&plain)
        .map(|(s, g)| {
            tracer.span("runtime.registry.insert", 0, 0, |_| registry.insert(s.name, (**g).clone()))
        })
        .collect();
    let cache = Arc::new(ConfigCache::new());
    let mut obs = RuntimeObs::new();
    if let Some(ring) = ring {
        // Traced run: the always-on span ring is swapped for one large
        // enough to keep a whole pass, so its profile is complete.
        obs.spans = Arc::clone(ring);
    }
    let obs = Arc::new(obs);
    let config =
        SchedulerConfig { workers: WORKERS, device: device(), ..SchedulerConfig::default() };
    let scheduler =
        Scheduler::with_obs(Arc::clone(&registry), Arc::clone(&cache), config, Arc::clone(&obs));

    // The weighted twins are the registry's own, built on first SSSP.
    let graphs = Graphs { specs, weighted: plain.clone(), plain };
    let mut serve = Serve { graphs, cache, obs, scheduler, requests, digests: BTreeMap::new() };
    let t1 = Instant::now();
    let (_, cold) =
        tracer.span("bench.cold_pass", 0, 0, |_| serve.run_clients(&Tracer::new(false), true));
    let cold_pass_s = t1.elapsed().as_secs_f64();
    serve.graphs.weighted = entries.iter().map(|e| e.weighted()).collect();
    serve.cache.reset_counters();
    Setup { workload: serve, cold, excluded_s, cold_pass_s }
}

impl Workload for Serve {
    fn graphs(&self) -> &Graphs {
        &self.graphs
    }

    fn install(&mut self, digests: BTreeMap<Cell, Digest>) {
        self.digests = digests;
    }

    fn pass(&self, tracer: &Tracer, _ring: Option<&Arc<SpanRing>>) -> Pass {
        self.run_clients(tracer, false).0
    }

    fn layer_values(&self, traced: &[Pass], values: &mut Values) {
        let spans = self.obs.spans.snapshot();
        let ms_of = |kind: SpanKind| -> Vec<f64> {
            spans.iter().filter(|s| s.kind == kind).map(|s| s.dur_ms()).collect()
        };
        let waits = ms_of(SpanKind::QueueWait);
        values.set("runtime.scheduler.queue_wait_p50_ms", median(&waits));
        values.set("runtime.scheduler.queue_wait_p95_ms", percentile(&waits, 0.95));
        values.set("runtime.executor.execute_ms_p50", median(&ms_of(SpanKind::Execute)));

        let counters = self.cache.counters();
        values.set("runtime.cache.hit_ratio", counters.hit_rate());
        let m = self.obs.metrics.snapshot();
        let submitted = m.counter(metric::JOBS_SUBMITTED).max(1);
        values.set(
            "runtime.retried_share",
            m.counter(metric::JOBS_RETRIED) as f64 / submitted as f64,
        );

        let requests: usize = self.requests.iter().map(Vec::len).sum();
        values.set(
            "runtime.queue_full_retries",
            sample_sum_per_pass(traced, "runtime.queue_full_retries"),
        );
        values.set(
            "runtime.protocol.response_bytes",
            sample_sum_per_pass(traced, "runtime.protocol.response_bytes") / requests as f64,
        );
    }

    fn shutdown(self) {
        self.scheduler.shutdown();
    }
}
