//! `gswitch-serve` — a line-delimited JSON query server over the
//! GSWITCH runtime: one JSON request per stdin line, one JSON response
//! per stdout line; see `gswitch_runtime::protocol` for the command set.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use gswitch_runtime::executor::to_batch_query;
use gswitch_runtime::obs::metric;
use gswitch_runtime::protocol::{batch_shards, Request};
use gswitch_runtime::{
    ConfigCache, GraphRegistry, JobSpec, JobStatus, RuntimeObs, Scheduler, SchedulerConfig,
    SubmitError,
};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: gswitch-serve [--workers N] [--shards K] [--spans FILE] [--cache FILE] \
         [--retries N] [--strict-load] [--verify-every N]\n\
         \n\
         --workers N: scheduler worker threads; default min(available cores, 8).\n\
         --shards K: default shard count for `batch` requests — each batched graph is\n\
         partitioned into K resident shards on first use (a request's own \"shards\"\n\
         field overrides); 1..=64, default 4.\n\
         --spans FILE: on quit, write the wall-clock span log (request → queue-wait →\n\
         execute → super-step phases) as JSONL to FILE; render it with\n\
         `gswitch-trace --timeline out.json FILE` or `gswitch-trace --profile FILE`.\n\
         --cache FILE: warm the tuned-config cache from FILE at startup (a missing or\n\
         corrupt file degrades to an empty cache — the server always starts) and\n\
         persist it back on quit.\n\
         --retries N: resubmit a query up to N times when it fails for an\n\
         infrastructure reason (status `failed`, e.g. a worker panic); default 2.\n\
         --strict-load: refuse graph files that need repair (self loops, parallel\n\
         edges) instead of silently fixing them; loads are always validated\n\
         structurally and size-limited either way.\n\
         --verify-every N: run the engine's divergence sentinel every N super-steps —\n\
         each check re-derives the frontier serially and, on mismatch, repairs in\n\
         place and pins the run to the reference variant; default 0 (off). A job\n\
         picked up while the queue is at its shed watermark runs without it.\n\
         \n\
         Serves line-delimited JSON requests on stdin:\n\
           {{\"cmd\":\"load\",\"name\":\"kron\",\"gen\":{{\"kind\":\"rmat\",\"scale\":10}}}}\n\
           {{\"cmd\":\"query\",\"graph\":\"kron\",\"query\":{{\"Bfs\":{{\"src\":0}}}}}}\n\
           {{\"cmd\":\"batch\",\"graph\":\"kron\",\"queries\":[{{\"Bfs\":{{\"src\":0}}}},\"Cc\"],\"shards\":4}}\n\
           {{\"cmd\":\"query\",\"graph\":\"kron\",\"query\":\"Cc\",\"priority\":\"Interactive\"}}\n\
           {{\"cmd\":\"stats\"}} | {{\"cmd\":\"health\"}} | {{\"cmd\":\"trace\",\"enable\":true}} | \
         {{\"cmd\":\"trace\",\"path\":\"f.jsonl\",\"clear\":true}}\n\
           {{\"cmd\":\"save_cache\",\"path\":\"f\"}} | \
         {{\"cmd\":\"load_cache\",\"path\":\"f\"}} | {{\"cmd\":\"quit\"}}"
    );
    std::process::exit(2)
}

struct Args {
    workers: usize,
    shards: u32,
    spans: Option<String>,
    cache: Option<String>,
    retries: u32,
    strict_load: bool,
    verify_every: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        workers: SchedulerConfig::default().workers,
        shards: 4,
        spans: None,
        cache: None,
        retries: 2,
        strict_load: false,
        verify_every: 0,
    };
    fn num(it: &mut impl Iterator<Item = String>, name: &str) -> u64 {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{name} needs a numeric argument");
            std::process::exit(2)
        })
    }
    fn file(it: &mut impl Iterator<Item = String>, name: &str) -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{name} needs a file argument");
            std::process::exit(2)
        })
    }
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => args.workers = num(&mut it, "--workers") as usize,
            "--retries" => args.retries = num(&mut it, "--retries") as u32,
            "--strict-load" => args.strict_load = true,
            "--verify-every" => args.verify_every = num(&mut it, "--verify-every") as u32,
            "--shards" => args.shards = (num(&mut it, "--shards") as u32).max(1),
            "--spans" => args.spans = Some(file(&mut it, "--spans")),
            "--cache" => args.cache = Some(file(&mut it, "--cache")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    args
}

fn jline(v: serde_json::Value) -> String {
    // A response the protocol layer cannot serialize must still answer
    // the client with *something* parseable, not kill the connection.
    serde_json::to_string(&v)
        .unwrap_or_else(|e| format!("{{\"error\":\"response serialization: {e}\"}}"))
}

fn err_line(msg: impl std::fmt::Display) -> String {
    jline(serde_json::json!({ "error": msg.to_string() }))
}

/// Call `submit` until the queue has room: a full queue is back-pressure
/// (sleep 1 ms and try again), any other refusal is the client's answer.
fn admit<T>(mut submit: impl FnMut() -> Result<T, SubmitError>) -> Result<T, String> {
    loop {
        match submit() {
            Err(SubmitError::QueueFull) => std::thread::sleep(Duration::from_millis(1)),
            other => return other.map_err(|e| e.to_string()),
        }
    }
}

// The REPL dispatcher threads every service through one call; grouping
// them into a context struct would add a layer for no reader benefit.
#[allow(clippy::too_many_arguments)]
fn handle(
    req: Request,
    registry: &Arc<GraphRegistry>,
    cache: &Arc<ConfigCache>,
    scheduler: &Scheduler,
    obs: &Arc<RuntimeObs>,
    shards: u32,
    retries: u32,
    strict_load: bool,
) -> Result<Option<String>, String> {
    match req.cmd.as_str() {
        "load" => {
            let name = req.name.ok_or("load needs `name`")?;
            // Every load goes through the hardened path: size-limited,
            // overflow-checked parsing, then structural validation at
            // registration. --strict-load additionally turns any needed
            // repair (self loops, parallel edges) into an error.
            let (entry, repaired) = match (&req.path, &req.gen) {
                (Some(path), None) => {
                    let opts = if strict_load {
                        gswitch_graph::io::LoadOptions::strict()
                    } else {
                        gswitch_graph::io::LoadOptions::default()
                    };
                    registry
                        .load_path(&name, path, &opts)
                        .map_err(|e| format!("loading `{path}`: {e}"))?
                }
                (None, Some(spec)) => (registry.insert_validated(&name, spec.build()?)?, 0),
                _ => return Err("load needs exactly one of `path` or `gen`".into()),
            };
            Ok(Some(jline(serde_json::json!({
                "ok": "loaded",
                "name": name,
                "vertices": entry.graph().num_vertices(),
                "edges": entry.graph().num_edges(),
                "fingerprint": entry.fingerprint().to_hex(),
                "repaired_edges": repaired,
            }))))
        }
        "query" => {
            let graph = req.graph.ok_or("query needs `graph`")?;
            let query = req.query.ok_or("query needs `query`")?;
            let spec = JobSpec { graph, query, timeout_ms: req.timeout_ms, priority: req.priority };
            // Transient worker failures (status `failed`) are retried
            // transparently up to --retries times; only the final
            // outcome reaches the client.
            let outcome = admit(|| {
                scheduler.submit_with_retry(spec.clone(), retries, Duration::from_millis(5))
            })?;
            let outcome =
                if req.payload.unwrap_or(false) { outcome } else { outcome.without_payload() };
            serde_json::to_string(&outcome).map(Some).map_err(|e| e.to_string())
        }
        "batch" => {
            let graph = req.graph.ok_or("batch needs `graph`")?;
            let queries = req.queries.ok_or("batch needs `queries`")?;
            if queries.is_empty() {
                return Err("batch needs at least one query".into());
            }
            // Refuse the whole batch before any of it is admitted.
            for q in &queries {
                to_batch_query(q)?;
            }
            let k = batch_shards(req.shards.unwrap_or(shards))?;
            // Submit every query as its own sharded job, then wait for
            // all of them: each gets an id, a deadline, a priority and a
            // breaker vote like any `query`. A refusal part-way cancels
            // the jobs already admitted, so an error answer leaves no
            // work behind.
            let mut handles = Vec::with_capacity(queries.len());
            for query in queries {
                let spec = JobSpec {
                    graph: graph.clone(),
                    query,
                    timeout_ms: req.timeout_ms,
                    priority: req.priority,
                };
                match admit(|| scheduler.submit_sharded(spec.clone(), k)) {
                    Ok(handle) => handles.push(handle),
                    Err(e) => {
                        for handle in &handles {
                            scheduler.cancel(handle.id);
                        }
                        return Err(e);
                    }
                }
            }
            let outcomes: Vec<_> =
                handles.into_iter().map(|h| h.wait().without_payload()).collect();
            let values_of =
                |name: &'static str| outcomes.iter().filter_map(move |o| o.metric(name));
            Ok(Some(jline(serde_json::json!({
                "ok": "batch",
                "graph": graph,
                "shards": k,
                "queries": outcomes.len(),
                "ok_count": outcomes.iter().filter(|o| o.status == JobStatus::Ok).count(),
                "sim_ms": outcomes.iter().map(|o| o.sim_ms).sum::<f64>(),
                "exchange_records": values_of("exchange_records").sum::<f64>() as u64,
                "exchange_bytes": values_of("exchange_bytes").sum::<f64>() as u64,
                "max_imbalance": values_of("imbalance").fold(0.0, f64::max),
                "outcomes": outcomes,
            }))))
        }
        "stats" => {
            let counters = cache.counters();
            // The unified registry snapshot (queue depth gauge, stage
            // latency histograms, job outcome counters including the
            // deadline/cancel drops, shared cache counters). gswitch-obs
            // renders its own JSON; re-parse it into a Value to embed.
            let metrics: serde_json::Value =
                serde_json::from_str(&obs.metrics.snapshot().to_json())
                    .map_err(|e| format!("metrics snapshot: {e}"))?;
            // Hardening counters since startup: the registry's refused
            // loads, repairs and refused graphs, and the sentinel's
            // mismatches over every job (also inside `metrics`).
            let hardening = serde_json::json!({
                "load_rejected": obs.metrics.counter(metric::LOAD_REJECTED).get(),
                "edges_repaired": obs.metrics.counter(metric::EDGES_REPAIRED).get(),
                "graphs_rejected": obs.metrics.counter(metric::GRAPHS_REJECTED).get(),
                "sentinel_mismatch": obs.metrics.counter(metric::SENTINEL_MISMATCH).get(),
            });
            // Partitioned-serving surface: the scheduler's resident plan
            // store and the exchange totals of every sharded job (the
            // imbalance histogram lives in `metrics`).
            let plans = scheduler.plans();
            let shard_stats = serde_json::json!({
                "default_k": shards,
                "resident_plans": plans.len(),
                "plan_keys": plans.keys(),
                "plan_hits": plans.hits(),
                "plan_misses": plans.misses(),
                "plan_evictions": plans.evictions(),
                "exchange_records": obs.metrics.counter(metric::SHARD_EXCHANGE_RECORDS).get(),
                "exchange_bytes": obs.metrics.counter(metric::SHARD_EXCHANGE_BYTES).get(),
            });
            // Build/provenance block, so profiles and traces pulled off
            // a live server are attributable to an exact build. The
            // serve path decides with the heuristic AutoPolicy — no
            // model envelope is resident, hence the null checksum.
            let build = serde_json::json!({
                "version": env!("CARGO_PKG_VERSION"),
                "cost_model_version": gswitch_simt::COST_MODEL_VERSION,
                "device": SchedulerConfig::default().device.name,
                "model_schema_version": gswitch_core::MODEL_SCHEMA_VERSION,
                "model_checksum": serde_json::Value::Null,
                "uptime_s": obs.clock().now_ns() as f64 / 1e9,
            });
            // Self-time profile over the span ring: where request wall
            // time went, per span kind.
            let profile: serde_json::Value =
                serde_json::from_str(&gswitch_obs::profile(&obs.spans.snapshot()).to_json())
                    .map_err(|e| format!("span profile: {e}"))?;
            // Overload-resilience surface: shed/fast-fail counters,
            // breaker transitions, and sentinel skips. The raw counters
            // also appear inside `metrics`; this block is the curated
            // view clients and the soak harness key on.
            let breakers = scheduler.breakers();
            let resilience = serde_json::json!({
                "jobs_shed": obs.metrics.counter(metric::JOBS_SHED).get(),
                "jobs_breaker_open": obs.metrics.counter(metric::JOBS_BREAKER_OPEN).get(),
                "breaker_opened": obs.metrics.counter(metric::BREAKER_OPENED).get(),
                "breaker_half_open": obs.metrics.counter(metric::BREAKER_HALF_OPEN).get(),
                "breaker_closed": obs.metrics.counter(metric::BREAKER_CLOSED).get(),
                "breakers_open_now": breakers.open_count(),
                "sentinel_skipped": obs.metrics.counter(metric::SENTINEL_SKIPPED).get(),
                "queue_capacity": scheduler.capacity(),
                "queue_wait_p95_ms": scheduler.queue_wait_p95_ms(),
            });
            Ok(Some(jline(serde_json::json!({
                "ok": "stats",
                "build": build,
                "graphs": registry.summaries(),
                "cache": counters,
                "hit_rate": counters.hit_rate(),
                "queued": scheduler.queued(),
                "metrics": metrics,
                "shards": shard_stats,
                "resilience": resilience,
                "trace_enabled": obs.tracing(),
                "trace_events": obs.trace.len(),
                "spans": obs.spans.len(),
                "profile": profile,
                "hardening": hardening,
            }))))
        }
        "health" => {
            // Per-component liveness/degradation. Deliberately cheap:
            // reads atomics and short snapshots only, so it answers even
            // when every worker is busy and the queue is full.
            let report = gswitch_runtime::HealthReport::gather(scheduler, cache);
            serde_json::to_string(&report).map(Some).map_err(|e| e.to_string())
        }
        "trace" => {
            if let Some(on) = req.enable {
                obs.set_tracing(on);
            }
            let mut written: Option<u64> = None;
            if let Some(path) = &req.path {
                let text = obs.trace.to_jsonl();
                std::fs::write(path, &text).map_err(|e| format!("writing `{path}`: {e}"))?;
                written = Some(obs.trace.len() as u64);
            }
            if req.clear.unwrap_or(false) {
                obs.trace.clear();
            }
            Ok(Some(jline(serde_json::json!({
                "ok": "trace",
                "enabled": obs.tracing(),
                "events": obs.trace.len(),
                "dropped": obs.trace.dropped(),
                "written": written,
            }))))
        }
        "save_cache" => {
            let path = req.path.ok_or("save_cache needs `path`")?;
            cache.save(std::path::Path::new(&path)).map_err(|e| e.to_string())?;
            Ok(Some(jline(
                serde_json::json!({ "ok": "saved", "entries": cache.counters().entries }),
            )))
        }
        "load_cache" => {
            let path = req.path.ok_or("load_cache needs `path`")?;
            let loaded =
                ConfigCache::load(std::path::Path::new(&path)).map_err(|e| e.to_string())?;
            cache.absorb(&loaded);
            Ok(Some(jline(
                serde_json::json!({ "ok": "loaded", "entries": cache.counters().entries }),
            )))
        }
        "quit" => Ok(None),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn serve(args: &Args) {
    let registry = Arc::new(GraphRegistry::new());
    // --cache degrades, never blocks startup: a missing file is a
    // normal first run, a corrupt one comes up empty (and counted).
    let cache = Arc::new(match &args.cache {
        Some(path) => {
            let cache = ConfigCache::load_or_empty(path);
            let c = cache.counters();
            if c.load_failed > 0 {
                eprintln!("cache: `{path}` is corrupt; starting with an empty cache");
            } else {
                eprintln!("cache: {} tuned configs loaded from `{path}`", c.entries);
            }
            cache
        }
        None => ConfigCache::new(),
    });
    let obs = Arc::new(RuntimeObs::new());
    let scheduler = Scheduler::with_obs(
        Arc::clone(&registry),
        Arc::clone(&cache),
        SchedulerConfig {
            workers: args.workers,
            verify_every: args.verify_every,
            ..SchedulerConfig::default()
        },
        Arc::clone(&obs),
    );

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match serde_json::from_str::<Request>(&line) {
            Ok(req) => match handle(
                req,
                &registry,
                &cache,
                &scheduler,
                &obs,
                args.shards,
                args.retries,
                args.strict_load,
            ) {
                Ok(Some(resp)) => resp,
                Ok(None) => break, // quit
                Err(msg) => err_line(msg),
            },
            Err(e) => err_line(format!("bad request: {e}")),
        };
        let mut out = stdout.lock();
        if writeln!(out, "{response}").and_then(|()| out.flush()).is_err() {
            break; // reader went away
        }
    }
    // Workers flush their span buffers as they wind down, so the span
    // log is complete only after shutdown.
    scheduler.shutdown();
    if let Some(path) = &args.cache {
        match cache.save(path) {
            Ok(()) => {
                eprintln!("cache: {} tuned configs saved to `{path}`", cache.counters().entries)
            }
            Err(e) => eprintln!("cache: saving `{path}`: {e}"),
        }
    }
    if let Some(path) = &args.spans {
        match std::fs::write(path, obs.spans.to_jsonl()) {
            Ok(()) => eprintln!(
                "spans: {} spans written to `{path}` ({} evicted from the ring)",
                obs.spans.len(),
                obs.spans.dropped()
            ),
            Err(e) => eprintln!("spans: writing `{path}`: {e}"),
        }
    }
}

fn main() {
    serve(&parse_args());
}
