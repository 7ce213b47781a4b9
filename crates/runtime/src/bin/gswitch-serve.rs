//! `gswitch-serve` — a line-delimited JSON query server over the
//! GSWITCH runtime, plus a synthetic load generator.
//!
//! Serve mode (default): one JSON request per stdin line, one JSON
//! response per stdout line; see `gswitch_runtime::protocol` for the
//! command set.
//!
//! `--bench-load` mode: replay a deterministic mixed workload twice —
//! cold (empty tuned-config cache) then warm (cache filled by the cold
//! pass) — and print QPS, latency percentiles, and hit rates.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use gswitch_runtime::bench_load::bench_load_with_obs;
use gswitch_runtime::protocol::Request;
use gswitch_runtime::{
    ConfigCache, GraphRegistry, JobSpec, RuntimeObs, Scheduler, SchedulerConfig, ShardService,
    SubmitError,
};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: gswitch-serve [--bench-load] [--queries N] [--workers N] [--seed N] \
         [--trace FILE] [--spans FILE] [--cache FILE] [--retries N] [--strict-load] \
         [--verify-every N] [--shards K]\n\
         \n\
         --shards K (serve mode): default shard count for `batch` requests — each\n\
         batched graph is partitioned into K resident shards on first use (a request's\n\
         own \"shards\" field overrides); default 4.\n\
         --trace FILE (with --bench-load): record a decision trace of the whole run\n\
         as JSONL to FILE; inspect it with `gswitch-trace FILE`.\n\
         --spans FILE (with --bench-load): write the wall-clock span log (request →\n\
         queue-wait → execute → super-step phases) as JSONL to FILE; render it with\n\
         `gswitch-trace --timeline out.json FILE` or `gswitch-trace --profile FILE`.\n\
         --cache FILE (serve mode): warm the tuned-config cache from FILE at startup\n\
         (a missing or corrupt file degrades to an empty cache — the server always\n\
         starts) and persist it back on quit.\n\
         --retries N (serve mode): resubmit a query up to N times when it fails for\n\
         an infrastructure reason (status `failed`, e.g. a worker panic); default 2.\n\
         --strict-load (serve mode): refuse graph files that need repair (self loops,\n\
         parallel edges) instead of silently fixing them; loads are always validated\n\
         structurally and size-limited either way.\n\
         --verify-every N (serve mode): run the engine's divergence sentinel every N\n\
         super-steps — each check re-derives the frontier serially and, on mismatch,\n\
         repairs in place and pins the run to the reference variant; default 0 (off).\n\
         \n\
         Without flags, serves line-delimited JSON requests on stdin:\n\
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
    bench: bool,
    queries: usize,
    workers: usize,
    seed: u64,
    trace: Option<String>,
    spans: Option<String>,
    cache: Option<String>,
    retries: u32,
    strict_load: bool,
    verify_every: u32,
    shards: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        bench: false,
        queries: 200,
        workers: 0,
        seed: 0x5EED,
        trace: None,
        spans: None,
        cache: None,
        retries: 2,
        strict_load: false,
        verify_every: 0,
        shards: 4,
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
            "--bench-load" => args.bench = true,
            "--queries" => args.queries = num(&mut it, "--queries") as usize,
            "--workers" => args.workers = num(&mut it, "--workers") as usize,
            "--seed" => args.seed = num(&mut it, "--seed"),
            "--retries" => args.retries = num(&mut it, "--retries") as u32,
            "--strict-load" => args.strict_load = true,
            "--verify-every" => args.verify_every = num(&mut it, "--verify-every") as u32,
            "--shards" => args.shards = (num(&mut it, "--shards") as u32).max(1),
            "--trace" => args.trace = Some(file(&mut it, "--trace")),
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

fn run_bench_load(args: &Args) -> i32 {
    let workers = if args.workers > 0 { args.workers } else { SchedulerConfig::default().workers };
    println!(
        "gswitch-serve --bench-load: {} queries, {} workers, seed {:#x}",
        args.queries, workers, args.seed
    );
    println!("graphs: rmat-mid (2^10, ef 8), road-grid (40x40), social-ba (1500, d 6)");
    println!("algorithms: bfs, pr, cc, sssp, bc (round-robin)\n");

    let obs = Arc::new(RuntimeObs::new());
    obs.set_tracing(args.trace.is_some());
    let (cold, warm) = bench_load_with_obs(args.queries, workers, args.seed, &obs);
    println!("{}", cold.render());
    println!("{}", warm.render());

    let speedup = if cold.qps > 0.0 { warm.qps / cold.qps } else { 0.0 };
    println!(
        "\nwarm/cold speedup: {speedup:.2}x  warm hit rate: {:.0}%  failures: {}",
        warm.hit_rate() * 100.0,
        cold.failed + warm.failed
    );

    let mut trace_ok = true;
    if let Some(path) = &args.trace {
        match std::fs::write(path, obs.trace.to_jsonl()) {
            Ok(()) => println!(
                "trace: {} events written to {path} ({} evicted from the ring)",
                obs.trace.len(),
                obs.trace.dropped()
            ),
            Err(e) => {
                eprintln!("trace: writing {path}: {e}");
                trace_ok = false;
            }
        }
    }
    if let Some(path) = &args.spans {
        match std::fs::write(path, obs.spans.to_jsonl()) {
            Ok(()) => println!(
                "spans: {} spans written to {path} ({} evicted from the ring)",
                obs.spans.len(),
                obs.spans.dropped()
            ),
            Err(e) => {
                eprintln!("spans: writing {path}: {e}");
                trace_ok = false;
            }
        }
    }

    let ok = cold.failed == 0
        && warm.failed == 0
        && warm.qps > cold.qps
        && warm.hit_rate() > 0.5
        && trace_ok;
    println!("verdict: {}", if ok { "PASS" } else { "FAIL" });
    i32::from(!ok)
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

// The REPL dispatcher threads every service through one call; grouping
// them into a context struct would add a layer for no reader benefit.
#[allow(clippy::too_many_arguments)]
fn handle(
    req: Request,
    registry: &Arc<GraphRegistry>,
    cache: &Arc<ConfigCache>,
    scheduler: &Scheduler,
    obs: &Arc<RuntimeObs>,
    shards: &ShardService,
    batch_seq: &std::sync::atomic::AtomicU64,
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
                    let (entry, report) = registry
                        .load_path_validated(&name, path, &opts)
                        .map_err(|e| format!("loading `{path}`: {e}"))?;
                    (entry, report.self_loops_dropped + report.parallel_edges_deduped)
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
            let outcome = loop {
                match scheduler.submit_with_retry(
                    spec.clone(),
                    retries,
                    std::time::Duration::from_millis(5),
                ) {
                    Ok(out) => break out,
                    Err(SubmitError::QueueFull) => {
                        std::thread::sleep(std::time::Duration::from_millis(1))
                    }
                    Err(e) => return Err(e.to_string()),
                }
            };
            let outcome =
                if req.payload.unwrap_or(false) { outcome } else { outcome.without_payload() };
            serde_json::to_string(&outcome).map(Some).map_err(|e| e.to_string())
        }
        "batch" => {
            let graph_name = req.graph.ok_or("batch needs `graph`")?;
            let queries = req.queries.ok_or("batch needs `queries`")?;
            let entry =
                registry.get(&graph_name).ok_or_else(|| format!("unknown graph `{graph_name}`"))?;
            let job = batch_seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let report = shards.batch(
                entry.graph(),
                entry.fingerprint().0,
                req.shards,
                req.tenant.as_deref(),
                &queries,
                job,
                &graph_name,
            )?;
            let outcomes: Vec<serde_json::Value> = report
                .outcomes
                .iter()
                .map(|o| {
                    serde_json::json!({
                        "index": o.index,
                        "algo": o.algo,
                        "status": o.status,
                        "error": o.error,
                        "converged": o.converged,
                        "supersteps": o.supersteps,
                        "sim_ms": o.sim_ms,
                        "wall_ms": o.wall_ms,
                        "exchange_records": o.exchange_records,
                        "exchange_bytes": o.exchange_bytes,
                        "imbalance": o.imbalance,
                    })
                })
                .collect();
            Ok(Some(jline(serde_json::json!({
                "ok": "batch",
                "graph": graph_name,
                "shards": req.shards.unwrap_or_else(|| shards.default_k()),
                "queries": report.outcomes.len(),
                "ok_count": report.ok_count(),
                "occupancy": report.occupancy(),
                "wall_ms": report.wall_ms,
                "sim_ms": report.sim_ms(),
                "exchange_records": report.exchange_records(),
                "exchange_bytes": report.exchange_bytes(),
                "max_imbalance": report.max_imbalance(),
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
            let h = gswitch_obs::hardening::snapshot();
            // Process-lifetime hardening counters: ingestion-side
            // rejections/repairs plus model-fallback and sentinel
            // interventions in the decision layer.
            let hardening = serde_json::json!({
                "load_rejected": gswitch_graph::validate::load_rejected(),
                "edges_repaired": gswitch_graph::validate::edges_repaired(),
                "graphs_rejected": gswitch_graph::validate::graphs_rejected(),
                "model_load_failed": h.model_load_failed,
                "model_fallback": h.model_fallback,
                "ood_feature_clamped": h.ood_feature_clamped,
                "sentinel_mismatch": h.sentinel_mismatch,
            });
            // Partitioned-serving surface: resident plan cache, quota
            // gate, and the batch telemetry counters (exchange volume,
            // occupancy and imbalance histograms live in `metrics`).
            use gswitch_runtime::obs::metric;
            let shard_stats = serde_json::json!({
                "default_k": shards.default_k(),
                "resident_plans": shards.store().len(),
                "plan_keys": shards.store().keys(),
                "plan_hits": shards.store().hits(),
                "plan_misses": shards.store().misses(),
                "plan_evictions": shards.store().evictions(),
                "quota_limit": shards.quotas().limit(),
                "quota_admissions": shards.quotas().admissions(),
                "quota_rejections": shards.quotas().rejections(),
                "batches": obs.metrics.counter(metric::BATCHES).get(),
                "batch_queries": obs.metrics.counter(metric::BATCH_QUERIES).get(),
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
            // breaker transitions, and brownout state. The raw counters
            // also appear inside `metrics`; this block is the curated
            // view clients and the soak harness key on.
            let breakers = scheduler.breakers();
            let brownout = scheduler.brownout();
            let resilience = serde_json::json!({
                "jobs_shed": obs.metrics.counter(metric::JOBS_SHED).get(),
                "jobs_deadline_unmeetable": obs.metrics.counter(metric::JOBS_UNMEETABLE).get(),
                "jobs_breaker_open": obs.metrics.counter(metric::JOBS_BREAKER_OPEN).get(),
                "breaker_opened": obs.metrics.counter(metric::BREAKER_OPENED).get(),
                "breaker_half_open": obs.metrics.counter(metric::BREAKER_HALF_OPEN).get(),
                "breaker_closed": obs.metrics.counter(metric::BREAKER_CLOSED).get(),
                "breakers_open_now": breakers.open_count(),
                "brownout_active": brownout.active(),
                "brownout_entered": brownout.entered(),
                "brownout_exited": brownout.exited(),
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
            let report = gswitch_runtime::HealthReport::gather(scheduler, cache, Some(shards));
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

fn serve(args: &Args) -> i32 {
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
        SchedulerConfig { verify_every: args.verify_every, ..SchedulerConfig::default() },
        Arc::clone(&obs),
    );
    let workers = if args.workers > 0 { args.workers } else { SchedulerConfig::default().workers };
    // The batch path shares the scheduler's breakers and brownout
    // detector: query and batch traffic see one (graph, algorithm)
    // health picture, and brownout tightens batch quotas.
    let shards = ShardService::new(Arc::clone(&obs), args.shards, workers)
        .with_breakers(Arc::clone(scheduler.breakers()))
        .with_brownout(Arc::clone(scheduler.brownout()));
    let batch_seq = std::sync::atomic::AtomicU64::new(1);

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
                &shards,
                &batch_seq,
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
    scheduler.shutdown();
    if let Some(path) = &args.cache {
        match cache.save(path) {
            Ok(()) => {
                eprintln!("cache: {} tuned configs saved to `{path}`", cache.counters().entries)
            }
            Err(e) => eprintln!("cache: saving `{path}`: {e}"),
        }
    }
    0
}

fn main() {
    let args = parse_args();
    let code = if args.bench { run_bench_load(&args) } else { serve(&args) };
    std::process::exit(code);
}
