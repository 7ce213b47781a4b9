//! Micro-probes of the traced run: direct calls into single layers, on
//! states the benchmark captures itself and sized so the signal is far
//! above the cost of the call. Every call sits in a benchmark span.

use crate::drive::Config;
use crate::engine::load_model;
use crate::inputs::{request_line, Algo, Cell, Rng};
use crate::metrics::Values;
use crate::record::{device, Graphs};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use gswitch_algos::{Bfs, Cc};
use gswitch_core::oracle::{oracle_run, OracleOptions};
use gswitch_core::policy::AppCaps;
use gswitch_core::{
    AutoPolicy, DecisionContext, Policy, ProbeHandle, RecorderHandle, SpanCtx, SpanKind, SpanRing,
};
use gswitch_graph::{gen, Graph};
use gswitch_kernels::{
    classify, expand, materialize, AsFormat, Direction, EdgeApp as _, ExpandOutput, Fusion,
    KernelConfig, LoadBalance, SteppingDelta,
};
use gswitch_obs::{Histogram, TraceEvent, TraceRing};
use gswitch_runtime::protocol::Request;
use gswitch_runtime::{
    execute, ConfigCache, GraphRegistry, JobSpec, Query, Scheduler, SchedulerConfig,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repeats of a probe whose state must be rebuilt each time.
const REPEATS: usize = 7;

fn config(direction: Direction, format: AsFormat) -> KernelConfig {
    KernelConfig {
        direction,
        format,
        lb: LoadBalance::Twc,
        stepping: SteppingDelta::Remain,
        fusion: Fusion::Standalone,
    }
}

/// Nanoseconds per iteration of `f`, median of five timed loops.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let loops: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&loops)
}

/// BFS on `g` from `src`, stopped before the Expand of `level`: the app
/// and the classification snapshot of that level.
fn bfs_state(g: &Graph, src: u32, level: u32) -> (Bfs, Vec<u8>) {
    let spec = device();
    let app = Bfs::new(g.num_vertices(), src);
    for it in 0..level {
        app.advance(it);
        let co = classify(g, &app, &spec);
        let (f, _) =
            materialize::<Bfs>(g, &co.status, Direction::Push, AsFormat::UnsortedQueue, &spec);
        expand(g, &app, &f, &co.status, KernelConfig::push_baseline(), &spec);
    }
    app.advance(level);
    let status = classify(g, &app, &spec).status;
    (app, status)
}

/// The BFS level of `g` from `src` whose push Expand traverses the most
/// edges.
fn hump_level(g: &Graph, src: u32) -> u32 {
    let spec = device();
    let app = Bfs::new(g.num_vertices(), src);
    let mut best = (0, 0u64);
    for it in 0.. {
        app.advance(it);
        let co = classify(g, &app, &spec);
        let (f, _) =
            materialize::<Bfs>(g, &co.status, Direction::Push, AsFormat::UnsortedQueue, &spec);
        if f.is_empty() {
            break;
        }
        let eo = expand(g, &app, &f, &co.status, KernelConfig::push_baseline(), &spec);
        if eo.edges_touched > best.1 {
            best = (it, eo.edges_touched);
        }
    }
    best.0
}

/// `kernels.*`, `simt.price_ns`: classify, materialize and expand called
/// directly at the hump of a BFS on a ~10^6-edge Kronecker graph, and
/// expand on a one-vertex frontier for the per-call floor.
fn kernels(seed: u64, tracer: &Tracer, values: &mut Values) {
    let spec = device();
    let g = gen::kronecker(16, 8, Rng::new(seed, "probe-graph").next_u64());
    let src = g.max_degree_vertex().unwrap_or(0);
    let level = hump_level(&g, src);
    let n = g.num_vertices() as f64;

    let mut last: Option<ExpandOutput> = None;
    for (direction, format, name) in [
        (Direction::Push, AsFormat::UnsortedQueue, "kernels.expand.push_ns_per_edge"),
        (Direction::Pull, AsFormat::Bitmap, "kernels.expand.pull_ns_per_edge"),
    ] {
        let per_edge: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let (app, status) = bfs_state(&g, src, level);
                let (frontier, _) = materialize::<Bfs>(&g, &status, direction, format, &spec);
                let t0 = Instant::now();
                let eo = tracer.span("kernels.expand", 0, 0, |_| {
                    expand(&g, &app, &frontier, &status, config(direction, format), &spec)
                });
                let ns = t0.elapsed().as_nanos() as f64;
                let edges = eo.edges_touched.max(1) as f64;
                last = Some(eo);
                ns / edges
            })
            .collect();
        values.set(name, median(&per_edge));
    }

    let (app, status) = bfs_state(&g, src, level);
    let ns = ns_per_call(REPEATS, || {
        tracer.span("kernels.classify", 0, 0, |_| black_box(classify(&g, &app, &spec)));
    });
    values.set("kernels.classify_ns_per_vertex", ns / n);
    for (format, span, name) in [
        (
            AsFormat::Bitmap,
            "kernels.materialize.bitmap",
            "kernels.materialize.bitmap_ns_per_vertex",
        ),
        (
            AsFormat::UnsortedQueue,
            "kernels.materialize.queue",
            "kernels.materialize.queue_ns_per_vertex",
        ),
    ] {
        let ns = ns_per_call(REPEATS, || {
            tracer.span(span, 0, 0, |_| {
                black_box(materialize::<Bfs>(&g, &status, Direction::Push, format, &spec))
            });
        });
        values.set(name, ns / n);
    }

    // Per-call floor: the first super-step of a BFS on a small grid, a
    // frontier of one vertex.
    let grid = gen::grid2d(64, 64, 0.0, seed);
    let floors: Vec<f64> = (0..200)
        .map(|_| {
            let (app, status) = bfs_state(&grid, 2080, 0);
            let (frontier, _) =
                materialize::<Bfs>(&grid, &status, Direction::Push, AsFormat::UnsortedQueue, &spec);
            let t0 = Instant::now();
            black_box(tracer.span("kernels.expand_floor", 0, 0, |_| {
                expand(&grid, &app, &frontier, &status, KernelConfig::push_baseline(), &spec)
            }));
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    values.set("kernels.expand.call_floor_us", median(&floors));

    if let Some(eo) = last {
        values.set(
            "simt.price_ns",
            ns_per_call(20_000, || {
                black_box(spec.kernel_time_ms(black_box(&eo.profile)));
            }),
        );
    }
}

/// `ml.predict_ns`, `core.inspect_us_per_iter`, `core.select_*`: the
/// Inspector's feature vector and the Selector's decision on a fixed
/// mid-run context.
fn tuner(seed: u64, values: &mut Values) {
    let g = gen::kronecker(12, 8, Rng::new(seed, "probe-tuner").next_u64());
    let src = g.max_degree_vertex().unwrap_or(0);
    let (app, _) = bfs_state(&g, src, 1);
    let stats = classify(&g, &app, &device()).stats;
    let ctx = DecisionContext {
        stats,
        t_f: 0.01,
        t_e: 0.02,
        t_f_avg: 0.01,
        t_e_avg: 0.02,
        iteration: 1,
        ..DecisionContext::initial(*g.stats())
    };
    let caps = AppCaps::of::<Bfs>();
    let model = load_model().unwrap_or_else(|e| crate::die(&e));

    let features = ctx.features(Direction::Push);
    if let Some(tree) = &model.direction {
        values.set(
            "ml.predict_ns",
            ns_per_call(50_000, || {
                black_box(tree.predict(black_box(&features)));
            }),
        );
    }
    values.set(
        "core.inspect_us_per_iter",
        ns_per_call(50_000, || {
            black_box(black_box(&ctx).features(Direction::Push));
        }) / 1e3,
    );
    values.set(
        "core.select_model_us_per_iter",
        ns_per_call(20_000, || {
            black_box(model.decide(black_box(&ctx), &caps));
        }) / 1e3,
    );
    values.set(
        "core.select_rules_us_per_iter",
        ns_per_call(20_000, || {
            black_box(AutoPolicy.decide(black_box(&ctx), &caps));
        }) / 1e3,
    );
}

/// `obs.*`: what recording one span, one histogram observation and one
/// decision-trace event costs.
fn observability(values: &mut Values) {
    let ring = Arc::new(SpanRing::new(1 << 16));
    let local = ring.collector().local(0, 0);
    values.set("obs.span_ns", ns_per_call(50_000, || drop(local.start(SpanKind::Expand, 0))));

    let hist = Histogram::latency_ms();
    let mut x = 0.0;
    values.set(
        "obs.metric_observe_ns",
        ns_per_call(200_000, || {
            x += 0.37;
            hist.observe(black_box(x % 900.0));
        }),
    );

    let trace = Arc::new(TraceRing::new(1 << 16));
    let recorder = trace.recorder(1, "probe", "bfs");
    let event = TraceEvent {
        iteration: 3,
        config: KernelConfig::push_baseline(),
        provenance: gswitch_obs::Provenance::Decided,
        predicted_ms: 0.02,
        measured_ms: 0.03,
        filter_ms: 0.01,
        overhead_ms: 0.005,
        v_active: 1000,
        e_active: 16_000,
        edges_touched: 16_000,
        activations: 900,
        duplicates: 0,
        task_total_cycles: 1e6,
        task_max_cycles: 1e4,
        task_count: 128,
        features: [0.5; gswitch_ml::FEATURE_COUNT],
        shard: None,
    };
    values.set("obs.recorder_event_ns", ns_per_call(50_000, || recorder.record(black_box(&event))));
}

/// `runtime.*` unit costs on an idle serving stack with one tiny graph:
/// codec, registry, cache, admission, and what the scheduler adds to a
/// direct `execute` of the same query.
fn runtime(seed: u64, tracer: &Tracer, values: &mut Values) {
    let g = gen::kronecker(10, 8, Rng::new(seed, "probe-runtime").next_u64());
    let src = g.max_degree_vertex().unwrap_or(0);
    let registry = Arc::new(GraphRegistry::new());
    let entry = registry.insert("probe", g);
    let cache = Arc::new(ConfigCache::new());
    let config = SchedulerConfig { workers: 1, device: device(), ..SchedulerConfig::default() };
    let scheduler = Scheduler::new(Arc::clone(&registry), Arc::clone(&cache), config);
    let query = Query::Bfs { src };
    let spec =
        JobSpec { graph: "probe".into(), query: query.clone(), timeout_ms: None, priority: None };
    let line = request_line("probe", Cell { graph: 0, algo: Algo::Bfs, src });

    values.set(
        "runtime.protocol.decode_us",
        ns_per_call(2_000, || {
            black_box(serde_json::from_str::<Request>(black_box(&line)).is_ok());
        }) / 1e3,
    );

    // Served: admission to outcome through the one-worker scheduler.
    let mut submit_us = Vec::new();
    let mut served_us = Vec::new();
    let mut outcome = None;
    for i in 0..120u64 {
        let t0 = Instant::now();
        let handle = tracer.span("runtime.submit", 0, i, |_| scheduler.submit(spec.clone()));
        let Ok(handle) = handle else { crate::die("the idle probe scheduler refused a job") };
        submit_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let out = tracer.span("runtime.wait", 0, i, |_| handle.wait());
        served_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        outcome = Some(out);
    }
    scheduler.shutdown();
    values.set("runtime.scheduler.submit_us", median(&submit_us));

    // Direct: the same query through `execute` on this thread.
    let direct_us: Vec<f64> = (0..120u64)
        .map(|i| {
            let t0 = Instant::now();
            let done = tracer.span("runtime.execute", 0, i, |_| {
                execute(
                    &entry,
                    &query,
                    &cache,
                    &AutoPolicy,
                    &device(),
                    RecorderHandle::none(),
                    ProbeHandle::none(),
                    0,
                    SpanCtx::default(),
                )
            });
            black_box(done.is_ok());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    values.set("runtime.scheduler.overhead_us", median(&served_us) - median(&direct_us));

    if let Some(out) = outcome {
        let stripped = out.without_payload();
        values.set(
            "runtime.protocol.encode_us",
            ns_per_call(500, || {
                black_box(serde_json::to_string(black_box(&stripped)).is_ok());
            }) / 1e3,
        );
    }
    values.set(
        "runtime.registry.get_ns",
        ns_per_call(50_000, || {
            black_box(registry.get(black_box("probe")).is_some());
        }),
    );
    let key = gswitch_runtime::CacheKey::new(
        entry.fingerprint(),
        "bfs",
        &gswitch_runtime::cache::feature_bucket(entry.graph().stats()),
    );
    values.set(
        "runtime.cache.lookup_ns",
        ns_per_call(50_000, || {
            black_box(cache.lookup(black_box(&key)).is_some());
        }),
    );
}

/// `core.sim_over_oracle`: GSWITCH's simulated time over the brute-force
/// oracle's on a fixed subset of the workload's cells — per graph its
/// first BFS cell and its CC cell. Returns the seconds the oracle took.
fn oracle(
    graphs: &Graphs,
    cells: &[Cell],
    gswitch_sim: &BTreeMap<Cell, f64>,
    tracer: &Tracer,
    values: &mut Values,
) -> f64 {
    let t0 = Instant::now();
    let opts = OracleOptions { device: device(), ..OracleOptions::default() };
    let mut ratios = Vec::new();
    for graph in 0..graphs.plain.len() {
        for algo in [Algo::Bfs, Algo::Cc] {
            let Some(cell) = cells.iter().find(|c| c.graph == graph && c.algo == algo) else {
                continue;
            };
            let Some(&sim) = gswitch_sim.get(cell) else { continue };
            let g = graphs.for_cell(*cell);
            let n = g.num_vertices();
            let best = tracer.span("core.oracle_run", 0, 0, |_| match algo {
                Algo::Bfs => oracle_run(g, &Bfs::new(n, cell.src), "bfs", &opts).optimal_ms,
                _ => oracle_run(g, &Cc::new(n), "cc", &opts).optimal_ms,
            });
            if best > 0.0 {
                ratios.push(sim / best);
            }
        }
    }
    if !ratios.is_empty() {
        values.set("core.sim_over_oracle", geomean(&ratios));
    }
    t0.elapsed().as_secs_f64()
}

/// Run every probe; returns the seconds spent in oracle runs.
pub fn run(
    cfg: &Config,
    graphs: &Graphs,
    cells: &[Cell],
    gswitch_sim: &BTreeMap<Cell, f64>,
    tracer: &Tracer,
    values: &mut Values,
) -> f64 {
    kernels(cfg.seed, tracer, values);
    tuner(cfg.seed, values);
    observability(values);
    runtime(cfg.seed, tracer, values);
    oracle(graphs, cells, gswitch_sim, tracer, values)
}
