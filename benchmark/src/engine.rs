//! `engine-bulk` and `engine-steps`: 70 `gswitch_algos` calls per pass
//! under the trained `ModelPolicy`, on five scale-free graphs (edge
//! throughput dominates) or five high-diameter graphs (per-super-step
//! fixed cost dominates). Same code, opposite use of the same kernels.

use crate::drive::{Config, Setup, Workload};
use crate::inputs::{self, Cell, GraphSpec, Rng};
use crate::record::{device, run_cell, Graphs, Pass, System};
use crate::trace::Tracer;
use crate::verify::Digest;
use gswitch_core::{EngineOptions, ModelPolicy, SpanCtx, SpanRing};
use gswitch_graph::gen;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Where the trained selector lives, relative to the checkout root.
pub const MODEL_PATH: &str = "models/gswitch_model.json";

/// Traversal sources per graph: four for each of BFS, SSSP and BC.
const SOURCES: usize = 12;

/// Load the trained model; a partial or failed load would silently
/// measure the rule-based fallback, so it fails the run instead.
pub fn load_model() -> Result<ModelPolicy, String> {
    let (model, report) = ModelPolicy::load_or_fallback(MODEL_PATH);
    if let Some(e) = report.error {
        return Err(format!("{MODEL_PATH}: {e}"));
    }
    if report.kept != 5 || !report.dropped.is_empty() {
        return Err(format!("{MODEL_PATH}: only {} of 5 trees usable", report.kept));
    }
    Ok(model)
}

pub struct Engine {
    graphs: Graphs,
    policy: ModelPolicy,
    ops: Vec<Cell>,
    digests: BTreeMap<Cell, Digest>,
}

fn setup(specs: Vec<GraphSpec>, cfg: &Config, tracer: &Tracer) -> Setup<Engine> {
    let policy =
        tracer.span("core.model_load", 0, 0, |_| load_model()).unwrap_or_else(|e| crate::die(&e));
    let plain = Graphs::build_plain(&specs, tracer);
    let weighted = plain
        .iter()
        .map(|g| {
            tracer.span("setup.fingerprint", 0, 0, |_| std::hint::black_box(g.fingerprint()));
            Arc::new(
                tracer.span("setup.weights", 0, 0, |_| gen::with_random_weights(g, 64, 0xC0FFEE)),
            )
        })
        .collect();
    let graphs = Graphs { specs, plain, weighted };

    let t0 = Instant::now();
    let mut rng = Rng::new(cfg.seed, "engine-sources");
    let sources: Vec<_> =
        graphs.plain.iter().map(|g| inputs::sources(g, SOURCES, &mut rng)).collect();
    let ops = inputs::engine_ops(&sources);
    let excluded_s = t0.elapsed().as_secs_f64();

    let engine = Engine { graphs, policy, ops, digests: BTreeMap::new() };
    let t1 = Instant::now();
    let cold = tracer.span("bench.cold_pass", 0, 0, |_| {
        let opts = EngineOptions::on(device());
        let system = System::Gswitch(&engine.policy);
        engine
            .ops
            .iter()
            .map(|&cell| {
                let (answer, converged, _) = run_cell(&engine.graphs, cell, &system, &opts);
                (cell, (answer, converged))
            })
            .collect()
    });
    let cold_pass_s = t1.elapsed().as_secs_f64();
    Setup { workload: engine, cold, excluded_s, cold_pass_s }
}

impl Workload for Engine {
    fn graphs(&self) -> &Graphs {
        &self.graphs
    }

    fn install(&mut self, digests: BTreeMap<Cell, Digest>) {
        self.digests = digests;
    }

    fn pass(&self, tracer: &Tracer, ring: Option<&Arc<SpanRing>>) -> Pass {
        let mut pass = Pass::default();
        tracer.span("bench.pass", 0, 0, |pass_span| {
            for (i, &cell) in self.ops.iter().enumerate() {
                let op = i as u64 + 1;
                let opts = EngineOptions {
                    spans: ring.map(|r| SpanCtx::new(r.collector(), 0, 0, op)).unwrap_or_default(),
                    ..EngineOptions::on(device())
                };
                let name = match cell.algo {
                    inputs::Algo::Bfs => "algos.bfs",
                    inputs::Algo::Cc => "algos.cc",
                    inputs::Algo::Pr => "algos.pr",
                    inputs::Algo::Sssp => "algos.sssp",
                    inputs::Algo::Bc => "algos.bc",
                };
                let (answer, converged, call) = tracer.span(name, pass_span, op, |_| {
                    run_cell(&self.graphs, cell, &System::Gswitch(&self.policy), &opts)
                });
                if !self
                    .digests
                    .get(&cell)
                    .is_some_and(|d| Digest::of(&answer, converged).agrees(d))
                {
                    pass.failed += 1;
                }
                pass.op_ms.push(call.wall_ms);
                pass.calls.push((cell, call));
            }
        });
        // Ops run back to back on one thread: the pass is their sum, and
        // the per-op answer check between them stays off the clock.
        pass.wall_s = pass.op_ms.iter().sum::<f64>() / 1e3;
        pass
    }
}

/// Vertex-count factors against the full-size recipes, frozen so a pass
/// takes about a second on two cores.
const BULK_SCALE: f64 = 0.30;
const STEPS_SCALE: f64 = 0.15;

/// `engine-bulk`: ~10^5-10^6 edges per super-step; most of the wall is in
/// `expand`.
pub fn setup_bulk(cfg: &Config, tracer: &Tracer, _ring: Option<&Arc<SpanRing>>) -> Setup<Engine> {
    setup(inputs::bulk_graphs(BULK_SCALE * cfg.size), cfg, tracer)
}

/// `engine-steps`: tens of thousands of super-steps over tiny frontiers;
/// the wall is per-call fixed cost in inspect, filter and expand alike.
pub fn setup_steps(cfg: &Config, tracer: &Tracer, _ring: Option<&Arc<SpanRing>>) -> Setup<Engine> {
    setup(inputs::steps_graphs(STEPS_SCALE * cfg.size), cfg, tracer)
}
