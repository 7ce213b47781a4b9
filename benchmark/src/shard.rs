//! `shard-batch`: `gswitch_shard::execute_batch` on resident K = 4
//! `ShardPlan`s with two slots, 25 batches of three queries per pass. The
//! second super-step loop (`core::sharded`: push-pinned, fan-out, barrier,
//! exchange) uses the same kernels differently, so a gain on the engine
//! path that costs the sharded path shows here and nowhere else.

use crate::drive::{Config, Setup, Workload};
use crate::inputs::{self, batch_cell, Algo, Batch, Cell, Rng, PR_EPS};
use crate::metrics::Values;
use crate::record::{device, sample_sum_per_pass, samples_of, Call, Graphs, Pass};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::{Answer, Digest};
use gswitch_algos::{Bfs, Cc, PageRank};
use gswitch_core::{run_sharded, AutoPolicy, ShardedOptions, ShardedRunReport, SpanCtx, SpanRing};
use gswitch_graph::ShardedCsr;
use gswitch_shard::{execute_batch, BatchOptions, BatchResult, QueryStatus, ShardPlan, ShardStore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Shards per plan and concurrent query slots per batch.
const K: u32 = 4;
const SLOTS: usize = 2;
/// Sources each graph's BFS queries draw from.
const POOL: usize = 8;
/// Batches per graph and pass: 5 x 5 = 25.
const PER_GRAPH: usize = 5;
/// Frozen size against the recipe in `inputs::shard_graphs`.
const SCALE: f64 = 0.05;

pub struct Shard {
    graphs: Graphs,
    store: ShardStore,
    batches: Vec<Batch>,
    digests: BTreeMap<Cell, Digest>,
    /// Each cell's simulated time by phase, from one direct
    /// `run_sharded` on the K = 4 plan. `BatchOutcome::sim_ms` is
    /// `total_ms()`, host overhead included, so the deterministic part is
    /// taken from here.
    cell_sim: BTreeMap<Cell, (Call, f64)>,
}

fn answer_of(result: BatchResult) -> Answer {
    match result {
        BatchResult::Levels(v) => Answer::Levels(v),
        BatchResult::Ranks(v) => Answer::Ranks(v),
        BatchResult::Labels(v) => Answer::Labels(v),
    }
}

/// One cell straight through `core::run_sharded`: its phase split and the
/// host wall of the call.
fn direct(sharded: &ShardedCsr, graphs: &Graphs, cell: Cell) -> (Call, f64) {
    let opts = ShardedOptions::on(device());
    let g = &graphs.plain[cell.graph];
    let t0 = Instant::now();
    let report: ShardedRunReport = match cell.algo {
        Algo::Bfs => {
            run_sharded(sharded, &Bfs::new(g.num_vertices(), cell.src), &AutoPolicy, &opts)
        }
        Algo::Pr => run_sharded(sharded, &PageRank::new(g, PR_EPS), &AutoPolicy, &opts),
        Algo::Cc => run_sharded(sharded, &Cc::new(g.num_vertices()), &AutoPolicy, &opts),
        Algo::Sssp | Algo::Bc => unreachable!("batches hold BFS, PR and CC only"),
    }
    .unwrap_or_else(|e| crate::die(&format!("run_sharded: {e}")));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let call = Call {
        algo: Some(cell.algo),
        filter_ms: report.filter_ms(),
        expand_ms: report.expand_ms(),
        exchange_ms: report.exchange_ms(),
        supersteps: report.n_supersteps() as u64,
        edges: report.edges_touched(),
        ..Call::default()
    };
    (call, wall_ms)
}

impl Shard {
    fn plan(&self, graph: usize) -> Arc<ShardPlan> {
        self.store
            .get_or_partition(&self.graphs.plain[graph], K)
            .unwrap_or_else(|e| crate::die(&format!("partition: {e}")))
    }

    fn run_batches(
        &self,
        tracer: &Tracer,
        ring: Option<&Arc<SpanRing>>,
        collect: bool,
    ) -> (Pass, BTreeMap<Cell, (Answer, bool)>) {
        let mut pass = Pass::default();
        let mut cold = BTreeMap::new();
        tracer.span("bench.pass", 0, 0, |pass_span| {
            for (i, batch) in self.batches.iter().enumerate() {
                let op = i as u64 + 1;
                let opts = BatchOptions {
                    device: device(),
                    slots: SLOTS,
                    spans: ring.map(|r| SpanCtx::new(r.collector(), 0, 0, op)).unwrap_or_default(),
                    ..BatchOptions::default()
                };
                let t0 = Instant::now();
                let report = tracer.span("shard.batch", pass_span, op, |span| {
                    let plan = tracer.span("shard.store.get", span, op, |_| self.plan(batch.graph));
                    tracer.span("shard.execute_batch", span, op, |_| {
                        execute_batch(&plan, &batch.queries, &opts)
                    })
                });
                pass.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                pass.sample("shard.occupancy", report.occupancy());
                pass.sample("shard.exchange_bytes", report.exchange_bytes() as f64);
                pass.sample("shard.exchange_records", report.exchange_records() as f64);
                pass.sample("shard.max_imbalance", report.max_imbalance());

                let mut batch_ok = true;
                for (q, out) in batch.queries.iter().zip(report.outcomes) {
                    let cell = batch_cell(batch.graph, q);
                    let ok = out.status == QueryStatus::Ok;
                    let answer = out.result.map(answer_of);
                    let mut call = Call {
                        algo: Some(cell.algo),
                        wall_ms: out.wall_ms,
                        supersteps: u64::from(out.supersteps),
                        ..Call::default()
                    };
                    if let Some((sim, _)) = self.cell_sim.get(&cell) {
                        call.filter_ms = sim.filter_ms;
                        call.expand_ms = sim.expand_ms;
                        call.exchange_ms = sim.exchange_ms;
                        call.edges = sim.edges;
                        call.overhead_ms = (out.sim_ms - sim.sim_ms()).max(0.0);
                    }
                    pass.calls.push((cell, call));
                    match (collect, answer) {
                        (true, Some(a)) if ok => {
                            cold.entry(cell).or_insert((a, out.converged));
                        }
                        (false, Some(a)) => {
                            batch_ok &= ok
                                && self
                                    .digests
                                    .get(&cell)
                                    .is_some_and(|d| Digest::of(&a, out.converged).agrees(d));
                        }
                        _ => batch_ok = false,
                    }
                }
                pass.failed += usize::from(!batch_ok && !collect);
            }
        });
        // Batches run back to back on this thread: the pass is their sum.
        pass.wall_s = pass.op_ms.iter().sum::<f64>() / 1e3;
        (pass, cold)
    }
}

/// Build the graphs, partition them into resident plans and run one cold
/// pass.
pub fn setup(cfg: &Config, tracer: &Tracer, _ring: Option<&Arc<SpanRing>>) -> Setup<Shard> {
    let specs = inputs::shard_graphs(SCALE * cfg.size);
    let plain = Graphs::build_plain(&specs, tracer);

    let t0 = Instant::now();
    let mut rng = Rng::new(cfg.seed, "shard-batches");
    let pools: Vec<_> = plain.iter().map(|g| inputs::sources(g, POOL, &mut rng)).collect();
    let batches = inputs::shard_batches(&pools, PER_GRAPH, &mut rng);
    let excluded_s = t0.elapsed().as_secs_f64();

    let graphs = Graphs { specs, weighted: plain.clone(), plain };
    let shard = Shard {
        graphs,
        store: ShardStore::new(8),
        batches,
        digests: BTreeMap::new(),
        cell_sim: BTreeMap::new(),
    };
    for graph in 0..shard.graphs.plain.len() {
        tracer.span("shard.partition", 0, 0, |_| shard.plan(graph));
    }
    let t1 = Instant::now();
    let (_, cold) = tracer
        .span("bench.cold_pass", 0, 0, |_| shard.run_batches(&Tracer::new(false), None, true));
    let cold_pass_s = t1.elapsed().as_secs_f64();
    Setup { workload: shard, cold, excluded_s, cold_pass_s }
}

impl Workload for Shard {
    fn graphs(&self) -> &Graphs {
        &self.graphs
    }

    fn install(&mut self, digests: BTreeMap<Cell, Digest>) {
        self.cell_sim = digests
            .keys()
            .map(|&cell| (cell, direct(self.plan(cell.graph).sharded(), &self.graphs, cell)))
            .collect();
        self.digests = digests;
    }

    fn pass(&self, tracer: &Tracer, ring: Option<&Arc<SpanRing>>) -> Pass {
        self.run_batches(tracer, ring, false).0
    }

    fn layer_values(&self, traced: &[Pass], values: &mut Values) {
        let plans: Vec<_> = (0..self.graphs.plain.len()).map(|g| self.plan(g)).collect();
        let edges: usize = plans.iter().map(|p| p.sharded().num_edges()).sum();
        let cut: usize = plans.iter().map(|p| p.sharded().cut_edges_total()).sum();
        values.set("graph.cut_edge_share", cut as f64 / edges as f64);
        values.set(
            "graph.edge_imbalance",
            plans.iter().map(|p| p.sharded().edge_imbalance()).fold(0.0, f64::max),
        );

        let batch_ms: Vec<f64> = traced.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
        values.set("shard.batch_ms_p50", median(&batch_ms));
        values.set("shard.occupancy", median(&samples_of(traced, "shard.occupancy")));
        values.set("shard.exchange_bytes", sample_sum_per_pass(traced, "shard.exchange_bytes"));
        values.set(
            "shard.max_imbalance",
            samples_of(traced, "shard.max_imbalance").into_iter().fold(0.0, f64::max),
        );
        let lookups = (self.store.hits() + self.store.misses()).max(1);
        values.set("shard.plan_hit_ratio", self.store.hits() as f64 / lookups as f64);

        let (wall_ms, steps) = traced
            .iter()
            .flat_map(|p| &p.calls)
            .fold((0.0, 0u64), |(w, s), (_, c)| (w + c.wall_ms, s + c.supersteps));
        values.set("core.sharded.superstep_us", 1e3 * wall_ms / steps.max(1) as f64);

        // Scaling ratios: every cell once more on an unsharded (K = 1)
        // plan, against the K = 4 numbers `install` took.
        let singles: Vec<ShardedCsr> = self
            .graphs
            .plain
            .iter()
            .map(|g| {
                ShardedCsr::partition(g, 1)
                    .unwrap_or_else(|e| crate::die(&format!("partition k=1: {e}")))
            })
            .collect();
        let (mut sim4, mut sim1, mut wall4, mut wall1) = (0.0, 0.0, 0.0, 0.0);
        for (&cell, (k4, k4_wall_ms)) in &self.cell_sim {
            let (k1, k1_wall_ms) = direct(&singles[cell.graph], &self.graphs, cell);
            sim4 += k4.sim_ms();
            sim1 += k1.sim_ms();
            wall4 += k4_wall_ms;
            wall1 += k1_wall_ms;
        }
        values.set("core.sharded.k4_over_k1_sim", sim4 / sim1);
        values.set("core.sharded.k4_over_k1_wall", wall4 / wall1);
    }
}
