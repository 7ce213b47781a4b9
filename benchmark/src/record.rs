//! What a pass leaves behind, and the pieces every workload shares:
//! built graphs, the verified-cell table, the Gunrock baseline.

use crate::inputs::{Algo, Cell, GraphSpec, PR_EPS};
use crate::trace::Tracer;
use crate::verify::{check_reference, Answer, Digest};
use gswitch_algos::{bc, bfs, cc, pr, sssp};
use gswitch_baselines::gunrock;
use gswitch_core::{EngineOptions, Policy, RunReport};
use gswitch_graph::Graph;
use gswitch_simt::DeviceSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The simulated device of every workload.
pub fn device() -> DeviceSpec {
    DeviceSpec::p100()
}

/// One algorithm call as the engine reported it. Simulated milliseconds
/// are kept per phase: their sum is deterministic, while `overhead_ms`
/// holds measured host time and is kept apart.
#[derive(Clone, Copy, Debug, Default)]
pub struct Call {
    pub algo: Option<Algo>,
    pub wall_ms: f64,
    pub filter_ms: f64,
    pub expand_ms: f64,
    pub exchange_ms: f64,
    pub overhead_ms: f64,
    pub supersteps: u64,
    pub decided: u64,
    pub edges: u64,
}

impl Call {
    pub fn sim_ms(&self) -> f64 {
        self.filter_ms + self.expand_ms + self.exchange_ms
    }

    pub fn absorb(&mut self, r: &RunReport) {
        self.filter_ms += r.filter_ms();
        self.expand_ms += r.expand_ms();
        self.overhead_ms += r.overhead_ms();
        self.supersteps += r.n_iterations() as u64;
        self.decided += r.decisions_made() as u64;
        self.edges += r.edges_touched();
    }
}

/// One pass over a workload's fixed op list.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host wall time of the pass.
    pub wall_s: f64,
    /// Latency of every op, in issue order per client.
    pub op_ms: Vec<f64>,
    /// Every algorithm call with the cell it belongs to (an op of
    /// `shard-batch` holds three).
    pub calls: Vec<(Cell, Call)>,
    /// Ops that failed, were refused or returned a wrong answer.
    pub failed: usize,
    /// Per-layer observations only this workload makes, by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Pass {
    pub fn sim_ms(&self) -> f64 {
        self.calls.iter().map(|(_, c)| c.sim_ms()).sum()
    }

    /// Record one per-layer observation.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// Every observation of `name` over `passes`.
pub fn samples_of(passes: &[Pass], name: &str) -> Vec<f64> {
    passes.iter().filter_map(|p| p.samples.get(name)).flatten().copied().collect()
}

/// Median over `passes` of each pass's sum of `name`.
pub fn sample_sum_per_pass(passes: &[Pass], name: &str) -> f64 {
    let sums: Vec<f64> =
        passes.iter().filter_map(|p| p.samples.get(name)).map(|v| v.iter().sum()).collect();
    crate::stats::median(&sums)
}

/// The graphs of a workload with their weighted twins (SSSP).
pub struct Graphs {
    pub specs: Vec<GraphSpec>,
    pub plain: Vec<Arc<Graph>>,
    pub weighted: Vec<Arc<Graph>>,
}

impl Graphs {
    /// Build every recipe, one span per generator call.
    pub fn build_plain(specs: &[GraphSpec], tracer: &Tracer) -> Vec<Arc<Graph>> {
        specs
            .iter()
            .map(|s| Arc::new(tracer.span("graph.build", 0, 0, |_| s.recipe.build())))
            .collect()
    }

    /// The graph `cell`'s algorithm runs on.
    pub fn for_cell(&self, cell: Cell) -> &Graph {
        if cell.algo == Algo::Sssp {
            &self.weighted[cell.graph]
        } else {
            &self.plain[cell.graph]
        }
    }
}

/// Which system answers a cell.
pub enum System<'a> {
    Gswitch(&'a dyn Policy),
    Gunrock,
}

/// Run one cell through `gswitch_algos` (or its Gunrock-like baseline)
/// and time the call.
pub fn run_cell(
    graphs: &Graphs,
    cell: Cell,
    system: &System<'_>,
    opts: &EngineOptions,
) -> (Answer, bool, Call) {
    let g = graphs.for_cell(cell);
    let mut call = Call { algo: Some(cell.algo), ..Call::default() };
    let t0 = Instant::now();
    let (answer, reports) = match (cell.algo, system) {
        (Algo::Bfs, System::Gswitch(p)) => {
            let r = bfs::bfs(g, cell.src, *p, opts);
            (Answer::Levels(r.levels), vec![r.report])
        }
        (Algo::Bfs, System::Gunrock) => {
            let r = gunrock::bfs_run(g, cell.src, opts);
            (Answer::Levels(r.levels), vec![r.report])
        }
        (Algo::Sssp, System::Gswitch(p)) => {
            let r = sssp::sssp(g, cell.src, *p, opts);
            (Answer::Distances(r.distances), vec![r.report])
        }
        (Algo::Sssp, System::Gunrock) => {
            let r = gunrock::sssp_run(g, cell.src, opts);
            (Answer::Distances(r.distances), vec![r.report])
        }
        (Algo::Bc, System::Gswitch(p)) => {
            let r = bc::bc(g, cell.src, *p, opts);
            (Answer::Scores(r.scores), vec![r.forward, r.backward])
        }
        (Algo::Bc, System::Gunrock) => {
            let r = gunrock::bc_run(g, cell.src, opts);
            (Answer::Scores(r.scores), vec![r.forward, r.backward])
        }
        (Algo::Cc, System::Gswitch(p)) => {
            let r = cc::cc(g, *p, opts);
            (Answer::Labels(r.labels), vec![r.report])
        }
        (Algo::Cc, System::Gunrock) => {
            let r = gunrock::cc_run(g, opts);
            (Answer::Labels(r.labels), vec![r.report])
        }
        (Algo::Pr, System::Gswitch(p)) => {
            let r = pr::pagerank(g, PR_EPS, *p, opts);
            (Answer::Ranks(r.ranks), vec![r.report])
        }
        (Algo::Pr, System::Gunrock) => {
            let r = gunrock::pr_run(g, PR_EPS, opts);
            (Answer::Ranks(r.ranks), vec![r.report])
        }
    };
    call.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    for r in &reports {
        call.absorb(r);
    }
    (answer, reports.iter().all(|r| r.converged), call)
}

/// What the untimed verification of a workload's cells found.
pub struct Verified {
    pub digests: BTreeMap<Cell, Digest>,
    /// One line per cell whose answer differs from the reference.
    pub wrong: Vec<String>,
    pub seconds: f64,
}

/// Check each cell's cold-pass answer against the reference and keep its
/// digest for the per-op check.
pub fn verify_cells(graphs: &Graphs, answers: BTreeMap<Cell, (Answer, bool)>) -> Verified {
    let t0 = Instant::now();
    let mut digests = BTreeMap::new();
    let mut wrong = Vec::new();
    for (cell, (answer, converged)) in answers {
        let checked = check_reference(graphs.for_cell(cell), cell.src, &answer)
            .and_then(|()| converged.then_some(()).ok_or("run did not converge".to_string()));
        if let Err(why) = checked {
            wrong.push(format!(
                "{} {} src {}: {why}",
                graphs.specs[cell.graph].name,
                cell.algo.tag(),
                cell.src
            ));
        }
        digests.insert(cell, Digest::of(&answer, converged));
    }
    Verified { digests, wrong, seconds: t0.elapsed().as_secs_f64() }
}

/// The Gunrock-like baseline of every cell, computed once.
pub struct Baseline {
    /// Simulated filter + expand ms per cell.
    pub sim_ms: BTreeMap<Cell, f64>,
    pub wall_s: f64,
}

pub fn gunrock_baseline(graphs: &Graphs, cells: impl Iterator<Item = Cell>) -> Baseline {
    let opts = EngineOptions::on(device());
    let t0 = Instant::now();
    let sim_ms = cells
        .map(|cell| (cell, run_cell(graphs, cell, &System::Gunrock, &opts).2.sim_ms()))
        .collect();
    Baseline { sim_ms, wall_s: t0.elapsed().as_secs_f64() }
}

#[cfg(target_env = "gnu")]
extern "C" {
    /// glibc: return free heap memory to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Make the peak resident set read at exit the workload's own during its
/// timed passes. Until here the process also held the benchmark's memory —
/// earlier set-ups, every cold-pass answer, the reference and baseline
/// runs — and the allocator keeps such freed memory resident, 20 to 26 MB
/// from run to run on `serve-mixed`. So the free heap is handed back
/// (`malloc_trim`) and the peak forgotten (`echo 5 > /proc/self/clear_refs`).
/// Where either is unavailable the peak simply includes what it did before.
pub fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time; no other thread of this process is running between the
    // baseline and the first timed pass except parked scheduler workers.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
