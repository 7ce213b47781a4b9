//! One run of one workload: set-up, verification, baseline, passes for
//! `--seconds`, then the metrics. A timed run (`--trace 0`) never has a
//! span or a probe switched on; a traced run (`--trace 1`) measures the
//! layers and what tracing itself costs.

use crate::inputs::{Algo, Cell};
use crate::metrics::Values;
use crate::record::{
    gunrock_baseline, peak_rss_mb, reset_peak_rss, verify_cells, Baseline, Graphs, Pass,
};
use crate::stats::{geomean, median, percentile, quartiles, tail_supported};
use crate::trace::Tracer;
use crate::verify::{Answer, Digest};
use gswitch_core::SpanRing;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// How one run was asked to behave.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// How long the passes measure.
    pub seconds: f64,
    pub trace: bool,
    /// Multiplier on every workload's frozen size (`--quick`: 1/8).
    pub size: f64,
    /// Set-ups per timed run; `setup_s` is their median.
    pub setups: usize,
    /// Timed passes are repeated at least this often.
    pub min_passes: usize,
}

/// What a workload's set-up hands to the driver.
pub struct Setup<W> {
    pub workload: W,
    /// The untimed cold pass's answer for every distinct cell.
    pub cold: BTreeMap<Cell, (Answer, bool)>,
    /// Time inside set-up spent on the benchmark's own input derivation
    /// (component labelling for source selection), not part of `setup_s`.
    pub excluded_s: f64,
    pub cold_pass_s: f64,
}

pub trait Workload {
    fn graphs(&self) -> &Graphs;
    /// Called once after verification and before any timed pass: every
    /// op from here on is checked against its cell's digest.
    fn install(&mut self, digests: BTreeMap<Cell, Digest>);
    /// One pass over the fixed op list. `ring` switches the crates' own
    /// public span hooks on.
    fn pass(&self, tracer: &Tracer, ring: Option<&Arc<SpanRing>>) -> Pass;
    /// Per-layer numbers only this workload can give (traced run).
    fn layer_values(&self, _traced: &[Pass], _values: &mut Values) {}
    /// Stop every thread the workload started.
    fn shutdown(self)
    where
        Self: Sized,
    {
    }
}

pub type SetupFn<W> = fn(&Config, &Tracer, Option<&Arc<SpanRing>>) -> Setup<W>;

/// The result line's content.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
    /// Human-readable detail (quartiles, sample counts, wrong cells).
    pub notes: Vec<String>,
}

pub fn run_passes<W: Workload>(
    w: &W,
    tracer: &Tracer,
    ring: Option<&Arc<SpanRing>>,
    seconds: f64,
    min_passes: usize,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(w.pass(tracer, ring));
        let spent = start.elapsed().as_secs_f64();
        // Stop where the next pass would overshoot the budget by more
        // than it undershoots now.
        if passes.len() >= min_passes && spent + 0.5 * spent / passes.len() as f64 >= seconds {
            return passes;
        }
    }
}

/// What both kinds of run do between set-up and the first pass.
pub struct Checked {
    pub baseline: Baseline,
    pub cells: Vec<Cell>,
    /// Cells whose cold-pass answer differs from the reference.
    pub wrong: usize,
    pub verify_s: f64,
}

/// Verify the cold pass against the reference, compute the baseline of
/// every cell and hand the digests to the workload.
pub fn check_and_install<W: Workload>(
    w: &mut W,
    cold: BTreeMap<Cell, (Answer, bool)>,
    notes: &mut Vec<String>,
) -> Checked {
    let verified = verify_cells(w.graphs(), cold);
    notes.extend(verified.wrong.iter().map(|line| format!("WRONG {line}")));
    let cells: Vec<Cell> = verified.digests.keys().copied().collect();
    let baseline = gunrock_baseline(w.graphs(), cells.iter().copied());
    w.install(verified.digests);
    Checked { baseline, cells, wrong: verified.wrong.len(), verify_s: verified.seconds }
}

impl Outcome {
    /// Every timed op and every verified cell was attempted; wrong ops
    /// and wrong cells failed.
    pub fn new(passes: &[Pass], checked: &Checked, values: Values, notes: Vec<String>) -> Outcome {
        Outcome {
            attempted: passes.iter().map(|p| p.op_ms.len()).sum::<usize>() + checked.cells.len(),
            failed: passes.iter().map(|p| p.failed).sum::<usize>() + checked.wrong,
            values,
            notes,
        }
    }
}

/// Simulated ms of one pass by graph and algorithm, for the run's detail.
fn sim_by_graph(graphs: &Graphs, pass: &Pass) -> String {
    let cell_sum = |g: usize, algo: Algo| -> f64 {
        let of_cell = pass.calls.iter().filter(|(c, _)| c.graph == g && c.algo == algo);
        of_cell.map(|(_, call)| call.sim_ms()).sum()
    };
    let by_graph: Vec<String> = graphs
        .specs
        .iter()
        .enumerate()
        .map(|(g, spec)| {
            let parts: Vec<String> =
                Algo::ALL.iter().map(|&a| format!("{} {:.3}", a.tag(), cell_sum(g, a))).collect();
            format!("{} [{}]", spec.name, parts.join(" "))
        })
        .collect();
    by_graph.join(", ")
}

/// The nine end-to-end numbers of a timed run (eight metrics; the ninth,
/// the failed share, is the result line's `failed` / `attempted`).
fn end_to_end(
    passes: &[Pass],
    baseline: &Baseline,
    setups_s: &[f64],
    values: &mut Values,
    notes: &mut Vec<String>,
) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let ops: Vec<f64> = passes.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
    let sims: Vec<f64> = passes.iter().map(Pass::sim_ms).collect();

    // Per (graph, algorithm) pair, baseline over GSWITCH simulated time
    // summed over every timed call of the pair: sources are replicates of
    // a pair, so they are pooled before the geometric mean is taken.
    let mut per_pair: BTreeMap<(usize, Algo), (f64, f64)> = BTreeMap::new();
    let (mut sim_total, mut overhead_total) = (0.0, 0.0);
    for (cell, call) in passes.iter().flat_map(|p| &p.calls) {
        if let Some(base) = baseline.sim_ms.get(cell) {
            let e = per_pair.entry((cell.graph, cell.algo)).or_default();
            e.0 += base;
            e.1 += call.sim_ms();
        }
        sim_total += call.sim_ms();
        overhead_total += call.overhead_ms;
    }
    let ratios: Vec<f64> = per_pair.values().map(|(base, ours)| base / ours).collect();

    values.set("setup_s", median(setups_s));
    values.set("wall_s", median(&walls));
    values.set("op_p50_ms", median(&ops));
    values.set("op_p95_ms", percentile(&ops, 0.95));
    values.set("sim_ms", median(&sims));
    values.set("sim_speedup_vs_gunrock", geomean(&ratios));
    values.set("tuner_overhead_pct", 100.0 * overhead_total / (sim_total + overhead_total));
    values.set("peak_rss_mb", peak_rss_mb());

    let q = |v: &[f64]| {
        let [q1, q2, q3] = quartiles(v);
        format!("q1 {q1:.4} median {q2:.4} q3 {q3:.4} n {}", v.len())
    };
    notes.push(format!("setup_s   {}", q(setups_s)));
    notes.push(format!("wall_s    {} passes", q(&walls)));
    notes.push(format!(
        "op_ms     {} ops, p95 supported: {}",
        q(&ops),
        tail_supported(ops.len(), 0.95)
    ));
    notes.push(format!("sim_ms    {}", q(&sims)));
    notes.push(format!("speedup   {} (graph, algorithm) pairs", q(&ratios)));
}

fn timed<W: Workload>(cfg: &Config, setup: SetupFn<W>) -> Outcome {
    let tracer = Tracer::new(false);
    let mut notes = Vec::new();
    let mut setups_s = Vec::new();
    let mut built: Option<Setup<W>> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(prev) = built.take() {
            prev.workload.shutdown();
        }
        let t0 = Instant::now();
        let s = setup(cfg, &tracer, None);
        setups_s.push(t0.elapsed().as_secs_f64() - s.excluded_s);
        built = Some(s);
    }
    let Setup { mut workload, cold, .. } = built.expect("at least one set-up ran");

    let checked = check_and_install(&mut workload, cold, &mut notes);
    reset_peak_rss();
    let passes = run_passes(&workload, &tracer, None, cfg.seconds, cfg.min_passes);
    notes.push(format!(
        "sim_ms of the first pass by graph: {}",
        sim_by_graph(workload.graphs(), &passes[0])
    ));
    workload.shutdown();

    let mut values = Values::default();
    end_to_end(&passes, &checked.baseline, &setups_s, &mut values, &mut notes);
    Outcome::new(&passes, &checked, values, notes)
}

pub fn run<W: Workload>(cfg: &Config, setup: SetupFn<W>) -> Outcome {
    if cfg.trace {
        crate::layers::traced(cfg, setup)
    } else {
        timed(cfg, setup)
    }
}
