//! The traced run: one set-up, verification and baseline as in a timed
//! run, then untraced passes (the reference wall), then passes with every
//! span switched on — the benchmark's own around each public call, and
//! the crates' existing public span hooks, profiled — then the
//! micro-probes. Its numbers are the per-layer metrics.

use crate::drive::{check_and_install, run_passes, Config, Outcome, SetupFn, Workload};
use crate::inputs::{Algo, Cell};
use crate::metrics::Values;
use crate::probes;
use crate::record::{samples_of, Call, Pass};
use crate::stats::median;
use crate::trace::{self, totals_by_name, Tracer};
use gswitch_core::{SpanKind, SpanRing};
use gswitch_graph::GraphStats;
use gswitch_obs::profile;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Where the trace of a run goes, relative to the checkout root.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(format!("benchmark/out/trace-{workload}.jsonl"))
}

/// Median over passes of a per-pass sum.
fn per_pass(passes: &[&Pass], f: impl Fn(&Call) -> f64) -> f64 {
    let sums: Vec<f64> = passes.iter().map(|p| p.calls.iter().map(|(_, c)| f(c)).sum()).collect();
    median(&sums)
}

const SPAN_METRICS: [(SpanKind, &str); 7] = [
    (SpanKind::Inspect, "core.span.inspect_ms"),
    (SpanKind::Select, "core.span.select_ms"),
    (SpanKind::Filter, "core.span.filter_ms"),
    (SpanKind::Partition, "core.span.partition_ms"),
    (SpanKind::Expand, "core.span.expand_ms"),
    (SpanKind::Exchange, "core.span.exchange_ms"),
    (SpanKind::SuperStep, "core.span.superstep_self_ms"),
];

const ALGO_METRICS: [(Algo, &str, &str); 5] = [
    (Algo::Bfs, "algos.bfs_ms", "algos.bfs_sim_ms"),
    (Algo::Cc, "algos.cc_ms", "algos.cc_sim_ms"),
    (Algo::Pr, "algos.pr_ms", "algos.pr_sim_ms"),
    (Algo::Sssp, "algos.sssp_ms", "algos.sssp_sim_ms"),
    (Algo::Bc, "algos.bc_ms", "algos.bc_sim_ms"),
];

/// What the crates' own span hooks recorded over the traced passes.
#[derive(Default)]
struct HookProfile {
    /// Self time per pass, by span kind.
    self_ms: BTreeMap<SpanKind, Vec<f64>>,
    /// Inclusive time of all exchange spans, ns.
    exchange_ns: f64,
}

/// Passes for `seconds` with the benchmark's spans and the crates' span
/// hooks on, the ring profiled after each pass.
fn traced_passes<W: Workload>(
    w: &W,
    tracer: &Tracer,
    ring: &Arc<SpanRing>,
    seconds: f64,
    notes: &mut Vec<String>,
) -> (Vec<Pass>, HookProfile) {
    let mut passes = Vec::new();
    let mut hooks = HookProfile::default();
    let start = std::time::Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        ring.clear();
        passes.push(w.pass(tracer, Some(ring)));
        if ring.dropped() > 0 {
            notes.push(format!("span ring overflowed: {} spans dropped", ring.dropped()));
        }
        let prof = profile(&ring.snapshot());
        let of = |kind| prof.kinds.iter().find(|k| k.kind == kind);
        for (kind, _) in SPAN_METRICS {
            hooks.self_ms.entry(kind).or_default().push(of(kind).map_or(0.0, |k| k.excl_ms));
        }
        hooks.exchange_ns += of(SpanKind::Exchange).map_or(0.0, |k| k.incl_ms * 1e6);
    }
    (passes, hooks)
}

/// simt / kernels / core / algos / obs numbers from what the untraced
/// (`plain`) and traced passes reported. Host numbers come from the
/// untraced passes, simulated ones and counts from all of them.
fn pass_values(
    plain: &[Pass],
    traced: &[Pass],
    hooks: &HookProfile,
    values: &mut Values,
    notes: &mut Vec<String>,
) {
    let every: Vec<&Pass> = plain.iter().chain(traced).collect();
    let plain: Vec<&Pass> = plain.iter().collect();
    values.set("simt.filter_sim_ms", per_pass(&every, |c| c.filter_ms));
    values.set("simt.expand_sim_ms", per_pass(&every, |c| c.expand_ms));
    values.set("simt.exchange_sim_ms", per_pass(&every, |c| c.exchange_ms));
    let edges = per_pass(&every, |c| c.edges as f64);
    let steps = per_pass(&every, |c| c.supersteps as f64).max(1.0);
    let wall_s = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall_ms = 1e3 * median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    values.set("kernels.edges_per_pass", edges);
    values.set("core.supersteps_per_pass", steps);
    values.set("core.superstep_us", 1e6 * wall_s / steps);
    values.set("core.host_medges_per_s", edges / 1e6 / wall_s);
    values.set("core.overhead_us_per_iter", 1e3 * per_pass(&every, |c| c.overhead_ms) / steps);
    values.set("core.decided_share", per_pass(&every, |c| c.decided as f64) / steps);
    values.set("obs.trace_overhead_pct", 100.0 * (traced_wall_ms / (1e3 * wall_s) - 1.0));
    for (algo, host, sim) in ALGO_METRICS {
        let of = |c: &Call| c.algo == Some(algo);
        values.set(host, per_pass(&plain, |c| if of(c) { c.wall_ms } else { 0.0 }));
        values.set(sim, per_pass(&every, |c| if of(c) { c.sim_ms() } else { 0.0 }));
    }
    let self_ms = |kind: SpanKind| median(&hooks.self_ms[&kind]);
    for (kind, name) in SPAN_METRICS {
        values.set(name, self_ms(kind));
    }
    let span_sum: f64 = SPAN_METRICS.iter().map(|&(k, _)| self_ms(k)).sum();
    notes.push(format!(
        "core.span.* self times sum to {span_sum:.1} ms of a {traced_wall_ms:.1} ms traced pass ({:.0} %), expand {:.0} %",
        100.0 * span_sum / traced_wall_ms,
        100.0 * self_ms(SpanKind::Expand) / traced_wall_ms,
    ));
    let records: f64 = samples_of(traced, "shard.exchange_records").iter().sum();
    if records > 0.0 {
        values.set("kernels.exchange_ns_per_record", hooks.exchange_ns / records);
    }
}

/// Mean simulated ms of every cell over all its calls.
fn mean_sim_by_cell(passes: &[Pass]) -> BTreeMap<Cell, f64> {
    let mut sums: BTreeMap<Cell, (f64, f64)> = BTreeMap::new();
    for (cell, call) in passes.iter().flat_map(|p| &p.calls) {
        let e = sums.entry(*cell).or_default();
        e.0 += call.sim_ms();
        e.1 += 1.0;
    }
    sums.into_iter().map(|(c, (sum, n))| (c, sum / n)).collect()
}

pub fn traced<W: Workload>(cfg: &Config, setup: SetupFn<W>) -> Outcome {
    let tracer = Tracer::new(true);
    let ring = Arc::new(SpanRing::new(1 << 21));
    let mut values = Values::default();
    let mut notes = Vec::new();

    let built = setup(cfg, &tracer, Some(&ring));
    let mut workload = built.workload;
    values.set("runtime.cache.cold_pass_s", built.cold_pass_s);
    for g in &workload.graphs().plain {
        tracer
            .span("graph.stats", 0, 0, |_| std::hint::black_box(GraphStats::compute(g.out_csr())));
        tracer.span("graph.fingerprint", 0, 0, |_| std::hint::black_box(g.fingerprint()));
    }

    let checked = check_and_install(&mut workload, built.cold, &mut notes);
    let baseline = &checked.baseline;
    values.set("bench.verify_s", checked.verify_s);
    values.set("baselines.gunrock_wall_s", baseline.wall_s);
    values.set("baselines.gunrock_sim_ms", baseline.sim_ms.values().sum());

    // Reference wall with everything off, then the same passes traced.
    let mut passes =
        run_passes(&workload, &Tracer::new(false), None, cfg.seconds * 0.3, cfg.min_passes.min(2));
    let (traced, hooks) = traced_passes(&workload, &tracer, &ring, cfg.seconds * 0.3, &mut notes);
    pass_values(&passes, &traced, &hooks, &mut values, &mut notes);
    workload.layer_values(&traced, &mut values);
    passes.extend(traced);

    let mean_sim = mean_sim_by_cell(&passes);
    let won = mean_sim.iter().filter(|(c, sim)| baseline.sim_ms.get(c).is_some_and(|b| *sim <= b));
    values.set("core.positive_share", won.count() as f64 / mean_sim.len().max(1) as f64);

    let oracle_s =
        probes::run(cfg, workload.graphs(), &checked.cells, &mean_sim, &tracer, &mut values);
    values.set("bench.baseline_s", baseline.wall_s + oracle_s);
    workload.shutdown();

    // Every public call has been made by now: the benchmark's own spans.
    let spans = tracer.snapshot();
    let totals = totals_by_name(&spans);
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    values.set("graph.build_ms", ms("graph.build"));
    values.set("graph.stats_ms", ms("graph.stats"));
    values.set("graph.fingerprint_ms", ms("graph.fingerprint"));
    values.set("graph.partition_ms", ms("shard.partition"));
    for (name, t) in &totals {
        notes.push(format!(
            "span {name:<26} n {:>6} total {:>10.3} ms self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }

    let path = trace_path(&cfg.workload);
    if let Err(e) = trace::write_jsonl(&path, &spans) {
        crate::die(&format!("{}: {e}", path.display()));
    }
    notes.push(format!("{} spans written to {}", spans.len(), path.display()));

    Outcome::new(&passes, &checked, values, notes)
}
