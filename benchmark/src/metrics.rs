//! Every metric the benchmark reports, by name: unit, clock, direction,
//! regression bound, and which end-to-end metric a per-layer metric
//! should move on which workload. `BENCHMARK.json` is this table.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of this program on the CPU.
    Host,
    /// Milliseconds the `gswitch-simt` device model assigns.
    Sim,
    /// A count, share or size.
    None,
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median a later change may lose (end-to-end
    /// metrics only).
    pub bound: f64,
    /// Definition (end-to-end) or "→ metric on workload" (per-layer).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> Def {
    Def { name, unit, clock, better, bound, note }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    note: &'static str,
) -> Def {
    Def { name, unit, clock, better, bound: 0.0, note }
}

use Clock::{Host, None as Count, Sim};

/// What a user of the system sees. Every workload reports all of them in
/// a timed run. The ninth end-to-end number, the failed share, is the
/// result line's `failed` ÷ `attempted`: it is 0 on a healthy run, and a
/// bounded metric must never be 0.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Host, "lower", 0.25,
        "process start to first timed op: model load, graph generation + CSR + stats + fingerprint + weighted twin, registry insert / shard partition, the untimed cold pass; median of the run's set-ups; excludes the benchmark's own source selection, reference, baseline and oracle work"),
    e2e("wall_s", "s", Host, "lower", 0.25,
        "median over the timed passes of the wall time of one pass, the workload's full fixed op list"),
    e2e("op_p50_ms", "ms", Host, "lower", 0.25,
        "median latency of one op (one algorithm call / one request / one batch) over all ops of all timed passes"),
    e2e("op_p95_ms", "ms", Host, "lower", 0.25,
        "95th percentile of the same sample; every run issues at least 220 timed ops so at least 10 lie beyond it"),
    e2e("sim_ms", "ms", Sim, "lower", 0.10,
        "sum over the ops of one pass of simulated filter + expand (+ exchange) ms, never total_ms(); median over passes"),
    e2e("sim_speedup_vs_gunrock", "x", Sim, "higher", 0.10,
        "geometric mean over the (graph, algorithm) pairs of Gunrock-like baseline sim ms / GSWITCH sim ms on the same graph and device, both summed over the pair's timed calls: the paper's headline"),
    e2e("tuner_overhead_pct", "%", Host, "lower", 0.25,
        "sum of overhead_ms / sum of (sim + overhead) as the engine reports it: the paper's '<= 6 %' figure"),
    e2e("peak_rss_mb", "MB", Count, "lower", 0.10, "VmHWM of the workload process at exit, counted from the first timed pass: graphs, plans, caches and what the passes allocate, without the memory the benchmark itself used to verify"),
];

/// One layer each (layer = crate), measured in the traced run. A metric
/// that a workload's path never touches reads 0 there.
pub const PER_LAYER: &[Def] = &[
    layer("graph.build_ms", "ms", Host, "lower", "-> setup_s (all): generator + CSR + stats, sum over the workload's graphs"),
    layer("graph.stats_ms", "ms", Host, "lower", "-> setup_s (all): GraphStats::compute alone"),
    layer("graph.fingerprint_ms", "ms", Host, "lower", "-> setup_s (all)"),
    layer("graph.partition_ms", "ms", Host, "lower", "-> setup_s on shard-batch: K = 4 ShardPlan::new"),
    layer("graph.cut_edge_share", "fraction", Count, "lower", "-> sim_ms on shard-batch: cut edges / edges"),
    layer("graph.edge_imbalance", "x", Count, "lower", "-> sim_ms on shard-batch: worst ShardedCsr::edge_imbalance"),
    layer("simt.filter_sim_ms", "ms", Sim, "lower", "part of sim_ms (all); the three sum to it"),
    layer("simt.expand_sim_ms", "ms", Sim, "lower", "part of sim_ms (all)"),
    layer("simt.exchange_sim_ms", "ms", Sim, "lower", "part of sim_ms on shard-batch"),
    layer("simt.price_ns", "ns", Host, "lower", "-> wall_s on engine-steps: one DeviceSpec::kernel_time_ms"),
    layer("kernels.expand.push_ns_per_edge", "ns", Host, "lower", "-> wall_s on engine-bulk, op_p95_ms on serve-mixed; no move on engine-steps"),
    layer("kernels.expand.pull_ns_per_edge", "ns", Host, "lower", "-> wall_s on engine-bulk, op_p95_ms on serve-mixed; no move on engine-steps"),
    layer("kernels.expand.call_floor_us", "us", Host, "lower", "-> wall_s on engine-steps, op_p50_ms on serve-mixed; no move on engine-bulk"),
    layer("kernels.classify_ns_per_vertex", "ns", Host, "lower", "-> wall_s on engine-steps, op_p50_ms on serve-mixed"),
    layer("kernels.materialize.bitmap_ns_per_vertex", "ns", Host, "lower", "-> wall_s on engine-steps"),
    layer("kernels.materialize.queue_ns_per_vertex", "ns", Host, "lower", "-> wall_s on engine-steps"),
    layer("kernels.exchange_ns_per_record", "ns", Host, "lower", "-> wall_s on shard-batch: exchange span time / routed records"),
    layer("kernels.edges_per_pass", "count", Count, "lower", "exact edges traversed per pass: shows when 'faster' only means 'did less'"),
    layer("ml.predict_ns", "ns", Host, "lower", "-> tuner_overhead_pct: one tree walk on a fixed feature vector"),
    layer("core.inspect_us_per_iter", "us", Host, "lower", "-> tuner_overhead_pct: DecisionContext::features"),
    layer("core.select_model_us_per_iter", "us", Host, "lower", "-> tuner_overhead_pct: ModelPolicy::decide"),
    layer("core.select_rules_us_per_iter", "us", Host, "lower", "-> tuner_overhead_pct on serve-mixed, shard-batch: AutoPolicy::decide"),
    layer("core.overhead_us_per_iter", "us", Host, "lower", "-> tuner_overhead_pct, against the paper's 58-120 us"),
    layer("core.decided_share", "fraction", Count, "lower", "-> tuner_overhead_pct: decisions / super-steps"),
    layer("core.supersteps_per_pass", "count", Count, "lower", "-> wall_s on engine-steps"),
    layer("core.superstep_us", "us", Host, "lower", "-> wall_s on engine-steps: traced pass wall / super-steps"),
    layer("core.host_medges_per_s", "Medges/s", Host, "higher", "-> wall_s on engine-bulk"),
    layer("core.sim_over_oracle", "x", Sim, "lower", "-> sim_ms: geomean GSWITCH sim / oracle_run sim on a fixed subset of cells; may be < 1, the oracle never fuses"),
    layer("core.positive_share", "fraction", Sim, "higher", "-> sim_speedup_vs_gunrock: cells with GSWITCH sim <= Gunrock sim"),
    layer("core.span.inspect_ms", "ms", Host, "lower", "-> wall_s: self time; the seven sum to the traced pass wall"),
    layer("core.span.select_ms", "ms", Host, "lower", "-> wall_s, tuner_overhead_pct"),
    layer("core.span.filter_ms", "ms", Host, "lower", "-> wall_s on engine-steps"),
    layer("core.span.partition_ms", "ms", Host, "lower", "-> wall_s: WorkPlan build or reuse"),
    layer("core.span.expand_ms", "ms", Host, "lower", "-> wall_s on engine-bulk"),
    layer("core.span.exchange_ms", "ms", Host, "lower", "-> wall_s on shard-batch"),
    layer("core.span.superstep_self_ms", "ms", Host, "lower", "-> wall_s: loop bookkeeping outside the phases"),
    layer("core.sharded.superstep_us", "us", Host, "lower", "-> wall_s on shard-batch"),
    layer("core.sharded.k4_over_k1_sim", "x", Sim, "lower", "-> sim_ms on shard-batch"),
    layer("core.sharded.k4_over_k1_wall", "x", Host, "lower", "-> wall_s on shard-batch"),
    layer("algos.bfs_ms", "ms", Host, "lower", "-> wall_s: host ms per pass in BFS calls"),
    layer("algos.cc_ms", "ms", Host, "lower", "-> wall_s"),
    layer("algos.pr_ms", "ms", Host, "lower", "-> wall_s (most of engine-bulk)"),
    layer("algos.sssp_ms", "ms", Host, "lower", "-> wall_s (with BC most of engine-steps)"),
    layer("algos.bc_ms", "ms", Host, "lower", "-> wall_s"),
    layer("algos.bfs_sim_ms", "ms", Sim, "lower", "-> sim_ms"),
    layer("algos.cc_sim_ms", "ms", Sim, "lower", "-> sim_ms"),
    layer("algos.pr_sim_ms", "ms", Sim, "lower", "-> sim_ms"),
    layer("algos.sssp_sim_ms", "ms", Sim, "lower", "-> sim_ms"),
    layer("algos.bc_sim_ms", "ms", Sim, "lower", "-> sim_ms"),
    layer("baselines.gunrock_sim_ms", "ms", Sim, "lower", "the denominator of the speed-up; moves only with kernels or the cost model"),
    layer("baselines.gunrock_wall_s", "s", Host, "lower", "host cost of the baseline runs"),
    layer("shard.batch_ms_p50", "ms", Host, "lower", "-> op_p50_ms on shard-batch"),
    layer("shard.occupancy", "fraction", Host, "higher", "-> wall_s on shard-batch: busy / (wall x slots)"),
    layer("shard.exchange_bytes", "bytes", Count, "lower", "-> sim_ms on shard-batch: exact per pass"),
    layer("shard.max_imbalance", "x", Sim, "lower", "-> sim_ms on shard-batch"),
    layer("shard.plan_hit_ratio", "fraction", Count, "higher", "-> wall_s on shard-batch: resident-plan hits / lookups"),
    layer("runtime.protocol.decode_us", "us", Host, "lower", "-> op_p50_ms on serve-mixed"),
    layer("runtime.protocol.encode_us", "us", Host, "lower", "-> op_p50_ms on serve-mixed"),
    layer("runtime.protocol.response_bytes", "bytes", Count, "lower", "-> op_p50_ms on serve-mixed: mean encoded response"),
    layer("runtime.registry.get_ns", "ns", Host, "lower", "-> op_p50_ms on serve-mixed"),
    layer("runtime.cache.lookup_ns", "ns", Host, "lower", "-> op_p50_ms on serve-mixed"),
    layer("runtime.scheduler.submit_us", "us", Host, "lower", "-> op_p50_ms on serve-mixed"),
    layer("runtime.scheduler.overhead_us", "us", Host, "lower", "-> op_p50_ms on serve-mixed: served latency - direct execute of the same query on an idle process"),
    layer("runtime.scheduler.queue_wait_p50_ms", "ms", Host, "lower", "-> op_p95_ms on serve-mixed"),
    layer("runtime.scheduler.queue_wait_p95_ms", "ms", Host, "lower", "-> op_p95_ms on serve-mixed"),
    layer("runtime.executor.execute_ms_p50", "ms", Host, "lower", "-> op_p95_ms on serve-mixed"),
    layer("runtime.cache.hit_ratio", "fraction", Count, "higher", "-> sim_ms on serve-mixed: warm-pass tuned-config hits"),
    layer("runtime.cache.cold_pass_s", "s", Host, "lower", "-> setup_s: the untimed cold pass"),
    layer("runtime.queue_full_retries", "count", Count, "lower", "-> failed share on serve-mixed"),
    layer("runtime.retried_share", "fraction", Count, "lower", "-> failed share on serve-mixed: jobs_retried / requests"),
    layer("obs.span_ns", "ns", Host, "lower", "-> wall_s everywhere: one span recorded"),
    layer("obs.metric_observe_ns", "ns", Host, "lower", "-> wall_s on serve-mixed: one histogram observation"),
    layer("obs.recorder_event_ns", "ns", Host, "lower", "-> wall_s with decision tracing on: one trace event"),
    layer("obs.trace_overhead_pct", "%", Host, "lower", "traced-pass wall over the untraced median, per workload: the cost of recording as a number"),
    layer("bench.verify_s", "s", Host, "lower", "the instrument's own cost: reference checks"),
    layer("bench.baseline_s", "s", Host, "lower", "the instrument's own cost: baseline and oracle runs"),
];

/// The four workloads and why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("engine-bulk", "70 algorithm calls on five scale-free graphs: ~85 % of wall in expand, so edge-loop work shows and per-call overhead does not"),
    ("engine-steps", "the same 70 calls on five high-diameter graphs: thousands of tiny super-steps, so per-step fixed cost shows and edge throughput does not"),
    ("serve-mixed", "2 clients drive the scheduler with decoded requests over tiny and mid graphs: the only workload with queue wait, admission, cache and JSON codec on the blocking path"),
    ("shard-batch", "batches of 3 queries on resident K=4 shard plans: the second super-step loop (fan-out, barrier, exchange) over the same kernels"),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the table"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= max
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for name in
            WORKLOADS.iter().map(|w| w.0).chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(well_formed(name, 64), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let unit_ok =
                |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
            assert!(
                !d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "{}",
                d.unit
            );
            assert!(matches!(d.better, "lower" | "higher"));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn bounds_are_positive_and_setup_has_the_largest() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25 && d.bound <= setup.bound, "{}", d.name);
        }
    }
}
