//! Executing one query: cache lookup → (possibly seeded) engine run →
//! structured result + cache fill; or, for a sharded job, one run over
//! a resident K-shard plan.

use crate::cache::{feature_bucket, CacheKey, ConfigCache};
use crate::query::{IterStat, JobStatus, Metric, Payload, Query};
use crate::registry::GraphEntry;
use gswitch_algos::bc::{BcBackward, BcForward};
use gswitch_algos::{Bfs, Cc, PageRank, Sssp};
use gswitch_core::sharded::{ShardError, ShardedOptions};
use gswitch_core::{
    run, run_with_seed_config, EngineOptions, Policy, ProbeHandle, RunReport, StopReason,
};
use gswitch_obs::{RecorderHandle, SpanCtx};
use gswitch_shard::{run_query, BatchQuery, BatchResult, ShardStore};
use gswitch_simt::DeviceSpec;

/// What [`execute`] and [`execute_sharded`] hand back to the scheduler.
#[derive(Debug)]
pub struct Execution {
    /// `Some` when the run probe stopped the engine early (deadline or
    /// cancellation); partial results are present but untrustworthy —
    /// the scheduler withholds them.
    pub stopped: Option<StopReason>,
    /// `"hit"` or `"miss"` when the tuned-config cache was consulted
    /// (`None` on the sharded path, which has no seed).
    pub cache: Option<&'static str>,
    /// Dominant configuration of the run, display form.
    pub config: Option<String>,
    /// Total simulated device time (ms).
    pub sim_ms: f64,
    /// Whether every engine run converged.
    pub converged: bool,
    /// Summary metrics.
    pub metrics: Vec<Metric>,
    /// Per-iteration trace.
    pub iterations: Vec<IterStat>,
    /// Full result vectors.
    pub payload: Payload,
}

fn iter_stats(report: &RunReport) -> Vec<IterStat> {
    report
        .iterations
        .iter()
        .map(|t| IterStat {
            iteration: t.iteration,
            config: t.config.to_string(),
            decided: t.decided,
            v_active: t.stats.v_active,
            e_active: t.stats.e_active,
            filter_ms: t.filter_ms,
            expand_ms: t.expand_ms,
            overhead_ms: t.overhead_ms,
        })
        .collect()
}

/// Run `query` against `entry`, warm-starting from `cache` and filling
/// it on a miss. Errors (bad source vertex) are returned as strings so
/// the scheduler can report them without dying. An enabled `recorder`
/// receives one decision-trace event per engine iteration (for BC that
/// covers both the forward and backward phases). `probe` is polled at
/// every super-step so a deadline or cancellation stops the run
/// cooperatively; the stop reason comes back in
/// [`Execution::stopped`]. `verify_every` forwards the divergence
/// sentinel's cadence to the engine (0 = off): every N standalone
/// super-steps the chosen variant's frontier is cross-checked against a
/// serial reference derivation, and on mismatch the run repairs and
/// pins to the reference variant. `spans` is the wall-clock span
/// context the engine's super-step/phase spans nest under (typically
/// the scheduler's `Execute` span).
#[allow(clippy::too_many_arguments)]
pub fn execute(
    entry: &GraphEntry,
    query: &Query,
    cache: &ConfigCache,
    policy: &dyn Policy,
    device: &DeviceSpec,
    recorder: RecorderHandle,
    probe: ProbeHandle,
    verify_every: u32,
    spans: SpanCtx,
) -> Result<Execution, String> {
    crate::faults::fire(crate::faults::site::EXECUTOR_START);
    let g = entry.graph();
    let n = g.num_vertices();
    if let Some(src) = query.source() {
        if (src as usize) >= n {
            return Err(format!("source vertex {src} out of range (graph has {n} vertices)"));
        }
    }

    let key = CacheKey::new(entry.fingerprint(), query.algo(), &feature_bucket(g.stats()));
    let seed = cache.lookup(&key);
    let cache_hit = seed.is_some();
    let opts = EngineOptions { recorder, probe, spans, ..EngineOptions::on(device.clone()) }
        .verify_every(verify_every);

    // Run the algorithm; each arm produces (reports, metrics, payload).
    let (reports, metrics, payload) = match *query {
        Query::Bfs { src } => {
            let app = Bfs::new(n, src);
            let report = run_with_seed_config(g, &app, policy, &opts, seed);
            let levels = app.levels();
            let reached = levels.iter().filter(|&&l| l != u32::MAX).count();
            let depth = levels.iter().filter(|&&l| l != u32::MAX).max().copied().unwrap_or(0);
            (
                vec![report],
                vec![Metric::new("reached", reached as f64), Metric::new("depth", depth as f64)],
                Payload::Levels { values: levels },
            )
        }
        Query::Sssp { src } => {
            let wg = entry.weighted();
            let app = Sssp::new(&wg, src);
            let report = run_with_seed_config(&wg, &app, policy, &opts, seed);
            let dist = app.distances();
            let reached = dist.iter().filter(|&&d| d != u32::MAX).count();
            let max_dist = dist.iter().filter(|&&d| d != u32::MAX).max().copied().unwrap_or(0);
            (
                vec![report],
                vec![
                    Metric::new("reached", reached as f64),
                    Metric::new("max_distance", max_dist as f64),
                ],
                Payload::Distances { values: dist },
            )
        }
        Query::Pr { eps } => {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(format!("pr tolerance must be positive and finite, got {eps}"));
            }
            let app = PageRank::new(g, eps);
            let report = run_with_seed_config(g, &app, policy, &opts, seed);
            let ranks = app.ranks();
            let sum: f64 = ranks.iter().sum();
            let max = ranks.iter().cloned().fold(0.0f64, f64::max);
            (
                vec![report],
                vec![Metric::new("rank_sum", sum), Metric::new("rank_max", max)],
                Payload::Ranks { values: ranks },
            )
        }
        Query::Cc => {
            let app = Cc::new(n);
            let report = run_with_seed_config(g, &app, policy, &opts, seed);
            let labels = app.labels();
            let components = labels.iter().enumerate().filter(|&(v, &l)| l == v as u32).count();
            (
                vec![report],
                vec![Metric::new("components", components as f64)],
                Payload::Labels { values: labels },
            )
        }
        Query::Bc { src } => {
            // Mirrors gswitch_algos::bc, but the forward phase (a BFS-like
            // traversal, the part worth seeding) warm-starts from the
            // cache; the backward sweep has its own access pattern and
            // always consults the policy.
            let fwd = BcForward::new(n, src);
            let forward = run_with_seed_config(g, &fwd, policy, &opts, seed);
            let bwd = BcBackward::new(&fwd);
            let backward = run(g, &bwd, policy, &opts);
            let mut scores = bwd.deltas();
            if let Some(s) = scores.get_mut(src as usize) {
                *s = 0.0;
            }
            let nonzero = scores.iter().filter(|&&s| s > 0.0).count();
            let max = scores.iter().cloned().fold(0.0f64, f64::max);
            (
                vec![forward, backward],
                vec![Metric::new("nonzero_scores", nonzero as f64), Metric::new("score_max", max)],
                Payload::Scores { values: scores },
            )
        }
    };

    let converged = reports.iter().all(|r| r.converged);
    let stopped = reports.iter().find_map(|r| r.stopped);
    let sim_ms: f64 = reports.iter().map(|r| r.total_ms()).sum();
    // The first report is the seeded phase; its dominant config is what
    // the cache should remember. A stopped run never converged, so it
    // can never pollute the cache.
    let tuned = reports[0].dominant_config();
    if !cache_hit && converged {
        if let Some(cfg) = tuned {
            cache.store(&key, cfg);
        }
    }
    let iterations = reports.iter().flat_map(iter_stats).collect();

    Ok(Execution {
        stopped,
        cache: Some(if cache_hit { "hit" } else { "miss" }),
        config: tuned.map(|c| c.to_string()),
        sim_ms,
        converged,
        metrics,
        iterations,
        payload,
    })
}

/// Map a runtime [`Query`] onto the sharded engine's subset. SSSP
/// (priority-driven stepping) and BC (two-phase Brandes) stay on the
/// single-shard path by design — the error says so.
pub fn to_batch_query(q: &Query) -> Result<BatchQuery, String> {
    match *q {
        Query::Bfs { src } => Ok(BatchQuery::Bfs { src }),
        Query::Pr { eps } => Ok(BatchQuery::Pr { eps }),
        Query::Cc => Ok(BatchQuery::Cc),
        Query::Sssp { .. } => {
            Err("sssp is priority-driven and runs single-shard; use `query`".into())
        }
        Query::Bc { .. } => Err("bc is two-phase and runs single-shard; use `query`".into()),
    }
}

/// Run `query` over the resident `k`-shard plan of `entry`'s graph,
/// partitioning it into `plans` on first use. `recorder`, `probe` and
/// `spans` play the same part as for [`execute`]. The sharded engine
/// takes no seed, so the tuned-config cache is not consulted; the
/// metrics are the run's `supersteps`, `exchange_records`,
/// `exchange_bytes` and shard `imbalance`.
///
/// An error carries its terminal status: a query outside the sharded
/// subset, a plan that cannot be cut or a bad parameter is `Error`; a
/// shard worker that died is `Failed`.
#[allow(clippy::too_many_arguments)]
pub fn execute_sharded(
    entry: &GraphEntry,
    k: u32,
    query: &Query,
    plans: &ShardStore,
    device: &DeviceSpec,
    recorder: RecorderHandle,
    probe: ProbeHandle,
    spans: SpanCtx,
) -> Result<Execution, (JobStatus, String)> {
    crate::faults::fire(crate::faults::site::EXECUTOR_START);
    let refuse = |msg: String| (JobStatus::Error, msg);
    let batch_query = to_batch_query(query).map_err(refuse)?;
    let plan = plans.get_or_partition(entry.graph(), k).map_err(refuse)?;
    let opts = ShardedOptions {
        device: device.clone(),
        recorder,
        probe,
        spans,
        ..ShardedOptions::default()
    };
    let (report, result) = run_query(&plan, batch_query, &opts).map_err(|e| {
        let status = match e {
            ShardError::Unsupported(_) => JobStatus::Error,
            ShardError::WorkerPanicked { .. } | ShardError::WorkerLost { .. } => JobStatus::Failed,
        };
        (status, e.to_string())
    })?;
    let exchange = report.exchange_total();
    Ok(Execution {
        stopped: report.stopped,
        cache: None,
        config: None,
        sim_ms: report.total_ms(),
        converged: report.converged,
        metrics: vec![
            Metric::new("supersteps", report.n_supersteps() as f64),
            Metric::new("exchange_records", exchange.routed as f64),
            Metric::new("exchange_bytes", exchange.bytes() as f64),
            Metric::new("imbalance", report.imbalance()),
        ],
        iterations: Vec::new(),
        payload: match result {
            BatchResult::Levels(values) => Payload::Levels { values },
            BatchResult::Ranks(values) => Payload::Ranks { values },
            BatchResult::Labels(values) => Payload::Labels { values },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::GraphRegistry;
    use gswitch_algos::reference;
    use gswitch_core::AutoPolicy;
    use gswitch_graph::gen;

    fn setup() -> (GraphRegistry, ConfigCache, DeviceSpec) {
        let reg = GraphRegistry::new();
        reg.insert("kron", gen::kronecker(8, 8, 3));
        (reg, ConfigCache::new(), DeviceSpec::k40m())
    }

    #[test]
    fn bfs_matches_reference_and_fills_cache() {
        let (reg, cache, dev) = setup();
        let e = reg.get("kron").unwrap();
        let r = execute(
            &e,
            &Query::Bfs { src: 0 },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            0,
            SpanCtx::default(),
        )
        .unwrap();
        assert_eq!(r.cache, Some("miss"));
        assert!(r.converged);
        let Payload::Levels { values } = &r.payload else { panic!("wrong payload") };
        assert_eq!(values, &reference::bfs(e.graph(), 0));
        assert_eq!(cache.counters().stores, 1);

        // Second identical query hits and still matches.
        let r2 = execute(
            &e,
            &Query::Bfs { src: 0 },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            0,
            SpanCtx::default(),
        )
        .unwrap();
        assert_eq!(r2.cache, Some("hit"));
        let Payload::Levels { values } = &r2.payload else { panic!("wrong payload") };
        assert_eq!(values, &reference::bfs(e.graph(), 0));
    }

    #[test]
    fn source_out_of_range_is_an_error() {
        let (reg, cache, dev) = setup();
        let e = reg.get("kron").unwrap();
        let err = execute(
            &e,
            &Query::Bfs { src: 1 << 20 },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            0,
            SpanCtx::default(),
        );
        assert!(err.is_err());
        // The failed lookup still counted as a... nothing: we error out
        // before consulting the cache.
        assert_eq!(cache.counters().misses, 0);
    }

    #[test]
    fn cc_counts_components() {
        let (reg, cache, dev) = setup();
        reg.insert("two", {
            use gswitch_graph::GraphBuilder;
            GraphBuilder::new(6).edges([(0, 1), (1, 2), (4, 5)]).build()
        });
        let e = reg.get("two").unwrap();
        let r = execute(
            &e,
            &Query::Cc,
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            0,
            SpanCtx::default(),
        )
        .unwrap();
        // Components: {0,1,2}, {3}, {4,5}.
        assert_eq!(r.metrics.iter().find(|m| m.name == "components").unwrap().value, 3.0);
        let Payload::Labels { values } = &r.payload else { panic!("wrong payload") };
        assert_eq!(values, &reference::cc(e.graph()));
    }

    #[test]
    fn sssp_runs_on_weighted_twin() {
        let (reg, cache, dev) = setup();
        let e = reg.get("kron").unwrap();
        let r = execute(
            &e,
            &Query::Sssp { src: 0 },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            0,
            SpanCtx::default(),
        )
        .unwrap();
        let Payload::Distances { values } = &r.payload else { panic!("wrong payload") };
        assert_eq!(values, &reference::sssp(&e.weighted(), 0));
    }

    #[test]
    fn verify_every_passes_healthy_runs_through_unchanged() {
        let (reg, cache, dev) = setup();
        let e = reg.get("kron").unwrap();
        let r = execute(
            &e,
            &Query::Bfs { src: 0 },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            1,
            SpanCtx::default(),
        )
        .unwrap();
        assert!(r.converged);
        let Payload::Levels { values } = &r.payload else { panic!("wrong payload") };
        assert_eq!(values, &reference::bfs(e.graph(), 0), "sentinel must not perturb results");
    }

    #[test]
    fn stopped_run_reports_reason_and_skips_cache_fill() {
        use gswitch_core::CancelToken;
        use std::sync::Arc;

        let (reg, cache, dev) = setup();
        let e = reg.get("kron").unwrap();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let r = execute(
            &e,
            &Query::Bfs { src: 0 },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::new(token),
            0,
            SpanCtx::default(),
        )
        .unwrap();
        assert_eq!(r.stopped, Some(StopReason::Cancelled));
        assert!(!r.converged);
        // A stopped run must never be remembered as "the tuned config".
        assert_eq!(cache.counters().stores, 0);
    }

    #[test]
    fn pr_rejects_bad_tolerance() {
        let (reg, cache, dev) = setup();
        let e = reg.get("kron").unwrap();
        assert!(execute(
            &e,
            &Query::Pr { eps: 0.0 },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            0,
            SpanCtx::default()
        )
        .is_err());
        assert!(execute(
            &e,
            &Query::Pr { eps: f64::NAN },
            &cache,
            &AutoPolicy,
            &dev,
            RecorderHandle::none(),
            ProbeHandle::none(),
            0,
            SpanCtx::default()
        )
        .is_err());
    }
}
