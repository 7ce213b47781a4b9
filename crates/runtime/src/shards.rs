//! Partitioned-serving integration: resident shard plans, batched
//! queries, and per-tenant admission over the `gswitch-shard` layer.
//!
//! [`ShardService`] is the runtime's front door to partitioned
//! execution. It owns a bounded [`ShardStore`] (plans stay resident
//! across batches), a [`TenantQuotas`] gate (admission control at the
//! `batch` verb), and reports into the shared [`RuntimeObs`] metrics
//! registry so `gswitch-serve stats` exposes exchange volume, shard
//! imbalance and batch occupancy next to the scheduler's counters.

use crate::breaker::{BreakerDecision, BreakerKey, BreakerSet};
use crate::brownout::Brownout;
use crate::obs::{metric, RuntimeObs};
use crate::query::Query;
use gswitch_shard::{
    execute_batch, BatchOptions, BatchQuery, BatchReport, ShardStore, TenantQuotas,
};
use std::sync::Arc;

/// Default resident shard-plan capacity: a plan duplicates the graph's
/// CSR, so keep only a handful.
pub const DEFAULT_PLAN_CAPACITY: usize = 8;

/// Default per-tenant in-flight query cap.
pub const DEFAULT_TENANT_QUOTA: usize = 64;

/// Tenant name used when a batch request names none.
pub const DEFAULT_TENANT: &str = "default";

/// Map a runtime [`Query`] onto the partitioned driver's supported
/// subset. SSSP (priority-driven stepping) and BC (two-phase Brandes)
/// stay on the single-shard path by design — the error says so.
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

/// The serving runtime's partitioned-execution front door.
#[derive(Debug)]
pub struct ShardService {
    store: ShardStore,
    quotas: Arc<TenantQuotas>,
    obs: Arc<RuntimeObs>,
    /// Batch worker slots handed to [`execute_batch`].
    slots: usize,
    /// Default shard count for plans when a request names none
    /// (the `--shards` flag).
    default_k: u32,
    /// Circuit breakers shared with the scheduler's query path, so
    /// batch traffic both honours and feeds the same
    /// (graph, algorithm) health. `None` = breakers not wired (tests,
    /// standalone use).
    breakers: Option<Arc<BreakerSet>>,
    /// Shared brownout detector; while active, batch quota admission is
    /// tightened to half the per-tenant cap.
    brownout: Option<Arc<Brownout>>,
}

impl ShardService {
    /// A service with default capacity/quota bounds.
    pub fn new(obs: Arc<RuntimeObs>, default_k: u32, slots: usize) -> Self {
        ShardService {
            store: ShardStore::new(DEFAULT_PLAN_CAPACITY),
            quotas: TenantQuotas::new(DEFAULT_TENANT_QUOTA),
            obs,
            slots: slots.max(1),
            default_k: default_k.max(1),
            breakers: None,
            brownout: None,
        }
    }

    /// Share the scheduler's circuit breakers with the batch path.
    pub fn with_breakers(mut self, breakers: Arc<BreakerSet>) -> Self {
        self.breakers = Some(breakers);
        self
    }

    /// Share the scheduler's brownout detector with the batch path.
    pub fn with_brownout(mut self, brownout: Arc<Brownout>) -> Self {
        self.brownout = Some(brownout);
        self
    }

    /// The shard count used when a batch request does not name one.
    pub fn default_k(&self) -> u32 {
        self.default_k
    }

    /// The resident plan store (stats surface for `stats`).
    pub fn store(&self) -> &ShardStore {
        &self.store
    }

    /// The tenant quota gate (stats surface for `stats`).
    pub fn quotas(&self) -> &Arc<TenantQuotas> {
        &self.quotas
    }

    /// Admit and execute one batch of queries for `tenant` against the
    /// resident `(graph, k)` plan, partitioning it on first use.
    /// `fingerprint` identifies the graph to the shared circuit
    /// breakers (the batch path votes under the `"batch"` algorithm).
    ///
    /// Fails fast (before any partitioning) when the batch breaker is
    /// open, the tenant is over quota — a cap halved while brownout is
    /// active — or a query is outside the partitioned subset; quota is
    /// held for the whole batch and released on every path out.
    #[allow(clippy::too_many_arguments)]
    pub fn batch(
        &self,
        graph: &Arc<gswitch_graph::Graph>,
        fingerprint: u64,
        k: Option<u32>,
        tenant: Option<&str>,
        queries: &[Query],
        job: u64,
        graph_name: &str,
    ) -> Result<BatchReport, String> {
        if queries.is_empty() {
            return Err("batch needs at least one query".into());
        }
        let mapped: Vec<BatchQuery> =
            queries.iter().map(to_batch_query).collect::<Result<_, _>>()?;
        let key = BreakerKey { fingerprint, algo: "batch" };
        let probe = match self.breakers.as_deref().map(|b| b.admit(key)) {
            None | Some(BreakerDecision::Allow) => false,
            Some(BreakerDecision::AllowProbe) => true,
            Some(BreakerDecision::FailFast { retry_after_ms }) => {
                // Per-query accounting, mirroring the scheduler path:
                // each query in the refused batch counts as submitted
                // and terminally breaker-open, so the conservation
                // invariant (submitted == sum of terminal counters)
                // holds across query and batch traffic alike.
                let n = mapped.len() as u64;
                self.obs.metrics.counter(metric::JOBS_SUBMITTED).add(n);
                self.obs.metrics.counter(metric::JOBS_BREAKER_OPEN).add(n);
                return Err(format!(
                    "circuit breaker open for {graph_name}/batch: retry in ~{retry_after_ms} ms"
                ));
            }
        };
        let release_neutral = |reason: String| {
            if let Some(b) = self.breakers.as_deref() {
                b.record_neutral(key, probe);
            }
            reason
        };
        let tenant = tenant.unwrap_or(DEFAULT_TENANT);
        let degraded = self.brownout.as_deref().map(Brownout::active).unwrap_or(false);
        let quota = if degraded {
            // Brownout: halve the effective per-tenant cap so batch
            // bursts stop competing with interactive traffic.
            self.quotas.acquire_capped(tenant, mapped.len(), self.quotas.limit() / 2)
        } else {
            self.quotas.acquire(tenant, mapped.len())
        };
        let _permit = quota.map_err(|e| {
            self.obs.metrics.counter(metric::QUOTA_REJECTED).inc();
            release_neutral(e.to_string())
        })?;
        let k = k.unwrap_or(self.default_k);
        let plan = self.store.get_or_partition(graph, k).map_err(release_neutral)?;
        let opts = BatchOptions {
            slots: self.slots,
            recorder: self.obs.recorder_for(job, graph_name, "batch"),
            spans: gswitch_obs::SpanCtx::new(self.obs.span_collector(), 0, 0, job),
            ..BatchOptions::default()
        };
        let report = execute_batch(&plan, &mapped, &opts);
        self.record(&report);
        if let Some(b) = self.breakers.as_deref() {
            let any_failed =
                report.outcomes.iter().any(|o| o.status == gswitch_shard::QueryStatus::Failed);
            if any_failed {
                b.record_failure(key, probe);
            } else {
                b.record_success(key, probe);
            }
        }
        Ok(report)
    }

    /// Fold one batch's telemetry into the shared metrics registry.
    fn record(&self, report: &BatchReport) {
        let m = &self.obs.metrics;
        m.counter(metric::BATCHES).inc();
        m.counter(metric::BATCH_QUERIES).add(report.outcomes.len() as u64);
        m.counter(metric::SHARD_EXCHANGE_RECORDS).add(report.exchange_records());
        m.counter(metric::SHARD_EXCHANGE_BYTES).add(report.exchange_bytes());
        // Occupancy is a ratio; store percent so the size-class
        // histogram buckets resolve it.
        m.histogram(metric::BATCH_OCCUPANCY, &[10.0, 25.0, 50.0, 75.0, 90.0, 100.0])
            .observe(report.occupancy() * 100.0);
        m.histogram(metric::SHARD_IMBALANCE, &[1.1, 1.25, 1.5, 2.0, 4.0])
            .observe(report.max_imbalance());
        // Executed batch queries are "submitted" jobs for conservation
        // purposes: each lands in exactly one terminal bucket below.
        m.counter(metric::JOBS_SUBMITTED).add(report.outcomes.len() as u64);
        for out in &report.outcomes {
            match out.status {
                gswitch_shard::QueryStatus::Ok => m.counter(metric::JOBS_OK).inc(),
                gswitch_shard::QueryStatus::Error => m.counter(metric::JOBS_ERROR).inc(),
                gswitch_shard::QueryStatus::Failed => m.counter(metric::JOBS_FAILED).inc(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_graph::gen;

    fn service() -> (ShardService, Arc<gswitch_graph::Graph>) {
        let obs = Arc::new(RuntimeObs::new());
        let g = Arc::new(gen::erdos_renyi(250, 1_000, 23).with_name("er-svc"));
        (ShardService::new(obs, 4, 2), g)
    }

    #[test]
    fn batch_executes_and_records_metrics() {
        let (svc, g) = service();
        let queries = [Query::Bfs { src: 0 }, Query::Cc];
        let rep = svc.batch(&g, 0, None, None, &queries, 1, "er-svc").expect("batch");
        assert_eq!(rep.ok_count(), 2);
        assert!(rep.exchange_records() > 0);
        let snap = svc.obs.metrics.snapshot().to_json();
        assert!(snap.contains(metric::BATCHES), "missing batch counter: {snap}");
        assert!(snap.contains(metric::SHARD_EXCHANGE_BYTES));
        // Plan is resident now: a second batch hits the store.
        let _ = svc.batch(&g, 0, None, None, &queries, 2, "er-svc").expect("batch");
        assert_eq!(svc.store().hits(), 1);
        assert_eq!(svc.store().misses(), 1);
    }

    #[test]
    fn unsupported_queries_fail_fast_without_partitioning() {
        let (svc, g) = service();
        let err = svc
            .batch(&g, 0, None, None, &[Query::Sssp { src: 0 }], 1, "er-svc")
            .expect_err("sssp is single-shard only");
        assert!(err.contains("single-shard"));
        assert!(svc.store().is_empty(), "partitioned despite rejecting the batch");
    }

    #[test]
    fn quota_exhaustion_is_counted_and_released() {
        let (svc, g) = service();
        let too_many: Vec<Query> =
            (0..DEFAULT_TENANT_QUOTA as u32 + 1).map(|src| Query::Bfs { src }).collect();
        let err =
            svc.batch(&g, 0, None, Some("greedy"), &too_many, 1, "er-svc").expect_err("quota");
        assert!(err.contains("quota"));
        assert_eq!(svc.quotas().rejections(), 1);
        // The refusal admitted nothing: a normal batch still fits.
        let rep = svc
            .batch(&g, 0, None, Some("greedy"), &[Query::Cc], 2, "er-svc")
            .expect("quota released");
        assert_eq!(rep.ok_count(), 1);
        assert_eq!(svc.quotas().inflight("greedy"), 0);
    }

    #[test]
    fn open_batch_breaker_refuses_before_partitioning() {
        use crate::breaker::BreakerConfig;
        let obs = Arc::new(RuntimeObs::new());
        let g = Arc::new(gen::erdos_renyi(250, 1_000, 23).with_name("er-brk"));
        let breakers = Arc::new(crate::breaker::BreakerSet::new(
            BreakerConfig { failure_threshold: 2, cooldown_ms: 600_000 },
            obs.clock(),
            &obs.metrics,
        ));
        let svc = ShardService::new(Arc::clone(&obs), 4, 2).with_breakers(Arc::clone(&breakers));
        let key = BreakerKey { fingerprint: 7, algo: "batch" };
        breakers.record_failure(key, false);
        breakers.record_failure(key, false);
        let err = svc.batch(&g, 7, None, None, &[Query::Cc], 1, "er-brk").expect_err("open");
        assert!(err.contains("circuit breaker open"), "{err}");
        assert!(svc.store().is_empty(), "partitioned despite the open breaker");
        // A different fingerprint is a different key: it still runs,
        // and its success feeds back into the shared breaker set.
        let rep = svc.batch(&g, 8, None, None, &[Query::Cc], 2, "er-brk").expect("other key");
        assert_eq!(rep.ok_count(), 1);
    }

    #[test]
    fn brownout_halves_the_effective_batch_quota() {
        use crate::brownout::BrownoutConfig;
        let obs = Arc::new(RuntimeObs::new());
        let g = Arc::new(gen::erdos_renyi(250, 1_000, 23).with_name("er-deg"));
        let brownout = Arc::new(crate::brownout::Brownout::new(
            BrownoutConfig { enter_after: 1, exit_after: 1, ..Default::default() },
            &obs.metrics,
        ));
        let svc = ShardService::new(Arc::clone(&obs), 4, 2).with_brownout(Arc::clone(&brownout));
        brownout.on_sample(1.0);
        assert!(brownout.active());
        // More than half the cap but under the full cap: refused only
        // while browned out.
        let over_half: Vec<Query> =
            (0..DEFAULT_TENANT_QUOTA as u32 / 2 + 1).map(|src| Query::Bfs { src }).collect();
        let err = svc.batch(&g, 0, None, None, &over_half, 1, "er-deg").expect_err("tightened");
        assert!(err.contains("quota"), "{err}");
        brownout.on_sample(0.0);
        assert!(!brownout.active());
        let rep = svc.batch(&g, 0, None, None, &over_half, 2, "er-deg").expect("full cap back");
        assert_eq!(rep.ok_count(), over_half.len());
    }

    #[test]
    fn explicit_k_overrides_the_default() {
        let (svc, g) = service();
        let _ = svc.batch(&g, 0, Some(2), None, &[Query::Cc], 1, "er-svc").expect("k=2");
        let _ = svc.batch(&g, 0, None, None, &[Query::Cc], 2, "er-svc").expect("k=default");
        let keys = svc.store().keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&("er-svc".to_string(), 2)));
        assert!(keys.contains(&("er-svc".to_string(), 4)));
    }
}
