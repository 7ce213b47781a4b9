//! Batched multi-query execution against one resident [`ShardPlan`].
//!
//! A single sharded query gives at most K-way parallelism, and its
//! tail super-steps leave most shard workers idle. A *batch* runs many
//! queries concurrently over the same resident shards on a bounded
//! worker pool, so one query's idle tail overlaps another's dense
//! middle — the occupancy metric in [`BatchReport`] measures exactly
//! how well that overlap worked.

use crate::store::ShardPlan;
use gswitch_algos::{Cc, PageRank};
use gswitch_core::sharded::{run_sharded, ShardError, ShardedOptions, ShardedRunReport};
use gswitch_core::{AutoPolicy, RecorderHandle};
use gswitch_obs::{SpanCtx, SpanKind};
use gswitch_simt::DeviceSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One query in a batch. A deliberate subset of the runtime's query
/// surface: the partitioned driver is push-only and rejects
/// priority-driven apps, so SSSP and BC stay on the single-shard path.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub enum BatchQuery {
    /// Breadth-first search from `src`.
    Bfs {
        /// Source vertex (global id).
        src: u32,
    },
    /// Delta-PageRank to tolerance `eps`.
    Pr {
        /// Convergence tolerance.
        eps: f64,
    },
    /// Connected components.
    Cc,
}

impl BatchQuery {
    /// Algorithm tag used in reports and metrics.
    pub fn algo(&self) -> &'static str {
        match self {
            BatchQuery::Bfs { .. } => "bfs",
            BatchQuery::Pr { .. } => "pr",
            BatchQuery::Cc => "cc",
        }
    }
}

/// Per-vertex results of one batch query.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchResult {
    /// BFS levels (`u32::MAX` = unreachable).
    Levels(Vec<u32>),
    /// PageRank scores.
    Ranks(Vec<f64>),
    /// CC labels (minimum vertex id per component).
    Labels(Vec<u32>),
}

/// Terminal status of one batch query, mirroring the runtime's
/// error/failure split: `Error` means the request was bad (retrying is
/// pointless), `Failed` means the infrastructure was (retrying may
/// succeed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum QueryStatus {
    /// Completed; `result` is populated.
    Ok,
    /// The request was invalid for this plan (bad source vertex).
    Error,
    /// A shard worker died or the query's own worker panicked.
    Failed,
}

/// Everything the batch executor reports about one query.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Position of this query in the submitted batch.
    pub index: usize,
    /// Algorithm tag.
    pub algo: &'static str,
    /// Terminal status.
    pub status: QueryStatus,
    /// Failure description when not `Ok`.
    pub error: Option<String>,
    /// Whether the sharded run converged.
    pub converged: bool,
    /// Super-steps executed.
    pub supersteps: u32,
    /// Total simulated time (critical path + exchange + host), ms.
    pub sim_ms: f64,
    /// Wall-clock execution time on the batch worker, ms.
    pub wall_ms: f64,
    /// Frontier-exchange records routed between shards.
    pub exchange_records: u64,
    /// Frontier-exchange bytes routed between shards.
    pub exchange_bytes: u64,
    /// Busiest-shard / average-shard busy time (1.0 = balanced).
    pub imbalance: f64,
    /// Per-vertex results when `Ok`.
    pub result: Option<BatchResult>,
}

/// Options for [`execute_batch`].
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// The simulated device each shard occupies.
    pub device: DeviceSpec,
    /// Concurrent query slots in the worker pool (minimum 1).
    pub slots: usize,
    /// Decision-trace sink shared by every query in the batch.
    pub recorder: RecorderHandle,
    /// Span context for the batch: one `Batch` span covers the whole
    /// call, one `BatchQuery` span per query (tagged with its batch
    /// index as `iter`, worker = slot), and each query's sharded
    /// super-steps nest beneath it.
    pub spans: SpanCtx,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            device: DeviceSpec::default(),
            slots: 4,
            recorder: RecorderHandle::none(),
            spans: SpanCtx::default(),
        }
    }
}

/// The result of one [`execute_batch`] call.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<BatchOutcome>,
    /// Wall-clock time for the whole batch, ms.
    pub wall_ms: f64,
    /// Summed per-query execution time, ms.
    pub busy_ms: f64,
    /// Worker slots the batch ran on.
    pub slots: usize,
}

impl BatchReport {
    /// Fraction of slot-time spent executing queries (0..=1): summed
    /// query time over `wall × slots`. Low occupancy means the batch
    /// was too small (or too skewed) for the pool.
    pub fn occupancy(&self) -> f64 {
        let denom = self.wall_ms * self.slots as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.busy_ms / denom).min(1.0)
    }

    /// Queries that completed.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.status == QueryStatus::Ok).count()
    }

    /// Total exchange bytes routed across the batch.
    pub fn exchange_bytes(&self) -> u64 {
        self.outcomes.iter().map(|o| o.exchange_bytes).sum()
    }

    /// Total exchange records routed across the batch.
    pub fn exchange_records(&self) -> u64 {
        self.outcomes.iter().map(|o| o.exchange_records).sum()
    }

    /// Worst per-query shard imbalance observed.
    pub fn max_imbalance(&self) -> f64 {
        self.outcomes.iter().map(|o| o.imbalance).fold(0.0, f64::max)
    }

    /// Total simulated device time across the batch, ms.
    pub fn sim_ms(&self) -> f64 {
        self.outcomes.iter().map(|o| o.sim_ms).sum()
    }
}

fn outcome_shell(index: usize, algo: &'static str) -> BatchOutcome {
    BatchOutcome {
        index,
        algo,
        status: QueryStatus::Failed,
        error: None,
        converged: false,
        supersteps: 0,
        sim_ms: 0.0,
        wall_ms: 0.0,
        exchange_records: 0,
        exchange_bytes: 0,
        imbalance: 0.0,
        result: None,
    }
}

fn fill_from_report(out: &mut BatchOutcome, rep: &ShardedRunReport) {
    out.converged = rep.converged;
    out.supersteps = rep.n_supersteps() as u32;
    out.sim_ms = rep.total_ms();
    let total = rep.exchange_total();
    out.exchange_records = total.routed;
    out.exchange_bytes = total.bytes();
    out.imbalance = rep.imbalance();
}

/// Run one query over `plan`'s resident shards: the sharded run's
/// report and the per-vertex result. A source vertex outside the graph
/// or a PageRank tolerance that is not positive and finite is refused
/// as [`ShardError::Unsupported`] before any shard runs.
pub fn run_query(
    plan: &ShardPlan,
    query: BatchQuery,
    opts: &ShardedOptions,
) -> Result<(ShardedRunReport, BatchResult), ShardError> {
    let n = plan.graph().num_vertices();
    match query {
        BatchQuery::Bfs { src } => {
            if src as usize >= n {
                return Err(ShardError::Unsupported(format!(
                    "source {src} out of range (n = {n})"
                )));
            }
            let app = gswitch_algos::Bfs::new(n, src);
            run_sharded(plan.sharded(), &app, &AutoPolicy, opts)
                .map(|rep| (rep, BatchResult::Levels(app.levels())))
        }
        BatchQuery::Pr { eps } => {
            if !(eps.is_finite() && eps > 0.0) {
                return Err(ShardError::Unsupported(format!(
                    "pr tolerance must be positive and finite, got {eps}"
                )));
            }
            let app = PageRank::new(plan.graph(), eps);
            run_sharded(plan.sharded(), &app, &AutoPolicy, opts)
                .map(|rep| (rep, BatchResult::Ranks(app.ranks())))
        }
        BatchQuery::Cc => {
            let app = Cc::new(n);
            run_sharded(plan.sharded(), &app, &AutoPolicy, opts)
                .map(|rep| (rep, BatchResult::Labels(app.labels())))
        }
    }
}

fn run_one(
    plan: &ShardPlan,
    query: BatchQuery,
    index: usize,
    opts: &ShardedOptions,
) -> BatchOutcome {
    let mut out = outcome_shell(index, query.algo());
    match run_query(plan, query, opts) {
        Ok((rep, payload)) => {
            fill_from_report(&mut out, &rep);
            out.status = QueryStatus::Ok;
            out.result = Some(payload);
        }
        Err(e) => {
            out.status = match e {
                ShardError::Unsupported(_) => QueryStatus::Error,
                ShardError::WorkerPanicked { .. } | ShardError::WorkerLost { .. } => {
                    QueryStatus::Failed
                }
            };
            out.error = Some(e.to_string());
        }
    }
    out
}

/// Run `queries` concurrently against `plan` on a pool of
/// `opts.slots` workers.
///
/// Every query gets its own app instance and its own sharded run; the
/// shards themselves are shared read-only. A query whose worker panics
/// is reported as `Failed` with the panic payload — the rest of the
/// batch is unaffected. Outcomes come back in submission order.
#[expect(
    clippy::disallowed_methods,
    reason = "one scope per batch, not per kernel call: each slot runs whole queries, and a \
              slot's panic must stay that query's Failed outcome"
)]
pub fn execute_batch(plan: &ShardPlan, queries: &[BatchQuery], opts: &BatchOptions) -> BatchReport {
    let slots = opts.slots.max(1).min(queries.len().max(1));
    let sharded_opts = ShardedOptions {
        device: opts.device.clone(),
        recorder: opts.recorder.clone(),
        ..ShardedOptions::default()
    };
    let next = AtomicUsize::new(0);
    let clock = opts.spans.clock().clone();
    // The Batch span covers the whole call; its guard lives on the
    // caller's thread and closes (recording the span) when we return.
    let driver = opts.spans.local();
    let batch_guard = driver.start(SpanKind::Batch, opts.spans.parent);
    let batch_id = batch_guard.id();
    let batch_start = clock.now_ns();
    let mut per_worker: Vec<Vec<BatchOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..slots)
            .map(|slot| {
                let next = &next;
                let sharded_opts = &sharded_opts;
                let clock = &clock;
                let sctx = &opts.spans;
                scope.spawn(move || {
                    let local = sctx.collector().local(slot as u32, sctx.job);
                    let mut mine = Vec::with_capacity(queries.len() / slots + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        let q = queries[i];
                        let t0 = clock.now_ns();
                        let qguard =
                            local.start_tagged(SpanKind::BatchQuery, batch_id, None, i as u32);
                        let qopts = ShardedOptions {
                            spans: sctx.child(qguard.id()).for_worker(slot as u32),
                            ..sharded_opts.clone()
                        };
                        let mut out =
                            match catch_unwind(AssertUnwindSafe(|| run_one(plan, q, i, &qopts))) {
                                Ok(out) => out,
                                Err(payload) => {
                                    let mut out = outcome_shell(i, q.algo());
                                    out.status = QueryStatus::Failed;
                                    out.error = Some(match payload.downcast_ref::<&str>() {
                                        Some(s) => (*s).to_string(),
                                        None => match payload.downcast_ref::<String>() {
                                            Some(s) => s.clone(),
                                            None => "opaque panic payload".to_string(),
                                        },
                                    });
                                    out
                                }
                            };
                        drop(qguard);
                        out.wall_ms = clock.elapsed_ms(t0);
                        mine.push(out);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            // A worker that dies outside catch_unwind loses only the
            // queries it had claimed; they are reported lost below.
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall_ms = clock.elapsed_ms(batch_start);

    let mut outcomes: Vec<Option<BatchOutcome>> = (0..queries.len()).map(|_| None).collect();
    for worker in per_worker.drain(..) {
        for out in worker {
            let slot = out.index;
            outcomes[slot] = Some(out);
        }
    }
    let outcomes: Vec<BatchOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| match o {
            Some(o) => o,
            None => {
                let mut lost = outcome_shell(i, queries[i].algo());
                lost.error = Some("batch worker lost".to_string());
                lost
            }
        })
        .collect();
    let busy_ms = outcomes.iter().map(|o| o.wall_ms).sum();
    BatchReport { outcomes, wall_ms, busy_ms, slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_graph::gen;
    use std::sync::Arc;

    fn plan(k: u32) -> ShardPlan {
        let g = Arc::new(gen::erdos_renyi(300, 1_500, 17).with_name("er-batch"));
        ShardPlan::new(g, k).expect("partition")
    }

    #[test]
    fn batch_runs_all_queries_in_order() {
        let plan = plan(4);
        let queries = [
            BatchQuery::Bfs { src: 0 },
            BatchQuery::Cc,
            BatchQuery::Pr { eps: 1e-3 },
            BatchQuery::Bfs { src: 7 },
        ];
        let rep = execute_batch(&plan, &queries, &BatchOptions::default());
        assert_eq!(rep.outcomes.len(), 4);
        assert_eq!(rep.ok_count(), 4);
        for (i, out) in rep.outcomes.iter().enumerate() {
            assert_eq!(out.index, i);
            assert_eq!(out.status, QueryStatus::Ok, "query {i}: {:?}", out.error);
            assert!(out.converged);
            assert!(out.result.is_some());
            assert!(out.supersteps > 0);
        }
        assert_eq!(rep.outcomes[0].algo, "bfs");
        assert_eq!(rep.outcomes[1].algo, "cc");
        assert_eq!(rep.outcomes[2].algo, "pr");
        let occ = rep.occupancy();
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
    }

    #[test]
    fn bad_source_is_an_error_not_a_failure() {
        let plan = plan(2);
        let queries = [BatchQuery::Bfs { src: 10_000 }, BatchQuery::Cc];
        let rep = execute_batch(&plan, &queries, &BatchOptions::default());
        assert_eq!(rep.outcomes[0].status, QueryStatus::Error);
        assert!(rep.outcomes[0].error.as_deref().is_some_and(|e| e.contains("out of range")));
        assert_eq!(rep.outcomes[1].status, QueryStatus::Ok);
        assert_eq!(rep.ok_count(), 1);
    }

    #[test]
    fn exchange_metrics_surface_in_the_report() {
        let plan = plan(4);
        let rep = execute_batch(&plan, &[BatchQuery::Bfs { src: 0 }], &BatchOptions::default());
        assert!(rep.exchange_records() > 0, "4-shard BFS must route halo records");
        assert!(rep.exchange_bytes() > 0);
        assert!(rep.max_imbalance() >= 1.0);
    }

    #[test]
    fn batch_emits_nested_query_spans() {
        use gswitch_obs::SpanRing;
        let plan = plan(3);
        let ring = Arc::new(SpanRing::new(16_384));
        let opts = BatchOptions {
            slots: 2,
            spans: SpanCtx::new(ring.collector(), 0, 0, 7),
            ..BatchOptions::default()
        };
        let queries = [BatchQuery::Bfs { src: 0 }, BatchQuery::Cc, BatchQuery::Pr { eps: 1e-3 }];
        let rep = execute_batch(&plan, &queries, &opts);
        assert_eq!(rep.ok_count(), 3);

        let spans = ring.snapshot();
        let batches: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Batch).collect();
        assert_eq!(batches.len(), 1, "one call, one batch span");
        let qspans: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::BatchQuery).collect();
        assert_eq!(qspans.len(), 3, "one span per query");
        let mut indices: Vec<u32> = qspans
            .iter()
            .map(|s| {
                assert_eq!(s.parent, batches[0].id);
                assert_eq!(s.job, 7);
                s.iter
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2], "iter carries the batch index");
        // Each query's sharded super-steps nest under its BatchQuery
        // span, and the per-shard phases carry shard tags.
        let qids: std::collections::BTreeSet<u64> = qspans.iter().map(|s| s.id).collect();
        let steps: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::SuperStep).collect();
        assert!(!steps.is_empty());
        assert!(steps.iter().all(|s| qids.contains(&s.parent)));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Inspect && s.shard.is_some()));
    }

    #[test]
    fn single_slot_batch_serializes_but_completes() {
        let plan = plan(2);
        let queries = [BatchQuery::Cc, BatchQuery::Cc, BatchQuery::Cc];
        let opts = BatchOptions { slots: 1, ..BatchOptions::default() };
        let rep = execute_batch(&plan, &queries, &opts);
        assert_eq!(rep.ok_count(), 3);
        assert_eq!(rep.slots, 1);
    }
}
