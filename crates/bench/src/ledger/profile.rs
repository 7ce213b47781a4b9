//! Per-phase rows: the span self-time profile of one fixed sharded
//! batch. Span counts are near-class — supersteps and decisions are
//! simulation-driven, but the bucketed kernels run push mode genuinely
//! in parallel, and delta-PR's convergence at the eps boundary follows
//! the floating-point accumulation order of racing `fetch_add`s, so a
//! run can gain or lose a superstep (~1.5 % on this workload; a
//! double-emission bug at +100 % stays far outside the envelope). The
//! phase *set* must still match exactly. Self-times are timed.

use super::{median, Row, Snapshot, Timed, PHASE_SELF_ABS_MS};
use gswitch_core::{SpanCtx, SpanRing};
use gswitch_graph::corpus::representatives_small;
use gswitch_shard::{execute_batch, BatchOptions, BatchQuery, ShardPlan};
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Shards in the fixed workload's plan.
const K: u32 = 4;
/// Batch worker slots.
const SLOTS: usize = 2;
/// Repeats of the batch.
const REPEATS: usize = 5;

fn workload() -> Vec<BatchQuery> {
    vec![
        BatchQuery::Bfs { src: 0 },
        BatchQuery::Bfs { src: 7 },
        BatchQuery::Pr { eps: 1e-3 },
        BatchQuery::Cc,
    ]
}

/// Measure every phase row, plus `total` (all spans of a repeat).
pub fn measure() -> Snapshot {
    let rep = representatives_small().remove(0);
    let graph = Arc::new(rep.recipe.build());
    let plan = ShardPlan::new(graph, K).unwrap_or_else(|e| panic!("partition k={K}: {e}"));
    let queries = workload();
    let wl = json!({
        "graph": rep.paper_name,
        "k": K,
        "slots": SLOTS,
        "queries": queries.len(),
    });
    let mut snap = Snapshot::new("profile", &BatchOptions::default().device.name, wl);

    // Counts are collected per repeat like times and reduced to medians:
    // exact cross-repeat equality is not an invariant (see the module
    // doc), the phase set is.
    let mut counts: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..REPEATS {
        let ring = Arc::new(SpanRing::new(1 << 20));
        let opts = BatchOptions {
            slots: SLOTS,
            spans: SpanCtx::new(ring.collector(), 0, 0, 1),
            ..BatchOptions::default()
        };
        let report = execute_batch(&plan, &queries, &opts);
        assert_eq!(report.ok_count(), queries.len(), "workload query failed");
        assert_eq!(ring.dropped(), 0, "span ring overflowed; raise its capacity");
        let spans = ring.snapshot();
        counts.entry("total").or_default().push(spans.len() as u64);
        for k in &gswitch_obs::profile(&spans).kinds {
            counts.entry(k.kind.as_str()).or_default().push(k.count);
            times.entry(k.kind.as_str()).or_default().push(k.excl_ms);
        }
    }

    for (kind, mut cs) in counts {
        assert_eq!(cs.len(), REPEATS, "phase `{kind}` missing from some repeats");
        let mut row = Row::default().near("count", median(&mut cs));
        if let Some(ms) = times.remove(kind) {
            row = row.timed("excl_ms", Timed::from_samples(ms, PHASE_SELF_ABS_MS));
        }
        snap.rows.insert(kind.to_string(), row);
    }
    snap
}
