//! Shard-scaling rows: BFS and PageRank over the small representative
//! corpus at 1/2/4/8 shards, plus one mixed concurrent batch.
//!
//! Simulated time and volume come from the cost model. Exchange records
//! and bytes are exact and deterministic run to run (the driver charges
//! routing per attempt, not per winning atomic). Simulated times and
//! imbalance carry the cost model's atomic-contention term, which is
//! scheduling-dependent — they wobble by ≲1 %, so they are near-class,
//! stored at two decimals. The K = 1 and K = 4 rows also time the query's
//! host wall, so what K lanes cost the host over one has a committed
//! number.

use super::{median, round_to, Row, Snapshot, Timed, QUERY_WALL_ABS_MS};
use gswitch_graph::corpus::representatives_small;
use gswitch_shard::{execute_batch, BatchOptions, BatchQuery, ShardPlan};
use serde_json::json;
use std::sync::Arc;

const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];
/// Shards under the mixed batch.
const MIXED_K: u32 = 4;

/// Repeats per measurement point: exchange counts are deterministic
/// (asserted below); the median tames the last-digit wobble of the
/// simulated times.
const REPEATS: usize = 3;
/// Shard counts whose rows carry a timed `wall_ms`, and their wall samples.
const TIMED_COUNTS: [u32; 2] = [1, 4];
const TIMED_REPEATS: usize = 7;

fn run_point(plan: &ShardPlan, query: BatchQuery, opts: &BatchOptions) -> Row {
    let timed = TIMED_COUNTS.contains(&plan.sharded().k());
    let repeats = if timed { TIMED_REPEATS } else { REPEATS };
    let mut sims = Vec::with_capacity(repeats);
    let mut imbalances = Vec::with_capacity(repeats);
    let mut walls = Vec::with_capacity(repeats);
    let mut first: Option<(u64, u64, bool, u32)> = None;
    for _ in 0..repeats {
        let report = execute_batch(plan, &[query], opts);
        let o = &report.outcomes[0];
        assert!(o.error.is_none(), "{}: {:?}", o.algo, o.error);
        let key = (o.exchange_records, o.exchange_bytes, o.converged, o.supersteps);
        assert_eq!(
            *first.get_or_insert(key),
            key,
            "{}: exchange accounting not deterministic",
            o.algo
        );
        sims.push(o.sim_ms);
        imbalances.push(o.imbalance);
        walls.push(o.wall_ms);
    }
    let (records, bytes, converged, supersteps) = first.expect("REPEATS >= 1");
    let mut row = Row::default();
    if timed {
        row = row.timed("wall_ms", Timed::from_samples(walls, QUERY_WALL_ABS_MS));
    }
    row.exact("converged", converged)
        .exact("supersteps", supersteps)
        .exact("exchange_records", records)
        .exact("exchange_bytes", bytes)
        .exact("cut_edges", plan.sharded().cut_edges_total())
        .exact("halo_vertices", plan.sharded().halo_total())
        .near("sim_ms", round_to(median(&mut sims), 2))
        .near("imbalance", round_to(median(&mut imbalances), 2))
}

/// Measure every `<graph>/<algo>/k=<K>` row, one `<graph>` row of sizes
/// per graph, and the `mixed-batch` row.
pub fn measure() -> Snapshot {
    let opts = BatchOptions::default();
    // One concurrent mixed batch on the first representative: the
    // serving-shaped point.
    let mixed = [
        BatchQuery::Bfs { src: 0 },
        BatchQuery::Bfs { src: 7 },
        BatchQuery::Pr { eps: 1e-3 },
        BatchQuery::Cc,
        BatchQuery::Bfs { src: 42 },
        BatchQuery::Cc,
    ];
    let reps = representatives_small();
    let mixed_batch = json!({
        "graph": reps[0].paper_name,
        "k": MIXED_K,
        "slots": opts.slots,
        "queries": mixed.len(),
    });
    let wl = json!({ "shard_counts": SHARD_COUNTS, "mixed_batch": mixed_batch });
    let mut snap = Snapshot::new("shard", &opts.device.name, wl);

    for rep in &reps {
        let name = rep.paper_name;
        let graph = Arc::new(rep.recipe.build());
        let sizes = Row::default().exact("n", graph.num_vertices()).exact("m", graph.num_edges());
        snap.rows.insert(name.to_string(), sizes);
        for k in SHARD_COUNTS {
            let plan = ShardPlan::new(Arc::clone(&graph), k)
                .unwrap_or_else(|e| panic!("{name}: partition k={k}: {e}"));
            let bfs = run_point(&plan, BatchQuery::Bfs { src: 0 }, &opts);
            snap.rows.insert(format!("{name}/bfs/k={k}"), bfs);
            let pr = run_point(&plan, BatchQuery::Pr { eps: 1e-3 }, &opts);
            snap.rows.insert(format!("{name}/pr/k={k}"), pr);
        }
        eprintln!("{name:>24}: bfs+pr at k=1/2/4/8 done");
    }

    let graph = Arc::new(reps[0].recipe.build());
    let plan = ShardPlan::new(graph, MIXED_K).expect("partition the mixed batch's graph");
    let report = execute_batch(&plan, &mixed, &opts);
    assert_eq!(report.ok_count(), mixed.len(), "mixed batch had failures");
    let row = Row::default()
        .exact("exchange_records", report.exchange_records())
        .exact("exchange_bytes", report.exchange_bytes())
        .near("sim_ms", round_to(report.sim_ms(), 2))
        .near("max_imbalance", round_to(report.max_imbalance(), 2));
    snap.rows.insert("mixed-batch".into(), row);
    snap
}
