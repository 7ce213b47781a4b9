//! Load-balancing strategies — Pattern 3 (Fig. 6).
//!
//! The *semantics* of Expand are identical under every strategy (the same
//! edges get processed); what differs is how the workload's per-vertex edge
//! counts are packed into warp tasks, and therefore the lockstep waste,
//! search overheads, synchronization, and partitioning setup each strategy
//! pays. This module turns a per-slot `touched` vector into [`TaskStats`]
//! for any strategy; [`crate::expand::expand_cost`] is its one caller
//! outside tests, for the kernel's charge and the oracle's price alike.

use crate::pattern::{Direction, LoadBalance};
use gswitch_simt::{DeviceSpec, TaskStats};

/// Per-edge cycle costs for the current direction/locality combination.
#[derive(Clone, Copy, Debug)]
pub struct EdgeCosts {
    /// Lane cycles to process one edge (neighbor read + vertex-data touch).
    pub lane: f64,
    /// Extra per-edge lane cycles for WM's log2(warp) binary search plus
    /// shared-memory staging.
    pub wm_extra: f64,
    /// Extra per-edge lane cycles for CM's log2(cta) search plus staging.
    pub cm_extra: f64,
    /// Extra per-edge lane cycles for STRICT's sorted-search bookkeeping.
    pub strict_extra: f64,
    /// Cycles burned by a lane assigned an empty (inactive) bitmap slot.
    pub idle: f64,
}

/// Cost table for one direction on one device. `sorted_locality` applies
/// the sorted-queue discount: ascending vertex order makes CSR row reads
/// contiguous, halving the neighbor-read component (Fig. 4's "potentially
/// contiguous memory access").
pub fn edge_costs(spec: &DeviceSpec, direction: Direction, sorted_locality: bool) -> EdgeCosts {
    let c = spec.coalesced_cycles;
    let random = c * spec.random_penalty;
    let read = if sorted_locality { c * 0.5 } else { c };
    let lane = match direction {
        // Push: coalesced neighbor-id read + random write to dst data
        // (the atomic itself is priced separately in the profile).
        Direction::Push => read + random,
        // Pull: coalesced source-id read + cached frontier-bit probe +
        // (on hit) random read of the source value. The hit cost is
        // averaged in: probes dominate, hits are rare after the first.
        Direction::Pull => read + 0.25 * random + c,
    };
    EdgeCosts {
        lane,
        wm_extra: 5.0 * c + 2.0 * spec.shared_cycles, // log2(32) search
        cm_extra: 8.0 * c + 2.0 * spec.shared_cycles, // log2(256) search
        strict_extra: 2.0 * c,
        idle: c,
    }
}

/// Priced warp tasks plus the strategy's side costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LbPrice {
    /// Warp-task cycle statistics.
    pub tasks: TaskStats,
    /// CTA barriers executed (CM, STRICT).
    pub syncs: u64,
    /// Prefix-scan / sorted-search elements (STRICT partitioning).
    pub scan_elems: u64,
    /// Additional kernel launches the strategy needs (STRICT runs its
    /// merge-path partition as a separate kernel, as Gunrock's LB does).
    pub extra_launches: u32,
}

/// Fraction of expand memory traffic a sorted frontier saves: ascending
/// vertex order turns scattered CSR row reads into near-contiguous ones,
/// so fewer 32-byte sectors move (Fig. 4's "potentially contiguous
/// memory access"). Applied in one place, [`crate::expand::expand_cost`].
pub const SORTED_BYTES_DISCOUNT: f64 = 0.25;

/// Price a workload under one strategy.
///
/// `touched[i]` is the number of edges slot `i` will process. For queue
/// frontiers, slots are exactly the queue entries; for a bitmap
/// (`bitmap = true`), slots are *all* vertices and inactive ones carry
/// `touched = 0` but still occupy a lane.
pub fn price(
    spec: &DeviceSpec,
    lb: LoadBalance,
    costs: &EdgeCosts,
    touched: &[u32],
    bitmap: bool,
) -> LbPrice {
    match lb {
        LoadBalance::Twc => price_twc(spec, costs, touched, bitmap),
        LoadBalance::Wm => price_wm(spec, costs, touched, bitmap),
        LoadBalance::Cm => price_cm(spec, costs, touched, bitmap),
        LoadBalance::Strict => price_strict(spec, costs, touched, bitmap),
    }
}

/// Slots per pricing chunk: a part folds whole chunks.
const PAR_CHUNK: usize = 1 << 14;

/// `fold` over every `PAR_CHUNK`-slot chunk of `touched` into one
/// accumulator per part, the parts' accumulators `merge`d in order.
fn fold_chunks<T: Default + Send>(
    touched: &[u32],
    fold: impl Fn(&mut T, &[u32]) + Sync,
    merge: impl Fn(&mut T, &T),
) -> T {
    // Per chunk: on the caller up to 256 chunks (4 Mi slots), else
    // `min(threads, ⌈chunks / 256⌉)` parts of whole chunks. The part count
    // is the `f64` summation order, so it moves only with a measurement.
    let chunks = touched.len().div_ceil(PAR_CHUNK);
    let parts = gswitch_pool::threads().min(chunks.div_ceil(256)).max(1);
    let per = chunks.div_ceil(parts) * PAR_CHUNK;
    let folds = gswitch_pool::ranges(touched.len(), per, |r| {
        let mut acc = T::default();
        touched[r].chunks(PAR_CHUNK).for_each(|chunk| fold(&mut acc, chunk));
        acc
    });
    let merged = folds.into_iter().reduce(|mut acc, part| {
        merge(&mut acc, &part);
        acc
    });
    merged.unwrap_or_default()
}

/// TWC: degree-bucketed Thread / Warp / CTA mapping (B40C).
///
/// * `d < warp_size`: thread-mapped. 32 consecutive such slots share a
///   warp; lockstep means the warp runs as long as its busiest lane —
///   the intra-warp divergence that makes TWC lose on skewed frontiers.
/// * `warp_size ≤ d < cta_size`: one warp strip-mines the vertex.
/// * `d ≥ cta_size`: the whole CTA (one warp task per member warp).
fn price_twc(spec: &DeviceSpec, costs: &EdgeCosts, touched: &[u32], bitmap: bool) -> LbPrice {
    let warp = spec.warp_size;
    let cta = spec.cta_size;
    let wpc = spec.warps_per_cta() as u64;
    let twc = |t: &mut TaskStats, chunk: &[u32]| {
        // Thread bucket: group small-degree slots 32 at a time.
        let mut group_max = 0u32;
        let mut group_fill = 0u32;
        for &d in chunk {
            if d < warp {
                // Inactive bitmap slots land here with d == 0.
                group_max = group_max.max(d);
                group_fill += 1;
                if group_fill == warp {
                    t.add_task(group_max as f64 * costs.lane + costs.idle);
                    group_max = 0;
                    group_fill = 0;
                }
            } else if d < cta {
                // Warp bucket: ceil(d / 32) lockstep steps.
                let steps = d.div_ceil(warp) as f64;
                t.add_task(steps * costs.lane);
            } else {
                // CTA bucket: each of the CTA's warps strides the list.
                let steps = d.div_ceil(cta) as f64;
                for _ in 0..wpc {
                    t.add_task(steps * costs.lane);
                }
            }
        }
        if group_fill > 0 {
            t.add_task(group_max as f64 * costs.lane + costs.idle);
        }
    };
    let tasks = fold_chunks(touched, twc, TaskStats::merge);
    let _ = bitmap; // idle lanes already carried by zero-degree slots
    LbPrice { tasks, syncs: 0, scan_elems: 0, extra_launches: 0 }
}

/// WM: a warp takes 32 consecutive slots as a batch, pools their edges,
/// and strip-mines the pool with a log2(32)-step binary search per edge.
fn price_wm(spec: &DeviceSpec, costs: &EdgeCosts, touched: &[u32], bitmap: bool) -> LbPrice {
    let warp = spec.warp_size as usize;
    let per_edge = costs.lane + costs.wm_extra;
    let wm = |t: &mut TaskStats, big: &[u32]| {
        for chunk in big.chunks(warp) {
            let edges: u64 = chunk.iter().map(|&d| d as u64).sum();
            let steps = edges.div_ceil(warp as u64) as f64;
            // A batch always pays at least the slot-scan cost.
            t.add_task(steps * per_edge + costs.idle);
        }
    };
    let tasks = fold_chunks(touched, wm, TaskStats::merge);
    let _ = bitmap;
    LbPrice { tasks, syncs: 0, scan_elems: 0, extra_launches: 0 }
}

/// CM: as WM at CTA granularity — 256-slot batches, log2(256)-step search,
/// one CTA barrier per 256-edge stage.
fn price_cm(spec: &DeviceSpec, costs: &EdgeCosts, touched: &[u32], bitmap: bool) -> LbPrice {
    let cta = spec.cta_size as usize;
    let wpc = spec.warps_per_cta() as u64;
    let per_edge = costs.lane + costs.cm_extra;
    let cm = |(t, syncs): &mut (TaskStats, u64), big: &[u32]| {
        for chunk in big.chunks(cta) {
            let edges: u64 = chunk.iter().map(|&d| d as u64).sum();
            let stages = edges.div_ceil(cta as u64);
            let warp_cycles = stages as f64 * per_edge + costs.idle;
            for _ in 0..wpc {
                t.add_task(warp_cycles);
            }
            *syncs += stages;
        }
    };
    let merge = |(t, syncs): &mut (TaskStats, u64), (t2, s2): &(TaskStats, u64)| {
        t.merge(t2);
        *syncs += s2;
    };
    let (tasks, syncs) = fold_chunks(touched, cm, merge);
    let _ = bitmap;
    LbPrice { tasks, syncs, scan_elems: 0, extra_launches: 0 }
}

/// STRICT: merge-path partitioning — every CTA gets an equal share of the
/// *edge* list, found by sorted search over the scanned offsets. Perfectly
/// balanced tasks; pays the partition scan up front (plus a compaction
/// when fed a bitmap, which has no offsets array to search).
fn price_strict(spec: &DeviceSpec, costs: &EdgeCosts, touched: &[u32], bitmap: bool) -> LbPrice {
    // Summed on the caller: n widening adds cost less than the wake-up a
    // pooled sum pays to share them.
    let total_edges: u64 = touched.iter().map(|&d| d as u64).sum();
    let per_edge = costs.lane + costs.strict_extra;
    let mut tasks = TaskStats::default();
    let mut scan_elems = touched.len() as u64; // offset scan for partitioning
    if bitmap {
        scan_elems += touched.len() as u64; // compaction before partitioning
    }
    let mut syncs = 0u64;
    if total_edges > 0 {
        // The merge-path partition runs as a serialized prologue — about
        // half a launch of dead time before any expand lane starts. This
        // is the fixed cost that hands small frontiers to TWC (Fig. 7)
        // while STRICT keeps the large irregular ones.
        let setup_cycles = 0.5 * spec.launch_overhead_us * spec.clock_ghz * 1e3;
        tasks.add_task(setup_cycles);
        // Aim for ~4 waves of tasks across the machine. Work divides
        // exactly (merge-path splits mid-row), so price it exactly —
        // integer step quantization would add sub-percent noise that
        // breaks monotonicity in total work.
        let slots = spec.warp_slots();
        let target_tasks = (slots * 4).max(1);
        let edges_per_task = total_edges.div_ceil(target_tasks).max(spec.warp_size as u64);
        let n_tasks = total_edges.div_ceil(edges_per_task);
        let warp = spec.warp_size as f64;
        let work = TaskStats {
            total_cycles: total_edges as f64 / warp * per_edge,
            max_cycles: edges_per_task as f64 / warp * per_edge,
            count: n_tasks,
        };
        tasks.merge(&work);
        syncs = n_tasks; // one barrier per CTA chunk hand-off
    }
    // The sorted-search partition runs as its own kernel before the
    // expand proper.
    LbPrice { tasks, syncs, scan_elems, extra_launches: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Direction;

    fn spec() -> DeviceSpec {
        DeviceSpec::k40m()
    }

    fn costs() -> EdgeCosts {
        edge_costs(&spec(), Direction::Push, false)
    }

    /// A uniform machine-filling workload: 64Ki slots of degree 8 (small
    /// workloads leave slots idle and the makespan degenerates to the
    /// longest task, which is not what this test probes).
    fn uniform() -> Vec<u32> {
        vec![8; 1 << 16]
    }

    /// A hub workload: one slot of degree 100_000 among 1023 of degree 2.
    fn hubby() -> Vec<u32> {
        let mut v = vec![2; 1024];
        v[512] = 100_000;
        v
    }

    fn time_of(lb: LoadBalance, touched: &[u32]) -> f64 {
        let p = price(&spec(), lb, &costs(), touched, false);
        let prof = gswitch_simt::KernelProfile {
            tasks: p.tasks,
            syncs: p.syncs,
            scan_elems: p.scan_elems,
            launches: 0,
            ..Default::default()
        };
        spec().kernel_time_ms(&prof)
    }

    #[test]
    fn twc_cheapest_on_uniform_work() {
        let u = uniform();
        let twc = time_of(LoadBalance::Twc, &u);
        for lb in [LoadBalance::Wm, LoadBalance::Cm, LoadBalance::Strict] {
            assert!(twc <= time_of(lb, &u) * 1.05, "TWC should win on uniform, lost to {lb:?}");
        }
    }

    #[test]
    fn strict_wins_on_hub() {
        let h = hubby();
        let strict = time_of(LoadBalance::Strict, &h);
        let twc = time_of(LoadBalance::Twc, &h);
        assert!(strict < twc, "strict {strict} vs twc {twc}");
    }

    #[test]
    fn wm_beats_twc_on_skewed_small_degrees() {
        // Degrees alternate 0 and 30: TWC's thread bucket wastes ~15/30
        // lanes, WM pools the edges.
        let v: Vec<u32> = (0..2048).map(|i| if i % 2 == 0 { 30 } else { 0 }).collect();
        assert!(time_of(LoadBalance::Wm, &v) < time_of(LoadBalance::Twc, &v));
    }

    #[test]
    fn all_strategies_price_empty_workload() {
        for lb in [LoadBalance::Twc, LoadBalance::Wm, LoadBalance::Cm, LoadBalance::Strict] {
            let p = price(&spec(), lb, &costs(), &[], false);
            assert_eq!(p.tasks.count, 0, "{lb:?}");
            assert_eq!(p.tasks.total_cycles, 0.0);
        }
    }

    #[test]
    fn strict_tasks_are_balanced() {
        let p = price(&spec(), LoadBalance::Strict, &costs(), &hubby(), false);
        // All edge-processing tasks are identical; only the partition
        // prologue (one fixed setup task) breaks exact uniformity.
        assert!(p.tasks.imbalance() <= 3.0, "imbalance {}", p.tasks.imbalance());
        assert!(p.scan_elems >= 1024);
        // No task is hub-sized: the hub's 100k edges are split evenly.
        let hub_cycles = 100_000.0 * costs().lane;
        assert!(p.tasks.max_cycles < hub_cycles / 10.0);
    }

    #[test]
    fn twc_hub_lands_in_cta_bucket() {
        let p = price(&spec(), LoadBalance::Twc, &costs(), &[100_000], false);
        // 8 warp tasks (one per CTA warp), each ceil(1e5/256) steps.
        assert_eq!(p.tasks.count, 8);
        let expect = (100_000u32.div_ceil(256)) as f64 * costs().lane;
        assert!((p.tasks.max_cycles - expect).abs() < 1.0);
    }

    #[test]
    fn bitmap_mode_charges_strict_compaction() {
        let v = vec![0u32; 4096];
        let q = price(&spec(), LoadBalance::Strict, &costs(), &v, false);
        let b = price(&spec(), LoadBalance::Strict, &costs(), &v, true);
        assert!(b.scan_elems > q.scan_elems);
    }

    #[test]
    fn pull_cheaper_per_edge_than_push() {
        let s = spec();
        let push = edge_costs(&s, Direction::Push, false);
        let pull = edge_costs(&s, Direction::Pull, false);
        assert!(pull.lane < push.lane);
    }

    #[test]
    fn sorted_locality_discount_applies() {
        let s = spec();
        let plain = edge_costs(&s, Direction::Push, false);
        let sorted = edge_costs(&s, Direction::Push, true);
        assert!(sorted.lane < plain.lane);
    }

    #[test]
    fn twc_bucket_boundaries() {
        let s = spec();
        let c = costs();
        // Degree 31 = thread bucket (one group task); 32 = warp bucket
        // (one task of 1 step); 256 = CTA bucket (8 warp tasks).
        let p31 = price(&s, LoadBalance::Twc, &c, &[31], false);
        assert_eq!(p31.tasks.count, 1);
        let p32 = price(&s, LoadBalance::Twc, &c, &[32], false);
        assert_eq!(p32.tasks.count, 1);
        assert!((p32.tasks.max_cycles - c.lane).abs() < 1e-9);
        let p256 = price(&s, LoadBalance::Twc, &c, &[256], false);
        assert_eq!(p256.tasks.count, 8);
    }

    #[test]
    fn price_monotone_in_degree() {
        let s = spec();
        let c = costs();
        for lb in [LoadBalance::Twc, LoadBalance::Wm, LoadBalance::Cm, LoadBalance::Strict] {
            let lo = price(&s, lb, &c, &vec![4u32; 4096], false);
            let hi = price(&s, lb, &c, &vec![16u32; 4096], false);
            assert!(hi.tasks.total_cycles > lo.tasks.total_cycles, "{lb:?} not monotone");
        }
    }

    #[test]
    fn wm_batches_pay_minimum_scan() {
        // 64 empty slots = 2 WM batches, each paying at least the idle
        // scan — never zero tasks.
        let p = price(&spec(), LoadBalance::Wm, &costs(), &[0u32; 64], true);
        assert_eq!(p.tasks.count, 2);
        assert!(p.tasks.total_cycles > 0.0);
    }

    #[test]
    fn cm_syncs_scale_with_edges() {
        let s = spec();
        let c = costs();
        let small = price(&s, LoadBalance::Cm, &c, &vec![1u32; 256], false);
        let big = price(&s, LoadBalance::Cm, &c, &vec![64u32; 256], false);
        assert!(big.syncs > small.syncs);
    }

    #[test]
    fn strict_task_count_tracks_machine_width() {
        let s = spec();
        let p = price(&s, LoadBalance::Strict, &costs(), &vec![100u32; 100_000], false);
        // ~4 waves over the warp slots.
        let expect = s.warp_slots() * 4;
        assert!(
            (p.tasks.count as i64 - expect as i64).unsigned_abs() <= expect / 2,
            "tasks {} vs expected ~{expect}",
            p.tasks.count
        );
    }
}
