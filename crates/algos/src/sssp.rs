//! Single-Source Shortest Paths: dynamic stepping (the paper's SSSP),
//! unordered Bellman-Ford (BF), and classic Δ-stepping — the three
//! variants compared in Fig. 8.
//!
//! All three share one state machine: tentative distances, a `pending`
//! set (vertices whose distance improved and still owe a relaxation),
//! and a priority threshold that admits only `dist ≤ threshold` into the
//! active set. They differ *only* in how the threshold moves:
//!
//! * **Bellman-Ford** — threshold = ∞: everything pending is active.
//!   Maximum parallelism, maximum wasted relaxations.
//! * **Δ-stepping** — fixed window; when the window drains, advance by Δ
//!   (the `rescue` hook).
//! * **Dynamic stepping** — the GSWITCH novelty (§3 P4): the window
//!   reacts to the measured edge-workload trend through
//!   `adjust_priority` (±35% rule or the trained P4 classifier).

use gswitch_core::{run, EngineOptions, GraphApp, Policy, RunReport, Status, SteppingDelta};
use gswitch_graph::{Graph, VertexId, Weight};
use gswitch_kernels::atomics::{AtomicArray, AtomicBitSet};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Shared SSSP state.
#[derive(Debug)]
struct SsspState {
    dist: AtomicArray<u32>,
    /// Vertices whose distance improved and have not been expanded since.
    pending: AtomicBitSet,
    /// Priority window: pending vertices with `dist ≤ threshold` are
    /// active.
    threshold: AtomicU32,
    /// Step size for threshold moves.
    step: u32,
}

impl SsspState {
    fn new(n: usize, src: VertexId, threshold: u32, step: u32) -> Self {
        let s = SsspState {
            dist: AtomicArray::filled(n, u32::MAX),
            pending: AtomicBitSet::new(n),
            threshold: AtomicU32::new(threshold),
            step,
        };
        s.dist.store(src, 0);
        s.pending.set(src);
        s
    }

    fn filter(&self, v: VertexId) -> Status {
        if self.pending.get(v) && self.dist.load(v) <= self.threshold.load(Relaxed) {
            Status::Active
        } else {
            Status::Inactive
        }
    }

    fn prepare(&self, v: VertexId) {
        // This pending relaxation is being serviced now.
        self.pending.unset(v);
    }

    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        if self.dist.fetch_min(dst, msg) > msg {
            self.pending.set(dst);
            true
        } else {
            false
        }
    }

    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        if msg < self.dist.load(dst) {
            self.dist.store(dst, msg);
            self.pending.set(dst);
            true
        } else {
            false
        }
    }

    /// No pending vertex fits the window: advance the threshold past the
    /// cheapest pending distance (Δ-stepping's "next bucket"). Returns
    /// false when nothing is pending at all (true convergence).
    fn rescue(&self) -> bool {
        let mut min_pending = u32::MAX;
        for v in self.pending.to_sorted_vec() {
            min_pending = min_pending.min(self.dist.load(v));
        }
        if min_pending == u32::MAX {
            return false;
        }
        self.threshold.store(min_pending.saturating_add(self.step), Relaxed);
        true
    }
}

/// Estimate a sensible initial window from the graph: c·w̄·(m/n is the
/// degree; the paper's static reference uses cw̄/d from [13]).
fn default_step(g: &Graph) -> u32 {
    let avg_w = match g.out_weights() {
        Some(ws) if !ws.is_empty() => ws.iter().map(|&w| w as u64).sum::<u64>() / ws.len() as u64,
        _ => 1,
    };
    let d = (g.num_edges() as f64 / g.num_vertices().max(1) as f64).max(1.0);
    ((avg_w as f64 * 8.0 / d).ceil() as u32).max(1)
}

macro_rules! delegate_state {
    () => {
        type Msg = u32;
        const PULL_EARLY_EXIT: bool = false; // must take the min over all parents
        const DUP_TOLERANT: bool = true; // relaxations are monotonic
        const NEEDS_WEIGHTS: bool = true;

        fn filter(&self, v: VertexId) -> Status {
            self.state.filter(v)
        }
        fn prepare(&self, v: VertexId) {
            self.state.prepare(v);
        }
        fn emit(&self, u: VertexId, w: Weight) -> u32 {
            self.state.dist.load(u).saturating_add(w)
        }
        fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
            self.state.comp_atomic(dst, msg)
        }
        fn comp(&self, dst: VertexId, msg: u32) -> bool {
            self.state.comp(dst, msg)
        }
        fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
            self.state.dist.load(dst) == msg
        }
        fn pull_receives(_status: Status) -> bool {
            // Any vertex's distance may still improve.
            true
        }
        fn refilter_hint(&self, out: &mut Vec<VertexId>) -> bool {
            // Only a pending vertex can be (or, once the threshold moves
            // or a rescue widens the window, become) Active.
            self.state.pending.append_sorted(out);
            true
        }
    };
}

/// The paper's SSSP: dynamic stepping (P4-driven window).
#[derive(Debug)]
pub struct Sssp {
    state: SsspState,
}

impl Sssp {
    /// Dynamic-stepping SSSP on `g` from `src`.
    pub fn new(g: &Graph, src: VertexId) -> Self {
        let step = default_step(g);
        Sssp { state: SsspState::new(g.num_vertices(), src, step, step) }
    }

    /// Snapshot distances (`u32::MAX` = unreachable).
    pub fn distances(&self) -> Vec<u32> {
        self.state.dist.to_vec()
    }
}

impl GraphApp for Sssp {
    delegate_state!();
    const PRIORITY_DRIVEN: bool = true;

    fn adjust_priority(&self, delta: SteppingDelta) {
        // Multiplicative window moves: workload trends are geometric
        // (frontier explosions multiply edge counts), so an additive step
        // cannot keep up — it degenerates to Bellman-Ford on skewed
        // graphs. Widen gently, narrow hard.
        let t = &self.state.threshold;
        let cur = t.load(Relaxed);
        match delta {
            SteppingDelta::Increase => {
                t.store(cur.saturating_add((cur / 2).max(self.state.step)), Relaxed);
            }
            SteppingDelta::Decrease => {
                t.store((cur / 2).max(1), Relaxed);
            }
            SteppingDelta::Remain => {}
        }
    }

    fn rescue(&self) -> bool {
        self.state.rescue()
    }
}

/// Unordered Bellman-Ford: every pending vertex relaxes every iteration.
#[derive(Debug)]
pub struct BellmanFord {
    state: SsspState,
}

impl BellmanFord {
    /// Bellman-Ford SSSP on `g` from `src`.
    pub fn new(g: &Graph, src: VertexId) -> Self {
        BellmanFord { state: SsspState::new(g.num_vertices(), src, u32::MAX, 1) }
    }

    /// Snapshot distances.
    pub fn distances(&self) -> Vec<u32> {
        self.state.dist.to_vec()
    }
}

impl GraphApp for BellmanFord {
    delegate_state!();
}

/// Classic Δ-stepping \[Meyer & Sanders 42\]: a fixed window advanced only
/// when it drains.
#[derive(Debug)]
pub struct DeltaStepping {
    state: SsspState,
}

impl DeltaStepping {
    /// Δ-stepping SSSP on `g` from `src` with window `delta`.
    pub fn new(g: &Graph, src: VertexId, delta: u32) -> Self {
        assert!(delta >= 1);
        DeltaStepping { state: SsspState::new(g.num_vertices(), src, delta, delta) }
    }

    /// Δ-stepping with the cw̄/d̄ default window of \[13\].
    pub fn with_default_delta(g: &Graph, src: VertexId) -> Self {
        Self::new(g, src, default_step(g))
    }

    /// Snapshot distances.
    pub fn distances(&self) -> Vec<u32> {
        self.state.dist.to_vec()
    }
}

impl GraphApp for DeltaStepping {
    delegate_state!();

    fn rescue(&self) -> bool {
        self.state.rescue()
    }
}

/// Result of an SSSP run.
#[derive(Debug)]
pub struct SsspResult {
    /// Tentative distances at convergence (`u32::MAX` = unreachable).
    pub distances: Vec<u32>,
    /// The engine trace.
    pub report: RunReport,
}

/// Run the paper's dynamic-stepping SSSP under `policy`.
pub fn sssp(g: &Graph, src: VertexId, policy: &dyn Policy, opts: &EngineOptions) -> SsspResult {
    let app = Sssp::new(g, src);
    let report = run(g, &app, policy, opts);
    SsspResult { distances: app.distances(), report }
}

/// Run unordered Bellman-Ford under `policy`.
pub fn bellman_ford(
    g: &Graph,
    src: VertexId,
    policy: &dyn Policy,
    opts: &EngineOptions,
) -> SsspResult {
    let app = BellmanFord::new(g, src);
    let report = run(g, &app, policy, opts);
    SsspResult { distances: app.distances(), report }
}

/// Run classic Δ-stepping under `policy`.
pub fn delta_stepping(
    g: &Graph,
    src: VertexId,
    policy: &dyn Policy,
    opts: &EngineOptions,
) -> SsspResult {
    let app = DeltaStepping::with_default_delta(g, src);
    let report = run(g, &app, policy, opts);
    SsspResult { distances: app.distances(), report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gswitch_core::{AutoPolicy, KernelConfig, StaticPolicy};
    use gswitch_graph::gen;

    fn weighted(seed: u64) -> Graph {
        gen::with_random_weights(&gen::erdos_renyi(300, 1_200, seed), 64, seed)
    }

    #[test]
    fn all_three_variants_match_dijkstra() {
        for seed in 0..3 {
            let g = weighted(seed);
            let want = reference::sssp(&g, 0);
            let opts = EngineOptions::default();
            assert_eq!(sssp(&g, 0, &AutoPolicy, &opts).distances, want, "dyn seed {seed}");
            assert_eq!(bellman_ford(&g, 0, &AutoPolicy, &opts).distances, want, "bf seed {seed}");
            assert_eq!(
                delta_stepping(&g, 0, &AutoPolicy, &opts).distances,
                want,
                "delta seed {seed}"
            );
        }
    }

    #[test]
    fn every_shape_agrees() {
        let g = gen::with_random_weights(&gen::kronecker(8, 6, 2), 32, 5);
        let want = reference::sssp(&g, 0);
        for cfg in KernelConfig::all_shapes() {
            let r = sssp(&g, 0, &StaticPolicy::new(cfg), &EngineOptions::default());
            assert_eq!(r.distances, want, "{cfg}");
        }
    }

    #[test]
    fn unweighted_sssp_equals_bfs() {
        let g = gen::grid2d(15, 15, 0.05, 8);
        let r = sssp(&g, 0, &AutoPolicy, &EngineOptions::default());
        assert_eq!(r.distances, reference::bfs(&g, 0));
    }

    #[test]
    fn ordered_variants_touch_fewer_edges_than_bf() {
        // Work-efficiency claim of Fig. 8: stepping reduces touched edges.
        let g = gen::with_random_weights(&gen::barabasi_albert(2_000, 6, 4), 64, 9);
        let opts = EngineOptions::default();
        let bf = bellman_ford(&g, 0, &AutoPolicy, &opts);
        let dyn_ = sssp(&g, 0, &AutoPolicy, &opts);
        assert_eq!(bf.distances, dyn_.distances);
        assert!(
            dyn_.report.edges_touched() < bf.report.edges_touched(),
            "dynamic {} vs bf {}",
            dyn_.report.edges_touched(),
            bf.report.edges_touched()
        );
    }

    #[test]
    fn disconnected_targets_stay_unreachable() {
        let g = gswitch_graph::GraphBuilder::new(4).weighted_edges([(0, 1, 3)]).build();
        let r = sssp(&g, 0, &AutoPolicy, &EngineOptions::default());
        assert_eq!(r.distances, vec![0, 3, u32::MAX, u32::MAX]);
    }
}
