//! Betweenness Centrality (Brandes) on the GSWITCH API.
//!
//! Single-source BC is two BSP phases, each its own GSWITCH app:
//!
//! 1. **Forward** — a BFS that also accumulates `σ` (shortest-path
//!    counts): a newly discovered vertex takes `level + 1` and sums the
//!    σ of all its current-level parents.
//! 2. **Backward** — dependency accumulation from the deepest level up:
//!    at backward step `k`, vertices at level `max_level − k` send
//!    `σ_u/σ_v (1 + δ_v)` to their level-`ℓ−1` predecessors.
//!
//! The paper's BC results (Table 3, Fig. 15) hinge on the generalized
//! direction optimization (P1) applying to both phases — exactly what
//! the GPUBC/Gunrock push-only baselines lack.

use gswitch_core::{run, EngineOptions, GraphApp, Policy, RunReport, Status};
use gswitch_graph::{Graph, VertexId, Weight};
use gswitch_kernels::atomics::AtomicArray;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Forward phase: levels and shortest-path counts.
#[derive(Debug)]
pub struct BcForward {
    level: AtomicArray<u32>,
    sigma: AtomicArray<f64>,
    current: AtomicU32,
}

impl BcForward {
    /// Forward state rooted at `src`.
    pub fn new(n: usize, src: VertexId) -> Self {
        let f = BcForward {
            level: AtomicArray::filled(n, u32::MAX),
            sigma: AtomicArray::filled(n, 0.0),
            current: AtomicU32::new(0),
        };
        f.level.store(src, 0);
        f.sigma.store(src, 1.0);
        f
    }
}

impl GraphApp for BcForward {
    /// (candidate level, parent's σ).
    type Msg = (u32, f64);
    const PULL_EARLY_EXIT: bool = false; // σ needs *all* parents
    const DUP_TOLERANT: bool = false; // σ additions are not idempotent

    fn filter(&self, v: VertexId) -> Status {
        let l = self.level.load(v);
        let cur = self.current.load(Relaxed);
        if l == cur {
            Status::Active
        } else if l == u32::MAX {
            Status::Inactive
        } else {
            Status::Fixed
        }
    }

    fn emit(&self, u: VertexId, _w: Weight) -> (u32, f64) {
        (self.level.load(u) + 1, self.sigma.load(u))
    }

    fn comp_atomic(&self, dst: VertexId, (lvl, sig): (u32, f64)) -> bool {
        // Claim the level first (idempotent), then accumulate σ whenever
        // the level matches — every same-level parent contributes.
        let claimed = self.level.fetch_min(dst, lvl) > lvl;
        if self.level.load(dst) == lvl {
            self.sigma.fetch_add(dst, sig);
        }
        claimed
    }

    /// `comp_atomic` on one thread: claim, then add σ whenever the level
    /// matches (a claimed vertex's σ was 0, so pull rows read the same).
    fn comp(&self, dst: VertexId, (lvl, sig): (u32, f64)) -> bool {
        let cur = self.level.load(dst);
        let claimed = lvl < cur;
        if claimed {
            self.level.store(dst, lvl);
        }
        if lvl <= cur {
            self.sigma.store(dst, self.sigma.load(dst) + sig);
        }
        claimed
    }

    fn advance(&self, iteration: u32) {
        self.current.store(iteration, Relaxed);
    }

    fn refilter_hint(&self, _out: &mut Vec<VertexId>) -> bool {
        // As in BFS: the claiming comp reports every vertex that joins the
        // next level, and the level that ended was Active.
        true
    }
}

/// Backward phase: dependency accumulation over frozen levels/σ.
#[derive(Debug)]
pub struct BcBackward {
    /// Levels from the forward phase (read-only here).
    level: Vec<u32>,
    /// σ from the forward phase (read-only here).
    sigma: Vec<f64>,
    delta: AtomicArray<f64>,
    max_level: u32,
    current: AtomicU32,
    /// The reachable vertices grouped by level: level `l` is
    /// `by_level[level_start[l]..level_start[l + 1]]` — the bucket that
    /// turns Active when the backward sweep reaches `l`.
    by_level: Vec<VertexId>,
    level_start: Vec<usize>,
}

impl BcBackward {
    /// Build from a completed forward phase.
    pub fn new(fwd: &BcForward) -> Self {
        let level = fwd.level.to_vec();
        let sigma = fwd.sigma.to_vec();
        let max_level = level.iter().copied().filter(|&l| l != u32::MAX).max().unwrap_or(0);
        // Counting sort of the reachable vertices by level.
        let reachable = || level.iter().enumerate().filter(|(_, &l)| l != u32::MAX);
        let mut level_start = vec![0usize; max_level as usize + 2];
        for (_, &l) in reachable() {
            level_start[l as usize + 1] += 1;
        }
        for l in 0..=max_level as usize {
            level_start[l + 1] += level_start[l];
        }
        let mut cursor = level_start.clone();
        let mut by_level = vec![0; level_start[max_level as usize + 1]];
        for (v, &l) in reachable() {
            by_level[cursor[l as usize]] = v as VertexId;
            cursor[l as usize] += 1;
        }
        BcBackward {
            delta: AtomicArray::filled(level.len(), 0.0),
            level,
            sigma,
            max_level,
            current: AtomicU32::new(0),
            by_level,
            level_start,
        }
    }

    /// The level processed at backward iteration `iter` (negative = done).
    fn target(&self, iter: u32) -> i64 {
        self.max_level as i64 - iter as i64
    }

    /// Dependency scores after the run (source convention: 0).
    pub fn deltas(&self) -> Vec<f64> {
        self.delta.to_vec()
    }
}

impl GraphApp for BcBackward {
    /// (sender's level, sender's σ, sender's finalized δ).
    type Msg = (u32, f64, f64);
    const PULL_EARLY_EXIT: bool = false;
    const DUP_TOLERANT: bool = false;

    fn filter(&self, v: VertexId) -> Status {
        let l = self.level[v as usize];
        if l == u32::MAX {
            return Status::Fixed; // unreachable: never participates
        }
        let target = self.target(self.current.load(Relaxed));
        if target < 0 {
            Status::Fixed
        } else if l as i64 == target {
            Status::Active
        } else if (l as i64) < target {
            Status::Inactive // will be processed in a later backward step
        } else {
            Status::Fixed // deeper level: already processed
        }
    }

    fn emit(&self, u: VertexId, _w: Weight) -> (u32, f64, f64) {
        let ui = u as usize;
        (self.level[ui], self.sigma[ui], self.delta.load(u))
    }

    fn comp_atomic(&self, dst: VertexId, (lvl, sig, del): (u32, f64, f64)) -> bool {
        let di = dst as usize;
        // Only true predecessors (one level up the BFS tree) accumulate.
        if self.level[di] + 1 == lvl && sig > 0.0 {
            self.delta.fetch_add(dst, self.sigma[di] / sig * (1.0 + del));
        }
        false // activation is level-driven, not message-driven
    }

    fn comp(&self, dst: VertexId, msg: (u32, f64, f64)) -> bool {
        let di = dst as usize;
        if self.level[di] + 1 == msg.0 && msg.1 > 0.0 {
            let add = self.sigma[di] / msg.1 * (1.0 + msg.2);
            self.delta.store(dst, self.delta.load(dst) + add);
        }
        false
    }

    fn advance(&self, iteration: u32) {
        self.current.store(iteration, Relaxed);
    }

    fn refilter_hint(&self, out: &mut Vec<VertexId>) -> bool {
        // Activation is level-driven: the step counter turns the target
        // level's bucket Active (the level above it was Active before and
        // turns Fixed), and no other status moves.
        if let Ok(l) = usize::try_from(self.target(self.current.load(Relaxed))) {
            out.extend_from_slice(&self.by_level[self.level_start[l]..self.level_start[l + 1]]);
        }
        true
    }
}

/// Result of a BC run.
#[derive(Debug)]
pub struct BcResult {
    /// Per-vertex dependency scores from this source (the addend a full
    /// BC would accumulate per source).
    pub scores: Vec<f64>,
    /// Forward-phase trace.
    pub forward: RunReport,
    /// Backward-phase trace.
    pub backward: RunReport,
}

impl BcResult {
    /// Combined simulated time (ms).
    pub fn total_ms(&self) -> f64 {
        self.forward.total_ms() + self.backward.total_ms()
    }

    /// Combined iteration count.
    pub fn n_iterations(&self) -> usize {
        self.forward.n_iterations() + self.backward.n_iterations()
    }
}

/// Run single-source BC from `src` under `policy`. A seed in `opts`
/// ([`EngineOptions::seed`]) warm-starts the forward phase only: it is
/// the BFS-like traversal a cached config describes, while the backward
/// sweep has its own access pattern and always consults the policy. A
/// forward run its probe stopped left levels that are not a BFS tree (a
/// reached vertex's neighbours may be unreached), so the backward phase
/// does not run: its report carries the same stop, with no iterations,
/// and every dependency stays 0.
pub fn bc(g: &Graph, src: VertexId, policy: &dyn Policy, opts: &EngineOptions) -> BcResult {
    let fwd = BcForward::new(g.num_vertices(), src);
    let forward = run(g, &fwd, policy, opts);
    let bwd = BcBackward::new(&fwd);
    let backward = match forward.stopped {
        Some(stop) => RunReport { stopped: Some(stop), ..RunReport::default() },
        None => run(g, &bwd, policy, &EngineOptions { seed: None, ..opts.clone() }),
    };
    let mut scores = bwd.deltas();
    if let Some(s) = scores.get_mut(src as usize) {
        *s = 0.0; // Brandes convention: the source accumulates nothing
    }
    BcResult { scores, forward, backward }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gswitch_core::{AutoPolicy, KernelConfig, StaticPolicy};
    use gswitch_graph::{gen, GraphBuilder};

    impl crate::tests::Cells for BcForward {
        fn cells(&self) -> Vec<u64> {
            let levels = self.level.to_vec().into_iter().map(u64::from);
            levels.chain(self.sigma.to_vec().into_iter().map(f64::to_bits)).collect()
        }
    }

    impl crate::tests::Cells for BcBackward {
        fn cells(&self) -> Vec<u64> {
            self.deltas().into_iter().map(f64::to_bits).collect()
        }
    }

    fn assert_close(got: &[f64], want: &[f64], tag: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "{tag}: delta[{i}] = {a} vs {b}");
        }
    }

    #[test]
    fn path_graph_dependencies() {
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build();
        let r = bc(&g, 0, &AutoPolicy, &EngineOptions::default());
        assert_eq!(r.scores, vec![0.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn diamond_splits_dependency() {
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (1, 3), (2, 3)]).build();
        let r = bc(&g, 0, &AutoPolicy, &EngineOptions::default());
        assert_close(&r.scores, &reference::bc(&g, 0), "diamond");
        assert!((r.scores[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn matches_brandes_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(200, 700, seed);
            let r = bc(&g, 0, &AutoPolicy, &EngineOptions::default());
            assert_close(&r.scores, &reference::bc(&g, 0), &format!("seed {seed}"));
        }
    }

    #[test]
    fn every_standalone_shape_agrees() {
        let g = gen::barabasi_albert(150, 3, 6);
        let want = reference::bc(&g, 0);
        for cfg in KernelConfig::all_shapes() {
            // BC is not duplicate-tolerant: fused shapes get clamped to
            // standalone by the engine, so all 48 still agree.
            let r = bc(&g, 0, &StaticPolicy::new(cfg), &EngineOptions::default());
            assert_close(&r.scores, &want, &cfg.to_string());
        }
    }

    /// Exact BC over `sources`: the per-source dependencies summed, and
    /// the total simulated time.
    fn summed(g: &Graph, sources: std::ops::Range<u32>) -> (Vec<f64>, f64) {
        let mut centrality = vec![0.0f64; g.num_vertices()];
        let mut total_ms = 0.0;
        for src in sources {
            let r = bc(g, src, &AutoPolicy, &EngineOptions::default());
            for (c, d) in centrality.iter_mut().zip(&r.scores) {
                *c += d;
            }
            total_ms += r.total_ms();
        }
        (centrality, total_ms)
    }

    #[test]
    fn bc_all_matches_summed_brandes() {
        // Exact BC on an undirected path: the classic n-choose-2 pattern.
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build();
        let (cent, ms) = summed(&g, 0..5);
        // For an undirected path a-b-c-d-e, vertex c lies on 2*(2x2)=8
        // directed shortest paths, b and d on 2*3=6.
        assert_eq!(cent, vec![0.0, 6.0, 8.0, 6.0, 0.0]);
        assert!(ms > 0.0);
    }

    #[test]
    fn bc_all_matches_reference_sum_on_random_graph() {
        let g = gen::erdos_renyi(60, 200, 3);
        let (cent, _) = summed(&g, 0..60);
        let mut want = vec![0.0; 60];
        for s in 0..60u32 {
            for (w, d) in want.iter_mut().zip(reference::bc(&g, s)) {
                *w += d;
            }
        }
        for (i, (a, b)) in cent.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "v{i}: {a} vs {b}");
        }
    }

    #[test]
    fn unreachable_vertices_score_zero() {
        let g = GraphBuilder::new(4).edges([(0, 1), (2, 3)]).build();
        let r = bc(&g, 0, &AutoPolicy, &EngineOptions::default());
        assert_eq!(r.scores[2], 0.0);
        assert_eq!(r.scores[3], 0.0);
    }
}
