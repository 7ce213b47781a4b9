//! Delta-PageRank \[PowerGraph, 19\] on the GSWITCH API.
//!
//! Each vertex keeps an accumulated `rank` and an undistributed
//! `residual`. An active vertex (residual above threshold) consumes its
//! residual in `prepare` (the Filter's "Apply/Update"), then Expand
//! scatters `α · consumed / deg` to its neighbors (push) or lets every
//! vertex gather the shares of its active in-neighbors (pull). Compared
//! with full power iteration, only vertices with meaningful pending mass
//! do work — which is why the *format* (P2) and *direction* (P1)
//! decisions swing this benchmark (Figs. 3, 5).

use gswitch_core::{run, EngineOptions, GraphApp, Policy, RunReport, Status};
use gswitch_graph::{Graph, VertexId, Weight};
use gswitch_kernels::atomics::AtomicArray;

/// The delta-PageRank application.
#[derive(Debug)]
pub struct PageRank {
    rank: AtomicArray<f64>,
    residual: AtomicArray<f64>,
    /// What an Active vertex sends down each out-edge this step: the
    /// residual it consumed × `share`, staged once in `prepare`.
    staged: AtomicArray<f64>,
    /// α/deg per vertex, precomputed (0 for dangling vertices).
    share: Vec<f64>,
    /// Per-vertex activation threshold on the residual.
    threshold: f64,
}

impl PageRank {
    /// Damping factor used throughout the paper's PR experiments.
    pub const ALPHA: f64 = 0.85;

    /// A PageRank instance on `g` with tolerance `tol` (total residual
    /// mass left unconsumed at convergence; the paper uses "the same
    /// terminal condition" across libraries — we use tol = 1e-3).
    pub fn new(g: &Graph, tol: f64) -> Self {
        let n = g.num_vertices();
        assert!(n > 0);
        let share = (0..n as VertexId)
            .map(|v| {
                let d = g.out_csr().degree(v);
                if d == 0 {
                    0.0
                } else {
                    Self::ALPHA / d as f64
                }
            })
            .collect();
        PageRank {
            rank: AtomicArray::filled(n, 0.0),
            residual: AtomicArray::filled(n, (1.0 - Self::ALPHA) / n as f64),
            staged: AtomicArray::filled(n, 0.0),
            share,
            threshold: tol / n as f64,
        }
    }

    /// Final scores: accumulated rank plus any unconsumed residual.
    pub fn ranks(&self) -> Vec<f64> {
        (0..self.rank.len() as VertexId)
            .map(|v| self.rank.load(v) + self.residual.load(v))
            .collect()
    }
}

impl GraphApp for PageRank {
    type Msg = f64;
    const PULL_EARLY_EXIT: bool = false; // sums need every active parent
    const DUP_TOLERANT: bool = false; // consuming a residual twice double-counts

    fn filter(&self, v: VertexId) -> Status {
        if self.residual.load(v) > self.threshold {
            Status::Active
        } else {
            Status::Inactive
        }
    }

    fn prepare(&self, v: VertexId) {
        // Consume the pending mass: credit the rank, stage the emission.
        // No `comp` reaches `v` meanwhile (`prepare`'s contract; PageRank
        // never fuses, and a sharded halo copy is `Fixed`, so only the
        // owner prepares), so a plain load and store consume it whole.
        let r = self.residual.load(v);
        self.residual.store(v, 0.0);
        self.staged.store(v, r * self.share[v as usize]);
        self.rank.store(v, self.rank.load(v) + r);
    }

    #[inline]
    fn emit(&self, u: VertexId, _w: Weight) -> f64 {
        self.staged.load(u)
    }

    fn comp_atomic(&self, dst: VertexId, msg: f64) -> bool {
        let old = self.residual.fetch_add(dst, msg);
        // "Activated" = the residual crossed the threshold just now.
        old <= self.threshold && old + msg > self.threshold
    }

    fn comp(&self, dst: VertexId, msg: f64) -> bool {
        let old = self.residual.load(dst);
        self.residual.store(dst, old + msg);
        old <= self.threshold && old + msg > self.threshold
    }

    /// `comp` over the row with `residual[dst]` held in a register: the
    /// same additions in the same order, one load and one store instead of
    /// one of each per edge. No message is negative (an Active vertex
    /// consumed a residual above the positive threshold, shares are ≥ 0),
    /// so the running sum never falls and `comp`'s crossing test succeeds
    /// for at most one message — exactly when the row's first value is on
    /// the threshold's low side and its last on the high side.
    #[inline]
    fn gather(&self, dst: VertexId, msgs: impl Iterator<Item = f64>) -> u64 {
        let old = self.residual.load(dst);
        let new = msgs.fold(old, |acc, msg| acc + msg);
        self.residual.store(dst, new);
        u64::from(old <= self.threshold && new > self.threshold)
    }

    fn pull_receives(_status: Status) -> bool {
        // Any vertex may accumulate fresh residual.
        true
    }

    fn pull_rows_independent() -> bool {
        // A row writes only its receiver's residual, and `emit` reads only
        // `staged`, which `prepare` wrote before the Expand.
        true
    }

    fn refilter_hint(&self, _out: &mut Vec<VertexId>) -> bool {
        // A residual leaves the threshold's low side only through the comp
        // that reports the crossing, and its high side only through the
        // `prepare` of an Active vertex.
        true
    }
}

/// Result of a PageRank run.
#[derive(Debug)]
pub struct PrResult {
    /// Per-vertex PageRank scores.
    pub ranks: Vec<f64>,
    /// The engine trace.
    pub report: RunReport,
}

/// Run delta-PageRank to tolerance `tol` under `policy`.
pub fn pagerank(g: &Graph, tol: f64, policy: &dyn Policy, opts: &EngineOptions) -> PrResult {
    let app = PageRank::new(g, tol);
    let report = run(g, &app, policy, opts);
    PrResult { ranks: app.ranks(), report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gswitch_core::{AutoPolicy, Direction, KernelConfig, StaticPolicy};
    use gswitch_graph::gen;

    fn assert_close(got: &[f64], want: &[f64], tol: f64, tag: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).abs() < tol, "{tag}: rank[{i}] = {a}, reference {b}");
        }
    }

    #[test]
    fn matches_power_iteration_on_star() {
        let g = gen::star(64);
        let r = pagerank(&g, 1e-6, &AutoPolicy, &EngineOptions::default());
        assert!(r.report.converged);
        let want = reference::pagerank(&g, 0.85, 1e-12, 500);
        assert_close(&r.ranks, &want, 1e-5, "star");
        assert!(r.ranks[0] > r.ranks[1] * 5.0);
    }

    #[test]
    fn matches_power_iteration_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::erdos_renyi(300, 1_500, seed);
            let r = pagerank(&g, 1e-6, &AutoPolicy, &EngineOptions::default());
            let want = reference::pagerank(&g, 0.85, 1e-12, 500);
            assert_close(&r.ranks, &want, 1e-5, &format!("seed {seed}"));
        }
    }

    #[test]
    fn push_and_pull_agree() {
        let g = gen::barabasi_albert(400, 4, 7);
        let push = pagerank(
            &g,
            1e-6,
            &StaticPolicy::new(KernelConfig::push_baseline()),
            &EngineOptions::default(),
        );
        let pull_cfg = KernelConfig { direction: Direction::Pull, ..KernelConfig::push_baseline() };
        let pull = pagerank(&g, 1e-6, &StaticPolicy::new(pull_cfg), &EngineOptions::default());
        assert_close(&push.ranks, &pull.ranks, 1e-9, "push vs pull");
    }

    impl crate::tests::Cells for PageRank {
        fn cells(&self) -> Vec<u64> {
            [&self.rank, &self.residual, &self.staged]
                .into_iter()
                .flat_map(|a| a.to_vec().into_iter().map(f64::to_bits))
                .collect()
        }
    }

    #[test]
    fn mass_is_conserved() {
        // No dangling vertices in a symmetrized ER graph with enough
        // edges: ranks must sum to 1.
        let g = gen::erdos_renyi(200, 2_000, 11);
        let r = pagerank(&g, 1e-7, &AutoPolicy, &EngineOptions::default());
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "sum = {sum}");
    }

    #[test]
    fn dense_workload_runs_bounded_iterations() {
        let g = gen::erdos_renyi(500, 4_000, 13);
        let r = pagerank(&g, 1e-3, &AutoPolicy, &EngineOptions::default());
        // Geometric residual decay: tens of iterations, not hundreds
        // (paper reports ~18-24 for its PR runs).
        assert!(
            (5..80).contains(&r.report.n_iterations()),
            "iterations = {}",
            r.report.n_iterations()
        );
    }
}
