//! Gunrock-like baseline (Wang et al., PPoPP'16 / TOPC'17).
//!
//! Gunrock's per-algorithm configurations, per the paper's §5.2:
//! * BFS: direction-optimized with *user-provided* `do_a`/`do_b`
//!   thresholds (idempotence on), LB partitioning.
//! * CC: filter-based hooking on an unsorted frontier, LB partitioning.
//! * PR: push mode + LB load balancing "for all cases".
//! * SSSP: static Δ-stepping (Davidson et al. near-far work queues).
//! * BC: push-based Brandes.
//!
//! The common thread — and GSWITCH's whole argument — is that every one
//! of these is a *static* choice (or delegated to the user), so we model
//! Gunrock as pinned policies over the shared kernel library.

use gswitch_algos::{bc, bfs, cc, pr, sssp};
use gswitch_core::{
    AppCaps, AsFormat, DecisionContext, Direction, EngineOptions, Fusion, KernelConfig,
    LoadBalance, Policy, SteppingDelta,
};
use gswitch_graph::{Graph, VertexId};
use std::sync::atomic::Ordering::Relaxed;

/// Gunrock's standard static shape: push + unsorted queue + LB (merge-
/// path partitioning = our STRICT) + standalone kernels.
pub fn gunrock_config() -> KernelConfig {
    KernelConfig {
        direction: Direction::Push,
        format: AsFormat::UnsortedQueue,
        lb: LoadBalance::Strict,
        stepping: SteppingDelta::Remain,
        fusion: Fusion::Standalone,
    }
}

/// Gunrock's direction-optimizing BFS policy: switch push→pull when the
/// frontier's edge count exceeds `do_a ×` the unexplored edge count, and
/// pull→push when the frontier shrinks below `do_b ×` the vertex count.
/// The thresholds are user-supplied and graph-sensitive — the paper
/// quotes best values of (0.12, 0.1) for soc-orkut but (1, 10) for
/// roadNet-CA.
#[derive(Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "`pulling` is a direction bit only the deciding thread touches, atomic because a \
              `Policy` is `Sync`"
)]
pub struct GunrockBfsPolicy {
    /// Push→pull switch threshold (edge-ratio).
    pub do_a: f64,
    /// Pull→push switch-back threshold (vertex-ratio).
    pub do_b: f64,
    pulling: std::sync::atomic::AtomicBool,
}

impl GunrockBfsPolicy {
    /// Policy with explicit thresholds.
    pub fn new(do_a: f64, do_b: f64) -> Self {
        GunrockBfsPolicy { do_a, do_b, pulling: Default::default() }
    }

    /// Gunrock's documented defaults.
    pub fn default_thresholds() -> Self {
        Self::new(0.07, 0.04) // ≈ Beamer's 1/α = 1/14, 1/β = 1/24
    }
}

impl Policy for GunrockBfsPolicy {
    fn name(&self) -> &str {
        "gunrock-bfs"
    }

    fn decide(&self, ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        let s = &ctx.stats;
        let was_pulling = self.pulling.load(Relaxed);
        let pull_now = if !was_pulling {
            (s.e_active as f64) > self.do_a * s.e_inactive as f64
        } else {
            (s.v_active as f64) >= self.do_b * s.n() as f64
        };
        let direction = if pull_now && s.pull.vertices > 0 {
            self.pulling.store(true, Relaxed);
            Direction::Pull
        } else {
            self.pulling.store(false, Relaxed);
            Direction::Push
        };
        // Gunrock's pull iterations sweep a bitmap; push uses its queue.
        let format = match direction {
            Direction::Pull => AsFormat::Bitmap,
            Direction::Push => AsFormat::UnsortedQueue,
        };
        KernelConfig { direction, format, ..gunrock_config() }
    }
}

/// Gunrock BFS with explicit `do_a`/`do_b`. Returns levels + trace.
pub fn bfs_with_thresholds(
    g: &Graph,
    src: VertexId,
    do_a: f64,
    do_b: f64,
    opts: &EngineOptions,
) -> bfs::BfsResult {
    bfs::bfs(g, src, &GunrockBfsPolicy::new(do_a, do_b), opts)
}

/// Gunrock BFS with default thresholds.
pub fn bfs_run(g: &Graph, src: VertexId, opts: &EngineOptions) -> bfs::BfsResult {
    bfs::bfs(g, src, &GunrockBfsPolicy::default_thresholds(), opts)
}

/// Gunrock CC: label-propagation on the static config.
pub fn cc_run(g: &Graph, opts: &EngineOptions) -> cc::CcResult {
    cc::cc(g, &gswitch_core::StaticPolicy::new(gunrock_config()), opts)
}

/// Gunrock PR: push + LB for all cases (§5.2).
pub fn pr_run(g: &Graph, tol: f64, opts: &EngineOptions) -> pr::PrResult {
    pr::pagerank(g, tol, &gswitch_core::StaticPolicy::new(gunrock_config()), opts)
}

/// Gunrock SSSP: static Δ-stepping on the static config.
pub fn sssp_run(g: &Graph, src: VertexId, opts: &EngineOptions) -> sssp::SsspResult {
    sssp::delta_stepping(g, src, &gswitch_core::StaticPolicy::new(gunrock_config()), opts)
}

/// Gunrock BC: push-based Brandes.
pub fn bc_run(g: &Graph, src: VertexId, opts: &EngineOptions) -> bc::BcResult {
    bc::bc(g, src, &gswitch_core::StaticPolicy::new(gunrock_config()), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_algos::reference;
    use gswitch_graph::gen;

    #[test]
    fn gunrock_bfs_is_correct_for_any_thresholds() {
        let g = gen::barabasi_albert(2_000, 5, 3);
        let want = reference::bfs(&g, 0);
        for (a, b) in [(0.07, 0.04), (0.12, 0.1), (1.0, 10.0), (1e9, 0.0)] {
            let r = bfs_with_thresholds(&g, 0, a, b, &EngineOptions::default());
            assert_eq!(r.levels, want, "do_a={a} do_b={b}");
        }
    }

    #[test]
    fn gunrock_bfs_actually_switches_direction_on_social_graphs() {
        let g = gen::barabasi_albert(4_000, 8, 5);
        let r = bfs_run(&g, 0, &EngineOptions::default());
        let dirs: std::collections::HashSet<_> =
            r.report.iterations.iter().map(|t| t.config.direction).collect();
        assert!(dirs.contains(&Direction::Pull), "never pulled on a dense BA graph");
        assert!(dirs.contains(&Direction::Push));
    }

    #[test]
    fn threshold_sensitivity_affects_runtime() {
        // The paper's point: the best (do_a, do_b) is graph-dependent, so
        // a bad setting costs real time. A never-pull setting must be
        // slower on a hub-heavy graph.
        let g = gen::barabasi_albert(8_000, 10, 7);
        let opts = EngineOptions::default();
        let tuned = bfs_with_thresholds(&g, 0, 0.07, 0.04, &opts);
        let never_pull = bfs_with_thresholds(&g, 0, 1e18, 1.0, &opts);
        assert_eq!(tuned.levels, never_pull.levels);
        assert!(
            tuned.report.total_ms() < never_pull.report.total_ms(),
            "tuned {} vs never-pull {}",
            tuned.report.total_ms(),
            never_pull.report.total_ms()
        );
    }

    #[test]
    fn other_benchmarks_run_correctly() {
        let g = gen::erdos_renyi(300, 1_200, 9);
        let opts = EngineOptions::default();
        assert_eq!(cc_run(&g, &opts).labels, reference::cc(&g));
        let gw = gen::with_random_weights(&g, 32, 1);
        assert_eq!(sssp_run(&gw, 0, &opts).distances, reference::sssp(&gw, 0));
        let pr = pr_run(&g, 1e-6, &opts);
        let want = reference::pagerank(&g, 0.85, 1e-12, 500);
        for (a, b) in pr.ranks.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5);
        }
        let bc_r = bc_run(&g, 0, &opts);
        let want = reference::bc(&g, 0);
        for (a, b) in bc_r.scores.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }
}
