//! Config invariance: *any* sequence of kernel configurations computes
//! the reference answer — the paper's "a wrong decision is slow, never
//! wrong" (§5.4), tested directly instead of only through the variants
//! the trained trees happen to pick.
//!
//! [`RandomPolicy`] emits an arbitrary `KernelConfig` (and an arbitrary P4
//! move) every time it is asked; the engine's `mask.apply` + `caps.clamp`
//! legalise it. Over random graphs and seeds that drives the one
//! super-step loop through mid-run direction/format/load-balance/fusion
//! flips, work-plan reuse across switches, fused chains that start and
//! break at arbitrary points and rescue re-classification — none of
//! which the single-kernel differential suite can reach — on one lane
//! (`run`) and on K ∈ {1, 2, 4} lanes (`run_sharded`) for the three
//! shardable apps.

use gswitch_algos::{bc, bfs, cc, pr, reference, sssp, Bfs, Cc, PageRank};
use gswitch_core::{
    run_sharded, AppCaps, AsFormat, DecisionContext, Direction, EngineOptions, Fusion,
    KernelConfig, LoadBalance, Policy, ShardedOptions, SteppingDelta,
};
use gswitch_graph::shard::ShardedCsr;
use gswitch_graph::{gen, Graph, GraphBuilder};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Test-only Selector: every call draws a fresh, arbitrary configuration
/// from a seeded splitmix64 stream. It ignores `caps` on purpose — the
/// engine must legalise whatever a policy returns.
struct RandomPolicy(AtomicU64);

impl RandomPolicy {
    fn new(seed: u64) -> Self {
        RandomPolicy(AtomicU64::new(seed))
    }

    fn draw(&self) -> u64 {
        // Relaxed: a statistic-like stream position, publishes nothing.
        let mut z = self.0.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn stepping(&self) -> SteppingDelta {
        [SteppingDelta::Increase, SteppingDelta::Decrease, SteppingDelta::Remain]
            [(self.draw() % 3) as usize]
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn decide(&self, _ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        let r = self.draw();
        KernelConfig {
            direction: [Direction::Push, Direction::Pull][(r & 1) as usize],
            format: [AsFormat::Bitmap, AsFormat::UnsortedQueue, AsFormat::SortedQueue]
                [((r >> 8) % 3) as usize],
            lb: [LoadBalance::Twc, LoadBalance::Wm, LoadBalance::Cm, LoadBalance::Strict]
                [((r >> 16) % 4) as usize],
            stepping: self.stepping(),
            fusion: [Fusion::Standalone, Fusion::Fused][((r >> 24) & 1) as usize],
        }
    }

    fn decide_stepping(&self, _ctx: &DecisionContext, _caps: &AppCaps) -> SteppingDelta {
        self.stepping()
    }
}

/// A random undirected graph: up to 160 vertices, up to 640 input edges
/// (sparse enough to leave several components and unreachable vertices).
fn graph() -> impl Strategy<Value = Graph> {
    (2usize..160).prop_flat_map(|n| {
        let e = (0..n as u32, 0..n as u32);
        proptest::collection::vec(e, 0..640)
            .prop_map(move |edges| GraphBuilder::new(n).edges(edges).build())
    })
}

/// The bound `benchmark/src/verify.rs` holds PageRank to.
fn assert_pr_close(ranks: &[f64], g: &Graph, tag: &str) {
    let want = reference::pagerank(g, 0.85, 1e-12, 500);
    let l1: f64 = ranks.iter().zip(&want).map(|(a, b)| (a - b).abs()).sum();
    let mass: f64 = want.iter().sum();
    assert!(ranks.len() == want.len() && l1 <= 1e-2 * mass, "{tag}: PR L1 error {l1:e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One lane: all five algorithms reach the reference answer under an
    /// arbitrary configuration sequence.
    #[test]
    fn any_config_sequence_is_correct_on_one_lane(g in graph(), seed in any::<u64>()) {
        let opts = EngineOptions::default();
        let src = (seed % g.num_vertices() as u64) as u32;

        let r = bfs::bfs(&g, src, &RandomPolicy::new(seed), &opts);
        prop_assert!(r.report.converged);
        prop_assert_eq!(r.levels, reference::bfs(&g, src));

        let r = cc::cc(&g, &RandomPolicy::new(seed), &opts);
        prop_assert!(r.report.converged);
        prop_assert_eq!(r.labels, reference::cc(&g));

        let gw = gen::with_random_weights(&g, 64, seed);
        let r = sssp::sssp(&gw, src, &RandomPolicy::new(seed), &opts);
        prop_assert!(r.report.converged);
        prop_assert_eq!(r.distances, reference::sssp(&gw, src));

        let r = bc::bc(&g, src, &RandomPolicy::new(seed), &opts);
        prop_assert!(r.forward.converged && r.backward.converged);
        for (a, b) in r.scores.iter().zip(reference::bc(&g, src)) {
            prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "bc: {a} vs {b}");
        }

        let r = pr::pagerank(&g, 1e-3, &RandomPolicy::new(seed), &opts);
        prop_assert!(r.report.converged);
        assert_pr_close(&r.ranks, &g, "pr");
    }

    /// K lanes: the shardable apps reach the same answers at every shard
    /// count (the sharded pins legalise the random shapes down to push).
    #[test]
    fn any_config_sequence_is_correct_on_k_lanes(g in graph(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let src = (seed % n as u64) as u32;
        let opts = ShardedOptions::default();
        for k in [1u32, 2, 4] {
            let sharded = ShardedCsr::partition(&g, k).expect("partition");

            let app = Bfs::new(n, src);
            let rep = run_sharded(&sharded, &app, &RandomPolicy::new(seed), &opts).expect("bfs");
            prop_assert!(rep.converged);
            prop_assert!(app.levels() == reference::bfs(&g, src), "bfs k={k}");

            let app = Cc::new(n);
            let rep = run_sharded(&sharded, &app, &RandomPolicy::new(seed), &opts).expect("cc");
            prop_assert!(rep.converged);
            prop_assert!(app.labels() == reference::cc(&g), "cc k={k}");

            let app = PageRank::new(&g, 1e-3);
            let rep = run_sharded(&sharded, &app, &RandomPolicy::new(seed), &opts).expect("pr");
            prop_assert!(rep.converged);
            assert_pr_close(&app.ranks(), &g, &format!("pr k={k}"));
        }
    }
}
