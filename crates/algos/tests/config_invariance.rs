//! Config invariance: *any* sequence of kernel configurations computes
//! the reference answer — the paper's "a wrong decision is slow, never
//! wrong" (§5.4), tested directly instead of only through the variants
//! the trained trees happen to pick.
//!
//! [`RandomPolicy`] emits an arbitrary `KernelConfig` (and an arbitrary P4
//! move) every time it is asked; the engine's one legality rule,
//! `AppCaps::legalise`, makes it runnable. Over random graphs and seeds that drives the one
//! super-step loop through mid-run direction/format/load-balance/fusion
//! flips, work-plan reuse across switches, fused chains that start and
//! break at arbitrary points and rescue re-classification — none of
//! which the single-kernel differential suite can reach — on one lane
//! (`run`) and on K ∈ {1, 2, 4} lanes (`run_sharded`) for the three
//! shardable apps.
//!
//! The same file holds two invariances of optional hooks, each checked
//! step for step against the app with that one hook left at its default:
//! a run that re-`filter`s only what `refilter_hint` bounds is the run
//! that sweeps every vertex ([`SweepOnly`]), and a run whose pull rows go
//! through the app's own `gather` is the run that calls `comp` once per
//! message ([`PerMessage`]).

use gswitch_algos::bc::{BcBackward, BcForward};
use gswitch_algos::{
    bc, bfs, cc, pr, reference, sssp, BellmanFord, Bfs, Cc, DeltaStepping, PageRank, Sssp,
};
use gswitch_core::{
    run, run_sharded, AppCaps, AsFormat, AutoPolicy, DecisionContext, Direction, EngineOptions,
    Fusion, GraphApp, KernelConfig, LoadBalance, ModelPolicy, Policy, RunReport, ShardedOptions,
    StaticPolicy, Status, SteppingDelta,
};
use gswitch_graph::corpus::representatives_small;
use gswitch_graph::shard::ShardedCsr;
use gswitch_graph::{gen, Graph, GraphBuilder, VertexId, Weight};
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
        SteppingDelta::ALL[(self.draw() % 3) as usize]
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn decide(&self, _ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        let r = self.draw();
        KernelConfig {
            direction: Direction::ALL[(r & 1) as usize],
            format: AsFormat::ALL[((r >> 8) % 3) as usize],
            lb: LoadBalance::ALL[((r >> 16) % 4) as usize],
            stepping: self.stepping(),
            fusion: Fusion::ALL[((r >> 24) & 1) as usize],
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

/// The `GraphApp` surface both test wrappers pass straight through to the
/// app in `self.0`; each adds the one optional hook it keeps.
macro_rules! forward_to_inner {
    () => {
        type Msg = A::Msg;
        const PULL_EARLY_EXIT: bool = A::PULL_EARLY_EXIT;
        const DUP_TOLERANT: bool = A::DUP_TOLERANT;
        const NEEDS_WEIGHTS: bool = A::NEEDS_WEIGHTS;
        const PRIORITY_DRIVEN: bool = A::PRIORITY_DRIVEN;

        fn filter(&self, v: VertexId) -> Status {
            self.0.filter(v)
        }
        fn prepare(&self, v: VertexId) {
            self.0.prepare(v);
        }
        fn emit(&self, u: VertexId, w: Weight) -> A::Msg {
            self.0.emit(u, w)
        }
        fn comp_atomic(&self, dst: VertexId, msg: A::Msg) -> bool {
            self.0.comp_atomic(dst, msg)
        }
        fn comp(&self, dst: VertexId, msg: A::Msg) -> bool {
            self.0.comp(dst, msg)
        }
        fn advance(&self, iteration: u32) {
            self.0.advance(iteration);
        }
        fn pull_receives(status: Status) -> bool {
            A::pull_receives(status)
        }
        fn adjust_priority(&self, delta: SteppingDelta) {
            self.0.adjust_priority(delta);
        }
        fn rescue(&self) -> bool {
            self.0.rescue()
        }
        fn would_tie(&self, dst: VertexId, msg: A::Msg) -> bool {
            self.0.would_tie(dst, msg)
        }
    };
}

/// A test-only view of an app with one optional hook turned off; the
/// family `W<A>` is named by its `W<()>` instance.
trait Wrapper {
    type Of<A: GraphApp>: GraphApp;
    fn wrap<A: GraphApp>(app: A) -> Self::Of<A>;
    fn inner<A: GraphApp>(wrapped: &Self::Of<A>) -> &A;
}

/// Test-only: `A` with `refilter_hint` left at its default, so every
/// classification sweeps — the only way to turn the hint off.
struct SweepOnly<A>(A);

impl<A: GraphApp> GraphApp for SweepOnly<A> {
    forward_to_inner!();
    fn gather(&self, dst: VertexId, msgs: impl Iterator<Item = A::Msg>) -> u64 {
        self.0.gather(dst, msgs)
    }
}

impl Wrapper for SweepOnly<()> {
    type Of<A: GraphApp> = SweepOnly<A>;
    fn wrap<A: GraphApp>(app: A) -> SweepOnly<A> {
        SweepOnly(app)
    }
    fn inner<A: GraphApp>(wrapped: &SweepOnly<A>) -> &A {
        &wrapped.0
    }
}

/// Test-only: `A` with `gather` left at its default, so a pull row is one
/// `comp` per message whatever `A` overrides.
struct PerMessage<A>(A);

impl<A: GraphApp> GraphApp for PerMessage<A> {
    forward_to_inner!();
    fn refilter_hint(&self, out: &mut Vec<VertexId>) -> bool {
        self.0.refilter_hint(out)
    }
}

impl Wrapper for PerMessage<()> {
    type Of<A: GraphApp> = PerMessage<A>;
    fn wrap<A: GraphApp>(app: A) -> PerMessage<A> {
        PerMessage(app)
    }
    fn inner<A: GraphApp>(wrapped: &PerMessage<A>) -> &A {
        &wrapped.0
    }
}

/// Every field of every iteration two runs must agree on — all of
/// `IterationTrace` but `overhead_ms`, which holds host time.
fn assert_same_trace(plain: &RunReport, wrapped: &RunReport, tag: &str) {
    assert_eq!(plain.converged, wrapped.converged, "{tag}");
    assert_eq!(plain.n_iterations(), wrapped.n_iterations(), "{tag}: iteration count");
    for (a, b) in plain.iterations.iter().zip(&wrapped.iterations) {
        let tag = format!("{tag} @ iteration {}", a.iteration);
        assert_eq!(a.config, b.config, "{tag}");
        assert_eq!((a.decided, a.estimated), (b.decided, b.estimated), "{tag}");
        assert_eq!(a.stats, b.stats, "{tag}");
        assert_eq!(a.features.map(f64::to_bits), b.features.map(f64::to_bits), "{tag}: features");
        assert_eq!(a.filter_ms.to_bits(), b.filter_ms.to_bits(), "{tag}: filter_ms");
        assert_eq!(a.expand_ms.to_bits(), b.expand_ms.to_bits(), "{tag}: expand_ms");
        assert_eq!(a.edges_touched, b.edges_touched, "{tag}");
        assert_eq!(a.activations, b.activations, "{tag}");
        assert_eq!(a.distinct_activated, b.distinct_activated, "{tag}");
        assert_eq!(a.duplicates, b.duplicates, "{tag}");
    }
}

/// Run `make()` as it is and again inside `W`, each under a fresh
/// `policy()`, and require the same per-iteration trace. Returns the plain
/// app, its answer and the wrapped run's.
fn plain_and_wrapped<W: Wrapper, A: GraphApp, T>(
    tag: &str,
    g: &Graph,
    policy: &dyn Fn() -> Box<dyn Policy>,
    make: impl Fn() -> A,
    answer: impl Fn(&A) -> T,
) -> (A, T, T) {
    let (plain, wrapped) = (make(), W::wrap(make()));
    let opts = EngineOptions::default();
    let ra = run(g, &plain, policy().as_ref(), &opts);
    let rb = run(g, &wrapped, policy().as_ref(), &opts);
    assert!(ra.converged && rb.converged, "{tag}");
    assert_same_trace(&ra, &rb, tag);
    let answers = (answer(&plain), answer(W::inner(&wrapped)));
    (plain, answers.0, answers.1)
}

type MakePolicy = Box<dyn Fn() -> Box<dyn Policy>>;

/// A named policy factory and the largest graph it is run on.
type PolicyCase = (&'static str, usize, MakePolicy);

const LARGEST: usize = 22_000;
const LARGEST_UNDER_RANDOM: usize = 13_000;

/// The rules, the trained trees and a seeded arbitrary configuration
/// sequence.
fn policies() -> Vec<PolicyCase> {
    let model_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/gswitch_model.json");
    let (model, loaded) = ModelPolicy::load_or_fallback(model_path);
    assert!(loaded.error.is_none() && loaded.kept > 0, "trained model unusable: {loaded:?}");
    vec![
        ("auto", LARGEST, Box::new(|| Box::new(AutoPolicy))),
        ("model", LARGEST, Box::new(move || Box::new(model.clone()))),
        ("random", LARGEST_UNDER_RANDOM, Box::new(|| Box::new(RandomPolicy::new(0xD1FF)))),
    ]
}

/// On the small corpus, under each of `policies`, every algorithm run as
/// it is and run inside `W` gives the same answer and the same
/// per-iteration trace (PageRank's ranks and BC's deltas bit for bit).
///
/// Traces are deterministic only while every Expand stays below the
/// 256-task parallel threshold, so the two scale-free twins that cross it
/// (`golden_traces::PARALLEL_EXPAND`) are left to the answer checks above.
/// The two size cuts keep a test affordable in a debug build (~40 s):
/// the twins above 22 000 vertices (rgg, roadNet-CA) repeat the shapes of
/// roadNet-TX and the two sc-* meshes, and an arbitrary configuration
/// sequence (bitmaps and strict balancing on high-diameter graphs) costs
/// several times a tuned one.
fn wrapped_runs_match_plain_ones<W: Wrapper>(policies: &[PolicyCase]) {
    let serial = |name: &str| !matches!(name, "soc-orkut" | "kron_g500-log21");
    for r in representatives_small().into_iter().filter(|r| serial(r.paper_name)) {
        let (name, g) = (r.paper_name, r.recipe.build());
        let gw = gen::with_random_weights(&g, 64, 0xC0FFEE);
        let n = g.num_vertices();
        if n > LARGEST {
            continue;
        }
        let (want_bfs, want_cc) = (reference::bfs(&g, 0), reference::cc(&g));
        let (want_sssp, want_bc) = (reference::sssp(&gw, 0), reference::bc(&g, 0));
        for (pname, _, policy) in policies.iter().filter(|p| n <= p.1) {
            let tag = |algo: &str| format!("{name}/{algo}/{pname}");
            let policy = policy.as_ref();

            let t = tag("bfs");
            let (_, a, b) =
                plain_and_wrapped::<W, _, _>(&t, &g, policy, || Bfs::new(n, 0), Bfs::levels);
            assert_eq!((&a, &b), (&want_bfs, &want_bfs), "{t}");

            let t = tag("cc");
            let (_, a, b) = plain_and_wrapped::<W, _, _>(&t, &g, policy, || Cc::new(n), Cc::labels);
            assert_eq!((&a, &b), (&want_cc, &want_cc), "{t}");

            let t = tag("pr");
            let new_pr = || PageRank::new(&g, 1e-3);
            let bits =
                |app: &PageRank| app.ranks().into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let (app, a, b) = plain_and_wrapped::<W, _, _>(&t, &g, policy, new_pr, bits);
            assert_eq!(a, b, "{t}");
            if *pname == "auto" {
                assert_pr_close(&app.ranks(), &g, &t);
            }

            let t = tag("sssp");
            let new_sssp = || Sssp::new(&gw, 0);
            let (_, a, b) =
                plain_and_wrapped::<W, _, _>(&t, &gw, policy, new_sssp, Sssp::distances);
            assert_eq!((&a, &b), (&want_sssp, &want_sssp), "{t}");
            let t = tag("bellman-ford");
            let new_bf = || BellmanFord::new(&gw, 0);
            let (_, a, b) =
                plain_and_wrapped::<W, _, _>(&t, &gw, policy, new_bf, BellmanFord::distances);
            assert_eq!((&a, &b), (&want_sssp, &want_sssp), "{t}");
            let t = tag("delta-stepping");
            let new_ds = || DeltaStepping::with_default_delta(&gw, 0);
            let (_, a, b) =
                plain_and_wrapped::<W, _, _>(&t, &gw, policy, new_ds, DeltaStepping::distances);
            assert_eq!((&a, &b), (&want_sssp, &want_sssp), "{t}");

            // BC: both backward runs start from the plain forward phase
            // (the wrapped one was just shown to trace the same).
            let t = tag("bc");
            let new_fwd = || BcForward::new(n, 0);
            let (fwd, _, _) = plain_and_wrapped::<W, _, _>(&t, &g, policy, new_fwd, |_| ());
            let new_bwd = || BcBackward::new(&fwd);
            let (_, a, b) =
                plain_and_wrapped::<W, _, _>(&t, &g, policy, new_bwd, BcBackward::deltas);
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{t}"
            );
            for (x, y) in a.iter().zip(&want_bc).skip(1) {
                assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "{t}: {x} vs {y}");
            }
        }
    }
}

/// Incremental ≡ sweep: each algorithm run with its hint and run as
/// [`SweepOnly`] gives the same answer and the same per-iteration trace —
/// also with every step proposed fused, so the duplicate-tolerant apps
/// (BFS, CC, the SSSP family) chain wherever the engine lets them and
/// every step after a chain, which updates from the chain's activations,
/// is compared with a sweep.
#[test]
fn hinted_inspector_matches_the_sweeping_one() {
    let mut policies = policies();
    let fused = KernelConfig { fusion: Fusion::Fused, ..KernelConfig::push_baseline() };
    policies.push(("fused", LARGEST, Box::new(move || Box::new(StaticPolicy::new(fused)))));
    wrapped_runs_match_plain_ones::<SweepOnly<()>>(&policies);
}

/// `gather` ≡ one `comp` per message: each algorithm run with its own
/// `gather` and run as [`PerMessage`] gives the same answer and the same
/// per-iteration trace — also with every step pinned to pull, where the
/// tuned policies leave sparse steps to push.
#[test]
fn gather_matches_one_comp_per_message() {
    let mut policies = policies();
    let pull = KernelConfig { direction: Direction::Pull, ..KernelConfig::push_baseline() };
    policies.push(("pull", LARGEST, Box::new(move || Box::new(StaticPolicy::new(pull)))));
    wrapped_runs_match_plain_ones::<PerMessage<()>>(&policies);
}

/// An app with a broken `gather`, to show the equivalence test above can
/// fail: `REVERSED` folds a row's messages last to first (another rounding
/// of the same sum), otherwise it folds them right and reports one win
/// for every row.
struct BrokenGather<A, const REVERSED: bool>(A);

impl<A: GraphApp, const REVERSED: bool> GraphApp for BrokenGather<A, REVERSED> {
    forward_to_inner!();
    fn refilter_hint(&self, out: &mut Vec<VertexId>) -> bool {
        self.0.refilter_hint(out)
    }
    fn gather(&self, dst: VertexId, msgs: impl Iterator<Item = A::Msg>) -> u64 {
        if REVERSED {
            let mut msgs: Vec<A::Msg> = msgs.collect();
            msgs.reverse();
            self.0.gather(dst, msgs.into_iter())
        } else {
            self.0.gather(dst, msgs);
            1
        }
    }
}

#[test]
fn a_wrong_gather_fails_the_equivalence() {
    let g = gen::barabasi_albert(600, 6, 5);
    let pull = KernelConfig { direction: Direction::Pull, ..KernelConfig::push_baseline() };
    let opts = EngineOptions::default();
    let plain = PageRank::new(&g, 1e-3);
    let want = run(&g, &plain, &StaticPolicy::new(pull), &opts);

    let reversed = BrokenGather::<_, true>(PageRank::new(&g, 1e-3));
    run(&g, &reversed, &StaticPolicy::new(pull), &opts);
    let bits = |app: &PageRank| app.ranks().into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_ne!(bits(&plain), bits(&reversed.0), "a reversed sum must show in the rank bits");

    let one_win = BrokenGather::<_, false>(PageRank::new(&g, 1e-3));
    let got = run(&g, &one_win, &StaticPolicy::new(pull), &opts);
    let caught = std::panic::catch_unwind(|| assert_same_trace(&want, &got, "one win per row"));
    assert!(caught.is_err(), "one reported win per row must show in the trace");
}
