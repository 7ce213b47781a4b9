//! Cooperative stop: a run polls its probe before every super-step and
//! before every retry after a rescue, so a deadline or a cancel lands
//! within one step of work, on every algorithm, sharded or not.

use gswitch_algos::bc::{self, BcForward};
use gswitch_algos::{bfs, cc, pr, sssp, Bfs, Cc, PageRank, Sssp};
use gswitch_core::{
    run, run_sharded, AutoPolicy, EngineOptions, GraphApp, KernelConfig, Policy, ProbeHandle,
    RunProbe, ShardedOptions, StaticPolicy, Status, SteppingDelta, StopReason,
};
use gswitch_graph::shard::ShardedCsr;
use gswitch_graph::{gen, Graph, GraphBuilder, VertexId, Weight};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

/// Trips at every iteration from `.0` on.
struct StopAt(u32);

impl RunProbe for StopAt {
    fn check(&self, iteration: u32) -> Option<StopReason> {
        (iteration >= self.0).then_some(StopReason::DeadlineExceeded)
    }
}

/// The iteration the probe trips at: well before any case converges.
const K: u32 = 3;

/// A weighted 24 x 24 grid with its vertex ids scattered, so that no
/// in-order sweep carries a value far: every algorithm takes many steps.
fn graph() -> Graph {
    let grid = gen::grid2d(24, 24, 0.0, 5);
    let n = grid.num_vertices() as VertexId;
    let scatter = |v: VertexId| v * 97 % n;
    let edges = (0..n)
        .flat_map(|u| grid.out_csr().neighbors(u).iter().map(move |&v| (scatter(u), scatter(v))));
    gen::with_random_weights(&GraphBuilder::new(n as usize).edges(edges).build(), 32, 5)
}

/// Every algorithm, unsharded and sharded: a probe that trips at
/// iteration `K` stops the run with exactly `K` iterations, unconverged.
#[test]
fn probe_stops_every_algorithm_at_its_iteration() {
    let g = graph();
    let opts =
        EngineOptions { probe: ProbeHandle::new(Arc::new(StopAt(K))), ..EngineOptions::default() };
    let (p, o) = (&AutoPolicy, &opts);
    let unsharded = [
        ("bfs", bfs::bfs(&g, 0, p, o).report),
        ("cc", cc::cc(&g, p, o).report),
        ("pr", pr::pagerank(&g, 1e-6, p, o).report),
        ("sssp", sssp::sssp(&g, 0, p, o).report),
        ("bc", run(&g, &BcForward::new(g.num_vertices(), 0), p, o)),
    ];
    for (algo, rep) in unsharded {
        assert_eq!(rep.stopped, Some(StopReason::DeadlineExceeded), "{algo}");
        assert!(!rep.converged, "{algo}");
        assert_eq!(rep.n_iterations(), K as usize, "{algo}");
    }

    let sharded = ShardedCsr::partition(&g, 2).expect("partition");
    let opts =
        ShardedOptions { probe: ProbeHandle::new(Arc::new(StopAt(K))), ..Default::default() };
    let n = g.num_vertices();
    let run = |app: &dyn Fn(&ShardedOptions) -> _| app(&opts);
    let reports = [
        ("bfs", run(&|o| run_sharded(&sharded, &Bfs::new(n, 0), p, o))),
        ("cc", run(&|o| run_sharded(&sharded, &Cc::new(n), p, o))),
        ("pr", run(&|o| run_sharded(&sharded, &PageRank::new(&g, 1e-6), p, o))),
    ];
    for (algo, rep) in reports {
        let rep = rep.expect(algo);
        assert_eq!(rep.stopped, Some(StopReason::DeadlineExceeded), "sharded {algo}");
        assert!(!rep.converged, "sharded {algo}");
        assert_eq!(rep.n_supersteps(), K as usize, "sharded {algo}");
    }
}

/// BC whose forward phase the probe stops: its levels are not a BFS tree
/// (a reached vertex has unreached neighbours), so the backward phase
/// must not run on them. Both phases report the stop, the backward one
/// with no iterations, under the hand rules and under pinned push (where
/// backward messages would reach the unreached vertices).
#[test]
fn bc_after_a_stopped_forward_reports_the_stop() {
    let g = graph();
    let opts =
        EngineOptions { probe: ProbeHandle::new(Arc::new(StopAt(K))), ..EngineOptions::default() };
    let push = StaticPolicy::new(KernelConfig::push_baseline());
    for policy in [&AutoPolicy as &dyn Policy, &push] {
        let r = bc::bc(&g, 0, policy, &opts);
        assert_eq!(r.forward.stopped, Some(StopReason::DeadlineExceeded));
        assert_eq!(r.forward.n_iterations(), K as usize);
        assert_eq!(r.backward.stopped, Some(StopReason::DeadlineExceeded));
        assert_eq!(r.backward.n_iterations(), 0);
        assert!(r.scores.iter().all(|&s| s == 0.0));
    }
}

/// What the rescue case saw: the iteration under way, a rescue not yet
/// followed by a poll, and the counts.
#[derive(Default)]
struct Ledger {
    iteration: AtomicU32,
    /// `iteration + 1` of a rescue still owed a poll; 0 when none is.
    owed: AtomicU32,
    rescues: AtomicU32,
    misses: AtomicU32,
}

impl Ledger {
    fn poll(&self, iteration: u32) {
        let owed = self.owed.swap(0, Relaxed);
        if owed != 0 && owed != iteration + 1 {
            self.misses.fetch_add(1, Relaxed);
        }
    }

    fn rescued(&self) {
        self.rescues.fetch_add(1, Relaxed);
        if self.owed.swap(self.iteration.load(Relaxed) + 1, Relaxed) != 0 {
            self.misses.fetch_add(1, Relaxed);
        }
    }
}

/// Polls never stop the run; each is booked against any owed rescue.
struct Booking(Arc<Ledger>);

impl RunProbe for Booking {
    fn check(&self, iteration: u32) -> Option<StopReason> {
        self.0.poll(iteration);
        None
    }
}

/// SSSP, every call forwarded, with its rescues and iterations booked.
struct Rescues {
    app: Sssp,
    ledger: Arc<Ledger>,
}

impl GraphApp for Rescues {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = Sssp::PULL_EARLY_EXIT;
    const DUP_TOLERANT: bool = Sssp::DUP_TOLERANT;
    const NEEDS_WEIGHTS: bool = Sssp::NEEDS_WEIGHTS;
    const PRIORITY_DRIVEN: bool = Sssp::PRIORITY_DRIVEN;

    fn filter(&self, v: VertexId) -> Status {
        self.app.filter(v)
    }
    fn prepare(&self, v: VertexId) {
        self.app.prepare(v);
    }
    fn emit(&self, u: VertexId, w: Weight) -> u32 {
        self.app.emit(u, w)
    }
    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        self.app.comp_atomic(dst, msg)
    }
    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        self.app.comp(dst, msg)
    }
    fn gather(&self, dst: VertexId, msgs: impl Iterator<Item = u32>) -> u64 {
        self.app.gather(dst, msgs)
    }
    fn advance(&self, iteration: u32) {
        self.ledger.iteration.store(iteration, Relaxed);
        self.app.advance(iteration);
    }
    fn pull_receives(status: Status) -> bool {
        Sssp::pull_receives(status)
    }
    fn adjust_priority(&self, delta: SteppingDelta) {
        self.app.adjust_priority(delta);
    }
    fn rescue(&self) -> bool {
        let rescued = self.app.rescue();
        if rescued {
            self.ledger.rescued();
        }
        rescued
    }
    fn refilter_hint(&self, out: &mut Vec<VertexId>) -> bool {
        self.app.refilter_hint(out)
    }
    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        self.app.would_tie(dst, msg)
    }
}

/// An SSSP run whose window drains (pinned: it never widens): every
/// rescue is followed by a poll in the same iteration, before the pass
/// it unlocks.
#[test]
fn every_rescue_pass_polls() {
    let g = graph();
    let ledger = Arc::new(Ledger::default());
    let app = Rescues { app: Sssp::new(&g, 0), ledger: Arc::clone(&ledger) };
    let opts = EngineOptions {
        probe: ProbeHandle::new(Arc::new(Booking(Arc::clone(&ledger)))),
        ..EngineOptions::default()
    };
    let rep = run(&g, &app, &StaticPolicy::new(KernelConfig::push_baseline()), &opts);
    assert!(rep.converged);
    assert_eq!(app.app.distances(), gswitch_algos::reference::sssp(&g, 0));
    assert!(ledger.rescues.load(Relaxed) > 0, "no rescue happened");
    assert_eq!(ledger.misses.load(Relaxed), 0, "a rescue pass ran without a poll");
    assert_eq!(ledger.owed.load(Relaxed), 0, "the last rescue was never polled");
}
