//! Shard-worker fault-injection tests for the partitioned driver
//! (`--features fault-injection`; sites in
//! `gswitch_core::engine::fault_site`). Arming is process-global, so this
//! suite lives in its own integration-test binary and each test
//! holds `faults::exclusive()`, which empties the fault table on entry.
//!
//! The property under test: a shard worker that dies (panic) or whose
//! result is lost (drop) at the exchange step surfaces as a structured
//! [`ShardError`] — the driver never hangs and never returns a corrupt
//! "converged" report.

#![cfg(feature = "fault-injection")]

use gswitch_core::engine::fault_site::{SHARD_DROP, SHARD_PANIC};
use gswitch_core::{run_sharded, AutoPolicy, GraphApp, ShardError, ShardedOptions, Status};
use gswitch_graph::shard::ShardedCsr;
use gswitch_graph::{gen, Graph, VertexId};
use gswitch_kernels::atomics::AtomicArray;
use gswitch_obs::faults::{self, Fault, Schedule};

/// One-shot panic in shard `shard`'s exchange-phase worker.
fn arm_shard_panic(shard: u32) {
    let died = Fault::Panic(format!("shard {shard} worker died at the exchange step"));
    faults::arm_schedule(SHARD_PANIC, Schedule::once().only(shard.into()), died);
}

/// One-shot result loss for shard `shard` at the exchange barrier.
fn arm_shard_drop(shard: u32) {
    faults::arm_schedule(SHARD_DROP, Schedule::once().only(shard.into()), Fault::Trip);
}

/// Minimal BFS app (mirrors the engine's unit-test app).
struct Bfs {
    level: AtomicArray<u32>,
    current: std::sync::atomic::AtomicU32,
}

impl Bfs {
    fn new(n: usize, src: VertexId) -> Self {
        let b = Bfs {
            level: AtomicArray::filled(n, u32::MAX),
            current: std::sync::atomic::AtomicU32::new(0),
        };
        b.level.store(src, 0);
        b
    }
}

impl GraphApp for Bfs {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = true;
    fn filter(&self, v: VertexId) -> Status {
        let l = self.level.load(v);
        let cur = self.current.load(std::sync::atomic::Ordering::Relaxed);
        if l == cur {
            Status::Active
        } else if l == u32::MAX {
            Status::Inactive
        } else {
            Status::Fixed
        }
    }
    fn emit(&self, u: VertexId, _w: u32) -> u32 {
        self.level.load(u) + 1
    }
    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        self.level.fetch_min(dst, msg) > msg
    }
    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        if msg < self.level.load(dst) {
            self.level.store(dst, msg);
            true
        } else {
            false
        }
    }
    fn advance(&self, it: u32) {
        self.current.store(it, std::sync::atomic::Ordering::Relaxed);
    }
    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        self.level.load(dst) == msg
    }
}

fn corpus_graph() -> Graph {
    gen::erdos_renyi(400, 2_000, 7)
}

#[test]
fn panicking_shard_worker_yields_structured_error() {
    let _g = faults::exclusive();
    let g = corpus_graph();
    let sharded = ShardedCsr::partition(&g, 4).expect("partition");
    let app = Bfs::new(g.num_vertices(), 0);
    arm_shard_panic(2);
    let err = run_sharded(&sharded, &app, &AutoPolicy, &ShardedOptions::default())
        .expect_err("armed panic must abort the run");
    let fired = faults::fired(SHARD_PANIC);
    faults::reset();
    assert!(fired >= 1, "the armed panic never fired");
    match err {
        ShardError::WorkerPanicked { shard, phase, message } => {
            assert_eq!(shard, 2);
            assert_eq!(phase, "exchange");
            assert!(message.contains("injected fault"), "payload lost: {message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn dropped_shard_result_yields_worker_lost() {
    let _g = faults::exclusive();
    let g = corpus_graph();
    let sharded = ShardedCsr::partition(&g, 4).expect("partition");
    let app = Bfs::new(g.num_vertices(), 0);
    arm_shard_drop(1);
    let err = run_sharded(&sharded, &app, &AutoPolicy, &ShardedOptions::default())
        .expect_err("armed drop must abort the run");
    let fired = faults::fired(SHARD_DROP);
    faults::reset();
    assert!(fired >= 1, "the armed drop never fired");
    assert_eq!(err, ShardError::WorkerLost { shard: 1, phase: "exchange" });
}

#[test]
fn single_shard_faults_stay_structured() {
    // K = 1 runs its lane inline (no spawn) and must keep the containment.
    let _g = faults::exclusive();
    let g = corpus_graph();
    let sharded = ShardedCsr::partition(&g, 1).expect("partition");
    let run = || {
        let app = Bfs::new(g.num_vertices(), 0);
        let err = run_sharded(&sharded, &app, &AutoPolicy, &ShardedOptions::default());
        faults::reset();
        err.expect_err("armed fault must abort the run")
    };
    faults::reset();
    arm_shard_panic(0);
    assert!(
        matches!(run(), ShardError::WorkerPanicked { shard: 0, phase: "exchange", .. }),
        "inline lane's panic escaped as something else"
    );
    arm_shard_drop(0);
    assert_eq!(run(), ShardError::WorkerLost { shard: 0, phase: "exchange" });
}

#[test]
fn run_recovers_cleanly_after_fault_reset() {
    let _g = faults::exclusive();
    let g = corpus_graph();
    let sharded = ShardedCsr::partition(&g, 4).expect("partition");

    // First run dies on the injected panic...
    let app = Bfs::new(g.num_vertices(), 0);
    arm_shard_panic(0);
    let err = run_sharded(&sharded, &app, &AutoPolicy, &ShardedOptions::default());
    assert!(err.is_err());
    faults::reset();

    // ...and a fresh run on the same partition completes and matches
    // the serial reference — the fault left no residue.
    let app = Bfs::new(g.num_vertices(), 0);
    let rep = run_sharded(&sharded, &app, &AutoPolicy, &ShardedOptions::default())
        .expect("disarmed run must complete");
    assert!(rep.converged);
    let mut dist = vec![u32::MAX; g.num_vertices()];
    dist[0] = 0;
    let mut q = std::collections::VecDeque::from([0u32]);
    while let Some(u) = q.pop_front() {
        for &v in g.out_csr().neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    assert_eq!(app.level.to_vec(), dist);
}
