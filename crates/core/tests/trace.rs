//! Engine ↔ observability integration: a BFS run with a recorder
//! attached emits exactly one trace event per iteration, with sane ids,
//! predictions and measurements, and the JSONL export survives a
//! summary round-trip.

use gswitch_core::{run, AutoPolicy, EngineOptions, RecorderHandle, Status};
use gswitch_graph::{gen, VertexId};
use gswitch_kernels::atomics::AtomicArray;
use gswitch_kernels::EdgeApp;
use gswitch_obs::{parse_jsonl, summarize, Provenance, TraceRing};
use std::sync::Arc;

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

impl EdgeApp for Bfs {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = true;
    fn filter(&self, v: VertexId) -> Status {
        let l = self.level.load(v);
        if l == self.current.load(std::sync::atomic::Ordering::Relaxed) {
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

#[test]
fn bfs_run_emits_one_event_per_iteration() {
    let g = gen::kronecker(10, 8, 42);
    let n = g.num_vertices();
    let ring = Arc::new(TraceRing::new(4096));
    let opts = EngineOptions {
        recorder: RecorderHandle::new(ring.recorder(7, "rmat-10", "bfs")),
        ..Default::default()
    };
    let app = Bfs::new(n, 0);
    let rep = run(&g, &app, &AutoPolicy, &opts);
    assert!(rep.converged);
    assert!(rep.n_iterations() > 1, "want a multi-iteration run");

    let events = ring.snapshot();
    assert_eq!(events.len(), rep.n_iterations(), "one event per iteration");
    assert_eq!(ring.dropped(), 0);

    for (i, (ev, it)) in events.iter().zip(&rep.iterations).enumerate() {
        let e = &ev.event;
        // Monotone 0-based iteration ids, in emit order.
        assert_eq!(e.iteration, i as u32);
        assert_eq!(e.iteration, it.iteration);
        // The event mirrors the engine's own trace.
        assert_eq!(e.config, it.config);
        assert_eq!(e.measured_ms, it.expand_ms);
        assert_eq!(e.filter_ms, it.filter_ms);
        assert_eq!(e.edges_touched, it.edges_touched);
        assert_eq!(e.features, it.features);
        assert!(e.measured_ms > 0.0, "iteration {i} measured nothing");
        // Iteration 0 has no history, so no prediction; afterwards the
        // Inspector always carries one.
        if i == 0 {
            assert_eq!(e.predicted_ms, 0.0);
            assert_eq!(e.provenance, Provenance::Decided);
        } else {
            assert!(e.predicted_ms > 0.0, "iteration {i} lost its prediction");
        }
        // Labels stamped by the ring recorder.
        assert_eq!(ev.job, 7);
        assert_eq!(ev.graph, "rmat-10");
        assert_eq!(ev.algo, "bfs");
        assert_eq!(ev.seq, i as u64);
    }

    // Provenance agrees with the report's decision accounting.
    let decided = events.iter().filter(|ev| ev.event.provenance == Provenance::Decided).count();
    assert_eq!(decided, rep.decisions_made());

    // JSONL export → parse → summary round-trip.
    let parsed = parse_jsonl(&ring.to_jsonl());
    assert!(parsed.errors.is_empty(), "bad lines: {:?}", parsed.errors);
    assert_eq!(parsed.events, events);
    let s = summarize(&parsed.events);
    assert_eq!(s.events, rep.n_iterations());
    assert_eq!(s.jobs, 1);
    assert!(s.predicted_events as usize == rep.n_iterations() - 1);
}

#[test]
fn disabled_recorder_records_nothing() {
    let g = gen::kronecker(8, 8, 1);
    let app = Bfs::new(g.num_vertices(), 0);
    let opts = EngineOptions::default();
    assert!(!opts.recorder.is_enabled());
    let rep = run(&g, &app, &AutoPolicy, &opts);
    assert!(rep.converged);
}

#[test]
fn warm_start_provenance_reaches_the_trace() {
    let g = gen::kronecker(9, 8, 3);
    let n = g.num_vertices();
    let cold = Bfs::new(n, 0);
    let rep = run(&g, &cold, &AutoPolicy, &EngineOptions::default());
    let tuned = rep.dominant_config().expect("cold run iterated");

    let ring = Arc::new(TraceRing::new(1024));
    let opts = EngineOptions {
        recorder: RecorderHandle::new(ring.recorder(1, "rmat-9", "bfs")),
        seed: Some(tuned),
        ..Default::default()
    };
    let warm = Bfs::new(n, 0);
    run(&g, &warm, &AutoPolicy, &opts);
    let events = ring.snapshot();
    assert_eq!(events[0].event.provenance, Provenance::WarmStart);
    assert_eq!(events[0].event.config, tuned);
}
