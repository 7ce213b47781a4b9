//! Writing a custom algorithm against the 4-function API (paper §4.2):
//! widest-path (maximum-bottleneck) search — for every vertex, the
//! maximum over paths from the source of the minimum edge capacity
//! along the path. Useful for max-flow seeding and network reliability.
//!
//! The app is ~40 lines; every tuning decision (direction, format, load
//! balance, fusion) is the engine's problem, exactly as Fig. 11 promises.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```

use gswitch::core::{run, AutoPolicy, EngineOptions, GraphApp, Status};
use gswitch::graph::{gen, VertexId, Weight};
use gswitch::kernels::atomics::{AtomicArray, AtomicBitSet};
use gswitch::prelude::DeviceSpec;

/// Widest path: `cap[v]` = the best bottleneck capacity from the source.
struct WidestPath {
    cap: AtomicArray<u32>,
    dirty: AtomicBitSet,
}

impl WidestPath {
    fn new(n: usize, src: VertexId) -> Self {
        let w = WidestPath { cap: AtomicArray::filled(n, 0), dirty: AtomicBitSet::new(n) };
        w.cap.store(src, u32::MAX);
        w.dirty.set(src);
        w
    }
}

impl GraphApp for WidestPath {
    type Msg = u32;
    const NEEDS_WEIGHTS: bool = true;
    const DUP_TOLERANT: bool = true; // max() is idempotent
    const PULL_EARLY_EXIT: bool = false;

    fn filter(&self, v: VertexId) -> Status {
        if self.dirty.get(v) {
            Status::Active
        } else {
            Status::Inactive
        }
    }

    fn prepare(&self, v: VertexId) {
        self.dirty.unset(v);
    }

    fn emit(&self, u: VertexId, w: Weight) -> u32 {
        // Bottleneck along the extended path.
        self.cap.load(u).min(w)
    }

    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        // fetch_max by CAS loop: improve when the new bottleneck is wider.
        loop {
            let cur = self.cap.load(dst);
            if msg <= cur {
                return false;
            }
            if self.cap.compare_set(dst, cur, msg) {
                self.dirty.set(dst);
                return true;
            }
        }
    }

    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        // The sole-writer combine: `comp_atomic` without the CAS loop, same
        // state and result on one thread.
        if msg > self.cap.load(dst) {
            self.cap.store(dst, msg);
            self.dirty.set(dst);
            true
        } else {
            false
        }
    }

    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        self.cap.load(dst) == msg
    }

    fn pull_receives(_status: Status) -> bool {
        true // any vertex's bottleneck may still widen
    }
}

/// Sequential reference (Dijkstra-style with a max-heap).
fn widest_reference(g: &gswitch::graph::Graph, src: VertexId) -> Vec<u32> {
    let mut cap = vec![0u32; g.num_vertices()];
    cap[src as usize] = u32::MAX;
    let mut heap = std::collections::BinaryHeap::from([(u32::MAX, src)]);
    let csr = g.out_csr();
    let ws = g.out_weights().expect("weighted graph");
    while let Some((c, u)) = heap.pop() {
        if c < cap[u as usize] {
            continue;
        }
        let r = csr.edge_range(u);
        for (i, &v) in csr.neighbors(u).iter().enumerate() {
            let nc = c.min(ws[r.start + i]);
            if nc > cap[v as usize] {
                cap[v as usize] = nc;
                heap.push((nc, v));
            }
        }
    }
    cap
}

fn main() {
    let g = gen::with_random_weights(&gen::barabasi_albert(30_000, 6, 11), 1_000, 11);
    println!(
        "capacity network: {} nodes, {} links, capacities 1..=1000",
        g.num_vertices(),
        g.num_edges()
    );

    let src = g.max_degree_vertex().unwrap();
    let app = WidestPath::new(g.num_vertices(), src);
    let report = run(&g, &app, &AutoPolicy, &EngineOptions::on(DeviceSpec::p100()));
    let got = app.cap.to_vec();

    // Verify against the sequential reference.
    let want = widest_reference(&g, src);
    assert_eq!(got, want, "autotuned widest-path must match the reference");

    let reachable = got.iter().filter(|&&c| c > 0).count();
    let narrowest = got.iter().filter(|&&c| c > 0 && c < u32::MAX).min().unwrap();
    println!(
        "widest-path from hub {src}: {} vertices reachable, narrowest best-bottleneck {} , \
         {} super-steps, {:.2} ms simulated — result verified against Dijkstra reference",
        reachable,
        narrowest,
        report.n_iterations(),
        report.total_ms()
    );
    println!(
        "configs the selector used: {:?}",
        report
            .iterations
            .iter()
            .map(|t| t.config.to_string())
            .collect::<std::collections::HashSet<_>>()
    );
}
