//! Breadth-First Search on the GSWITCH API — the Fig. 11 example app.

use gswitch_core::{run, EngineOptions, GraphApp, Policy, RunReport, Status};
use gswitch_graph::{Graph, VertexId, Weight};
use gswitch_kernels::atomics::AtomicArray;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// The BFS application: per-vertex levels, level-synchronous expansion.
/// Mirrors the paper's Fig. 11 four functions exactly.
#[derive(Debug)]
pub struct Bfs {
    level: AtomicArray<u32>,
    current: AtomicU32,
}

impl Bfs {
    /// A BFS instance over `n` vertices rooted at `src`.
    pub fn new(n: usize, src: VertexId) -> Self {
        let b = Bfs { level: AtomicArray::filled(n, u32::MAX), current: AtomicU32::new(0) };
        b.level.store(src, 0);
        b
    }

    /// Snapshot the level array (`u32::MAX` = unreachable).
    pub fn levels(&self) -> Vec<u32> {
        self.level.to_vec()
    }
}

impl GraphApp for Bfs {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = true; // any current-level parent is enough
    const DUP_TOLERANT: bool = true; // atomicMin is idempotent

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

    fn emit(&self, u: VertexId, _w: Weight) -> u32 {
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

    fn advance(&self, iteration: u32) {
        self.current.store(iteration, Relaxed);
    }

    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        self.level.load(dst) == msg
    }

    fn refilter_hint(&self, _out: &mut Vec<VertexId>) -> bool {
        // A status moves only when the level does (a successful comp) or
        // when the vertex was on the level that just ended (Active).
        true
    }
}

/// Result of a BFS run.
#[derive(Debug)]
pub struct BfsResult {
    /// Per-vertex levels (`u32::MAX` = unreachable).
    pub levels: Vec<u32>,
    /// The engine trace.
    pub report: RunReport,
}

/// Run BFS from `src` under `policy`.
pub fn bfs(g: &Graph, src: VertexId, policy: &dyn Policy, opts: &EngineOptions) -> BfsResult {
    let app = Bfs::new(g.num_vertices(), src);
    let report = run(g, &app, policy, opts);
    BfsResult { levels: app.levels(), report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gswitch_core::{AutoPolicy, KernelConfig, StaticPolicy};
    use gswitch_graph::gen;

    impl crate::tests::Cells for Bfs {
        fn cells(&self) -> Vec<u64> {
            self.levels().into_iter().map(u64::from).collect()
        }
    }

    #[test]
    fn matches_reference_on_varied_topologies() {
        let graphs = [
            gen::erdos_renyi(400, 1600, 1),
            gen::barabasi_albert(400, 3, 2),
            gen::grid2d(20, 20, 0.05, 3),
            gen::star(200),
            gen::banded(300, 8, 0.1, 4),
        ];
        for g in &graphs {
            let r = bfs(g, 0, &AutoPolicy, &EngineOptions::default());
            assert!(r.report.converged);
            assert_eq!(r.levels, reference::bfs(g, 0), "{}", g.name());
        }
    }

    #[test]
    fn every_shape_agrees() {
        let g = gen::kronecker(8, 8, 5);
        let expected = reference::bfs(&g, 0);
        for cfg in KernelConfig::all_shapes() {
            let r = bfs(&g, 0, &StaticPolicy::new(cfg), &EngineOptions::default());
            assert_eq!(r.levels, expected, "{cfg}");
        }
    }

    #[test]
    fn source_choice_respected() {
        let g = gen::grid2d(10, 10, 0.0, 6);
        let r = bfs(&g, 55, &AutoPolicy, &EngineOptions::default());
        assert_eq!(r.levels[55], 0);
        assert_eq!(r.levels, reference::bfs(&g, 55));
    }
}
