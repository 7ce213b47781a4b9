//! Connected Components by parallel label propagation.
//!
//! Every vertex starts labelled with its own id and repeatedly adopts the
//! minimum label among its neighbors; at convergence each (weak)
//! component carries its minimum vertex id. This is the data-driven
//! formulation the GSWITCH paper benchmarks (its GPUCC baseline is
//! Soman's hooking/pointer-jumping variant, implemented in
//! `gswitch-baselines`).

use gswitch_core::{run, EngineOptions, GraphApp, Policy, RunReport, Status};
use gswitch_graph::{Graph, VertexId, Weight};
use gswitch_kernels::atomics::AtomicArray;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// The CC application.
#[derive(Debug)]
pub struct Cc {
    label: AtomicArray<u32>,
    /// Epoch tag: a vertex is active in iteration `i` iff its label
    /// changed in iteration `i - 1`, encoded as `changed_at == i`.
    changed_at: AtomicArray<u32>,
    current: AtomicU32,
}

impl Cc {
    /// CC over `n` vertices.
    pub fn new(n: usize) -> Self {
        let c = Cc {
            label: AtomicArray::filled(n, 0),
            changed_at: AtomicArray::filled(n, 0),
            current: AtomicU32::new(0),
        };
        for v in 0..n as VertexId {
            c.label.store(v, v);
        }
        c
    }

    /// Snapshot the component labels.
    pub fn labels(&self) -> Vec<u32> {
        self.label.to_vec()
    }

    fn mark_changed(&self, v: VertexId) {
        // Activate for the next iteration.
        let next = self.current.load(Relaxed) + 1;
        self.changed_at.store(v, next);
    }
}

impl GraphApp for Cc {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = false; // must take the min over all parents
    const DUP_TOLERANT: bool = true; // min is idempotent

    fn filter(&self, v: VertexId) -> Status {
        if self.changed_at.load(v) == self.current.load(Relaxed) {
            Status::Active
        } else {
            Status::Inactive
        }
    }

    #[inline]
    fn emit(&self, u: VertexId, _w: Weight) -> u32 {
        self.label.load(u)
    }

    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        if self.label.fetch_min(dst, msg) > msg {
            self.mark_changed(dst);
            true
        } else {
            false
        }
    }

    #[inline]
    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        if msg < self.label.load(dst) {
            self.label.store(dst, msg);
            self.mark_changed(dst);
            true
        } else {
            false
        }
    }

    fn advance(&self, iteration: u32) {
        self.current.store(iteration, Relaxed);
    }

    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        self.label.load(dst) == msg
    }

    fn pull_receives(status: Status) -> bool {
        // Labels may improve at any time: everyone gathers.
        !matches!(status, Status::Fixed)
    }

    fn refilter_hint(&self, _out: &mut Vec<VertexId>) -> bool {
        // Active = stamped by last step's successful comp; last step's
        // Active vertices expire with the epoch. Nothing else moves.
        true
    }
}

/// Result of a CC run.
#[derive(Debug)]
pub struct CcResult {
    /// Per-vertex component labels (minimum vertex id in the component).
    pub labels: Vec<u32>,
    /// The engine trace.
    pub report: RunReport,
}

/// Run connected components under `policy`.
pub fn cc(g: &Graph, policy: &dyn Policy, opts: &EngineOptions) -> CcResult {
    let app = Cc::new(g.num_vertices());
    let report = run(g, &app, policy, opts);
    CcResult { labels: app.labels(), report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gswitch_core::{AutoPolicy, KernelConfig, StaticPolicy};
    use gswitch_graph::{gen, GraphBuilder};

    #[test]
    fn labels_components_with_min_id() {
        let g = GraphBuilder::new(6).edges([(0, 1), (1, 2), (4, 5)]).build();
        let r = cc(&g, &AutoPolicy, &EngineOptions::default());
        assert!(r.report.converged);
        assert_eq!(r.labels, vec![0, 0, 0, 3, 4, 4]);
        assert_eq!(r.labels, reference::cc(&g));
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..4 {
            // Sparse ER graphs have many components.
            let g = gen::erdos_renyi(300, 250, seed);
            let r = cc(&g, &AutoPolicy, &EngineOptions::default());
            assert_eq!(r.labels, reference::cc(&g), "seed {seed}");
        }
    }

    #[test]
    fn every_shape_agrees() {
        let g = gen::erdos_renyi(256, 300, 9);
        let expected = reference::cc(&g);
        for cfg in KernelConfig::all_shapes() {
            let r = cc(&g, &StaticPolicy::new(cfg), &EngineOptions::default());
            assert_eq!(r.labels, expected, "{cfg}");
        }
    }

    #[test]
    fn singleton_vertices_keep_own_label() {
        let g = GraphBuilder::new(3).edges([(0, 1)]).build();
        let r = cc(&g, &AutoPolicy, &EngineOptions::default());
        assert_eq!(r.labels[2], 2);
    }
}
