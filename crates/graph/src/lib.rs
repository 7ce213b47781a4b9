//! Graph substrate for the GSWITCH reproduction.
//!
//! This crate provides everything the autotuner needs to know about its
//! input *before* and *during* execution:
//!
//! - [`Csr`] — compressed sparse row adjacency, the canonical storage used by
//!   every kernel variant (push walks the out-CSR, pull walks the in-CSR).
//! - [`Graph`] — a symmetric (or directed) graph bundling out/in CSR views,
//!   optional edge weights, and precomputed [`stats::GraphStats`].
//! - [`builder::GraphBuilder`] — edge-list ingestion with deduplication,
//!   self-loop removal and symmetrization (the paper transforms all inputs to
//!   undirected form, §5.1 footnote 3).
//! - [`gen`] — synthetic generators covering the five dataset domains of the
//!   paper's Table 2 (social network, web graph, generated graph, road
//!   network, scientific computing).
//! - [`io`] — MatrixMarket / edge-list / DIMACS loaders so real
//!   networkrepository.com data can be substituted in, with size limits
//!   and a strict-vs-repair mode for untrusted files.
//! - [`validate`] — panic-free [`CsrValidator`] re-checking every CSR
//!   invariant, for graphs that arrive from outside the builder.
//! - [`stats`] — the "dataset attributes" slice of the paper's Table 1
//!   feature vector: N, M, average/σ/relative-range of degrees, Gini
//!   coefficient and relative edge-distribution entropy.
//! - [`corpus`] — the deterministic 644+644 graph training/evaluation corpus
//!   and scaled topological twins of the ten representative graphs.
//! - [`shard`] — edge-cut partitioning into K locally-renumbered shards
//!   with halo tables and per-shard stats, for the partitioned execution
//!   subsystem (`gswitch-shard`).

#![warn(missing_docs)]

pub mod builder;
pub mod corpus;
pub mod csr;
pub mod fingerprint;
pub mod gen;
pub mod io;
pub mod shard;
pub mod stats;
pub mod transform;
pub mod validate;

pub use builder::{BuildReport, GraphBuilder};
pub use csr::{Csr, EdgeRange};
pub use fingerprint::Fingerprint;
pub use shard::{LocalShard, ShardedCsr};
pub use stats::GraphStats;
pub use validate::{CsrValidator, ValidationReport};

/// Vertex identifier. 32 bits is enough for every graph in the paper's
/// corpus (largest: 16.8M vertices) and halves memory traffic versus u64 —
/// the same choice CUDA graph frameworks make.
pub type VertexId = u32;

/// Edge weights. The paper's SSSP uses integer weights; we follow suit.
pub type Weight = u32;

/// A graph ready for processing: out-edges, in-edges (shared when the graph
/// is symmetric), optional weights aligned with the out-CSR, and topology
/// statistics.
#[derive(Clone, Debug)]
pub struct Graph {
    out: std::sync::Arc<Csr>,
    incoming: std::sync::Arc<Csr>,
    /// Weights aligned with `out.targets()`; `in_weights` aligned with the
    /// in-CSR (only distinct when the graph is directed).
    out_weights: Option<std::sync::Arc<[Weight]>>,
    in_weights: Option<std::sync::Arc<[Weight]>>,
    stats: GraphStats,
    name: String,
}

impl Graph {
    /// Assemble a graph from prebuilt CSR parts. Prefer [`GraphBuilder`].
    pub fn from_parts(
        out: Csr,
        incoming: Option<Csr>,
        out_weights: Option<Vec<Weight>>,
        in_weights: Option<Vec<Weight>>,
        name: impl Into<String>,
    ) -> Self {
        let out = std::sync::Arc::new(out);
        let incoming = match incoming {
            Some(c) => std::sync::Arc::new(c),
            None => std::sync::Arc::clone(&out),
        };
        let stats = GraphStats::compute(&out);
        let out_weights = out_weights.map(std::sync::Arc::from);
        let in_weights = match in_weights {
            Some(w) => Some(std::sync::Arc::from(w)),
            // Symmetric graph sharing one CSR shares one weight array too.
            None if std::sync::Arc::ptr_eq(&out, &incoming) => out_weights.clone(),
            None => None,
        };
        Graph { out, incoming, out_weights, in_weights, stats, name: name.into() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges stored in the out-CSR (an undirected edge
    /// counts twice, matching the paper's nnz convention).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.num_edges()
    }

    /// Out-adjacency (push direction).
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// In-adjacency (pull direction). Identical to the out-CSR for
    /// symmetric graphs.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        &self.incoming
    }

    /// True when out- and in-CSR are the same object (undirected graph).
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        std::sync::Arc::ptr_eq(&self.out, &self.incoming)
    }

    /// Edge weights aligned with [`Csr::targets`] of the out-CSR.
    #[inline]
    pub fn out_weights(&self) -> Option<&[Weight]> {
        self.out_weights.as_deref()
    }

    /// Edge weights aligned with the in-CSR.
    #[inline]
    pub fn in_weights(&self) -> Option<&[Weight]> {
        self.in_weights.as_deref()
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.out_weights.is_some()
    }

    /// Dataset attributes (Table 1, first block).
    #[inline]
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Human-readable dataset name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out.degree(v)
    }

    /// Rename the dataset (used by the corpus to tag scaled twins).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The vertex with the highest out-degree; `None` on the empty graph.
    pub fn max_degree_vertex(&self) -> Option<VertexId> {
        (0..self.num_vertices() as VertexId).max_by_key(|&v| self.out.degree(v))
    }

    /// This graph's topology under `name`, with each slot of edge
    /// `u → v` weighted `weight(u, v)`. The CSRs are shared, not copied,
    /// and the stats carried over: only the weight arrays are new. An
    /// edgeless graph stays unweighted, as a build from its (empty)
    /// weighted edge list would.
    pub(crate) fn reweighted(
        &self,
        weight: impl Fn(VertexId, VertexId) -> Weight,
        name: String,
    ) -> Graph {
        if self.num_edges() == 0 {
            return Graph { out_weights: None, in_weights: None, name, ..self.clone() };
        }
        let out_weights = slot_weights(&self.out, &weight);
        let in_weights = if self.is_symmetric() {
            std::sync::Arc::clone(&out_weights)
        } else {
            // An in-row lists the sources of edges into it.
            slot_weights(&self.incoming, |row, u| weight(u, row))
        };
        Graph {
            out: std::sync::Arc::clone(&self.out),
            incoming: std::sync::Arc::clone(&self.incoming),
            out_weights: Some(out_weights),
            in_weights: Some(in_weights),
            stats: self.stats,
            name,
        }
    }
}

/// One weight per slot of `csr`, `weight(row, target)`, in slot order.
/// The iterator has an exact length, so the array is allocated once.
fn slot_weights(
    csr: &Csr,
    weight: impl Fn(VertexId, VertexId) -> Weight,
) -> std::sync::Arc<[Weight]> {
    let (offsets, targets) = (csr.offsets(), csr.targets());
    let mut row = 0;
    (0..targets.len())
        .map(|e| {
            while offsets[row + 1] as usize <= e {
                row += 1;
            }
            weight(row as VertexId, targets[e])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        // Path 0-1-2 plus edge 1-3.
        GraphBuilder::new(4).edges([(0, 1), (1, 2), (1, 3)]).symmetric(true).build()
    }

    #[test]
    fn from_parts_shares_csr_when_symmetric() {
        let g = tiny();
        assert!(g.is_symmetric());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6); // 3 undirected edges stored twice
    }

    #[test]
    fn degrees_match_topology() {
        let g = tiny();
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(1), 3);
        assert_eq!(g.out_degree(2), 1);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.max_degree_vertex(), Some(1));
    }

    #[test]
    fn directed_graph_distinguishes_in_out() {
        let g = GraphBuilder::new(3).edges([(0, 1), (0, 2), (1, 2)]).symmetric(false).build();
        assert!(!g.is_symmetric());
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_csr().degree(0), 0);
        assert_eq!(g.in_csr().degree(2), 2);
    }

    #[test]
    fn unweighted_graph_reports_no_weights() {
        let g = tiny();
        assert!(!g.is_weighted());
        assert!(g.out_weights().is_none());
    }
}
