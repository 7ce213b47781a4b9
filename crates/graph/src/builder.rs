//! Edge-list ingestion: dedup, self-loop removal, symmetrization, weights.
//!
//! The paper transforms every input to undirected form (§5.1 footnote 3);
//! `symmetric(true)` (the default) mirrors that. Construction is a
//! counting sort by source row — count degrees, take the prefix sum,
//! scatter — after which each row is sorted and deduped on its own:
//! O(n + m + Σ d log d), with no comparison sort of the whole edge list
//! and no intermediate triple array.

use crate::csr::Csr;
use crate::{Graph, VertexId, Weight};

/// Accumulates edges and produces a [`Graph`].
#[derive(Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<Weight>,
    symmetric: bool,
    dedup: bool,
    drop_self_loops: bool,
    name: String,
}

impl GraphBuilder {
    /// A builder for a graph over vertices `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            weights: Vec::new(),
            symmetric: true,
            dedup: true,
            drop_self_loops: true,
            name: String::from("unnamed"),
        }
    }

    /// Reserve room for `m` edges up front.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Symmetrize on build (store each edge in both directions). Default on.
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// Remove duplicate (parallel) edges on build. Default on.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Remove self loops on build. Default on.
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Name the dataset.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Add one unweighted edge.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push_edge(u, v);
        self
    }

    /// Add many unweighted edges.
    pub fn edges(mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        for (u, v) in it {
            self.push_edge(u, v);
        }
        self
    }

    /// Add many weighted edges. Mixing weighted and unweighted pushes is a
    /// builder-misuse panic at `build` time.
    pub fn weighted_edges(
        mut self,
        it: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        for (u, v, w) in it {
            self.push_weighted_edge(u, v, w);
        }
        self
    }

    /// Non-consuming edge push (for loops that cannot use the fluent API).
    pub fn push_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for {} vertices",
            self.n
        );
        self.edges.push((u, v));
    }

    /// Non-consuming weighted edge push.
    pub fn push_weighted_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.push_edge(u, v);
        self.weights.push(w);
    }

    /// Current number of pushed edges (pre-dedup/symmetrize).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges were pushed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalize into a [`Graph`], discarding the repair counts.
    pub fn build(self) -> Graph {
        self.build_with_report().0
    }

    /// Finalize into a [`Graph`] and report what was repaired along the
    /// way: self loops skipped and parallel edges collapsed by dedup.
    /// Counts are in *directed-edge* units — with `symmetric(true)` a
    /// duplicated undirected input edge shows up as two deduped
    /// directed edges, matching the `num_edges` convention everywhere
    /// else in this crate.
    pub fn build_with_report(self) -> (Graph, BuildReport) {
        let weighted = !self.weights.is_empty();
        assert!(
            !weighted || self.weights.len() == self.edges.len(),
            "mixed weighted and unweighted edges"
        );
        let GraphBuilder { n, edges, weights, symmetric, dedup, drop_self_loops, name } = self;
        let mut report = BuildReport::default();
        let kept = |u: VertexId, v: VertexId| !(drop_self_loops && u == v);
        let mirrored = |u: VertexId, v: VertexId| symmetric && u != v;

        // Count each row's slots, then turn the counts into row starts.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in &edges {
            if !kept(u, v) {
                report.self_loops_dropped += 1;
                continue;
            }
            offsets[u as usize + 1] += 1;
            if mirrored(u, v) {
                offsets[v as usize + 1] += 1;
            }
        }
        prefix_sum(&mut offsets);

        // Scatter every directed slot into its row, using the row start as
        // the row's cursor: afterwards `offsets[u]` is the end of row `u`.
        let m = offsets[n] as usize;
        let mut targets = vec![0 as VertexId; m];
        let mut out_weights = if weighted { vec![0 as Weight; m] } else { Vec::new() };
        for (i, &(u, v)) in edges.iter().enumerate() {
            if !kept(u, v) {
                continue;
            }
            let mut put = |from: VertexId, to: VertexId| {
                let c = &mut offsets[from as usize];
                targets[*c as usize] = to;
                if weighted {
                    out_weights[*c as usize] = weights[i];
                }
                *c += 1;
            };
            put(u, v);
            if mirrored(u, v) {
                put(v, u);
            }
        }
        offsets.copy_within(..n, 1);
        offsets[0] = 0;
        // The input list is dead once scattered.
        drop((edges, weights));

        // Sort each row by (target, weight) and, under dedup, keep the
        // first of each target — its smallest weight. Rows compact towards
        // the front in place, so a row never reads a slot already written.
        let mut write = 0usize;
        let mut start = 0usize;
        let mut pairs: Vec<(VertexId, Weight)> = Vec::new();
        for u in 0..n {
            let end = offsets[u + 1] as usize;
            let first = write;
            let fresh = |targets: &[VertexId], write: usize, v: VertexId| {
                !dedup || write == first || targets[write - 1] != v
            };
            if weighted {
                pairs.clear();
                pairs.extend(
                    targets[start..end]
                        .iter()
                        .copied()
                        .zip(out_weights[start..end].iter().copied()),
                );
                pairs.sort_unstable();
                for &(v, w) in &pairs {
                    if fresh(&targets, write, v) {
                        targets[write] = v;
                        out_weights[write] = w;
                        write += 1;
                    }
                }
            } else {
                targets[start..end].sort_unstable();
                for i in start..end {
                    let v = targets[i];
                    if fresh(&targets, write, v) {
                        targets[write] = v;
                        write += 1;
                    }
                }
            }
            start = end;
            offsets[u + 1] = write as u64;
        }
        report.parallel_edges_deduped = m - write;
        targets.truncate(write);
        out_weights.truncate(write);
        let out = Csr::new(offsets, targets);

        if symmetric {
            let g = Graph::from_parts(out, None, weighted.then_some(out_weights), None, name);
            return (g, report);
        }

        // Directed: the transpose for the pull direction, scattered from
        // the out-CSR in row order, so every in-row lists its sources in
        // ascending order.
        let m = out.num_edges();
        let mut in_offsets = vec![0u64; n + 1];
        for &v in out.targets() {
            in_offsets[v as usize + 1] += 1;
        }
        prefix_sum(&mut in_offsets);
        let mut in_targets = vec![0 as VertexId; m];
        let mut in_weights = if weighted { vec![0 as Weight; m] } else { Vec::new() };
        for u in 0..n as VertexId {
            for e in out.edge_range(u) {
                let c = &mut in_offsets[out.targets()[e] as usize];
                in_targets[*c as usize] = u;
                if weighted {
                    in_weights[*c as usize] = out_weights[e];
                }
                *c += 1;
            }
        }
        in_offsets.copy_within(..n, 1);
        in_offsets[0] = 0;
        let incoming = Csr::new(in_offsets, in_targets);
        let g = Graph::from_parts(
            out,
            Some(incoming),
            weighted.then_some(out_weights),
            weighted.then_some(in_weights),
            name,
        );
        (g, report)
    }
}

/// Turn per-row counts in `offsets[1..]` into row starts: `offsets[u]`
/// becomes the start of row `u` and `offsets[n]` the slot count.
fn prefix_sum(offsets: &mut [u64]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

/// What [`GraphBuilder::build_with_report`] had to repair, in
/// directed-edge units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildReport {
    /// Input edges skipped because source == target.
    pub self_loops_dropped: usize,
    /// Directed triples removed by dedup (parallel edges).
    pub parallel_edges_deduped: usize,
}

impl BuildReport {
    /// True when nothing needed repairing.
    pub fn is_clean(&self) -> bool {
        self.self_loops_dropped == 0 && self.parallel_edges_deduped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetrize_and_dedup() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 0), (0, 1), (1, 2)]).build();
        // Unique undirected edges {0,1},{1,2} stored both ways.
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_csr().neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = GraphBuilder::new(2).edges([(0, 0), (0, 1)]).build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_csr().neighbors(0), &[1]);
    }

    #[test]
    fn self_loops_kept_when_asked() {
        let g = GraphBuilder::new(2).edges([(0, 0), (0, 1)]).drop_self_loops(false).build();
        assert_eq!(g.out_csr().neighbors(0), &[0, 1]);
    }

    #[test]
    fn directed_transpose_is_correct() {
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (3, 2)]).symmetric(false).build();
        assert_eq!(g.in_csr().neighbors(2), &[0, 3]);
        assert_eq!(g.in_csr().neighbors(0), &[] as &[VertexId]);
        assert_eq!(g.out_csr().neighbors(0), &[1, 2]);
    }

    #[test]
    fn weights_follow_edges_both_directions() {
        let g = GraphBuilder::new(3).weighted_edges([(0, 1, 5), (1, 2, 7)]).build();
        assert!(g.is_weighted());
        let csr = g.out_csr();
        let w = g.out_weights().unwrap();
        // Row 1 has neighbors [0, 2] with weights [5, 7].
        let r = csr.edge_range(1);
        assert_eq!(csr.neighbors(1), &[0, 2]);
        assert_eq!(&w[r], &[5, 7]);
    }

    #[test]
    fn directed_weights_transpose() {
        let g =
            GraphBuilder::new(3).weighted_edges([(0, 2, 9), (1, 2, 4)]).symmetric(false).build();
        let r = g.in_csr().edge_range(2);
        assert_eq!(g.in_csr().neighbors(2), &[0, 1]);
        assert_eq!(&g.in_weights().unwrap()[r], &[9, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        GraphBuilder::new(2).edge(0, 5);
    }

    #[test]
    fn build_report_counts_repairs() {
        let (g, rep) = GraphBuilder::new(3)
            .edges([(0, 0), (0, 1), (1, 0), (0, 1), (1, 2)])
            .build_with_report();
        // One self loop; {0,1} appears three times post-symmetrization
        // (0→1 twice + mirrored 1→0 twice + 1→0 mirrored back), so four
        // directed duplicates collapse away.
        assert_eq!(rep.self_loops_dropped, 1);
        assert_eq!(rep.parallel_edges_deduped, 4);
        assert!(!rep.is_clean());
        assert_eq!(g.num_edges(), 4);

        let (_, clean) = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build_with_report();
        assert!(clean.is_clean());
    }

    #[test]
    fn deterministic_under_permutation() {
        let e1 = [(2u32, 0u32), (0, 1), (1, 2)];
        let mut e2 = e1;
        e2.reverse();
        let g1 = GraphBuilder::new(3).edges(e1).build();
        let g2 = GraphBuilder::new(3).edges(e2).build();
        assert_eq!(g1.out_csr(), g2.out_csr());
    }
}
