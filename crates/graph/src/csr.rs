//! Compressed sparse row adjacency storage.
//!
//! CSR is the storage every GPU graph framework in the paper's related-work
//! section uses (Gunrock, Enterprise, B40C, ...): a `row_offsets` array of
//! length `n + 1` and a `targets` array of length `m`. All kernel variants
//! in `gswitch-kernels` traverse this structure; the load-balancing pattern
//! (P3) differs only in *how* the `offsets` ranges are mapped onto warps.

use crate::VertexId;

/// Immutable CSR adjacency. Offsets are `u64` so graphs beyond 4B edges are
/// representable; targets are `u32` to halve bandwidth (cf. crate docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Box<[u64]>,
    targets: Box<[VertexId]>,
}

/// Half-open range of edge indices for one vertex: `start..end` indexes into
/// [`Csr::targets`] (and any parallel weight array).
pub type EdgeRange = std::ops::Range<usize>;

impl Csr {
    /// Build from raw parts, validating the CSR invariants:
    /// monotone offsets, `offsets[0] == 0`, `offsets[n] == targets.len()`,
    /// and every target in `0..n`.
    ///
    /// # Panics
    /// Panics when an invariant is violated — CSR construction happens once
    /// per dataset, so we prefer loud failure over a `Result` that every
    /// kernel would have to thread through.
    pub fn new(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n+1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "last offset must equal the edge count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotonically non-decreasing"
        );
        let n = offsets.len() - 1;
        assert!(targets.iter().all(|&t| (t as usize) < n), "edge target out of range");
        Csr { offsets: offsets.into_boxed_slice(), targets: targets.into_boxed_slice() }
    }

    /// CSR with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Csr { offsets: vec![0u64; n + 1].into_boxed_slice(), targets: Box::new([]) }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Raw row offsets (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw edge targets (`m` entries).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        let v = v as usize;
        debug_assert!(v < self.num_vertices());
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Edge-index range of `v`, for indexing [`Self::targets`] and parallel
    /// weight arrays.
    #[inline]
    pub fn edge_range(&self, v: VertexId) -> EdgeRange {
        let v = v as usize;
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// Neighbors of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.edge_range(v)]
    }

    /// Iterate `(source, target)` pairs in row order (edge-centric view,
    /// used by the GPUCC baseline).
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Maximum degree over all vertices (0 on an empty graph).
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices() as VertexId).map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> {1,2}; 1 -> {2}; 2 -> {}; 3 -> {0}
        Csr::new(vec![0, 2, 3, 3, 4], vec![1, 2, 2, 0])
    }

    #[test]
    fn basic_accessors() {
        let c = sample();
        assert_eq!(c.num_vertices(), 4);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(2), 0);
        assert_eq!(c.neighbors(0), &[1, 2]);
        assert_eq!(c.neighbors(3), &[0]);
        assert_eq!(c.max_degree(), 2);
    }

    #[test]
    fn iter_edges_row_order() {
        let c = sample();
        let edges: Vec<_> = c.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (3, 0)]);
    }

    #[test]
    fn empty_graph() {
        let c = Csr::empty(5);
        assert_eq!(c.num_vertices(), 5);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.degree(4), 0);
        assert_eq!(c.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "monotonically")]
    fn rejects_decreasing_offsets() {
        Csr::new(vec![0, 3, 2, 4], vec![0, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_target() {
        Csr::new(vec![0, 1], vec![7]);
    }

    #[test]
    #[should_panic(expected = "edge count")]
    fn rejects_offset_target_mismatch() {
        Csr::new(vec![0, 2], vec![0]);
    }
}
