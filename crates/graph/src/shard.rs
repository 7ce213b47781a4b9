//! Edge-cut CSR partitioning for sharded execution.
//!
//! [`ShardedCsr::partition`] splits a graph into `K` shards the way the
//! multi-device Gunrock lineage does (see PAPERS.md): each shard *owns* a
//! contiguous range of global vertices (ranges chosen to balance edge
//! count), keeps the out-edges of its owned vertices in a **local** CSR
//! with renumbered vertex ids, and appends a *halo* — the out-of-shard
//! vertices its edges point at — after the owned range. Halo rows are
//! empty (a shard never expands a vertex it does not own); updates that
//! land on halo vertices are the inter-shard frontier-exchange traffic
//! the sharded driver in `gswitch-core` routes and the cost model
//! charges.
//!
//! Each shard carries its own [`GraphStats`], so the autotuner's
//! Selector can tune kernel format and load-balance per shard — a
//! web-graph shard and a road-network shard of the same composite graph
//! get different configurations, exactly as if they were separate
//! datasets.

use crate::csr::Csr;
use crate::stats::GraphStats;
use crate::{Graph, VertexId};
use std::collections::BTreeSet;

/// One shard of a partitioned graph: a local renumbered sub-CSR plus the
/// tables that relate it back to the global vertex space.
///
/// Local vertex ids are laid out as `[0, n_owned)` for owned vertices
/// (global ids `owner_start + local`) followed by `[n_owned, n_local)`
/// for halo vertices (global ids in the sorted [`LocalShard::halo`]
/// table). Halo rows of the local CSR are empty by construction.
#[derive(Clone, Debug)]
pub struct LocalShard {
    id: u32,
    graph: Graph,
    n_owned: usize,
    owner_start: VertexId,
    halo_global: Vec<VertexId>,
    /// Per owned vertex, its out-edges whose target is a halo vertex.
    cut_degree: Vec<u32>,
    cut_edges: usize,
}

impl LocalShard {
    /// Shard index in `0..k`.
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The local graph: `n_owned + n_halo` vertices, owned rows carrying
    /// the owned vertices' out-edges (targets renumbered), halo rows
    /// empty.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Owned vertices (the first `n_owned` local ids).
    #[inline]
    pub fn n_owned(&self) -> usize {
        self.n_owned
    }

    /// Halo vertices referenced but not owned.
    #[inline]
    pub fn n_halo(&self) -> usize {
        self.halo_global.len()
    }

    /// Total local vertices (`n_owned + n_halo`).
    #[inline]
    pub fn n_local(&self) -> usize {
        self.n_owned + self.halo_global.len()
    }

    /// Global id of the first owned vertex.
    #[inline]
    pub fn owner_start(&self) -> VertexId {
        self.owner_start
    }

    /// Global ids owned by this shard, as a half-open range.
    #[inline]
    pub fn owner_range(&self) -> std::ops::Range<VertexId> {
        self.owner_start..self.owner_start + self.n_owned as VertexId
    }

    /// Sorted global ids of the halo vertices.
    #[inline]
    pub fn halo(&self) -> &[VertexId] {
        &self.halo_global
    }

    /// Out-edges whose target is a halo vertex — the shard's share of
    /// the edge cut, i.e. its worst-case per-super-step exchange fan-out.
    #[inline]
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// Out-edges of local vertex `local` whose target is a halo vertex:
    /// the exchange records one push expansion of its row produces. Sums
    /// to [`cut_edges`](Self::cut_edges) over the owned vertices; zero on
    /// halo rows, which are empty.
    #[inline]
    pub fn cut_degree(&self, local: VertexId) -> u32 {
        self.cut_degree.get(local as usize).copied().unwrap_or(0)
    }

    /// Whether `local` is a halo vertex (owned by another shard).
    #[inline]
    pub fn is_halo(&self, local: VertexId) -> bool {
        (local as usize) >= self.n_owned
    }

    /// Translate a local id to its global id.
    ///
    /// # Panics
    /// Panics when `local` is out of the shard's local range.
    #[inline]
    pub fn to_global(&self, local: VertexId) -> VertexId {
        let l = local as usize;
        if l < self.n_owned {
            self.owner_start + local
        } else {
            self.halo_global[l - self.n_owned]
        }
    }

    /// Translate a global id to this shard's local id, if the shard
    /// knows the vertex at all (owned or halo).
    #[inline]
    pub fn to_local(&self, global: VertexId) -> Option<VertexId> {
        if self.owner_range().contains(&global) {
            return Some(global - self.owner_start);
        }
        self.halo_global.binary_search(&global).ok().map(|i| (self.n_owned + i) as VertexId)
    }

    /// Per-shard dataset attributes over the local CSR (halo rows count
    /// as zero-degree vertices — they are part of the vertex space the
    /// shard's Filter kernel scans, so the Selector should see them).
    #[inline]
    pub fn stats(&self) -> &GraphStats {
        self.graph.stats()
    }
}

/// A graph partitioned into `K` edge-balanced shards with local
/// renumbering and halo tables. Built once per `(graph, K)` and shared
/// immutably (`Arc<ShardedCsr>`) across every query of a serving batch.
#[derive(Clone, Debug)]
pub struct ShardedCsr {
    shards: Vec<LocalShard>,
    /// `k + 1` cut points into the global vertex space; shard `s` owns
    /// `boundaries[s]..boundaries[s + 1]`.
    boundaries: Vec<VertexId>,
    num_vertices: usize,
    num_edges: usize,
    name: String,
}

impl ShardedCsr {
    /// Partition `g` into `k` shards of contiguous vertex-ownership
    /// ranges balanced by `degree + 1` weight (edges dominate, the `+ 1`
    /// keeps vertex-heavy sparse regions from collapsing into one
    /// shard). `k` greater than the vertex count is clamped so no shard
    /// owns zero vertices. Fails only on `k == 0`.
    pub fn partition(g: &Graph, k: u32) -> Result<ShardedCsr, String> {
        if k == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        let n = g.num_vertices();
        let m = g.num_edges();
        let k = (k as usize).min(n.max(1));
        let out = g.out_csr();

        // Greedy balanced cut: boundary s lands on the first vertex
        // where the cumulative weight reaches s/k of the total, with a
        // forced cut when exactly one vertex per remaining shard is left.
        let total = (m + n) as u64;
        let mut boundaries: Vec<VertexId> = Vec::with_capacity(k + 1);
        boundaries.push(0);
        let mut acc = 0u64;
        let mut next = 1usize;
        for v in 0..n {
            acc += out.degree(v as VertexId) as u64 + 1;
            let remaining_vertices = n - (v + 1);
            let remaining_cuts = k - next;
            if next < k
                && (acc * k as u64 >= total * next as u64 || remaining_vertices == remaining_cuts)
            {
                boundaries.push((v + 1) as VertexId);
                next += 1;
            }
        }
        // Degenerate inputs (n == 0 with k clamped to 1) fall through
        // with only the leading 0; pad any unplaced cuts at the end.
        while boundaries.len() < k {
            boundaries.push(n as VertexId);
        }
        boundaries.push(n as VertexId);

        let weights = g.out_weights();
        let shards = (0..k)
            .map(|s| {
                let start = boundaries[s] as usize;
                let end = boundaries[s + 1] as usize;
                build_shard(g, out, weights, s as u32, k, start, end)
            })
            .collect();

        Ok(ShardedCsr {
            shards,
            boundaries,
            num_vertices: n,
            num_edges: m,
            name: g.name().to_string(),
        })
    }

    /// Number of shards.
    #[inline]
    pub fn k(&self) -> u32 {
        self.shards.len() as u32
    }

    /// All shards in id order.
    #[inline]
    pub fn shards(&self) -> &[LocalShard] {
        &self.shards
    }

    /// One shard by id.
    #[inline]
    pub fn shard(&self, s: u32) -> &LocalShard {
        &self.shards[s as usize]
    }

    /// Which shard owns global vertex `v`.
    ///
    /// # Panics
    /// Panics when `v` is outside the global vertex space.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> u32 {
        assert!((v as usize) < self.num_vertices.max(1), "vertex {v} out of range");
        (self.boundaries.partition_point(|&b| b <= v) - 1) as u32
    }

    /// Global vertex count.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Global edge count (every edge lives in exactly one shard).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Source graph name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total halo entries across shards (replication overhead of the
    /// edge cut).
    pub fn halo_total(&self) -> usize {
        self.shards.iter().map(|s| s.n_halo()).sum()
    }

    /// Total cut edges across shards (edges whose endpoint is remote).
    pub fn cut_edges_total(&self) -> usize {
        self.shards.iter().map(|s| s.cut_edges()).sum()
    }

    /// Edge imbalance: max shard edge count over the perfect-balance
    /// average (1.0 = perfectly balanced; 1.0 on edgeless graphs).
    pub fn edge_imbalance(&self) -> f64 {
        if self.num_edges == 0 {
            return 1.0;
        }
        let max = self.shards.iter().map(|s| s.graph().num_edges()).max().unwrap_or(0) as f64;
        let avg = self.num_edges as f64 / self.shards.len() as f64;
        max / avg
    }
}

fn build_shard(
    g: &Graph,
    out: &Csr,
    weights: Option<&[crate::Weight]>,
    id: u32,
    k: usize,
    start: usize,
    end: usize,
) -> LocalShard {
    let n_owned = end - start;
    let owned_range = start as VertexId..end as VertexId;

    // Halo discovery: every out-of-range target, sorted + deduplicated.
    let mut halo_set = BTreeSet::new();
    for v in start..end {
        for &t in out.neighbors(v as VertexId) {
            if !owned_range.contains(&t) {
                halo_set.insert(t);
            }
        }
    }
    let halo_global: Vec<VertexId> = halo_set.into_iter().collect();

    // Local CSR: owned rows keep their global edge order with targets
    // renumbered; halo rows are appended empty.
    let edge_lo = out.offsets()[start] as usize;
    let edge_hi = out.offsets()[end] as usize;
    let mut offsets: Vec<u64> = Vec::with_capacity(n_owned + halo_global.len() + 1);
    offsets.push(0);
    let mut targets: Vec<VertexId> = Vec::with_capacity(edge_hi - edge_lo);
    let mut cut_degree = vec![0u32; n_owned];
    for v in start..end {
        for &t in out.neighbors(v as VertexId) {
            let local = if owned_range.contains(&t) {
                t - start as VertexId
            } else {
                cut_degree[v - start] += 1;
                // The target is in the halo set by construction.
                let i = halo_global.partition_point(|&h| h < t);
                (n_owned + i) as VertexId
            };
            targets.push(local);
        }
        offsets.push(targets.len() as u64);
    }
    let cut_edges = cut_degree.iter().map(|&d| d as usize).sum();
    for _ in 0..halo_global.len() {
        offsets.push(targets.len() as u64);
    }
    let local_csr = Csr::new(offsets, targets);

    // Owned rows preserve global edge order, so the weight slice maps
    // one-to-one onto the contiguous global range.
    let local_weights = weights.map(|ws| ws[edge_lo..edge_hi].to_vec());
    let name = format!("{}#{}of{}", g.name(), id, k);
    let graph = Graph::from_parts(local_csr, None, local_weights, None, name);

    LocalShard {
        id,
        graph,
        n_owned,
        owner_start: start as VertexId,
        halo_global,
        cut_degree,
        cut_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::GraphBuilder;

    fn check_invariants(g: &Graph, sharded: &ShardedCsr) {
        let k = sharded.k();
        assert!(k >= 1);
        // Ownership ranges tile the vertex space.
        let total_owned: usize = sharded.shards().iter().map(|s| s.n_owned()).sum();
        assert_eq!(total_owned, g.num_vertices());
        // Every edge lands in exactly one shard, and the local→global
        // round trip reproduces the global edge multiset in order.
        let mut rebuilt: Vec<(VertexId, VertexId)> = Vec::new();
        for s in sharded.shards() {
            let lg = s.graph();
            for lu in 0..s.n_owned() as VertexId {
                let gu = s.to_global(lu);
                assert_eq!(sharded.owner_of(gu), s.id());
                assert_eq!(s.to_local(gu), Some(lu));
                for &lt in lg.out_csr().neighbors(lu) {
                    let gt = s.to_global(lt);
                    assert_eq!(s.to_local(gt), Some(lt), "round-trip failed");
                    rebuilt.push((gu, gt));
                }
                // The cut degree is the row's halo-directed edges.
                let to_halo = lg.out_csr().neighbors(lu).iter().filter(|&&t| s.is_halo(t)).count();
                assert_eq!(s.cut_degree(lu) as usize, to_halo, "shard {} vertex {lu}", s.id());
            }
            let summed: usize =
                (0..s.n_local() as VertexId).map(|v| s.cut_degree(v) as usize).sum();
            assert_eq!(summed, s.cut_edges());
            // Halo rows are empty and halo ids round-trip too.
            for h in 0..s.n_halo() {
                let l = (s.n_owned() + h) as VertexId;
                assert!(s.is_halo(l));
                assert_eq!(lg.out_csr().degree(l), 0);
                assert_eq!(s.cut_degree(l), 0);
                assert_eq!(s.to_local(s.to_global(l)), Some(l));
                assert_ne!(sharded.owner_of(s.to_global(l)), s.id());
            }
        }
        let global: Vec<(VertexId, VertexId)> = g.out_csr().iter_edges().collect();
        assert_eq!(rebuilt, global, "edge multiset must be preserved in order");
    }

    #[test]
    fn partition_preserves_edges_across_k() {
        let g = gen::kronecker(8, 8, 3);
        for k in [1, 2, 3, 4, 8] {
            let sharded = ShardedCsr::partition(&g, k).unwrap();
            assert_eq!(sharded.k(), k);
            check_invariants(&g, &sharded);
        }
    }

    #[test]
    fn invariants_hold_over_the_generator_corpus() {
        // One twin of every generator family (scale-free, web, road, mesh…).
        for rep in crate::corpus::representatives_small() {
            let g = rep.recipe.build();
            for k in [2, 4] {
                let sharded = ShardedCsr::partition(&g, k).unwrap();
                check_invariants(&g, &sharded);
            }
        }
    }

    #[test]
    fn zero_shards_rejected_and_oversharding_clamped() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2)]).build();
        assert!(ShardedCsr::partition(&g, 0).is_err());
        let sharded = ShardedCsr::partition(&g, 64).unwrap();
        assert_eq!(sharded.k(), 3, "k clamps to the vertex count");
        check_invariants(&g, &sharded);
    }

    #[test]
    fn single_shard_is_the_whole_graph_with_no_halo() {
        let g = gen::grid2d(8, 8, 0.0, 1);
        let sharded = ShardedCsr::partition(&g, 1).unwrap();
        let s = sharded.shard(0);
        assert_eq!(s.n_owned(), g.num_vertices());
        assert_eq!(s.n_halo(), 0);
        assert_eq!(s.cut_edges(), 0);
        assert_eq!(s.graph().num_edges(), g.num_edges());
        assert_eq!(sharded.edge_imbalance(), 1.0);
    }

    #[test]
    fn weights_travel_with_their_edges() {
        let g = gen::with_random_weights(&gen::kronecker(7, 6, 5), 32, 11);
        let sharded = ShardedCsr::partition(&g, 3).unwrap();
        let gw = g.out_weights().unwrap();
        let gcsr = g.out_csr();
        for s in sharded.shards() {
            let lw = s.graph().out_weights().unwrap();
            let lcsr = s.graph().out_csr();
            for lu in 0..s.n_owned() as VertexId {
                let gu = s.to_global(lu);
                let lr = lcsr.edge_range(lu);
                let gr = gcsr.edge_range(gu);
                assert_eq!(&lw[lr], &gw[gr], "weights of vertex {gu} diverged");
            }
        }
    }

    #[test]
    fn edge_balance_is_reasonable_on_skewed_graphs() {
        let g = gen::kronecker(9, 10, 7);
        let sharded = ShardedCsr::partition(&g, 4).unwrap();
        // A greedy contiguous cut cannot be perfect, but it must not
        // degenerate into one shard holding everything.
        assert!(sharded.edge_imbalance() < 2.5, "imbalance {} too high", sharded.edge_imbalance());
        for s in sharded.shards() {
            assert!(s.n_owned() > 0, "shard {} owns nothing", s.id());
        }
    }

    #[test]
    fn per_shard_stats_describe_the_local_csr() {
        let g = gen::kronecker(8, 8, 3);
        let sharded = ShardedCsr::partition(&g, 4).unwrap();
        for s in sharded.shards() {
            assert_eq!(s.stats().num_vertices, s.n_local());
            assert_eq!(s.stats().num_edges, s.graph().num_edges());
        }
        let edge_sum: usize = sharded.shards().iter().map(|s| s.graph().num_edges()).sum();
        assert_eq!(edge_sum, g.num_edges());
    }

    #[test]
    fn owner_of_matches_boundaries() {
        let g = gen::erdos_renyi(200, 800, 9);
        let sharded = ShardedCsr::partition(&g, 5).unwrap();
        for v in 0..g.num_vertices() as VertexId {
            let o = sharded.owner_of(v);
            assert!(sharded.shard(o).owner_range().contains(&v));
        }
    }
}
