//! Property-based tests of the edge-cut partitioner: the invariants the
//! sharded driver's correctness rests on, checked over arbitrary edge
//! lists and shard counts.

use gswitch_graph::shard::ShardedCsr;
use gswitch_graph::{GraphBuilder, VertexId};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..64).prop_flat_map(|n| {
        let e = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(e, 0..200))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every global edge lands in exactly one shard — the shard owning
    /// its source — and no shard invents edges. Checked as a multiset
    /// because the symmetrized builder can produce parallel edges.
    #[test]
    fn every_edge_in_exactly_one_shard((n, edges) in edge_list(), k in 1u32..9) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let sharded = ShardedCsr::partition(&g, k).unwrap();

        let mut global: BTreeMap<(VertexId, VertexId), usize> = BTreeMap::new();
        for u in 0..n as VertexId {
            for &v in g.out_csr().neighbors(u) {
                *global.entry((u, v)).or_insert(0) += 1;
            }
        }

        let mut sharded_edges: BTreeMap<(VertexId, VertexId), usize> = BTreeMap::new();
        for shard in sharded.shards() {
            let local = shard.graph().out_csr();
            for lu in 0..local.num_vertices() as VertexId {
                let neighbors = local.neighbors(lu);
                if !neighbors.is_empty() {
                    // Only owned vertices may carry out-edges: a halo
                    // row with edges would double-expand the vertex.
                    prop_assert!(!shard.is_halo(lu), "halo {lu} has out-edges");
                    prop_assert_eq!(sharded.owner_of(shard.to_global(lu)), shard.id());
                }
                for &lv in neighbors {
                    let e = (shard.to_global(lu), shard.to_global(lv));
                    *sharded_edges.entry(e).or_insert(0) += 1;
                }
            }
        }
        prop_assert_eq!(global, sharded_edges);
    }

    /// Local↔global renumbering round-trips in both directions, and the
    /// owned/halo split is consistent with the ownership boundaries.
    #[test]
    fn renumbering_round_trips((n, edges) in edge_list(), k in 1u32..9) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let sharded = ShardedCsr::partition(&g, k).unwrap();
        // Ownership covers the vertex space exactly once.
        let owned_total: usize = sharded.shards().iter().map(|s| s.n_owned()).sum();
        prop_assert_eq!(owned_total, n);
        for shard in sharded.shards() {
            for local in 0..shard.n_local() as VertexId {
                let global = shard.to_global(local);
                prop_assert!((global as usize) < n);
                // Round-trip through the inverse mapping.
                prop_assert_eq!(shard.to_local(global), Some(local));
                // A local id is halo iff another shard owns its global.
                prop_assert_eq!(shard.is_halo(local), sharded.owner_of(global) != shard.id());
            }
            // Globals outside this shard's knowledge don't map.
            for global in 0..n as VertexId {
                if sharded.owner_of(global) != shard.id()
                    && shard.to_local(global).is_some()
                {
                    prop_assert!(shard.halo().contains(&global));
                }
            }
        }
    }

    /// A vertex's cut degree is the number of its out-edges another
    /// shard owns the target of; it sums to the shard's cut edges and is
    /// zero on halo rows — what the sharded driver's per-vertex exchange
    /// count rests on.
    #[test]
    fn cut_degree_counts_remote_targets((n, edges) in edge_list(), k in 1u32..9) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let sharded = ShardedCsr::partition(&g, k).unwrap();
        for shard in sharded.shards() {
            let mut total = 0usize;
            for local in 0..shard.n_local() as VertexId {
                let remote = if shard.is_halo(local) {
                    0
                } else {
                    let row = g.out_csr().neighbors(shard.to_global(local));
                    row.iter().filter(|&&t| sharded.owner_of(t) != shard.id()).count()
                };
                prop_assert_eq!(shard.cut_degree(local) as usize, remote);
                total += remote;
            }
            prop_assert_eq!(total, shard.cut_edges());
        }
        let cut: usize = sharded.shards().iter().map(|s| s.cut_edges()).sum();
        prop_assert_eq!(cut, sharded.cut_edges_total());
    }

    /// Partitioning preserves the graph-level invariants the serving
    /// layer keys on: vertex count, edge count, and weights carried
    /// 1:1 with the local edges.
    #[test]
    fn totals_and_weights_survive((n, edges) in edge_list(), k in 1u32..9, wseed in 0u64..20) {
        let g0 = GraphBuilder::new(n).edges(edges).build();
        prop_assume!(g0.num_edges() > 0);
        let g = gswitch_graph::gen::with_random_weights(&g0, 15, wseed);
        let sharded = ShardedCsr::partition(&g, k).unwrap();
        prop_assert_eq!(sharded.num_vertices(), n);
        prop_assert_eq!(sharded.num_edges(), g.num_edges());
        let local_edge_total: usize =
            sharded.shards().iter().map(|s| s.graph().num_edges()).sum();
        prop_assert_eq!(local_edge_total, g.num_edges());
        for shard in sharded.shards() {
            let lg = shard.graph();
            let w = lg.out_weights().unwrap();
            prop_assert_eq!(w.len(), lg.num_edges());
            // Each local edge's weight equals the global edge's weight.
            let gw = g.out_weights().unwrap();
            let gcsr = g.out_csr();
            let lcsr = lg.out_csr();
            for lu in 0..lcsr.num_vertices() as VertexId {
                let r = lcsr.edge_range(lu);
                for (i, &lv) in lcsr.neighbors(lu).iter().enumerate() {
                    let (u, v) = (shard.to_global(lu), shard.to_global(lv));
                    let gr = gcsr.edge_range(u);
                    let pos = gcsr.neighbors(u).iter().position(|&x| x == v).unwrap();
                    prop_assert_eq!(w[r.start + i], gw[gr.start + pos]);
                }
            }
        }
    }
}
