//! Property-based tests of the graph substrate.

use gswitch_graph::{gen, transform, GraphBuilder, VertexId};
use proptest::prelude::*;

fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..48).prop_flat_map(|n| {
        let e = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(e, 0..160))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Symmetric closure: degree(u) counts v iff degree(v) counts u, and
    /// the weight stored on both directions of an edge is identical.
    #[test]
    fn weighted_symmetry((n, edges) in edge_list(), wseed in 0u64..99) {
        let g0 = GraphBuilder::new(n).edges(edges).build();
        prop_assume!(g0.num_edges() > 0);
        let g = gen::with_random_weights(&g0, 31, wseed);
        let csr = g.out_csr();
        let w = g.out_weights().unwrap();
        for u in 0..n as u32 {
            let r = csr.edge_range(u);
            for (i, &v) in csr.neighbors(u).iter().enumerate() {
                let uv = w[r.start + i];
                let rv = csr.edge_range(v);
                let pos = csr.neighbors(v).iter().position(|&x| x == u).unwrap();
                prop_assert_eq!(uv, w[rv.start + pos]);
                prop_assert!((1..=31).contains(&uv));
            }
        }
    }

    /// Applying a permutation then its inverse reproduces the original
    /// adjacency exactly.
    #[test]
    fn permute_roundtrip((n, edges) in edge_list(), rot in 0usize..97) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let perm: Vec<VertexId> = (0..n).map(|v| ((v + rot) % n) as u32).collect();
        let mut inv = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        let back = transform::permute(&transform::permute(&g, &perm), &inv);
        prop_assert_eq!(g.out_csr(), back.out_csr());
    }

    /// Generator determinism across the whole zoo.
    #[test]
    fn generators_deterministic(seed in 0u64..50) {
        let pairs = [
            (gen::erdos_renyi(64, 128, seed), gen::erdos_renyi(64, 128, seed)),
            (gen::barabasi_albert(64, 3, seed), gen::barabasi_albert(64, 3, seed)),
            (gen::grid2d(8, 8, 0.1, seed), gen::grid2d(8, 8, 0.1, seed)),
            (gen::banded(64, 5, 0.1, seed), gen::banded(64, 5, 0.1, seed)),
            (gen::small_world(64, 2, 0.2, seed), gen::small_world(64, 2, 0.2, seed)),
        ];
        for (a, b) in pairs {
            prop_assert_eq!(a.out_csr(), b.out_csr());
        }
    }

    /// Stats invariants hold for every generator family.
    #[test]
    fn stats_bounds_across_zoo(seed in 0u64..30) {
        for g in [
            gen::erdos_renyi(100, 300, seed),
            gen::kronecker(7, 4, seed),
            gen::copying_model(100, 3, 0.5, seed),
            gen::rgg(100, 0.15, seed),
        ] {
            let s = g.stats();
            prop_assert!((0.0..1.0).contains(&s.gini), "{}: gini {}", g.name(), s.gini);
            prop_assert!((0.0..=1.0).contains(&s.entropy));
            prop_assert!(s.avg_degree >= 0.0);
            prop_assert!(s.max_degree as usize <= g.num_vertices());
        }
    }

    /// MatrixMarket writer/loader round-trip on arbitrary graphs.
    #[test]
    fn mtx_roundtrip((n, edges) in edge_list()) {
        prop_assume!(!edges.is_empty());
        let g = GraphBuilder::new(n).edges(edges).build();
        prop_assume!(g.num_edges() > 0);
        let mut buf = Vec::new();
        gswitch_graph::io::save_mtx(&g, &mut buf).unwrap();
        let g2 = gswitch_graph::io::load_mtx(buf.as_slice(), &Default::default()).unwrap().graph;
        prop_assert_eq!(g.out_csr(), g2.out_csr());
    }
}
