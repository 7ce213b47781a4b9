//! Graph transformation: vertex permutation. A permuted graph has the
//! same structure under new ids, which is what the fingerprint must tell
//! apart from the original.

use crate::{Graph, GraphBuilder, VertexId};

/// Apply a vertex permutation: `perm[old] = new`. Weights follow their
/// edges. The permutation must be a bijection on `0..n`.
///
/// # Panics
/// Panics when `perm` is not a permutation of the vertex set.
pub fn permute(g: &Graph, perm: &[VertexId]) -> Graph {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation arity mismatch");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!((p as usize) < n && !seen[p as usize], "not a permutation");
        seen[p as usize] = true;
    }

    let csr = g.out_csr();
    let ws = g.out_weights();
    let mut b = GraphBuilder::with_capacity(n, g.num_edges());
    let b_ref = &mut b;
    for u in 0..n as VertexId {
        let r = csr.edge_range(u);
        for (i, &v) in csr.neighbors(u).iter().enumerate() {
            let (nu, nv) = (perm[u as usize], perm[v as usize]);
            match ws {
                Some(ws) => b_ref.push_weighted_edge(nu, nv, ws[r.start + i]),
                None => b_ref.push_edge(nu, nv),
            }
        }
    }
    // The input already stores both directions of every undirected edge;
    // re-symmetrizing would be redundant (dedup keeps it correct) but
    // directed graphs must stay directed.
    let b = b.symmetric(g.is_symmetric()).dedup(true).drop_self_loops(false);
    b.name(format!("{}-perm", g.name())).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn permutation_preserves_structure() {
        let g = gen::erdos_renyi(60, 200, 5);
        let perm: Vec<u32> = (0..60u32).map(|v| (v + 17) % 60).collect();
        let gp = permute(&g, &perm);
        assert_eq!(gp.num_vertices(), g.num_vertices());
        assert_eq!(gp.num_edges(), g.num_edges());
        // Degrees move with the permutation.
        for v in 0..60u32 {
            assert_eq!(g.out_degree(v), gp.out_degree(perm[v as usize]));
        }
        // Global statistics are permutation-invariant.
        assert_eq!(g.stats().gini, gp.stats().gini);
        assert_eq!(g.stats().max_degree, gp.stats().max_degree);
    }

    #[test]
    fn permutation_preserves_adjacency() {
        let g = gen::barabasi_albert(50, 3, 2);
        let perm: Vec<u32> = (0..50u32).rev().collect();
        let gp = permute(&g, &perm);
        for u in 0..50u32 {
            let mut want: Vec<u32> =
                g.out_csr().neighbors(u).iter().map(|&v| perm[v as usize]).collect();
            want.sort_unstable();
            assert_eq!(gp.out_csr().neighbors(perm[u as usize]), &want[..]);
        }
    }

    #[test]
    fn permutation_carries_weights() {
        let g = gen::with_random_weights(&gen::erdos_renyi(40, 100, 1), 16, 3);
        let perm: Vec<u32> = (0..40u32).map(|v| (v + 7) % 40).collect();
        let gp = permute(&g, &perm);
        assert!(gp.is_weighted());
        // Pick an edge and chase its weight through the permutation.
        let u = (0..40u32).find(|&v| g.out_degree(v) > 0).unwrap();
        let v = g.out_csr().neighbors(u)[0];
        let w = g.out_weights().unwrap()[g.out_csr().edge_range(u).start];
        let (nu, nv) = (perm[u as usize], perm[v as usize]);
        let pos = gp.out_csr().neighbors(nu).iter().position(|&x| x == nv).unwrap();
        let w2 = gp.out_weights().unwrap()[gp.out_csr().edge_range(nu).start + pos];
        assert_eq!(w, w2);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_bijection() {
        let g = gen::erdos_renyi(10, 20, 1);
        permute(&g, &[0; 10]);
    }
}
