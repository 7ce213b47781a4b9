//! Synthetic graph generators.
//!
//! The paper trains and evaluates on 1,288 real graphs spanning five domains
//! (Table 2): social networks, web graphs, generated graphs, road networks,
//! and scientific-computing meshes. We cannot redistribute
//! networkrepository.com, so each domain gets a parameterized generator
//! whose outputs cover the same topology-statistic ranges the model keys on
//! (degree Gini, entropy, skew, diameter class, hub presence):
//!
//! | Domain | Generator | Character |
//! |---|---|---|
//! | SN social  | [`barabasi_albert`], [`rmat`] | power-law, hubs, small diameter |
//! | WG web     | [`rmat`] (skewed), [`copying_model`] | power-law + locality |
//! | GG generated | [`rmat`] (kron_g500 params), [`rgg`] | synthetic benchmarks |
//! | RN road    | [`grid2d`] | bounded degree, huge diameter |
//! | SC scientific | [`banded`] | near-regular stencil meshes |
//!
//! All generators are deterministic in their seed.

use crate::{Graph, GraphBuilder, VertexId, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi G(n, m): `m` undirected edges sampled uniformly.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        b.push_edge(u, v);
    }
    b.name(format!("er-{n}-{m}-s{seed}")).build()
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_per_vertex` existing vertices with probability proportional to degree.
/// Produces the hub-heavy power-law degree distribution typical of social
/// networks (soc-orkut, soc-pokec).
pub fn barabasi_albert(n: usize, m_per_vertex: usize, seed: u64) -> Graph {
    assert!(n > m_per_vertex && m_per_vertex >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    // `endpoints` holds every edge endpoint ever created; sampling an index
    // uniformly from it IS degree-proportional sampling.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m_per_vertex);
    let mut b = GraphBuilder::with_capacity(n, n * m_per_vertex);
    // Seed clique over the first m_per_vertex + 1 vertices.
    for u in 0..=m_per_vertex {
        for v in (u + 1)..=m_per_vertex {
            b.push_edge(u as VertexId, v as VertexId);
            endpoints.push(u as VertexId);
            endpoints.push(v as VertexId);
        }
    }
    for u in (m_per_vertex + 1)..n {
        for _ in 0..m_per_vertex {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            b.push_edge(u as VertexId, t);
            endpoints.push(u as VertexId);
            endpoints.push(t);
        }
    }
    b.name(format!("ba-{n}-{m_per_vertex}-s{seed}")).build()
}

/// R-MAT / Kronecker generator (Graph500 style). `scale` gives `n = 2^scale`
/// vertices; `edge_factor` edges per vertex; `(a, b, c)` the recursive
/// quadrant probabilities (d = 1 − a − b − c). Graph500 uses
/// (0.57, 0.19, 0.19), giving kron_g500-like skew.
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> Graph {
    assert!((1..=30).contains(&scale));
    assert!(a + b + c < 1.0 + 1e-9, "quadrant probabilities exceed 1");
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::with_capacity(n, m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < a {
                // top-left: no bits set
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        builder.push_edge(u as VertexId, v as VertexId);
    }
    builder.name(format!("rmat-{scale}-{edge_factor}-s{seed}")).build()
}

/// Graph500 reference parameters for [`rmat`].
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed)
        .with_name(format!("kron-{scale}-{edge_factor}-s{seed}"))
}

/// Linear-preferential copying model: a new vertex copies a fraction of a
/// random prototype's links, the web-graph growth process (web-uk,
/// web-wikipedia have this mixture of hubs and locality).
pub fn copying_model(n: usize, out_deg: usize, copy_prob: f64, seed: u64) -> Graph {
    assert!(n > out_deg + 1 && out_deg >= 1);
    assert!((0.0..=1.0).contains(&copy_prob));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * out_deg);
    // adjacency so far, for copying
    let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)] // u/f index several arrays
    for u in 0..=out_deg {
        for v in 0..u {
            b.push_edge(u as VertexId, v as VertexId);
            adj[u].push(v as VertexId);
        }
    }
    for u in (out_deg + 1)..n {
        let proto = rng.gen_range(0..u);
        for k in 0..out_deg {
            let t = if rng.gen::<f64>() < copy_prob && !adj[proto].is_empty() {
                adj[proto][rng.gen_range(0..adj[proto].len())]
            } else {
                rng.gen_range(0..u) as VertexId
            };
            if t as usize != u {
                b.push_edge(u as VertexId, t);
                adj[u].push(t);
            } else if k > 0 {
                // rare self-hit: retry by uniform pick
                let t2 = rng.gen_range(0..u) as VertexId;
                b.push_edge(u as VertexId, t2);
                adj[u].push(t2);
            }
        }
    }
    b.name(format!("web-{n}-{out_deg}-s{seed}")).build()
}

/// 2-D grid with `rows × cols` vertices, 4-neighborhood, a fraction
/// `defect_prob` of lattice links removed and a sparse set of random
/// "highway" shortcuts. Reproduces the roadNet-CA profile: degree ≈ 2–4,
/// enormous diameter, near-regular distribution.
pub fn grid2d(rows: usize, cols: usize, defect_prob: f64, seed: u64) -> Graph {
    assert!(rows >= 2 && cols >= 2);
    let n = rows * cols;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols && rng.gen::<f64>() >= defect_prob {
                b.push_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows && rng.gen::<f64>() >= defect_prob {
                b.push_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    // A few *local* shortcuts (ramps) to keep the graph connected despite
    // defects. They must stay local: uniform long-range links would
    // collapse the diameter, and the huge diameter (BFS depth ~550 on
    // roadNet-CA) is exactly the property that makes road networks the
    // fusion-friendly extreme of Fig. 1/9.
    let shortcuts = (n / 400).max(1);
    let reach = (cols / 4).max(2);
    for _ in 0..shortcuts {
        let r = rng.gen_range(0..rows);
        let c = rng.gen_range(0..cols);
        let dr = rng.gen_range(0..reach.min(rows));
        let dc = rng.gen_range(0..reach);
        let (r2, c2) = ((r + dr) % rows, (c + dc) % cols);
        if (r, c) != (r2, c2) {
            b.push_edge(id(r, c), id(r2, c2));
        }
    }
    b.name(format!("grid-{rows}x{cols}-s{seed}")).build()
}

/// Random geometric graph on the unit square: vertices connect when within
/// `radius`. Bucketed into a cell grid so generation is O(n · expected
/// degree). Matches rgg_n_2_24 (bounded degree ≈ 40, mesh-like, large
/// diameter).
pub fn rgg(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n >= 2);
    assert!(radius > 0.0 && radius < 1.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
    let cells = ((1.0 / radius).floor() as usize).max(1);
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in pts.iter().enumerate() {
        grid[cell_of(y) * cells + cell_of(x)].push(i as u32);
    }
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                    continue;
                }
                for &j in &grid[ny as usize * cells + nx as usize] {
                    if (j as usize) <= i {
                        continue; // count each pair once
                    }
                    let (px, py) = pts[j as usize];
                    let (ddx, ddy) = (px - x, py - y);
                    if ddx * ddx + ddy * ddy <= r2 {
                        b.push_edge(i as VertexId, j);
                    }
                }
            }
        }
    }
    b.name(format!("rgg-{n}-s{seed}")).build()
}

/// Banded "stencil" graph: vertex `i` links to `i ± 1 .. i ± half_band`,
/// with a small dropout. This is the profile of assembled FEM matrices such
/// as sc-msdoor / sc-ldoor: near-constant degree, very low Gini.
pub fn banded(n: usize, half_band: usize, dropout: f64, seed: u64) -> Graph {
    assert!(n > half_band && half_band >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * half_band);
    for u in 0..n {
        for k in 1..=half_band {
            if u + k < n && rng.gen::<f64>() >= dropout {
                b.push_edge(u as VertexId, (u + k) as VertexId);
            }
        }
    }
    b.name(format!("band-{n}-{half_band}-s{seed}")).build()
}

/// Star graph: vertex 0 is a hub adjacent to all others — the extreme
/// hub-imbalance stress case for the STRICT load balancer.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    GraphBuilder::new(n).edges((1..n as VertexId).map(|i| (0, i))).name(format!("star-{n}")).build()
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side, each edge rewired with probability `beta`.
pub fn small_world(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(n > 2 * k && k >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * k);
    for u in 0..n {
        for j in 1..=k {
            let mut v = (u + j) % n;
            if rng.gen::<f64>() < beta {
                v = rng.gen_range(0..n);
                if v == u {
                    v = (u + 1) % n;
                }
            }
            b.push_edge(u as VertexId, v as VertexId);
        }
    }
    b.name(format!("sw-{n}-{k}-s{seed}")).build()
}

/// Attach uniformly random integer weights in `1..=max_w` to an existing
/// graph, deterministic per (graph topology, seed). An edge's weight is a
/// hash of its unordered endpoint pair, so symmetric edges get the same
/// weight in both directions without storing a map.
///
/// The twin is the same slots plus a weight array: it shares `g`'s out-
/// and in-CSR (`Arc` clones) and its stats, and costs O(m) for the
/// weights alone. Every graph [`GraphBuilder`] or [`crate::io`] produces
/// (rows sorted, no parallel edges, no self loops) comes out exactly as a
/// rebuild of its weighted edge list would; any other input keeps its own
/// slots, self loops and parallel edges included — it is not
/// canonicalized.
pub fn with_random_weights(g: &Graph, max_w: Weight, seed: u64) -> Graph {
    assert!(max_w >= 1);
    let weight = |u: VertexId, v: VertexId| {
        let (a, z) = if u <= v { (u, v) } else { (v, u) };
        let h = splitmix64(seed ^ ((a as u64) << 32 | z as u64));
        1 + (h % max_w as u64) as Weight
    };
    g.reweighted(weight, format!("{}-w{max_w}", g.name()))
}

/// SplitMix64: tiny statelss mixer used for symmetric weight assignment.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_has_requested_shape() {
        let g = erdos_renyi(100, 300, 1);
        assert_eq!(g.num_vertices(), 100);
        // Symmetrized & deduped: strictly fewer than 600 but most survive.
        assert!(g.num_edges() > 400 && g.num_edges() <= 600);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(erdos_renyi(50, 100, 7).out_csr(), erdos_renyi(50, 100, 7).out_csr());
        assert_eq!(kronecker(8, 8, 3).out_csr(), kronecker(8, 8, 3).out_csr());
        assert_ne!(erdos_renyi(50, 100, 7).out_csr(), erdos_renyi(50, 100, 8).out_csr());
    }

    #[test]
    fn ba_is_hubby() {
        let g = barabasi_albert(2000, 4, 11);
        let s = g.stats();
        assert!(s.gini > 0.3, "BA should be unequal, gini={}", s.gini);
        assert!(s.max_degree > 20);
    }

    #[test]
    fn kron_is_more_skewed_than_er() {
        let k = kronecker(11, 8, 5);
        let e = erdos_renyi(2048, 2048 * 8, 5);
        assert!(k.stats().gini > e.stats().gini + 0.2);
    }

    #[test]
    fn grid_is_near_regular_low_gini() {
        let g = grid2d(50, 50, 0.05, 2);
        let s = g.stats();
        assert!(s.gini < 0.2, "grid gini={}", s.gini);
        assert!(s.max_degree <= 6);
        assert!(s.avg_degree > 2.0);
    }

    #[test]
    fn rgg_degree_bounded() {
        let g = rgg(2000, 0.05, 9);
        let s = g.stats();
        // Expected degree ≈ nπr² ≈ 15.7; max should stay modest.
        assert!(s.avg_degree > 4.0 && s.avg_degree < 40.0);
        assert!(s.gini < 0.35);
    }

    #[test]
    fn banded_is_regular() {
        let g = banded(1000, 24, 0.1, 4);
        let s = g.stats();
        assert!(s.gini < 0.1, "banded gini={}", s.gini);
        assert!((s.avg_degree - 43.2).abs() < 4.0, "avg={}", s.avg_degree);
    }

    #[test]
    fn star_is_the_extreme() {
        let g = star(500);
        assert_eq!(g.out_degree(0), 499);
        // Half of the degree mass sits on the hub: Gini ≈ 0.5 exactly.
        assert!((g.stats().gini - 0.5).abs() < 0.01, "gini={}", g.stats().gini);
    }

    #[test]
    fn small_world_connected_ring_backbone() {
        let g = small_world(300, 3, 0.1, 6);
        assert!(g.stats().avg_degree >= 4.0);
    }

    #[test]
    fn weights_symmetric_and_in_range() {
        let g = with_random_weights(&erdos_renyi(80, 200, 3), 64, 99);
        assert!(g.is_weighted());
        let csr = g.out_csr();
        let w = g.out_weights().unwrap();
        for u in 0..g.num_vertices() as VertexId {
            let r = csr.edge_range(u);
            for (idx, &v) in csr.neighbors(u).iter().enumerate() {
                let wu = w[r.start + idx];
                assert!((1..=64).contains(&wu));
                // find reverse edge weight
                let rv = csr.edge_range(v);
                let pos = csr.neighbors(v).iter().position(|&x| x == u).unwrap();
                assert_eq!(w[rv.start + pos], wu, "asymmetric weight {u}-{v}");
            }
        }
    }

    #[test]
    fn rmat_rejects_bad_probabilities() {
        let r = std::panic::catch_unwind(|| rmat(4, 2, 0.6, 0.3, 0.3, 1));
        assert!(r.is_err());
    }
}
