//! The counting-sort builder and the shared-topology weighted twin, each
//! held to the construction it replaced: a global sort of `(u, v, w)`
//! triples, and a twin rebuilt from its weighted edge list through that
//! sort.

use gswitch_graph::{gen, io, BuildReport, Csr, Graph, GraphBuilder, VertexId, Weight};
use proptest::prelude::*;

/// The triple-sort build: expand to directed `(u, v, w)` triples, sort
/// them all, dedup on `(u, v)` keeping the first (smallest) weight, then
/// count into CSR; a directed graph's transpose is scattered in triple
/// order.
fn triple_sort_build(
    n: usize,
    edges: &[(VertexId, VertexId)],
    weights: Option<&[Weight]>,
    (symmetric, dedup, drop_self_loops): (bool, bool, bool),
    name: &str,
) -> (Graph, BuildReport) {
    // As in the builder, an empty weight list is an unweighted build.
    let weights = weights.filter(|w| !w.is_empty());
    let mut report = BuildReport::default();
    let mut triples = Vec::new();
    for (i, &(u, v)) in edges.iter().enumerate() {
        if drop_self_loops && u == v {
            report.self_loops_dropped += 1;
            continue;
        }
        let w = weights.map_or(1, |w| w[i]);
        triples.push((u, v, w));
        if symmetric && u != v {
            triples.push((v, u, w));
        }
    }
    triples.sort_unstable();
    if dedup {
        let before = triples.len();
        triples.dedup_by_key(|t| (t.0, t.1));
        report.parallel_edges_deduped = before - triples.len();
    }
    let csr = |key: fn(&(VertexId, VertexId, Weight)) -> (VertexId, VertexId)| {
        let mut offsets = vec![0u64; n + 1];
        for t in &triples {
            offsets[key(t).0 as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0; triples.len()];
        let mut ws = vec![0; triples.len()];
        for t in &triples {
            let (row, target) = key(t);
            let c = &mut cursor[row as usize];
            targets[*c as usize] = target;
            ws[*c as usize] = t.2;
            *c += 1;
        }
        (Csr::new(offsets, targets), weights.is_some().then_some(ws))
    };
    let (out, out_w) = csr(|t| (t.0, t.1));
    let g = if symmetric {
        Graph::from_parts(out, None, out_w, None, name)
    } else {
        let (incoming, in_w) = csr(|t| (t.1, t.0));
        Graph::from_parts(out, Some(incoming), out_w, in_w, name)
    };
    (g, report)
}

/// The rebuilt twin: every stored edge (each undirected one once) with
/// the SplitMix64 hash of its unordered pair as weight, built again
/// through the triple sort.
fn rebuilt_twin(g: &Graph, max_w: Weight, seed: u64) -> Graph {
    let (mut edges, mut weights) = (Vec::new(), Vec::new());
    for u in 0..g.num_vertices() as VertexId {
        for &v in g.out_csr().neighbors(u) {
            if u <= v || !g.is_symmetric() {
                let (a, z) = if u <= v { (u, v) } else { (v, u) };
                let h = splitmix64(seed ^ ((a as u64) << 32 | z as u64));
                edges.push((u, v));
                weights.push(1 + (h % max_w as u64) as Weight);
            }
        }
    }
    let name = format!("{}-w{max_w}", g.name());
    let flags = (g.is_symmetric(), true, true);
    triple_sort_build(g.num_vertices(), &edges, Some(&weights), flags, &name).0
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Every observable of two graphs agrees: both CSRs, both weight arrays,
/// symmetry, stats, name and fingerprint.
fn assert_same(got: &Graph, want: &Graph, tag: &str) {
    assert_eq!(got.out_csr(), want.out_csr(), "{tag}: out-CSR");
    assert_eq!(got.in_csr(), want.in_csr(), "{tag}: in-CSR");
    assert_eq!(got.out_weights(), want.out_weights(), "{tag}: out weights");
    assert_eq!(got.in_weights(), want.in_weights(), "{tag}: in weights");
    assert_eq!(got.is_symmetric(), want.is_symmetric(), "{tag}: symmetry");
    assert_eq!(got.stats(), want.stats(), "{tag}: stats");
    assert_eq!(got.name(), want.name(), "{tag}: name");
    assert_eq!(got.fingerprint(), want.fingerprint(), "{tag}: fingerprint");
}

/// The twin equals the rebuild and holds `g`'s own CSRs.
fn assert_twin(g: &Graph, max_w: Weight, seed: u64) {
    let twin = gen::with_random_weights(g, max_w, seed);
    assert_same(&twin, &rebuilt_twin(g, max_w, seed), g.name());
    assert!(std::ptr::eq(twin.out_csr(), g.out_csr()), "{}: out-CSR copied", g.name());
    assert!(std::ptr::eq(twin.in_csr(), g.in_csr()), "{}: in-CSR copied", g.name());
}

/// Small vertex counts and up to 200 pushes, so parallel edges (with
/// differing weights) and self loops are common.
fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (1usize..40).prop_flat_map(|n| {
        let e = (0..n as u32, 0..n as u32, 1u32..6);
        (Just(n), proptest::collection::vec(e, 0..200))
    })
}

const FLAGS: [(bool, bool, bool); 8] = [
    (false, false, false),
    (false, false, true),
    (false, true, false),
    (false, true, true),
    (true, false, false),
    (true, false, true),
    (true, true, false),
    (true, true, true),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under every flag combination, weighted or not, the counting sort
    /// builds what the triple sort built: both CSRs in the same order,
    /// the same surviving parallel edge, and the same repair counts.
    #[test]
    fn counting_sort_build_equals_triple_sort((n, list) in edge_list()) {
        let edges: Vec<_> = list.iter().map(|&(u, v, _)| (u, v)).collect();
        let weights: Vec<_> = list.iter().map(|&(_, _, w)| w).collect();
        for flags @ (symmetric, dedup, drop_self_loops) in FLAGS {
            for weighted in [false, true] {
                let b = GraphBuilder::new(n)
                    .symmetric(symmetric)
                    .dedup(dedup)
                    .drop_self_loops(drop_self_loops)
                    .name("p");
                let (got, got_report) = if weighted {
                    b.weighted_edges(list.iter().copied()).build_with_report()
                } else {
                    b.edges(edges.iter().copied()).build_with_report()
                };
                let (want, want_report) =
                    triple_sort_build(n, &edges, weighted.then_some(&weights[..]), flags, "p");
                let tag = format!("flags {flags:?} weighted {weighted}");
                assert_same(&got, &want, &tag);
                prop_assert_eq!(got_report, want_report);
            }
        }
    }

    /// On a canonical input, symmetric or directed, the twin is the
    /// rebuild, sharing the input's CSRs.
    #[test]
    fn twin_of_a_built_graph_is_its_rebuild((n, list) in edge_list(), seed in 0u64..1_000) {
        for symmetric in [true, false] {
            let g = GraphBuilder::new(n)
                .symmetric(symmetric)
                .edges(list.iter().map(|&(u, v, _)| (u, v)))
                .build();
            assert_twin(&g, 31, seed);
        }
    }
}

#[test]
fn twin_of_every_generator_is_its_rebuild() {
    let graphs = [
        gen::erdos_renyi(300, 1_200, 1),
        gen::barabasi_albert(400, 4, 2),
        gen::rmat(9, 8, 0.45, 0.15, 0.15, 3),
        gen::kronecker(9, 8, 4),
        gen::copying_model(400, 5, 0.5, 5),
        gen::grid2d(20, 20, 0.05, 6),
        gen::rgg(400, 0.08, 7),
        gen::banded(400, 6, 0.1, 8),
        gen::star(300),
        gen::small_world(400, 3, 0.1, 9),
    ];
    for g in &graphs {
        assert_twin(g, 64, 0xC0FFEE);
    }
}

#[test]
fn twin_of_a_loaded_graph_is_its_rebuild() {
    // A DIMACS file with its own weights, a parallel arc and both
    // orientations of one edge: the loader canonicalizes, the twin
    // replaces the weights.
    let gr = "p sp 5 6\na 1 2 7\na 2 3 1\na 3 1 4\na 1 2 2\na 4 5 9\na 5 4 9\n";
    let g = io::load_dimacs(gr.as_bytes(), &Default::default()).unwrap().graph;
    assert!(g.is_weighted());
    assert_twin(&g, 16, 3);
}
