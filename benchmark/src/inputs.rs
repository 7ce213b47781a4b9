//! Everything a workload is made from, derived from `--seed` alone:
//! graph recipes, traversal sources, request lines and batches. The
//! program under test receives only these generated inputs.
//!
//! The seed changes which sources are traversed and in what order
//! requests and batches arrive. It changes neither the graphs — they are
//! fixed twins of the paper's fixed datasets, generated from
//! [`GRAPH_SEED`] — nor how much of each kind of work a pass holds:
//! request streams and batches are seeded shuffles of a fixed multiset,
//! and sources are one per stratum of the largest component. Simulated
//! time is deterministic, so this keeps its seed-to-seed spread (4 % on
//! `engine-bulk` when the graphs were seeded too) inside a bound tight
//! enough to catch a real change.

use gswitch_algos::reference;
use gswitch_graph::corpus::Recipe;
use gswitch_graph::{Graph, VertexId};
use gswitch_shard::BatchQuery;

/// SplitMix64: the one generator every derived value comes from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so two uses of one seed
    /// never share values.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = seed ^ 0x6A09_E667_F3BC_C908;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What every graph generator seed is derived from, whatever `--seed` is.
pub const GRAPH_SEED: u64 = 2019;

/// A named graph recipe.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSpec {
    pub name: &'static str,
    pub recipe: Recipe,
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(64)
}

fn side(n: usize, scale: f64) -> usize {
    ((n as f64 * scale.sqrt()).round() as usize).max(8)
}

/// Kronecker graphs only come in powers of two: the nearest one.
fn kron_scale(base: u32, scale: f64) -> u32 {
    (f64::from(base) + scale.log2()).round().max(6.0) as u32
}

/// The five scale-free twins of Table 2 (`engine-bulk`), vertex counts
/// multiplied by `scale`.
pub fn bulk_graphs(scale: f64) -> Vec<GraphSpec> {
    let mut r = Rng::new(GRAPH_SEED, "bulk-graphs");
    vec![
        GraphSpec {
            name: "soc-dense",
            recipe: Recipe::BarabasiAlbert {
                n: scaled(95_000, scale),
                m_per_vertex: 32,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "soc-sparse",
            recipe: Recipe::BarabasiAlbert {
                n: scaled(50_000, scale),
                m_per_vertex: 9,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "web-dense",
            recipe: Recipe::CopyingModel {
                n: scaled(16_000, scale),
                out_deg: 40,
                copy_prob: 0.7,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "web-sparse",
            recipe: Recipe::CopyingModel {
                n: scaled(56_000, scale),
                out_deg: 3,
                copy_prob: 0.5,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "kron",
            recipe: Recipe::Kronecker {
                scale: kron_scale(16, scale),
                edge_factor: 22,
                seed: r.next_u64(),
            },
        },
    ]
}

/// The five high-diameter twins of Table 2 (`engine-steps`).
pub fn steps_graphs(scale: f64) -> Vec<GraphSpec> {
    let mut r = Rng::new(GRAPH_SEED, "steps-graphs");
    let rgg_n = scaled(65_536, scale);
    vec![
        GraphSpec {
            name: "rgg",
            recipe: Recipe::Rgg {
                n: rgg_n,
                // Keeps the expected degree of the full-size recipe.
                radius: 0.00874 * (65_536.0 / rgg_n as f64).sqrt(),
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "road-a",
            recipe: Recipe::Grid2d {
                rows: side(354, scale),
                cols: side(340, scale),
                defect: 0.06,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "road-b",
            recipe: Recipe::Grid2d {
                rows: side(304, scale),
                cols: side(290, scale),
                defect: 0.06,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "mesh-a",
            recipe: Recipe::Banded {
                n: scaled(13_000, scale),
                half_band: 24,
                dropout: 0.08,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "mesh-b",
            recipe: Recipe::Banded {
                n: scaled(30_000, scale),
                half_band: 24,
                dropout: 0.05,
                seed: r.next_u64(),
            },
        },
    ]
}

/// Two tiny graphs (codec, scheduler and cache are a visible share of a
/// 1–3 ms job) and two mid graphs (`serve-mixed`).
pub fn serve_graphs(scale: f64) -> Vec<GraphSpec> {
    let mut r = Rng::new(GRAPH_SEED, "serve-graphs");
    vec![
        GraphSpec {
            name: "tiny-kron",
            recipe: Recipe::Kronecker {
                scale: kron_scale(10, scale),
                edge_factor: 8,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "tiny-road",
            recipe: Recipe::Grid2d {
                rows: side(40, scale),
                cols: side(40, scale),
                defect: 0.02,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "mid-soc",
            recipe: Recipe::BarabasiAlbert {
                n: scaled(12_500, scale),
                m_per_vertex: 9,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "mid-road",
            recipe: Recipe::Grid2d {
                rows: side(172, scale),
                cols: side(172, scale),
                defect: 0.02,
                seed: r.next_u64(),
            },
        },
    ]
}

/// Small twins of a social graph, a Kronecker graph, a web graph, a road
/// grid and a banded mesh (`shard-batch`).
pub fn shard_graphs(scale: f64) -> Vec<GraphSpec> {
    let mut r = Rng::new(GRAPH_SEED, "shard-graphs");
    vec![
        GraphSpec {
            name: "soc",
            recipe: Recipe::BarabasiAlbert {
                n: scaled(24_000, scale),
                m_per_vertex: 16,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "kron",
            recipe: Recipe::Kronecker {
                scale: kron_scale(14, scale),
                edge_factor: 16,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "web",
            recipe: Recipe::CopyingModel {
                n: scaled(16_000, scale),
                out_deg: 12,
                copy_prob: 0.6,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "road",
            recipe: Recipe::Grid2d {
                rows: side(64, scale),
                cols: side(60, scale),
                defect: 0.06,
                seed: r.next_u64(),
            },
        },
        GraphSpec {
            name: "mesh",
            recipe: Recipe::Banded {
                n: scaled(6_500, scale),
                half_band: 24,
                dropout: 0.08,
                seed: r.next_u64(),
            },
        },
    ]
}

/// `count` traversal sources inside the largest component of `g`, one
/// from each of `count` equal strata of the component's vertices ordered
/// by (eccentricity estimate, degree, id).
///
/// Sources outside the big component would make a traversal a no-op. What
/// a traversal costs depends first on how many super-steps it takes — its
/// source's eccentricity, estimated as the larger distance to the two ends
/// of a double-sweep diameter path — and, where eccentricities are all
/// alike (scale-free graphs), on the source's degree. Strata on that
/// order keep the mix of central, peripheral, hub and leaf sources alike
/// from seed to seed: over ten seeds `sim_ms` spread 3.4 % on
/// `engine-bulk` with strata of ids and 5.9 % on `engine-steps` with
/// strata of degrees, against 1.5 % and 1.7 % with these.
pub fn sources(g: &Graph, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    let labels = reference::cc(g);
    let mut sizes = std::collections::BTreeMap::<u32, usize>::new();
    for &l in &labels {
        *sizes.entry(l).or_default() += 1;
    }
    let biggest = sizes.iter().max_by_key(|&(&l, &n)| (n, std::cmp::Reverse(l))).map(|(&l, _)| l);
    let mut members: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| Some(labels[v as usize]) == biggest)
        .collect();
    assert!(members.len() >= count, "largest component smaller than the source count");

    let farthest = |from: VertexId| -> (VertexId, Vec<u32>) {
        let dist = reference::bfs(g, from);
        let far = members.iter().copied().max_by_key(|&v| (dist[v as usize], v)).unwrap_or(from);
        (far, dist)
    };
    let (end_a, _) = farthest(members[0]);
    let (end_b, from_a) = farthest(end_a);
    let (_, from_b) = farthest(end_b);
    let eccentricity = |v: VertexId| from_a[v as usize].max(from_b[v as usize]);
    let (lo, hi) = members
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(eccentricity(v)), hi.max(eccentricity(v))));
    // Fewer eccentricity levels than strata (scale-free graphs): every
    // source is about as central as any other, and the degree decides.
    let by_eccentricity = (hi - lo) as usize >= count;
    members
        .sort_by_key(|&v| (if by_eccentricity { eccentricity(v) } else { 0 }, g.out_degree(v), v));

    (0..count)
        .map(|i| {
            let lo = i * members.len() / count;
            let hi = (i + 1) * members.len() / count;
            members[lo + rng.below(hi - lo)]
        })
        .collect()
}

/// The five algorithms, in the order reports list them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algo {
    Bfs,
    Cc,
    Pr,
    Sssp,
    Bc,
}

impl Algo {
    pub const ALL: [Algo; 5] = [Algo::Bfs, Algo::Cc, Algo::Pr, Algo::Sssp, Algo::Bc];

    pub fn tag(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Cc => "cc",
            Algo::Pr => "pr",
            Algo::Sssp => "sssp",
            Algo::Bc => "bc",
        }
    }

    pub fn has_source(self) -> bool {
        matches!(self, Algo::Bfs | Algo::Sssp | Algo::Bc)
    }
}

/// PageRank tolerance every workload and the baseline use.
pub const PR_EPS: f64 = 1e-3;

/// One (graph, algorithm, source) cell: the unit that is verified once
/// and that a baseline is computed for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    pub graph: usize,
    pub algo: Algo,
    /// 0 for algorithms without a source.
    pub src: VertexId,
}

/// The engine workloads' op list: on every graph BFS, SSSP and BC from
/// four sources each, then CC and PR — 70 calls on five graphs. A graph's
/// twelve sources are dealt to the three traversals in turn, so each
/// gets sources from every third stratum and no two share one: what a
/// source costs is alike under all three, and shared sources would move
/// their sum three times as far from seed to seed.
pub fn engine_ops(sources: &[Vec<VertexId>]) -> Vec<Cell> {
    let mut ops = Vec::new();
    for (graph, srcs) in sources.iter().enumerate() {
        for (k, algo) in [Algo::Bfs, Algo::Sssp, Algo::Bc].into_iter().enumerate() {
            ops.extend(srcs.iter().skip(k).step_by(3).map(|&src| Cell { graph, algo, src }));
        }
        ops.push(Cell { graph, algo: Algo::Cc, src: 0 });
        ops.push(Cell { graph, algo: Algo::Pr, src: 0 });
    }
    ops
}

/// The request line a `gswitch-serve` client would send for `cell`.
pub fn request_line(graph_name: &str, cell: Cell) -> String {
    let query = match cell.algo {
        Algo::Bfs => format!(r#"{{"Bfs":{{"src":{}}}}}"#, cell.src),
        Algo::Sssp => format!(r#"{{"Sssp":{{"src":{}}}}}"#, cell.src),
        Algo::Bc => format!(r#"{{"Bc":{{"src":{}}}}}"#, cell.src),
        Algo::Cc => r#""Cc""#.to_string(),
        Algo::Pr => format!(r#"{{"Pr":{{"eps":{PR_EPS}}}}}"#),
    };
    format!(r#"{{"cmd":"query","graph":"{graph_name}","query":{query}}}"#)
}

/// One pass of `serve-mixed`: for every algorithm `per_pair[g]` requests
/// on graph `g`, sources drawn from the graph's pool, shuffled and dealt
/// round-robin to `clients` request lists. The tiny graphs get the larger
/// share, so that the median request is a tiny-graph one and the 95th
/// percentile a mid-graph one, each inside its group and not on the gap
/// between them.
pub fn serve_requests(
    specs: &[GraphSpec],
    pools: &[Vec<VertexId>],
    per_pair: &[usize],
    clients: usize,
    rng: &mut Rng,
) -> Vec<Vec<(Cell, String)>> {
    let mut all = Vec::new();
    for (graph, pool) in pools.iter().enumerate() {
        for algo in Algo::ALL {
            // Each pair walks the pool in its own seeded order, so a pass
            // spreads its requests evenly over the pool's sources.
            let mut order = pool.clone();
            rng.shuffle(&mut order);
            for i in 0..per_pair[graph] {
                let src = if algo.has_source() { order[i % order.len()] } else { 0 };
                let cell = Cell { graph, algo, src };
                all.push((cell, request_line(specs[graph].name, cell)));
            }
        }
    }
    rng.shuffle(&mut all);
    let mut lists = vec![Vec::new(); clients];
    for (i, item) in all.into_iter().enumerate() {
        lists[i % clients].push(item);
    }
    lists
}

/// One batch of `shard-batch`: the plan it runs on and its queries.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    pub graph: usize,
    pub queries: Vec<BatchQuery>,
}

/// One pass of `shard-batch`: `per_graph` batches on every graph, the
/// graphs interleaved. Every batch holds one BFS from a pooled source,
/// one CC and one PR in seeded order, so batch latencies fall into one
/// group per graph; with five graphs the median batch lies inside the
/// middle group and the 95th percentile inside the slowest, not on a gap.
pub fn shard_batches(pools: &[Vec<VertexId>], per_graph: usize, rng: &mut Rng) -> Vec<Batch> {
    let mut batches = Vec::new();
    for _ in 0..per_graph {
        for (graph, pool) in pools.iter().enumerate() {
            let mut queries = vec![
                BatchQuery::Bfs { src: pool[rng.below(pool.len())] },
                BatchQuery::Cc,
                BatchQuery::Pr { eps: PR_EPS },
            ];
            rng.shuffle(&mut queries);
            batches.push(Batch { graph, queries });
        }
    }
    batches
}

/// The cell a batch query belongs to.
pub fn batch_cell(graph: usize, q: &BatchQuery) -> Cell {
    match *q {
        BatchQuery::Bfs { src } => Cell { graph, algo: Algo::Bfs, src },
        BatchQuery::Pr { .. } => Cell { graph, algo: Algo::Pr, src: 0 },
        BatchQuery::Cc => Cell { graph, algo: Algo::Cc, src: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_runtime::protocol::Request;
    use gswitch_runtime::Query;

    fn recipes() -> String {
        format!("{:?}", [bulk_graphs(0.3), steps_graphs(0.3), serve_graphs(1.0), shard_graphs(1.0)])
    }

    /// Pools, per-client request lists and batches derived from one seed.
    type Stream = (Vec<Vec<VertexId>>, Vec<Vec<(Cell, String)>>, Vec<Batch>);

    fn stream(seed: u64) -> Stream {
        let specs = serve_graphs(0.25);
        let mut rng = Rng::new(seed, "test");
        let pools: Vec<Vec<VertexId>> = specs
            .iter()
            .map(|s| {
                let g = s.recipe.build();
                sources(&g, 4, &mut rng)
            })
            .collect();
        let requests = serve_requests(&specs, &pools, &[4, 4, 2, 2], 2, &mut rng);
        let batches = shard_batches(&pools, 4, &mut rng);
        (pools, requests, batches)
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        assert_eq!(recipes(), recipes());
        assert_eq!(stream(12), stream(12));
        let (pools_a, requests_a, batches_a) = stream(12);
        let (pools_b, requests_b, batches_b) = stream(13);
        assert_ne!(pools_a, pools_b);
        assert_ne!(requests_a, requests_b);
        assert_ne!(batches_a, batches_b);
    }

    #[test]
    fn every_seed_holds_the_same_amount_of_each_kind_of_work() {
        for seed in [1, 2, 3] {
            let (_, requests, batches) = stream(seed);
            assert_eq!(requests.iter().map(Vec::len).collect::<Vec<_>>(), [30, 30]);
            for algo in Algo::ALL {
                let n = requests.iter().flatten().filter(|(c, _)| c.algo == algo).count();
                assert_eq!(n, 12, "{algo:?}");
            }
            assert_eq!(batches.len(), 16);
            for b in &batches {
                let mut algos: Vec<_> = b.queries.iter().map(|q| q.algo()).collect();
                algos.sort_unstable();
                assert_eq!(algos, ["bfs", "cc", "pr"]);
            }
        }
    }

    #[test]
    fn request_lines_decode_to_the_cell_they_were_made_from() {
        for (algo, src) in
            [(Algo::Bfs, 7), (Algo::Sssp, 8), (Algo::Bc, 9), (Algo::Cc, 0), (Algo::Pr, 0)]
        {
            let line = request_line("g", Cell { graph: 0, algo, src });
            let req: Request = serde_json::from_str(&line).expect("a request line parses");
            assert_eq!(req.cmd, "query");
            assert_eq!(req.graph.as_deref(), Some("g"));
            let q = req.query.expect("a query request carries a query");
            assert_eq!(q.algo(), algo.tag());
            assert_eq!(q.source(), algo.has_source().then_some(src));
            if let Query::Pr { eps } = q {
                assert_eq!(eps, PR_EPS);
            }
        }
    }

    #[test]
    fn sources_are_stratified_inside_the_largest_component() {
        // Two components: ids 0..90 connected in a path, 90..100 isolated.
        // On the path the eccentricity falls from the ends to the middle,
        // so the three strata are the middle third and, twice split, the
        // outer thirds.
        let g = gswitch_graph::GraphBuilder::new(100)
            .edges((0..89).map(|i| (i, i + 1)))
            .symmetric(true)
            .build();
        let ecc = |v: u32| v.max(89 - v);
        for seed in 0..20 {
            let picked = sources(&g, 3, &mut Rng::new(seed, "s"));
            assert_eq!(picked.len(), 3);
            assert!(picked.iter().all(|&v| v < 90), "the isolated vertices are never sources");
            assert!(ecc(picked[0]) <= ecc(picked[1]) && ecc(picked[1]) <= ecc(picked[2]));
            assert!(ecc(picked[0]) < 60 && ecc(picked[2]) >= 74, "{picked:?}");
        }
    }

    #[test]
    fn engine_op_list_is_seventy_calls_on_five_graphs() {
        let srcs = vec![(1..=12).collect::<Vec<_>>(); 5];
        let ops = engine_ops(&srcs);
        assert_eq!(ops.len(), 70);
        let of = |algo| -> Vec<u32> {
            ops.iter().filter(|c| c.graph == 0 && c.algo == algo).map(|c| c.src).collect()
        };
        assert_eq!(of(Algo::Bfs), [1, 4, 7, 10]);
        assert_eq!(of(Algo::Sssp), [2, 5, 8, 11]);
        assert_eq!(of(Algo::Bc), [3, 6, 9, 12]);
        assert_eq!(ops.iter().filter(|c| c.algo == Algo::Pr).count(), 5);
        assert_eq!(ops.iter().filter(|c| c.algo == Algo::Bc).count(), 20);
    }
}
