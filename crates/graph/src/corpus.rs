//! Deterministic graph corpus standing in for networkrepository.com.
//!
//! The paper randomly chooses 1,288 graphs, splits them into a 644-graph
//! training set and a 644-graph evaluation set (no overlap), and separately
//! analyses ten "representative" graphs (Table 2). We reproduce that shape
//! with recipes: lazily-built, seeded generator invocations spanning the
//! same five domains. Training and evaluation sets use disjoint seed ranges
//! so they share no graph.
//!
//! The ten representative graphs are reproduced as *scaled topological
//! twins*: the same domain, degree profile, and skew class, at ~1/8 the
//! vertex count so CPU-side brute-force labelling stays tractable (the
//! per-graph scale factor is part of the recipe and recorded in
//! EXPERIMENTS.md).

use crate::gen;
use crate::Graph;
use serde::{Deserialize, Serialize};

/// Dataset domain tags from Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// SN — social networks (power-law, hubs, small diameter).
    SocialNetwork,
    /// WG — web graphs (power-law plus locality).
    WebGraph,
    /// GG — generated graphs (Kronecker, random geometric).
    Generated,
    /// RN — road networks (bounded degree, huge diameter).
    RoadNetwork,
    /// SC — scientific-computing meshes (near-regular stencils).
    Scientific,
}

impl Domain {
    /// Short tag used in dataset names ("SN", "WG", ...).
    pub fn tag(self) -> &'static str {
        match self {
            Domain::SocialNetwork => "SN",
            Domain::WebGraph => "WG",
            Domain::Generated => "GG",
            Domain::RoadNetwork => "RN",
            Domain::Scientific => "SC",
        }
    }
}

/// A lazily-buildable graph description. Recipes are tiny, hashable, and
/// serializable, so experiment manifests can reference graphs without
/// materializing them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant fields are the generators' own parameter names
pub enum Recipe {
    /// Erdős–Rényi G(n, m).
    ErdosRenyi { n: usize, m: usize, seed: u64 },
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert { n: usize, m_per_vertex: usize, seed: u64 },
    /// Graph500 Kronecker.
    Kronecker { scale: u32, edge_factor: usize, seed: u64 },
    /// Web-graph copying model.
    CopyingModel { n: usize, out_deg: usize, copy_prob: f64, seed: u64 },
    /// Road-like defected grid.
    Grid2d { rows: usize, cols: usize, defect: f64, seed: u64 },
    /// Random geometric graph.
    Rgg { n: usize, radius: f64, seed: u64 },
    /// Banded FEM-like mesh.
    Banded { n: usize, half_band: usize, dropout: f64, seed: u64 },
    /// Watts–Strogatz small world.
    SmallWorld { n: usize, k: usize, beta: f64, seed: u64 },
    /// Single-hub star.
    Star { n: usize },
}

impl Recipe {
    /// Materialize the graph. Deterministic: equal recipes produce equal
    /// graphs.
    pub fn build(&self) -> Graph {
        match *self {
            Recipe::ErdosRenyi { n, m, seed } => gen::erdos_renyi(n, m, seed),
            Recipe::BarabasiAlbert { n, m_per_vertex, seed } => {
                gen::barabasi_albert(n, m_per_vertex, seed)
            }
            Recipe::Kronecker { scale, edge_factor, seed } => {
                gen::kronecker(scale, edge_factor, seed)
            }
            Recipe::CopyingModel { n, out_deg, copy_prob, seed } => {
                gen::copying_model(n, out_deg, copy_prob, seed)
            }
            Recipe::Grid2d { rows, cols, defect, seed } => gen::grid2d(rows, cols, defect, seed),
            Recipe::Rgg { n, radius, seed } => gen::rgg(n, radius, seed),
            Recipe::Banded { n, half_band, dropout, seed } => {
                gen::banded(n, half_band, dropout, seed)
            }
            Recipe::SmallWorld { n, k, beta, seed } => gen::small_world(n, k, beta, seed),
            Recipe::Star { n } => gen::star(n),
        }
    }

    /// The domain a recipe belongs to.
    pub fn domain(&self) -> Domain {
        match self {
            Recipe::BarabasiAlbert { .. } => Domain::SocialNetwork,
            Recipe::CopyingModel { .. } | Recipe::SmallWorld { .. } => Domain::WebGraph,
            Recipe::Kronecker { .. } | Recipe::ErdosRenyi { .. } | Recipe::Star { .. } => {
                Domain::Generated
            }
            Recipe::Grid2d { .. } => Domain::RoadNetwork,
            Recipe::Rgg { .. } | Recipe::Banded { .. } => Domain::Scientific,
        }
    }
}

/// Number of graphs in each of the training and evaluation sets,
/// matching §5.1 ("Half of them (644) were used as the training set").
pub const SET_SIZE: usize = 644;

/// The 644-recipe training set (seeds 10_000+).
pub fn training_set() -> Vec<Recipe> {
    corpus_half(10_000)
}

/// The 644-recipe evaluation set (seeds 20_000+; disjoint from training).
pub fn evaluation_set() -> Vec<Recipe> {
    corpus_half(20_000)
}

/// One half of the corpus: SET_SIZE recipes cycling through nine family
/// templates with geometrically growing sizes, so each family spans tiny
/// (hundreds of vertices) to moderate (tens of thousands) graphs.
fn corpus_half(seed_base: u64) -> Vec<Recipe> {
    let mut v = Vec::with_capacity(SET_SIZE);
    let mut i = 0usize;
    while v.len() < SET_SIZE {
        let seed = seed_base + i as u64;
        // Size class: 9 steps from ~2^9 to ~2^17 vertices.
        let cls = (i / 9) % 9;
        let n = 1usize << (9 + cls);
        let fam = i % 9;
        // Degree ranges deliberately stretch to the dense end (avg degree
        // up to ~80): the Table 2 twins include dense web crawls and
        // social graphs, and tree classifiers only interpolate — the
        // corpus must cover the density envelope they will be asked about.
        let r = match fam {
            0 => Recipe::ErdosRenyi { n, m: n * (2 + 2 * cls), seed },
            1 => Recipe::BarabasiAlbert { n, m_per_vertex: 2 + (cls * 2) % 13, seed },
            2 => {
                Recipe::Kronecker { scale: (9 + cls) as u32, edge_factor: 4 + 3 * (cls % 6), seed }
            }
            3 => Recipe::CopyingModel { n, out_deg: 3 + (cls * 6) % 41, copy_prob: 0.5, seed },
            4 => {
                let side = (n as f64).sqrt() as usize;
                Recipe::Grid2d { rows: side, cols: side, defect: 0.02 + 0.01 * (cls as f64), seed }
            }
            5 => Recipe::Rgg { n, radius: (8.0 / (std::f64::consts::PI * n as f64)).sqrt(), seed },
            6 => Recipe::Banded { n, half_band: 4 + 4 * (cls % 5), dropout: 0.1, seed },
            7 => {
                Recipe::SmallWorld { n, k: 2 + cls % 4, beta: 0.05 + 0.05 * (cls % 4) as f64, seed }
            }
            // Star carries no seed, so make n unique per (set, index):
            // seed_base/10 differs between the training (1000+) and
            // evaluation (2000+) halves.
            _ => Recipe::Star { n: seed_base as usize / 10 + i },
        };
        v.push(r);
        i += 1;
    }
    v
}

/// A Table 2 representative graph, reproduced as a scaled twin.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Representative {
    /// Paper dataset name (e.g. "soc-orkut").
    pub paper_name: &'static str,
    /// Domain tag.
    pub domain: Domain,
    /// Vertex-count scale factor versus the paper's dataset (paper / twin).
    pub scale_factor: f64,
    /// The twin recipe.
    pub recipe: Recipe,
}

/// The ten Table 2 graphs as scaled twins, in table order.
pub fn representatives() -> Vec<Representative> {
    use Domain::*;
    vec![
        Representative {
            paper_name: "soc-orkut",
            domain: SocialNetwork,
            scale_factor: 16.0,
            // 3M/212.7M, max-degree 27k: heavy dense social network.
            recipe: Recipe::BarabasiAlbert { n: 190_000, m_per_vertex: 16, seed: 42 },
        },
        Representative {
            paper_name: "soc-pokec",
            domain: SocialNetwork,
            scale_factor: 16.0,
            // 1.6M/61M.
            recipe: Recipe::BarabasiAlbert { n: 100_000, m_per_vertex: 9, seed: 43 },
        },
        Representative {
            paper_name: "web-uk-2005",
            domain: WebGraph,
            scale_factor: 4.0,
            // 129K/23M: dense web crawl, avg degree ~178, bounded max 850.
            recipe: Recipe::CopyingModel { n: 32_000, out_deg: 40, copy_prob: 0.7, seed: 44 },
        },
        Representative {
            paper_name: "web-wikipedia-2009",
            domain: WebGraph,
            scale_factor: 16.0,
            // 1.8M/9M: sparse web graph.
            recipe: Recipe::CopyingModel { n: 112_000, out_deg: 3, copy_prob: 0.5, seed: 45 },
        },
        Representative {
            paper_name: "kron_g500-log21",
            domain: Generated,
            scale_factor: 8.0,
            // 2.1M/182.1M, extreme hub (213k): Graph500 Kronecker.
            recipe: Recipe::Kronecker { scale: 18, edge_factor: 22, seed: 46 },
        },
        Representative {
            paper_name: "rgg_n_2_24",
            domain: Generated,
            scale_factor: 64.0,
            // 16.8M/265.1M, max degree 40.
            recipe: Recipe::Rgg { n: 262_144, radius: 0.00437, seed: 47 },
        },
        Representative {
            paper_name: "roadNet-CA",
            domain: RoadNetwork,
            scale_factor: 8.0,
            // 1.9M/5.5M.
            recipe: Recipe::Grid2d { rows: 500, cols: 480, defect: 0.06, seed: 48 },
        },
        Representative {
            paper_name: "roadNet-TX",
            domain: RoadNetwork,
            scale_factor: 8.0,
            // 1.4M/3.8M.
            recipe: Recipe::Grid2d { rows: 430, cols: 410, defect: 0.06, seed: 49 },
        },
        Representative {
            paper_name: "sc-msdoor",
            domain: Scientific,
            scale_factor: 8.0,
            // 415K/19.8M, degree ~48, max 76.
            recipe: Recipe::Banded { n: 52_000, half_band: 24, dropout: 0.08, seed: 50 },
        },
        Representative {
            paper_name: "sc-ldoor",
            domain: Scientific,
            scale_factor: 8.0,
            // 952K/42M.
            recipe: Recipe::Banded { n: 119_000, half_band: 24, dropout: 0.05, seed: 51 },
        },
    ]
}

/// Twins of the two motivation graphs of Fig. 1 and the Fig. 3 graph.
pub fn motivation_graphs() -> Vec<Representative> {
    vec![
        Representative {
            paper_name: "com-youtube",
            domain: Domain::SocialNetwork,
            scale_factor: 8.0,
            // 1.1M/3M sparse social graph, diameter ~13.
            recipe: Recipe::BarabasiAlbert { n: 140_000, m_per_vertex: 2, seed: 52 },
        },
        Representative {
            paper_name: "hollywood-2009",
            domain: Domain::SocialNetwork,
            scale_factor: 16.0,
            // 1.1M/113M dense collaboration network.
            recipe: Recipe::BarabasiAlbert { n: 70_000, m_per_vertex: 28, seed: 53 },
        },
    ]
}

/// Look up a representative (or motivation) twin by paper name.
pub fn twin(paper_name: &str) -> Option<Representative> {
    representatives().into_iter().chain(motivation_graphs()).find(|r| r.paper_name == paper_name)
}

/// Reduced-size variants of the representative twins (a further ÷8) used by
/// integration tests and quick smoke runs of the harness.
pub fn representatives_small() -> Vec<Representative> {
    representatives()
        .into_iter()
        .map(|mut r| {
            r.scale_factor *= 8.0;
            r.recipe = shrink(&r.recipe, 8);
            r
        })
        .collect()
}

/// Shrink a recipe's vertex count by `factor`, preserving its shape class.
fn shrink(r: &Recipe, factor: usize) -> Recipe {
    match *r {
        Recipe::ErdosRenyi { n, m, seed } => {
            Recipe::ErdosRenyi { n: (n / factor).max(16), m: (m / factor).max(32), seed }
        }
        Recipe::BarabasiAlbert { n, m_per_vertex, seed } => {
            Recipe::BarabasiAlbert { n: (n / factor).max(m_per_vertex * 2 + 2), m_per_vertex, seed }
        }
        Recipe::Kronecker { scale, edge_factor, seed } => Recipe::Kronecker {
            scale: scale.saturating_sub(factor.trailing_zeros()).max(6),
            edge_factor,
            seed,
        },
        Recipe::CopyingModel { n, out_deg, copy_prob, seed } => {
            Recipe::CopyingModel { n: (n / factor).max(out_deg * 2 + 2), out_deg, copy_prob, seed }
        }
        Recipe::Grid2d { rows, cols, defect, seed } => {
            let s = (factor as f64).sqrt();
            Recipe::Grid2d {
                rows: ((rows as f64 / s) as usize).max(4),
                cols: ((cols as f64 / s) as usize).max(4),
                defect,
                seed,
            }
        }
        Recipe::Rgg { n, radius, seed } => {
            Recipe::Rgg { n: (n / factor).max(64), radius: radius * (factor as f64).sqrt(), seed }
        }
        Recipe::Banded { n, half_band, dropout, seed } => {
            Recipe::Banded { n: (n / factor).max(half_band * 2 + 2), half_band, dropout, seed }
        }
        Recipe::SmallWorld { n, k, beta, seed } => {
            Recipe::SmallWorld { n: (n / factor).max(2 * k + 2), k, beta, seed }
        }
        Recipe::Star { n } => Recipe::Star { n: (n / factor).max(8) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sets_have_644_disjoint_recipes() {
        let tr = training_set();
        let ev = evaluation_set();
        assert_eq!(tr.len(), SET_SIZE);
        assert_eq!(ev.len(), SET_SIZE);
        let tr_names: HashSet<String> = tr.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(tr_names.len(), SET_SIZE, "duplicate training recipes");
        for e in &ev {
            assert!(!tr_names.contains(&format!("{e:?}")), "overlap: {e:?}");
        }
    }

    #[test]
    fn training_set_covers_all_domains() {
        let domains: HashSet<Domain> = training_set().iter().map(|r| r.domain()).collect();
        assert_eq!(domains.len(), 5);
    }

    #[test]
    fn small_recipes_build_quickly_and_deterministically() {
        // Build the first 9 (one per family) and the smallest size class.
        for r in training_set().iter().take(9) {
            let g1 = r.build();
            let g2 = r.build();
            assert_eq!(g1.out_csr(), g2.out_csr(), "{r:?} not deterministic");
            assert!(g1.num_vertices() >= 16);
        }
    }

    #[test]
    fn ten_representatives_in_table_order() {
        let reps = representatives();
        assert_eq!(reps.len(), 10);
        assert_eq!(reps[0].paper_name, "soc-orkut");
        assert_eq!(reps[9].paper_name, "sc-ldoor");
        assert_eq!(reps[6].domain, Domain::RoadNetwork);
    }

    #[test]
    fn twin_lookup() {
        assert!(twin("soc-orkut").is_some());
        assert!(twin("com-youtube").is_some());
        assert!(twin("nope").is_none());
    }

    #[test]
    fn small_representatives_match_profile() {
        for r in representatives_small() {
            let g = r.recipe.build();
            assert!(g.num_vertices() < 40_000, "{} too big: {}", r.paper_name, g.num_vertices());
            match r.domain {
                Domain::RoadNetwork => assert!(g.stats().gini < 0.25),
                Domain::SocialNetwork => assert!(g.stats().gini > 0.2),
                Domain::Scientific => assert!(g.stats().gini < 0.3),
                _ => {}
            }
        }
    }
}
