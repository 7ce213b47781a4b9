//! Corpus labelling shared by the `train` binary and the Fig. 12 /
//! accuracy experiments: run the brute-force oracle for all five
//! benchmarks over (a stride of) the training corpus.

use crate::runners::{prepare, source_of, Algo};
use gswitch_algos::{Bfs, Cc, PageRank, Sssp};
use gswitch_core::oracle::{oracle_run, OracleOptions};
use gswitch_graph::corpus;
use gswitch_ml::FeatureDb;
use gswitch_simt::DeviceSpec;

/// Label every `stride`-th training-set graph with all five benchmarks on
/// `device`. `stride = 1` reproduces the paper's full 644-graph pass.
pub fn label_training_subset(stride: usize, device: &DeviceSpec) -> FeatureDb {
    let recipes: Vec<_> = corpus::training_set().into_iter().step_by(stride.max(1)).collect();
    let opts = OracleOptions { device: device.clone(), max_iterations: 10_000 };

    // Per graph: one part each.
    let all = gswitch_pool::parts(recipes.len(), |i| {
        let g = recipes[i].build();
        let mut records = Vec::new();
        for algo in Algo::ALL {
            let ga = prepare(&g, algo);
            let src = source_of(&ga);
            let out = match algo {
                Algo::Bfs => {
                    let app = Bfs::new(ga.num_vertices(), src);
                    oracle_run(&ga, &app, "bfs", &opts)
                }
                Algo::Cc => {
                    let app = Cc::new(ga.num_vertices());
                    oracle_run(&ga, &app, "cc", &opts)
                }
                Algo::Pr => {
                    let app = PageRank::new(&ga, crate::runners::PR_TOL);
                    oracle_run(&ga, &app, "pr", &opts)
                }
                Algo::Sssp => {
                    let app = Sssp::new(&ga, src);
                    oracle_run(&ga, &app, "sssp", &opts)
                }
                Algo::Bc => {
                    // Label the forward phase (the expensive one).
                    let app = gswitch_algos::bc::BcForward::new(ga.num_vertices(), src);
                    oracle_run(&ga, &app, "bc", &opts)
                }
            };
            records.extend(out.records);
        }
        records
    });

    let mut db = FeatureDb::new();
    for r in all {
        db.records.extend(r);
    }
    db
}

/// Load a cached labelling, or compute and cache it. The cache key
/// encodes the stride and device so mixed runs never collide.
pub fn cached_labels(stride: usize, device: &DeviceSpec) -> FeatureDb {
    let path = crate::results_dir().join(format!(
        "feature_db_v{}_stride{}_{}.json",
        gswitch_simt::COST_MODEL_VERSION,
        stride,
        device.name
    ));
    if let Ok(db) = FeatureDb::load(&path) {
        if !db.is_empty() {
            return db;
        }
    }
    let db = label_training_subset(stride, device);
    let _ = db.save(&path);
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_benchmarks() {
        // Huge stride → a handful of small graphs; fast.
        let db = label_training_subset(200, &DeviceSpec::k40m());
        assert!(!db.is_empty());
        let benches: std::collections::HashSet<_> =
            db.records.iter().map(|r| r.benchmark.as_str()).collect();
        for b in ["bfs", "cc", "pr", "sssp", "bc"] {
            assert!(benches.contains(b), "missing {b}");
        }
        // SSSP records carry stepping labels; BFS records do not.
        assert!(db
            .records
            .iter()
            .filter(|r| r.benchmark == "sssp")
            .any(|r| r.labels.stepping.is_some()));
        assert!(db
            .records
            .iter()
            .filter(|r| r.benchmark == "bfs")
            .all(|r| r.labels.stepping.is_none()));
    }
}
