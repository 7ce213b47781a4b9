//! The feature database: one record per iteration (§4.4).
//!
//! "We ran all the implementations of the kernel library on 644 graphs for
//! all the benchmarks and gathered a total of 386,780 records (one record
//! for each iteration). The true optimal configurations were attained via
//! brute-force experimentation."

use serde::{Deserialize, Serialize};

/// Number of features per record (Table 1).
pub const FEATURE_COUNT: usize = 21;

/// Feature names in record order, matching Table 1 and the example record
/// of §4.4 (dataset attributes, runtime characteristics, historical
/// information).
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "N",           // number of vertices
    "M",           // number of edges
    "d_avg",       // average degree
    "d_std",       // degree standard deviation
    "d_rel_range", // relative range of degrees
    "gini",        // Gini coefficient
    "h_er",        // relative edge distribution entropy
    "v_a",         // active vertices
    "v_ia",        // inactive vertices
    "e_a",         // active edges
    "e_ia",        // inactive edges
    "v_ap",        // active vertex ratio
    "v_iap",       // inactive vertex ratio
    "e_ap",        // active edge ratio
    "e_iap",       // inactive edge ratio
    "cd",          // average degree of current workload
    "r_cd",        // relative degree range of current workload
    "t_f",         // last Filter time (ms)
    "t_e",         // last Expand time (ms)
    "t_f_avg",     // mean of previous Filter times (ms)
    "t_e_avg",     // mean of previous Expand times (ms)
];

/// The five decision targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// P1 — Push / Pull.
    Direction,
    /// P2 — Bitmap / UnsortedQueue / SortedQueue.
    Format,
    /// P3 — TWC / WM / CM / STRICT.
    LoadBalance,
    /// P4 — Increase / Decrease / Remain.
    Stepping,
    /// P5 — Standalone / Fused.
    Fusion,
}

impl Pattern {
    /// All patterns in decision order (§4.5: direction first, then load
    /// balance, then format, then stepping, then fusion).
    pub const DECISION_ORDER: [Pattern; 5] = [
        Pattern::Direction,
        Pattern::LoadBalance,
        Pattern::Format,
        Pattern::Stepping,
        Pattern::Fusion,
    ];

    /// Class names for rule export and confusion matrices, in class-index
    /// order — the order of each pattern enum's `ALL` table in
    /// `gswitch_kernels::pattern` (held together by the core crate's
    /// candidate round-trip test).
    pub fn class_names(self) -> &'static [&'static str] {
        match self {
            Pattern::Direction => &["push", "pull"],
            Pattern::Format => &["bitmap", "unsorted_queue", "sorted_queue"],
            Pattern::LoadBalance => &["twc", "wm", "cm", "strict"],
            Pattern::Stepping => &["increase", "decrease", "remain"],
            Pattern::Fusion => &["standalone", "fused"],
        }
    }

    /// Number of candidate classes.
    pub fn n_classes(self) -> usize {
        self.class_names().len()
    }
}

/// Brute-forced optimal labels for one iteration. `None` when the pattern
/// does not apply (e.g. stepping on a non-monotonic algorithm, fusion on a
/// duplicate-intolerant one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Labels {
    /// Optimal P1 class index.
    pub direction: Option<u8>,
    /// Optimal P2 class index.
    pub format: Option<u8>,
    /// Optimal P3 class index.
    pub load_balance: Option<u8>,
    /// Optimal P4 class index.
    pub stepping: Option<u8>,
    /// Optimal P5 class index.
    pub fusion: Option<u8>,
}

impl Labels {
    /// Label for one pattern.
    pub fn get(&self, p: Pattern) -> Option<u8> {
        match p {
            Pattern::Direction => self.direction,
            Pattern::Format => self.format,
            Pattern::LoadBalance => self.load_balance,
            Pattern::Stepping => self.stepping,
            Pattern::Fusion => self.fusion,
        }
    }
}

/// One iteration of one benchmark on one graph.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// The 21-entry feature vector (order of [`FEATURE_NAMES`]).
    pub features: [f64; FEATURE_COUNT],
    /// Brute-forced optimal candidates.
    pub labels: Labels,
    /// Benchmark tag ("bfs", "sssp", ...) for slicing analyses.
    pub benchmark: String,
    /// Dataset name.
    pub graph: String,
}

/// A collection of records with train/eval helpers.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FeatureDb {
    /// All records, in collection order.
    pub records: Vec<Record>,
}

impl FeatureDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn push(&mut self, r: Record) {
        self.records.push(r);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merge another database into this one.
    pub fn extend(&mut self, other: FeatureDb) {
        self.records.extend(other.records);
    }

    /// Extract the (rows, labels) training matrix for one pattern,
    /// skipping records where the pattern does not apply.
    pub fn training_matrix(&self, p: Pattern) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for r in &self.records {
            if let Some(l) = r.labels.get(p) {
                rows.push(r.features.to_vec());
                labels.push(l as usize);
            }
        }
        (rows, labels)
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("db serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Save as JSON to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let s = std::fs::read_to_string(path)?;
        Self::from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(v_a: f64, dir: u8) -> Record {
        let mut features = [0.0; FEATURE_COUNT];
        features[7] = v_a;
        Record {
            features,
            labels: Labels { direction: Some(dir), ..Default::default() },
            benchmark: "bfs".into(),
            graph: "g".into(),
        }
    }

    #[test]
    fn names_match_count() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        assert_eq!(FEATURE_COUNT, 21, "Table 1 has 21 features");
    }

    #[test]
    fn decision_order_is_p1_p3_p2_p4_p5() {
        assert_eq!(
            Pattern::DECISION_ORDER,
            [
                Pattern::Direction,
                Pattern::LoadBalance,
                Pattern::Format,
                Pattern::Stepping,
                Pattern::Fusion
            ]
        );
    }

    #[test]
    fn training_matrix_skips_unlabelled() {
        let mut db = FeatureDb::new();
        db.push(record(10.0, 0));
        db.push(record(20.0, 1));
        let mut no_dir = record(30.0, 0);
        no_dir.labels.direction = None;
        no_dir.labels.fusion = Some(1);
        db.push(no_dir);

        let (rows, labels) = db.training_matrix(Pattern::Direction);
        assert_eq!(rows.len(), 2);
        assert_eq!(labels, vec![0, 1]);
        let (rows, labels) = db.training_matrix(Pattern::Fusion);
        assert_eq!(rows.len(), 1);
        assert_eq!(labels, vec![1]);
        let (rows, _) = db.training_matrix(Pattern::Stepping);
        assert!(rows.is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let mut db = FeatureDb::new();
        db.push(record(1.0, 1));
        let db2 = FeatureDb::from_json(&db.to_json()).unwrap();
        assert_eq!(db.records, db2.records);
    }

    #[test]
    fn extend_merges() {
        let mut a = FeatureDb::new();
        a.push(record(1.0, 0));
        let mut b = FeatureDb::new();
        b.push(record(2.0, 1));
        a.extend(b);
        assert_eq!(a.len(), 2);
    }
}
