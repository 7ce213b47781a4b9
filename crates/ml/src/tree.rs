//! CART decision trees (Gini impurity, axis-aligned threshold splits).
//!
//! Chosen for the same two reasons the paper gives (§4.4): the rules
//! export to portable if-else chains, and inference costs a handful of
//! compares — negligible against a kernel launch.

use serde::{Deserialize, Serialize};

/// Training hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainParams {
    /// Maximum tree height. The paper prunes aggressively to fight CART's
    /// overfitting; 6 reproduces "as low as possible" shallow trees.
    pub max_depth: usize,
    /// Do not split nodes smaller than this.
    pub min_samples_split: usize,
    /// Require each child to keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Minimum Gini improvement to accept a split.
    pub min_gain: f64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams { max_depth: 6, min_samples_split: 8, min_samples_leaf: 2, min_gain: 1e-4 }
    }
}

/// Why [`DecisionTree::train`] rejected its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainError {
    /// The training set is empty.
    EmptyDataset,
    /// `rows` and `labels` differ in length.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A row's arity differs from the first row's.
    RaggedRows {
        /// Index of the offending row.
        row: usize,
        /// Arity of the first row.
        expected: usize,
        /// Arity of the offending row.
        got: usize,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "cannot train on an empty dataset"),
            TrainError::LengthMismatch { rows, labels } => {
                write!(f, "rows/labels length mismatch: {rows} rows, {labels} labels")
            }
            TrainError::RaggedRows { row, expected, got } => {
                write!(f, "ragged feature rows: row {row} has {got} features, expected {expected}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// One tree node. Children are indices into the tree's node arena so the
/// whole model serializes flat.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub enum Node {
    /// Majority-class leaf.
    Leaf {
        /// Predicted class.
        class: usize,
        /// Training samples that reached the leaf (diagnostics).
        weight: usize,
    },
    /// `feature < threshold` goes left, else right.
    Split {
        /// Feature column index.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the `<` child.
        left: usize,
        /// Arena index of the `>=` child.
        right: usize,
    },
}

/// A trained classifier.
///
/// ```
/// use gswitch_ml::{DecisionTree, TrainParams};
/// // Learn "class = (x > 4)". (Default params refuse to split nodes
/// // with fewer than 8 samples.)
/// let rows: Vec<Vec<f64>> = (1..=8).map(|x| vec![x as f64]).collect();
/// let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
/// let tree = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
/// assert_eq!(tree.predict(&[1.5]), 0);
/// assert_eq!(tree.predict(&[7.5]), 1);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
}

impl DecisionTree {
    /// Train on `rows` (each of equal length) with class `labels`.
    /// Malformed input — an empty set, mismatched lengths, ragged rows —
    /// is a [`TrainError`], never a panic: training data may come from a
    /// feature database on disk.
    pub fn train(
        rows: &[Vec<f64>],
        labels: &[usize],
        params: TrainParams,
    ) -> Result<Self, TrainError> {
        if rows.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        if rows.len() != labels.len() {
            return Err(TrainError::LengthMismatch { rows: rows.len(), labels: labels.len() });
        }
        let n_features = rows[0].len();
        if let Some((i, r)) = rows.iter().enumerate().find(|(_, r)| r.len() != n_features) {
            return Err(TrainError::RaggedRows { row: i, expected: n_features, got: r.len() });
        }
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;

        let mut tree = DecisionTree { nodes: Vec::new(), n_features, n_classes };
        let mut index: Vec<u32> = (0..rows.len() as u32).collect();
        tree.build(rows, labels, &mut index, 0, &params);
        Ok(tree)
    }

    /// Recursive node construction over `index` (the sample subset);
    /// returns the arena index of the built node.
    fn build(
        &mut self,
        rows: &[Vec<f64>],
        labels: &[usize],
        index: &mut [u32],
        depth: usize,
        params: &TrainParams,
    ) -> usize {
        let counts = self.class_counts(labels, index);
        let majority = argmax(&counts);
        let node_gini = gini(&counts, index.len());

        let stop =
            depth >= params.max_depth || index.len() < params.min_samples_split || node_gini == 0.0;
        if !stop {
            if let Some((feature, threshold, gain)) =
                best_split(rows, labels, index, self.n_classes, params.min_samples_leaf)
            {
                if gain >= params.min_gain {
                    // Partition the index in place by the split predicate.
                    let mid = partition(rows, index, feature, threshold);
                    // Defensive: a degenerate split keeps this a leaf.
                    if mid > 0 && mid < index.len() {
                        let slot = self.nodes.len();
                        self.nodes.push(Node::Leaf { class: majority, weight: index.len() });
                        let (l, r) = index.split_at_mut(mid);
                        let left = self.build(rows, labels, l, depth + 1, params);
                        let right = self.build(rows, labels, r, depth + 1, params);
                        self.nodes[slot] = Node::Split { feature, threshold, left, right };
                        return slot;
                    }
                }
            }
        }
        self.nodes.push(Node::Leaf { class: majority, weight: index.len() });
        self.nodes.len() - 1
    }

    fn class_counts(&self, labels: &[usize], index: &[u32]) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &i in index {
            counts[labels[i as usize]] += 1;
        }
        counts
    }

    /// Predict the class of one feature row.
    ///
    /// A row shorter than the tree's arity cannot answer every split:
    /// the walk stops at the first split whose feature is missing and
    /// returns that subtree's majority class. Extra columns are
    /// ignored. The walk is bounded, so even a structurally corrupt
    /// tree (one that skipped [`validate`](Self::validate)) returns a
    /// class rather than hanging or panicking.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut at = 0usize;
        for _ in 0..=self.nodes.len() {
            match self.nodes.get(at) {
                None => return 0,
                Some(Node::Leaf { class, .. }) => return *class,
                Some(Node::Split { feature, threshold, left, right }) => match row.get(*feature) {
                    Some(x) => at = if *x < *threshold { *left } else { *right },
                    None => return self.subtree_majority(at),
                },
            }
        }
        0
    }

    /// Majority class of the training samples under node `at`, by leaf
    /// weight. Bounded like `predict` so corrupt trees cannot hang it.
    fn subtree_majority(&self, at: usize) -> usize {
        let mut counts = vec![0usize; self.n_classes.max(1)];
        let mut stack = vec![at];
        for _ in 0..self.nodes.len() {
            let Some(i) = stack.pop() else { break };
            match self.nodes.get(i) {
                None => {}
                Some(Node::Leaf { class, weight }) => {
                    if let Some(c) = counts.get_mut(*class) {
                        *c += (*weight).max(1);
                    }
                }
                Some(Node::Split { left, right, .. }) => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
        argmax(&counts)
    }

    /// Structural validation for trees that arrived from outside
    /// `train` (a model file): child indices in range, every node
    /// reachable exactly once from the root (acyclic, no sharing),
    /// finite thresholds, split features within arity, leaf classes
    /// below `n_classes`, and depth at most 64.
    pub fn validate(&self) -> Result<(), String> {
        const MAX_DEPTH: usize = 64;
        if self.nodes.is_empty() {
            return Err("tree has no nodes".into());
        }
        if self.n_classes == 0 {
            return Err("tree declares zero classes".into());
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![(0usize, 0usize)];
        let mut seen = 0usize;
        while let Some((at, depth)) = stack.pop() {
            if at >= self.nodes.len() {
                return Err(format!("child index {at} out of range ({} nodes)", self.nodes.len()));
            }
            if visited[at] {
                return Err(format!("node {at} is reachable twice (cycle or shared subtree)"));
            }
            visited[at] = true;
            seen += 1;
            if depth > MAX_DEPTH {
                return Err(format!("tree depth exceeds bound {MAX_DEPTH}"));
            }
            match &self.nodes[at] {
                Node::Leaf { class, .. } => {
                    if *class >= self.n_classes {
                        return Err(format!(
                            "leaf class {class} out of range (n_classes = {})",
                            self.n_classes
                        ));
                    }
                }
                Node::Split { feature, threshold, left, right } => {
                    if *feature >= self.n_features {
                        return Err(format!(
                            "split feature {feature} out of range (n_features = {})",
                            self.n_features
                        ));
                    }
                    if !threshold.is_finite() {
                        return Err(format!("non-finite split threshold {threshold}"));
                    }
                    stack.push((*left, depth + 1));
                    stack.push((*right, depth + 1));
                }
            }
        }
        if seen != self.nodes.len() {
            return Err(format!(
                "{} of {} nodes unreachable from the root",
                self.nodes.len() - seen,
                self.nodes.len()
            ));
        }
        Ok(())
    }

    /// Fraction of `rows` predicted as their label.
    pub fn accuracy(&self, rows: &[Vec<f64>], labels: &[usize]) -> f64 {
        if rows.is_empty() {
            return 1.0;
        }
        let hits = rows.iter().zip(labels).filter(|(r, &l)| self.predict(r) == l).count();
        hits as f64 / rows.len() as f64
    }

    /// Height of the tree (a single leaf has height 0).
    pub fn height(&self) -> usize {
        fn h(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + h(nodes, *left).max(h(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            h(&self.nodes, 0)
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes (never produced by `train`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of feature columns expected by `predict`.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes seen at training time.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The node arena, root at index 0. Read-only: external passes
    /// (e.g. serving's admission test, `model::validate_tree`) walk the
    /// tree without being able to break the arena invariants.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Render the tree as portable if-else rules, naming features with
    /// `feature_names` and classes with `class_names` — the paper's
    /// "convert the resulting rules to if-else sentences".
    pub fn to_rules(&self, feature_names: &[&str], class_names: &[&str]) -> String {
        let mut out = String::new();
        self.rule(0, 0, feature_names, class_names, &mut out);
        out
    }

    fn rule(&self, at: usize, indent: usize, fnames: &[&str], cnames: &[&str], out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(indent);
        match &self.nodes[at] {
            Node::Leaf { class, weight } => {
                let name = cnames.get(*class).copied().unwrap_or("?");
                let _ = writeln!(out, "{pad}choose {name};  // {weight} samples");
            }
            Node::Split { feature, threshold, left, right } => {
                let name = fnames.get(*feature).copied().unwrap_or("?");
                let _ = writeln!(out, "{pad}if ({name} < {threshold:.6}) {{");
                self.rule(*left, indent + 1, fnames, cnames, out);
                let _ = writeln!(out, "{pad}}} else {{");
                self.rule(*right, indent + 1, fnames, cnames, out);
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("tree serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Gini impurity of a class-count vector over `n` samples.
fn gini(counts: &[usize], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum::<f64>()
}

fn argmax(counts: &[usize]) -> usize {
    counts.iter().enumerate().max_by_key(|(_, &c)| c).map(|(i, _)| i).unwrap_or(0)
}

/// Exhaustive best split over features × thresholds: sort the subset by
/// each feature and sweep, maintaining incremental class counts.
/// Returns (feature, threshold, gini_gain).
fn best_split(
    rows: &[Vec<f64>],
    labels: &[usize],
    index: &[u32],
    n_classes: usize,
    min_leaf: usize,
) -> Option<(usize, f64, f64)> {
    let n = index.len();
    let mut total = vec![0usize; n_classes];
    for &i in index {
        total[labels[i as usize]] += 1;
    }
    let parent = gini(&total, n);
    let n_features = rows[0].len();

    let mut best: Option<(usize, f64, f64)> = None;
    let mut sorted: Vec<u32> = index.to_vec();
    #[allow(clippy::needless_range_loop)] // u/f index several arrays
    for f in 0..n_features {
        sorted.sort_unstable_by(|&a, &b| {
            rows[a as usize][f]
                .partial_cmp(&rows[b as usize][f])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut left = vec![0usize; n_classes];
        for k in 1..n {
            let prev = sorted[k - 1] as usize;
            left[labels[prev]] += 1;
            let (a, b) = (rows[prev][f], rows[sorted[k] as usize][f]);
            if a == b {
                continue; // no threshold separates equal values
            }
            if k < min_leaf || n - k < min_leaf {
                continue;
            }
            let mut right = vec![0usize; n_classes];
            for c in 0..n_classes {
                right[c] = total[c] - left[c];
            }
            let w = k as f64 / n as f64;
            let child = w * gini(&left, k) + (1.0 - w) * gini(&right, n - k);
            let gain = parent - child;
            let threshold = 0.5 * (a + b);
            if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 0.0) {
                best = Some((f, threshold, gain));
            }
        }
    }
    best
}

/// In-place stable partition of `index` by `rows[i][feature] < threshold`;
/// returns the size of the left side.
fn partition(rows: &[Vec<f64>], index: &mut [u32], feature: usize, threshold: f64) -> usize {
    let mut left: Vec<u32> = Vec::with_capacity(index.len());
    let mut right: Vec<u32> = Vec::with_capacity(index.len());
    for &i in index.iter() {
        if rows[i as usize][feature] < threshold {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    let mid = left.len();
    index[..mid].copy_from_slice(&left);
    index[mid..].copy_from_slice(&right);
    mid
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable 2-D data: class = x0 > 0.5.
    fn separable(n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![i as f64 / n as f64, (i * 7 % 13) as f64]).collect();
        let labels = rows.iter().map(|r| usize::from(r[0] > 0.5)).collect();
        (rows, labels)
    }

    #[test]
    fn learns_separable_data_perfectly() {
        let (rows, labels) = separable(200);
        let t = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        assert_eq!(t.accuracy(&rows, &labels), 1.0);
        assert!(t.height() <= 2, "height {}", t.height());
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![1, 1, 1];
        let t = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.predict(&[9.0]), 1);
    }

    #[test]
    fn depth_cap_respected() {
        // XOR-ish checkerboard needs depth; cap at 2 and verify.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                rows.push(vec![i as f64, j as f64]);
                labels.push(((i / 4) + (j / 4)) % 2);
            }
        }
        let t =
            DecisionTree::train(&rows, &labels, TrainParams { max_depth: 2, ..Default::default() })
                .unwrap();
        assert!(t.height() <= 2);
    }

    #[test]
    fn three_class_problem() {
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..300).map(|i| i / 100).collect();
        let t = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        assert_eq!(t.n_classes(), 3);
        assert_eq!(t.predict(&[50.0]), 0);
        assert_eq!(t.predict(&[150.0]), 1);
        assert_eq!(t.predict(&[250.0]), 2);
    }

    #[test]
    fn min_leaf_blocks_tiny_splits() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![0, 1, 1, 1];
        let t = DecisionTree::train(
            &rows,
            &labels,
            TrainParams { min_samples_leaf: 2, min_samples_split: 2, ..Default::default() },
        )
        .unwrap();
        // Splitting off the single 0-label sample is forbidden; the next
        // best legal split (1 vs rest at 1.5) may still happen, but no
        // leaf may hold fewer than 2 samples.
        fn check(t: &DecisionTree, at: usize) {
            match &t.nodes[at] {
                Node::Leaf { weight, .. } => assert!(*weight >= 2),
                Node::Split { left, right, .. } => {
                    check(t, *left);
                    check(t, *right);
                }
            }
        }
        check(&t, 0);
    }

    #[test]
    fn rules_render() {
        let (rows, labels) = separable(50);
        let t = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        let rules = t.to_rules(&["x", "noise"], &["push", "pull"]);
        assert!(rules.contains("if (x <"), "{rules}");
        assert!(rules.contains("choose pull"));
        assert!(rules.contains("choose push"));
    }

    #[test]
    fn json_roundtrip() {
        let (rows, labels) = separable(64);
        let t = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        let t2 = DecisionTree::from_json(&t.to_json()).unwrap();
        assert_eq!(t, t2);
        assert_eq!(t2.predict(&[0.9, 0.0]), 1);
    }

    #[test]
    fn train_rejects_malformed_input_without_panicking() {
        assert_eq!(
            DecisionTree::train(&[], &[], TrainParams::default()),
            Err(TrainError::EmptyDataset)
        );
        let rows = vec![vec![1.0], vec![2.0]];
        assert_eq!(
            DecisionTree::train(&rows, &[0], TrainParams::default()),
            Err(TrainError::LengthMismatch { rows: 2, labels: 1 })
        );
        let ragged = vec![vec![1.0], vec![2.0, 3.0]];
        assert_eq!(
            DecisionTree::train(&ragged, &[0, 1], TrainParams::default()),
            Err(TrainError::RaggedRows { row: 1, expected: 1, got: 2 })
        );
        // Errors render a useful message.
        assert!(TrainError::EmptyDataset.to_string().contains("empty"));
    }

    #[test]
    fn short_row_predicts_majority_not_panic() {
        let (rows, labels) = separable(100);
        let t = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        assert!(t.height() >= 1, "need a split for this test to bite");
        // An empty row cannot answer the root split: the fallback is the
        // root's majority class, which must be one of the two classes.
        let c = t.predict(&[]);
        assert!(c < t.n_classes());
        // Extra columns are ignored.
        assert_eq!(t.predict(&[0.9, 0.0, 42.0, 42.0]), 1);
    }

    #[test]
    fn validate_accepts_trained_trees() {
        let (rows, labels) = separable(100);
        let t = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        t.validate().unwrap();
    }

    #[test]
    fn validate_rejects_corrupt_trees() {
        let (rows, labels) = separable(100);
        let good = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();

        // Child index out of range.
        let mut bad = good.clone();
        if let Node::Split { right, .. } = &mut bad.nodes[0] {
            *right = 999;
        }
        assert!(bad.validate().unwrap_err().contains("out of range"));

        // Cycle: the root is its own child.
        let mut bad = good.clone();
        if let Node::Split { left, .. } = &mut bad.nodes[0] {
            *left = 0;
        }
        assert!(bad.validate().is_err());
        // And predict on it still terminates.
        let _ = bad.predict(&[0.1, 0.0]);

        // Non-finite threshold.
        let mut bad = good.clone();
        if let Node::Split { threshold, .. } = &mut bad.nodes[0] {
            *threshold = f64::NAN;
        }
        assert!(bad.validate().unwrap_err().contains("threshold"));

        // Leaf class out of range.
        let mut bad = good.clone();
        bad.n_classes = 1;
        assert!(bad.validate().is_err());

        // Empty arena.
        let empty = DecisionTree { nodes: Vec::new(), n_features: 1, n_classes: 2 };
        assert!(empty.validate().is_err());
        assert_eq!(empty.predict(&[1.0]), 0);
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[], 0), 0.0);
    }
}
