//! Model soundness: the admission test a model file's trees pass before
//! serving follows one. [`load_or_fallback`] applies it per pattern and
//! drops a failing tree to the heuristic for that pattern.
//!
//! [`load_or_fallback`]: crate::policy::ModelPolicy::load_or_fallback

use gswitch_ml::tree::Node;
use gswitch_ml::{DecisionTree, Pattern, FEATURE_COUNT};

/// Why serving drops one pattern's tree at load.
#[derive(Clone, Debug, PartialEq)]
pub enum TreeRejection {
    /// The arena fails [`DecisionTree::validate`].
    Invalid(String),
    /// The tree reads this many features; the Inspector computes
    /// [`FEATURE_COUNT`].
    Arity(usize),
    /// The tree predicts more classes than its pattern has variants.
    Classes {
        /// Classes the tree declares.
        declared: usize,
        /// The pattern's variant count.
        legal: usize,
    },
    /// No input reaches one child of this split: the ancestors already
    /// hold its feature to `[lo, hi)`, on one side of the threshold.
    DeadBranch {
        /// Arena index of the split.
        node: usize,
        /// The split's feature and threshold.
        split: (usize, f64),
        /// The values of that feature that reach the split.
        reach: (f64, f64),
    },
    /// The split's threshold lies outside its feature's training range:
    /// inference clamps features into that range, so one side of the
    /// split is never taken.
    Threshold {
        /// Arena index of the split.
        node: usize,
        /// The split's feature and threshold.
        split: (usize, f64),
        /// The feature's stamped training range.
        range: (f64, f64),
    },
}

impl std::fmt::Display for TreeRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeRejection::Invalid(e) => f.write_str(e),
            TreeRejection::Arity(n) => {
                write!(f, "tree expects {n} features, the engine produces {FEATURE_COUNT}")
            }
            TreeRejection::Classes { declared, legal } => {
                write!(f, "tree predicts {declared} classes, its pattern has {legal}")
            }
            TreeRejection::DeadBranch { node, split: (feature, t), reach: (lo, hi) } => write!(
                f,
                "split {node} `feature[{feature}] < {t}` has a child no input reaches: its \
                 ancestors hold the feature to [{lo}, {hi})"
            ),
            TreeRejection::Threshold { node, split: (feature, t), range: (lo, hi) } => write!(
                f,
                "split {node} `feature[{feature}] < {t}` lies outside the training range \
                 [{lo}, {hi}]: one side is never taken once features are clamped into it"
            ),
        }
    }
}

/// The admission test [`load_or_fallback`] applies to each pattern's
/// tree, given the model's training `ranges` if it has them: a tree that
/// fails it falls back to the heuristic. Beyond a sound arena of the
/// right arity and class count, every child of every split must be
/// reachable, both by the values its ancestors let through and, with
/// `ranges`, by features clamped into them.
///
/// [`load_or_fallback`]: crate::policy::ModelPolicy::load_or_fallback
pub fn validate_tree(
    pattern: Pattern,
    tree: &DecisionTree,
    ranges: Option<&[(f64, f64)]>,
) -> Result<(), TreeRejection> {
    tree.validate().map_err(TreeRejection::Invalid)?;
    if tree.n_features() != FEATURE_COUNT {
        return Err(TreeRejection::Arity(tree.n_features()));
    }
    if tree.n_classes() > pattern.n_classes() {
        return Err(TreeRejection::Classes {
            declared: tree.n_classes(),
            legal: pattern.n_classes(),
        });
    }
    // Walk from the root carrying, per feature, the half-open interval
    // `[lo, hi)` of values that reach each node (`validate` guarantees
    // the walk ends and every feature index is in range).
    let nodes = tree.nodes();
    let mut stack = vec![(0, vec![(f64::NEG_INFINITY, f64::INFINITY); FEATURE_COUNT])];
    while let Some((node, mut reach)) = stack.pop() {
        let Node::Split { feature, threshold: t, left, right } = nodes[node] else { continue };
        let (lo, hi) = reach[feature];
        if t <= lo || t >= hi {
            return Err(TreeRejection::DeadBranch { node, split: (feature, t), reach: (lo, hi) });
        }
        if let Some(&range) = ranges.and_then(|r| r.get(feature)) {
            if t < range.0 || t > range.1 {
                return Err(TreeRejection::Threshold { node, split: (feature, t), range });
            }
        }
        let mut left_reach = reach.clone();
        left_reach[feature].1 = t;
        reach[feature].0 = t;
        stack.push((left, left_reach));
        stack.push((right, reach));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ModelEnvelope, ModelPolicy};
    use gswitch_ml::TrainParams;

    /// A tree learned on clean data over `n_features` columns, with the
    /// training range of every column.
    fn trained_on(n_features: usize) -> (DecisionTree, Vec<(f64, f64)>) {
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let mut row = vec![0.0; n_features];
                (row[0], row[1]) = (i as f64, (31 - i) as f64);
                row
            })
            .collect();
        let labels: Vec<usize> = (0..32).map(|i| usize::from(i >= 16)).collect();
        let tree = DecisionTree::train(&rows, &labels, TrainParams::default()).unwrap();
        let mut ranges = vec![(0.0, 0.0); n_features];
        (ranges[0], ranges[1]) = ((0.0, 31.0), (0.0, 31.0));
        (tree, ranges)
    }

    /// A one-pattern model decoded from its JSON, the way serving reads it.
    fn tree_of(pattern: Pattern, json: &str) -> DecisionTree {
        let (model, _) = ModelPolicy::decode(json).expect("decodes");
        model.tree(pattern).expect("tree").clone()
    }

    #[test]
    fn trained_tree_is_clean() {
        let (tree, ranges) = trained_on(FEATURE_COUNT);
        let model = ModelPolicy::empty().with_tree(Pattern::Direction, tree);
        let (model, enveloped) =
            ModelPolicy::decode(&ModelEnvelope::wrap(model, ranges).to_json()).unwrap();
        assert!(enveloped);
        let tree = model.tree(Pattern::Direction).unwrap();
        assert_eq!(validate_tree(Pattern::Direction, tree, None), Ok(()));
        let ranges = model.feature_ranges.as_deref();
        assert_eq!(validate_tree(Pattern::Direction, tree, ranges), Ok(()));
    }

    #[test]
    fn dead_branch_detected_via_json_surgery() {
        // `f0 < 10` whose left child re-splits `f0 < 20`: the re-split's
        // right child (f0 >= 20 while f0 < 10) is dead.
        let tree = tree_of(
            Pattern::Direction,
            r#"{"direction":{"nodes":[
            {"Split":{"feature":0,"threshold":10.0,"left":1,"right":4}},
            {"Split":{"feature":0,"threshold":20.0,"left":2,"right":3}},
            {"Leaf":{"class":0,"weight":1}},
            {"Leaf":{"class":1,"weight":1}},
            {"Leaf":{"class":1,"weight":1}}],
            "n_features":21,"n_classes":2}}"#,
        );
        let dead = TreeRejection::DeadBranch {
            node: 1,
            split: (0, 20.0),
            reach: (f64::NEG_INFINITY, 10.0),
        };
        let err = validate_tree(Pattern::Direction, &tree, None).unwrap_err();
        assert!(err.to_string().contains("split 1 `feature[0] < 20`"), "{err}");
        assert_eq!(err, dead);
    }

    #[test]
    fn out_of_range_class_detected() {
        // Direction has 2 legal variants; the tree declares 6, so the
        // arena itself is sound and only the pattern-aware check fires.
        let many = tree_of(
            Pattern::Direction,
            r#"{"direction":{"nodes":[{"Leaf":{"class":5,"weight":1}}],
            "n_features":21,"n_classes":6}}"#,
        );
        let want = TreeRejection::Classes { declared: 6, legal: 2 };
        assert_eq!(validate_tree(Pattern::Direction, &many, None), Err(want));
    }

    #[test]
    fn feature_index_beyond_vector_detected() {
        let wide = tree_of(
            Pattern::Stepping,
            r#"{"stepping":{"nodes":[
            {"Split":{"feature":21,"threshold":0.5,"left":1,"right":2}},
            {"Leaf":{"class":0,"weight":1}},
            {"Leaf":{"class":1,"weight":1}}],
            "n_features":22,"n_classes":3}}"#,
        );
        assert_eq!(validate_tree(Pattern::Stepping, &wide, None), Err(TreeRejection::Arity(22)));
        // Serving computes exactly FEATURE_COUNT features, so a narrower
        // tree is dropped too.
        let (narrow, _) = trained_on(FEATURE_COUNT - 1);
        let want = TreeRejection::Arity(FEATURE_COUNT - 1);
        assert_eq!(validate_tree(Pattern::Direction, &narrow, None), Err(want));
    }

    #[test]
    fn threshold_outside_training_range_warns() {
        let (tree, mut ranges) = trained_on(FEATURE_COUNT);
        // The tree splits near 15.5 on feature 0 or 1; a training range
        // that excludes it leaves one side unreachable once features are
        // clamped into it.
        (ranges[0], ranges[1]) = ((40.0, 100.0), (40.0, 100.0));
        let err = validate_tree(Pattern::Direction, &tree, Some(&ranges)).unwrap_err();
        assert!(matches!(err, TreeRejection::Threshold { split: (0 | 1, _), .. }), "{err}");
        // Loading drops the tree and its report says why.
        let path = std::env::temp_dir().join("gswitch-model-test-threshold.json");
        let model = ModelPolicy::empty().with_tree(Pattern::Direction, tree);
        ModelEnvelope::wrap(model, ranges).save(&path).unwrap();
        let (m, rep) = ModelPolicy::load_or_fallback(&path);
        let _ = std::fs::remove_file(path);
        assert_eq!(m.n_trees(), 0);
        assert_eq!((rep.error, rep.kept, rep.dropped.len()), (None, 0, 1));
        assert_eq!(rep.dropped[0].0, Pattern::Direction);
        assert!(rep.dropped[0].1.contains("outside the training range"), "{:?}", rep.dropped);
    }

    #[test]
    fn garbage_json_is_a_finding_not_a_panic() {
        let err = ModelPolicy::decode("{not json").unwrap_err();
        assert!(err.contains("model JSON rejected"), "{err}");
    }

    #[test]
    fn envelope_with_bad_checksum_is_denied() {
        let (tree, ranges) = trained_on(FEATURE_COUNT);
        let model = ModelPolicy::empty().with_tree(Pattern::Fusion, tree);
        let mut env = ModelEnvelope::wrap(model, ranges);
        env.checksum = "deadbeefdeadbeef".into();
        let err = ModelPolicy::decode(&env.to_json()).unwrap_err();
        assert!(err.contains("model envelope rejected") && err.contains("checksum"), "{err}");
    }

    /// Every shipped model file decodes as serving reads it, and all five
    /// of its trees are admitted.
    #[test]
    fn shipped_models_admit_all_five_trees() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let (model, _) = ModelPolicy::decode(&text).unwrap();
            for p in Pattern::DECISION_ORDER {
                let tree = model.tree(p).unwrap_or_else(|| panic!("{path:?}: no {p:?} tree"));
                let admitted = validate_tree(p, tree, model.feature_ranges.as_deref());
                assert_eq!(admitted, Ok(()), "{path:?}: {p:?}");
            }
            files += 1;
        }
        assert!(files > 0, "no model in {dir}");
    }
}
