//! Pass 3 — model soundness.
//!
//! The checked-in `models/*.json` files feed the serving decision path
//! directly. This pass first reads each file exactly as serving does
//! ([`ModelPolicy::decode`], then [`validate_tree`] per pattern): a file
//! serving rejects, or a tree it drops to the heuristic, is a deny
//! finding. On top of that it checks what only an offline analyzer can
//! afford to:
//!
//! * **Unreachable branches** — a split whose threshold contradicts an
//!   ancestor split on the same feature leaves one child dead: it can
//!   never be reached by any input, so it is either training-code
//!   fallout or hand-edit damage.
//! * **Leaf classes** within the pattern's legal variant set (P1
//!   direction: 2, P2 format: 3, P3 load-balance: 4, P4 stepping: 3,
//!   P5 fusion: 2), named per leaf when a tree declares too many.
//! * **Split thresholds inside the stamped training ranges**: a
//!   threshold outside `[min, max]` can never change a prediction once
//!   inference clamps features into the range, so one subtree is dead
//!   weight at best and hides a train/serve skew at worst.

use crate::findings::{Finding, Severity};
use gswitch_core::policy::{validate_tree, ModelPolicy, TreeRejection};
use gswitch_ml::tree::Node;
use gswitch_ml::{DecisionTree, Pattern};

/// Check one model file's text. `file` is used for finding locations.
pub fn check_model_text(file: &str, text: &str) -> Vec<Finding> {
    let model = match ModelPolicy::decode(text) {
        Ok((model, _)) => model,
        Err(e) => return vec![Finding::new("model-envelope", Severity::Deny, file, 0, "", e)],
    };
    let mut out = Vec::new();
    for pattern in Pattern::DECISION_ORDER {
        if let Some(tree) = model.tree(pattern) {
            check_tree(file, pattern, tree, model.feature_ranges.as_deref(), &mut out);
        }
    }
    out
}

/// Check one pattern's tree.
fn check_tree(
    file: &str,
    pattern: Pattern,
    tree: &DecisionTree,
    ranges: Option<&[(f64, f64)]>,
    out: &mut Vec<Finding>,
) {
    let pat = format!("{pattern:?}");

    // Serving's admission test first. A tree that is not even a sound
    // arena is reported once and skipped (interval analysis assumes
    // one); a sound one serving drops is still walked, so its bad
    // leaves are named.
    if let Err(rejection) = validate_tree(pattern, tree) {
        let rule = match rejection {
            TreeRejection::Invalid(_) => "model-tree-invalid",
            TreeRejection::Arity(_) => "model-feature-arity",
            TreeRejection::Classes { .. } => "model-class-range",
        };
        out.push(Finding::new(
            rule,
            Severity::Deny,
            file,
            0,
            format!("pattern {pat}"),
            format!("serving drops this tree: {rejection}"),
        ));
        if matches!(rejection, TreeRejection::Invalid(_)) {
            return;
        }
    }

    let legal = pattern.n_classes();
    let nodes = tree.nodes();

    // Per-node checks plus reachable-interval analysis. Walk from the
    // root carrying per-feature half-open intervals `[lo, hi)` of the
    // values that can reach each node. A split `feature < t` makes its
    // left child dead when `t <= lo` and its right child dead when
    // `t >= hi`. (`DecisionTree::validate` guarantees the walk
    // terminates and every split feature is below `n_features`.)
    let mut stack: Vec<(usize, Vec<(f64, f64)>)> =
        vec![(0, vec![(f64::NEG_INFINITY, f64::INFINITY); tree.n_features()])];
    while let Some((at, bounds)) = stack.pop() {
        match &nodes[at] {
            Node::Leaf { class, .. } => {
                if *class >= legal {
                    out.push(Finding::new(
                        "model-class-range",
                        Severity::Deny,
                        file,
                        0,
                        format!("pattern {pat}, node {at}"),
                        format!(
                            "leaf predicts class {class}; pattern {pat} has only {legal} legal \
                             variants (0..{legal})"
                        ),
                    ));
                }
            }
            Node::Split { feature, threshold, left, right } => {
                let (lo, hi) = bounds[*feature];
                if *threshold <= lo {
                    out.push(dead_branch(file, &pat, at, *feature, *threshold, lo, hi, "left"));
                }
                if *threshold >= hi {
                    out.push(dead_branch(file, &pat, at, *feature, *threshold, lo, hi, "right"));
                }
                if let Some(ranges) = ranges {
                    if let Some(&(rmin, rmax)) = ranges.get(*feature) {
                        if *threshold < rmin || *threshold > rmax {
                            out.push(Finding::new(
                                "model-threshold-range",
                                Severity::Warn,
                                file,
                                0,
                                format!("pattern {pat}, node {at}"),
                                format!(
                                    "split threshold {threshold} on feature {feature} lies \
                                     outside the stamped training range [{rmin}, {rmax}] — \
                                     inference clamps features into that range, so one side \
                                     of this split is unreachable in serving"
                                ),
                            ));
                        }
                    }
                }
                let mut lb = bounds.clone();
                lb[*feature].1 = threshold.min(hi);
                stack.push((*left, lb));
                let mut rb = bounds;
                rb[*feature].0 = threshold.max(lo);
                stack.push((*right, rb));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn dead_branch(
    file: &str,
    pat: &str,
    at: usize,
    feature: usize,
    threshold: f64,
    lo: f64,
    hi: f64,
    side: &str,
) -> Finding {
    Finding::new(
        "model-dead-branch",
        Severity::Deny,
        file,
        0,
        format!("pattern {pat}, node {at}"),
        format!(
            "split `feature[{feature}] < {threshold}` has an unreachable {side} child: \
             ancestors already constrain the feature to [{lo}, {hi}) — no input reaches it"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_core::policy::ModelEnvelope;
    use gswitch_ml::{TrainParams, FEATURE_COUNT};

    /// A tree learned on clean data over `n_features` columns.
    fn trained_on(n_features: usize) -> DecisionTree {
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|i| {
                let mut row = vec![0.0; n_features];
                (row[0], row[1]) = (i as f64, (31 - i) as f64);
                row
            })
            .collect();
        let labels: Vec<usize> = (0..32).map(|i| usize::from(i >= 16)).collect();
        DecisionTree::train(&rows, &labels, TrainParams::default()).expect("train")
    }

    /// A tree learned on clean data over the Inspector's features: must
    /// be clean.
    fn trained() -> DecisionTree {
        trained_on(FEATURE_COUNT)
    }

    #[test]
    fn trained_tree_is_clean() {
        let model = ModelPolicy::empty().with_tree(Pattern::Direction, trained());
        let f = check_model_text("m.json", &model.to_json());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dead_branch_detected_via_json_surgery() {
        // Build `f0 < 10` whose left child re-splits `f0 < 20`: the
        // re-split's right child (f0 >= 20 while f0 < 10) is dead.
        let json = r#"{"direction":{"nodes":[
            {"Split":{"feature":0,"threshold":10.0,"left":1,"right":4}},
            {"Split":{"feature":0,"threshold":20.0,"left":2,"right":3}},
            {"Leaf":{"class":0,"weight":1}},
            {"Leaf":{"class":1,"weight":1}},
            {"Leaf":{"class":1,"weight":1}}],
            "n_features":21,"n_classes":2}}"#;
        let f = check_model_text("m.json", json);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert_eq!(rules, vec!["model-dead-branch"], "{f:?}");
        assert!(f[0].message.contains("right child"));
    }

    #[test]
    fn out_of_range_class_detected() {
        // Direction has 2 legal variants; class 5 is out of range. The
        // tree itself declares n_classes=6 so structural validation
        // passes — only the pattern-aware check catches it.
        let json = r#"{"direction":{"nodes":[
            {"Leaf":{"class":5,"weight":1}}],
            "n_features":21,"n_classes":6}}"#;
        let f = check_model_text("m.json", json);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"model-class-range"), "{f:?}");
    }

    #[test]
    fn feature_index_beyond_vector_detected() {
        let json = r#"{"stepping":{"nodes":[
            {"Split":{"feature":21,"threshold":0.5,"left":1,"right":2}},
            {"Leaf":{"class":0,"weight":1}},
            {"Leaf":{"class":1,"weight":1}}],
            "n_features":22,"n_classes":3}}"#;
        let f = check_model_text("m.json", json);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"model-feature-arity"), "{f:?}");

        // Serving admits exactly FEATURE_COUNT features, so a narrower
        // tree is dropped at load too.
        let narrow = ModelPolicy::empty().with_tree(Pattern::Direction, trained_on(20));
        let f = check_model_text("m.json", &narrow.to_json());
        assert!(f.iter().any(|x| x.rule == "model-feature-arity"), "{f:?}");
    }

    #[test]
    fn threshold_outside_training_range_warns() {
        let model = ModelPolicy::empty().with_tree(Pattern::Direction, trained());
        // The tree splits around 15.5 on feature 0; stamp a training
        // range that excludes it.
        let mut ranges = vec![(0.0, 100.0); FEATURE_COUNT];
        ranges[0] = (40.0, 100.0);
        let env = ModelEnvelope::wrap(model, ranges);
        let f = check_model_text("m.json", &env.to_json());
        assert!(f.iter().any(|x| x.rule == "model-threshold-range"), "{f:?}");
        assert!(f.iter().all(|x| x.severity == Severity::Warn), "{f:?}");
    }

    #[test]
    fn garbage_json_is_a_finding_not_a_panic() {
        let f = check_model_text("m.json", "{not json");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "model-envelope");
        assert_eq!(f[0].severity, Severity::Deny);
    }

    #[test]
    fn envelope_with_bad_checksum_is_denied() {
        let model = ModelPolicy::empty().with_tree(Pattern::Fusion, trained());
        let mut env = ModelEnvelope::wrap(model, vec![(0.0, 1.0); FEATURE_COUNT]);
        env.checksum = "deadbeefdeadbeef".into();
        let f = check_model_text("m.json", &env.to_json());
        assert!(f.iter().any(|x| x.rule == "model-envelope" && x.message.contains("checksum")));
    }
}
