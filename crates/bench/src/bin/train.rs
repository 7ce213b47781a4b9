//! Offline model generation (§4.4): label the training corpus with the
//! brute-force oracle, train one CART per pattern, report 10-fold CV
//! accuracy, and save the model for the Selector.
//!
//! ```text
//! train [--stride N] [--out models/gswitch_model.json] [--rules]
//! ```
//!
//! `--stride 1` reproduces the paper's full 644-graph pass; the default
//! stride 4 labels 161 graphs, which already saturates tree quality.
//! `--rules` additionally prints each tree as if-else rules (the paper's
//! portable export). The written model is read back through
//! `ModelPolicy::load_or_fallback`, as serving reads it; the exit status
//! is 1 unless all five trees pass its validation.

use gswitch_bench::labelling::cached_labels;
use gswitch_bench::{default_model_path, results_dir};
use gswitch_core::{ModelEnvelope, ModelPolicy};
use gswitch_ml::{
    cross_validate, DecisionTree, Pattern, TrainParams, FEATURE_COUNT, FEATURE_NAMES,
};
use gswitch_simt::DeviceSpec;
use std::time::Instant;

#[expect(clippy::disallowed_methods, reason = "an offline tool reporting its own wall time")]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stride: usize = args
        .iter()
        .position(|a| a == "--stride")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_model_path);
    let print_rules = args.iter().any(|a| a == "--rules");

    let device = DeviceSpec::k40m();
    println!("labelling training corpus (stride {stride}, device {}) ...", device.name);
    let t0 = Instant::now();
    let db = cached_labels(stride, &device);
    println!(
        "{} records from {} graphs in {:.1}s (paper: 386,780 records from 644 graphs)",
        db.len(),
        644usize.div_ceil(stride),
        t0.elapsed().as_secs_f64()
    );

    let params = TrainParams::default();
    let mut model = ModelPolicy::empty();
    let fnames: Vec<&str> = FEATURE_NAMES.to_vec();
    // Per-feature min/max over every training row, across all patterns:
    // stamped into the model envelope so the serving side can clamp
    // out-of-distribution features back into the region the trees have
    // actually seen.
    let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); FEATURE_COUNT];
    for p in Pattern::DECISION_ORDER {
        let (rows, labels) = db.training_matrix(p);
        if rows.len() < 20 {
            println!("{p:?}: skipped ({} records)", rows.len());
            continue;
        }
        for row in &rows {
            for (r, &x) in ranges.iter_mut().zip(row.iter()) {
                if x.is_finite() {
                    r.0 = r.0.min(x);
                    r.1 = r.1.max(x);
                }
            }
        }
        let cv = cross_validate(&rows, &labels, 10.min(rows.len()), params);
        let tree = match DecisionTree::train(&rows, &labels, params) {
            Ok(t) => t,
            Err(e) => {
                println!("{p:?}: training rejected ({e}); the Selector falls back to rules");
                continue;
            }
        };
        println!(
            "{p:?}: {} records, tree height {}, {} nodes, 10-fold accuracy {:.1}%",
            rows.len(),
            tree.height(),
            tree.len(),
            100.0 * cv.mean_accuracy()
        );
        if print_rules {
            println!("{}", tree.to_rules(&fnames, p.class_names()));
        }
        model = model.with_tree(p, tree);
    }

    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    // Features never observed finite (possible under tiny strides)
    // default to the unit range so the envelope stays well-formed.
    let ranges: Vec<(f64, f64)> =
        ranges.into_iter().map(|(lo, hi)| if lo <= hi { (lo, hi) } else { (0.0, 1.0) }).collect();
    let n_trees = model.n_trees();
    let envelope = ModelEnvelope::wrap(model, ranges);
    envelope.save(&out_path).expect("write model");
    println!(
        "model ({n_trees} trees, schema v{}, checksum {}) saved to {}",
        envelope.schema_version,
        envelope.checksum,
        out_path.display()
    );

    // Also export the rules next to the results for inspection.
    let mut rules = String::new();
    for p in Pattern::DECISION_ORDER {
        if let Some(t) = envelope.model.tree(p) {
            rules.push_str(&format!("// {p:?}\n{}\n", t.to_rules(&fnames, p.class_names())));
        }
    }
    let rules_path = results_dir().join("model_rules.txt");
    let _ = std::fs::write(&rules_path, rules);
    println!("if-else rule export at {}", rules_path.display());

    // The file must pass serving's admission test: read back the way
    // `gswitch-serve` reads it, every tree kept.
    let (_, report) = ModelPolicy::load_or_fallback(&out_path);
    let trees = Pattern::DECISION_ORDER.len();
    if report.error.is_some() || !report.dropped.is_empty() || report.kept != trees {
        eprintln!("the written model fails serving's admission test: {report:?}");
        std::process::exit(1);
    }
    println!("read back: all {} trees pass serving's admission test", report.kept);
}
