//! Shared harness machinery for the `repro` and `train` binaries:
//! benchmark runners (GSWITCH / Gunrock-like / specialist per algorithm),
//! dataset twins, model loading, and plain-text table/series rendering
//! that mirrors the paper's figure content. [`ledger`] is the perf
//! ledger behind the committed `BENCH_*.json` snapshots and the
//! `perf-ledger` binary.

#![warn(missing_docs)]

pub mod experiments;
pub mod labelling;
pub mod ledger;
pub mod runners;
pub mod table;

use gswitch_core::{AutoPolicy, ModelPolicy, Policy};
use std::path::Path;

/// Load the trained CART model if `models/gswitch_model.json` exists
/// (produced by the `train` binary); otherwise fall back to the built-in
/// hand-derived rules. Returns the policy and its provenance string.
///
/// Loading is degradation-first ([`ModelPolicy::load_or_fallback`]):
/// a corrupt file, a tampered envelope, or individually invalid trees
/// never abort the harness — whatever validates is kept, and a model
/// left with no usable tree falls back to the built-in rules.
pub fn load_policy(model_path: &Path) -> (Box<dyn Policy>, &'static str) {
    if !model_path.exists() {
        return (Box::new(AutoPolicy), "built-in rules (run `train` for the CART model)");
    }
    let (m, report) = ModelPolicy::load_or_fallback(model_path);
    if !report.dropped.is_empty() {
        for (p, why) in &report.dropped {
            eprintln!("model: dropped {p:?} tree ({why}); that pattern uses the built-in rules");
        }
    }
    if let Some(err) = &report.error {
        eprintln!("model: `{}` unusable ({err})", model_path.display());
    }
    if report.error.is_none() && m.n_trees() > 0 {
        (Box::new(m), "trained CART model")
    } else {
        (Box::new(AutoPolicy), "built-in rules (run `train` for the CART model)")
    }
}

/// Default model location relative to the workspace root.
pub fn default_model_path() -> std::path::PathBuf {
    std::path::PathBuf::from("models/gswitch_model.json")
}

/// Resolve the results directory, creating it if needed.
pub fn results_dir() -> std::path::PathBuf {
    let p = std::path::PathBuf::from("results");
    let _ = std::fs::create_dir_all(&p);
    p
}
