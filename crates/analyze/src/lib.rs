//! `gswitch-analyze` — the repo's own static analyzer, run as a CI
//! gate (DESIGN §4.9).
//!
//! The repo invariants a lexical lint can express (raw std locks, raw
//! `AtomicBool`s, serving-path unwraps, unbounded channels, raw
//! `Instant::now`, OS threads, `todo!`) are clippy's, configured in the
//! root `clippy.toml`. Invariants a type can hold are types: a
//! cross-thread signal is a `gswitch_obs::sync::Flag` with fixed
//! orderings, `SpanKind` and its registry come from one list, and a
//! scheduler job is answered only through a reply that books its
//! terminal counter. This crate keeps what neither can see: that kernel
//! atomics are accounted in the SIMT cost model, that checked-in
//! decision trees are sound against the 21-feature Inspector contract,
//! that locks are taken in one order, and that every hot loop polls its
//! `RunProbe`. It encodes those invariants as passes:
//!
//! 1. [`rules`] — token-level source lints over a hand-rolled lexer
//!    ([`lexer`]): no syntax-tree dependency, comments and string
//!    literals can never trigger a rule.
//! 2. [`lockorder`] — a lock-acquisition graph across the runtime,
//!    propagated across calls; cycles are reported as potential
//!    deadlocks with witness paths.
//! 3. [`model`] — soundness checks over `models/*.json`: dead
//!    branches, illegal leaf classes, feature arity, thresholds vs
//!    stamped training ranges.
//! 4. [`cancellation`] (`unpolled-hot-loop`) — interprocedural
//!    dataflow over the [`callgraph`] (DESIGN §4.15).
//!
//! The source passes share one function index: [`callgraph`] scans each
//! file's functions once, and the rules read the same nodes.
//!
//! Findings are structured ([`findings::Finding`]). There is no
//! suppression: a pass states its own exemptions, each with its reason,
//! next to its scope. The binary exits nonzero on any deny finding (or
//! warn, under `--deny-warnings`).

pub mod callgraph;
pub mod cancellation;
pub mod findings;
pub mod lexer;
pub mod lockorder;
pub mod model;
pub mod rules;
pub mod source;

use findings::Report;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// What to analyze.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root; source passes walk `root/src` and `root/crates`.
    pub root: PathBuf,
    /// Directory of model JSON files (`root/models`).
    pub models: PathBuf,
}

impl Config {
    /// Conventional layout under one workspace root.
    pub fn for_root(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        Config { models: root.join("models"), root }
    }
}

/// Directory names the source walk never descends into. `fixtures`
/// holds the analyzer's own deliberately-bad test inputs.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", "fixtures", ".git", "node_modules"];

/// Collect every `.rs` file under `root/src` and `root/crates`,
/// workspace-relative, sorted for deterministic reports.
pub fn collect_sources(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    for top in ["src", "crates"] {
        walk(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                walk(&path, root, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push((rel, path));
        }
    }
}

/// Run every pass and produce the report.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut findings = Vec::new();

    let parsed: Vec<SourceFile> = collect_sources(&cfg.root)
        .into_iter()
        .filter_map(|(rel, path)| {
            Some(SourceFile::parse(rel, &std::fs::read_to_string(path).ok()?))
        })
        .collect();
    report.files_scanned = parsed.len();

    // The one function index and call graph every source pass reads.
    let cg = callgraph::CallGraph::build(&parsed);
    report.functions_indexed = cg.fns.len();
    report.call_edges = cg.sites.len();

    findings.extend(rules::analyze(&parsed, &cg));
    findings.extend(lockorder::analyze(&parsed, &cg));
    findings.extend(cancellation::analyze(&parsed, &cg));

    let mut model_files: Vec<PathBuf> = std::fs::read_dir(&cfg.models)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().map(|e| e == "json").unwrap_or(false))
        .collect();
    model_files.sort();
    for path in model_files {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let rel =
            path.strip_prefix(&cfg.root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        findings.extend(model::check_model_text(&rel, &text));
        report.models_checked += 1;
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.absorb(findings);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_layout() {
        let cfg = Config::for_root("/tmp/ws");
        assert!(cfg.models.ends_with("models"));
        assert!(cfg.models.starts_with(&cfg.root));
    }
}
