//! End-to-end runs of the analyzer over the checked-in fixture trees
//! and over the real workspace (self-check).

use gswitch_analyze::{run, Config};
use std::path::PathBuf;

fn fixture_root(which: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(which)
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("."))
}

#[test]
fn bad_fixture_tree_trips_every_rule() {
    let cfg = Config::for_root(fixture_root("bad"));
    let report = run(&cfg);

    let count = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();
    assert_eq!(count("unbounded-collection"), 1, "{report:#?}");
    assert_eq!(count("uninstrumented-atomic"), 1);
    assert_eq!(count("per-edge-shared-rmw"), 1);
    // cycle.rs (intra-function) plus interlock.rs (only visible across
    // the `append → compact` call edge).
    assert_eq!(count("lock-order-cycle"), 2);
    // Cancellation soundness: driver.rs (root never polls + two
    // unpolled loops).
    assert_eq!(count("unpolled-hot-loop"), 3);
    // Model pass: the dead branch, and the stepping tree serving drops
    // for declaring 8 classes, with its out-of-range leaf named.
    assert_eq!(count("model-dead-branch"), 1);
    assert_eq!(count("model-class-range"), 2);
    // Nothing else: every finding is one of the above.
    assert_eq!(report.findings.len(), 11, "{report:#?}");

    // The intra-function lock-cycle finding names both conflicting
    // functions; the interprocedural one renders its witness as
    // `caller → callee`.
    let messages: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order-cycle")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        messages.iter().any(|m| m.contains("enqueue") && m.contains("reindex")),
        "{messages:?}"
    );
    assert!(messages.iter().any(|m| m.contains("append → compact")), "{messages:?}");

    assert!(report.deny > 0);
    assert_ne!(report.exit_code(false), 0);
    assert_ne!(report.exit_code(true), 0);
}

#[test]
fn clean_fixture_tree_is_silent() {
    let cfg = Config::for_root(fixture_root("clean"));
    let report = run(&cfg);
    assert!(report.findings.is_empty(), "{report:#?}");
    assert_eq!(report.exit_code(true), 0);
    assert!(report.files_scanned >= 5);
    assert_eq!(report.models_checked, 1);
    // The clean tree exercises the call graph too: functions are
    // indexed and at least the fixture call edges resolve.
    assert!(report.functions_indexed >= 10);
    assert!(report.call_edges >= 3);
}

/// Self-check: the analyzer over the workspace it ships in must be
/// clean — this is exactly what the CI gate runs.
#[test]
fn workspace_is_clean_under_own_analysis() {
    let root = workspace_root();
    assert!(root.join("Cargo.toml").exists(), "workspace root not found at {root:?}");
    let report = run(&Config::for_root(root));
    assert!(report.findings.is_empty(), "findings: {:#?}", report.findings);
    assert_eq!(report.exit_code(true), 0);
    // The analyzer's own crate is part of the scan, and so is the model.
    assert!(report.files_scanned > 50);
    assert_eq!(report.models_checked, 1);
}

/// The overload-resilience modules (breaker, brownout, health, plus
/// the scheduler that hosts the shed policy and the executor it hands
/// whole-graph and sharded jobs to) are inside the scan surface and
/// lint-clean: the source walk picks each of them up, and the full
/// workspace analysis attributes no finding to any of them. Guards
/// against the walk silently skipping new runtime files and against
/// lint regressions in the overload machinery.
#[test]
fn overload_modules_are_scanned_and_lint_clean() {
    let root = workspace_root();
    let sources = gswitch_analyze::collect_sources(&root);
    let modules = [
        "crates/runtime/src/scheduler.rs",
        "crates/runtime/src/executor.rs",
        "crates/runtime/src/breaker.rs",
        "crates/runtime/src/brownout.rs",
        "crates/runtime/src/health.rs",
    ];
    for module in modules {
        assert!(
            sources.iter().any(|(rel, _)| rel == module),
            "{module} missing from the analyzer's source walk"
        );
    }
    let report = run(&Config::for_root(root));
    for module in modules {
        let here: Vec<_> = report.findings.iter().filter(|f| f.file == module).collect();
        assert!(here.is_empty(), "{module} has findings: {here:#?}");
    }
}

/// The `--json` schema is pinned by a checked-in golden file: a
/// synthetic report must serialize to exactly the documented shape
/// (README "Static analysis"). Field renames, enum respellings, or
/// dropped counters show up here before they break CI annotation.
#[test]
fn json_schema_matches_golden_file() {
    use gswitch_analyze::findings::{Finding, Report, Severity};

    let mut report = Report {
        files_scanned: 2,
        models_checked: 1,
        functions_indexed: 3,
        call_edges: 2,
        ..Report::default()
    };
    report.absorb(vec![
        Finding::new(
            "relaxed-signal",
            Severity::Deny,
            "crates/runtime/src/flag.rs",
            19,
            "self.stop.load(Ordering::Relaxed)",
            "cross-thread signal uses Relaxed",
        ),
        Finding::new(
            "unbounded-collection",
            Severity::Warn,
            "crates/runtime/src/a.rs",
            12,
            "let q = VecDeque::new();",
            "VecDeque with no capacity bound",
        ),
    ]);

    let produced = serde_json::to_value(&report).expect("report serializes");
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("report.json");
    let golden_text = std::fs::read_to_string(&golden_path).expect("golden file readable");
    let golden: serde_json::Value = serde_json::from_str(&golden_text).expect("golden parses");
    assert_eq!(produced, golden, "report schema drifted from tests/golden/report.json");
}

/// The JSON report round-trips through serde and carries the counters
/// CI annotates with.
#[test]
fn json_report_shape() {
    let report = run(&Config::for_root(fixture_root("bad")));
    let text = serde_json::to_string(&report).expect("report serializes");
    let back: serde_json::Value = serde_json::from_str(&text).expect("report parses");
    let deny = back.get("deny").and_then(|v| v.as_u64()).unwrap_or(0);
    assert!(deny > 0);
    let findings = back.get("findings").and_then(|v| v.as_array()).expect("findings array");
    assert!(!findings.is_empty());
    let f = &findings[0];
    for key in ["rule", "severity", "file", "line", "snippet", "message"] {
        assert!(f.get(key).is_some(), "finding missing key {key}: {f:?}");
    }
}
