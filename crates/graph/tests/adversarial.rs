//! Adversarial-input tests for the dataset loaders: hostile bytes must
//! produce a structured [`LoadError`], never a panic and never an
//! attacker-sized allocation. The property tests throw fuzzed junk at
//! every format; the explicit cases pin down each hardening rule
//! (header limits, overflow, non-finite weights, strict-vs-repair) and
//! what each load reports: the line of a refusal, the count of repairs.

use gswitch_graph::io::{
    load_dimacs, load_edge_list, load_mtx, LoadError, LoadLimits, LoadMode, LoadOptions,
};
use proptest::prelude::*;

/// Tight ceilings so fuzzed headers cannot make a case slow even when
/// they parse.
fn tight() -> LoadOptions {
    LoadOptions {
        limits: LoadLimits { max_vertices: 1 << 12, max_edges: 1 << 14 },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic any loader.
    #[test]
    fn raw_bytes_never_panic(bytes in proptest::collection::vec(0u8..255, 0..512)) {
        let _ = load_mtx(&bytes[..], &tight());
        let _ = load_edge_list(&bytes[..], &tight());
        let _ = load_dimacs(&bytes[..], &tight());
        let _ = load_mtx(&bytes[..], &LoadOptions { mode: LoadMode::Strict, ..tight() });
    }

    /// A well-formed MTX header followed by fuzzed printable lines never
    /// panics — the parser survives junk past the point where it has
    /// already trusted the header.
    #[test]
    fn mtx_with_fuzzed_body_never_panics(
        body in proptest::collection::vec(proptest::collection::vec(32u8..127, 0..40), 0..24),
    ) {
        let lines: Vec<String> =
            body.into_iter().map(|l| l.into_iter().map(char::from).collect()).collect();
        let text = format!(
            "%%MatrixMarket matrix coordinate pattern general\n8 8 16\n{}",
            lines.join("\n")
        );
        let _ = load_mtx(text.as_bytes(), &tight());
    }

    /// Fuzzed numeric triples (any u64 magnitudes) in an edge list
    /// either load or fail with a structured error; when they load, the
    /// graph respects the configured ceilings.
    #[test]
    fn edge_list_numeric_fuzz_respects_limits(
        edges in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..16),
    ) {
        let text: String =
            edges.iter().map(|(u, v)| format!("{u} {v}\n")).collect();
        let opts = tight();
        if let Ok(l) = load_edge_list(text.as_bytes(), &opts) {
            prop_assert!(l.graph.num_vertices() <= opts.limits.max_vertices);
            prop_assert!(l.graph.num_edges() <= 2 * opts.limits.max_edges);
        }
    }

    /// DIMACS with a fuzzed problem line and arcs never panics.
    #[test]
    fn dimacs_fuzz_never_panics(
        n in 0u64..u64::MAX,
        m in 0u64..u64::MAX,
        arcs in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX), 0..12),
    ) {
        let mut text = format!("p sp {n} {m}\n");
        for (u, v, w) in arcs {
            text.push_str(&format!("a {u} {v} {w}\n"));
        }
        let _ = load_dimacs(text.as_bytes(), &tight());
    }
}

/// The line and message of a parse error.
fn refusal(r: Result<gswitch_graph::io::Loaded, LoadError>) -> (Option<usize>, String) {
    match r {
        Err(LoadError::Parse { line, msg }) => (line, msg),
        Err(LoadError::Io(e)) => panic!("expected a parse error, got i/o: {e}"),
        Ok(_) => panic!("hostile input was accepted"),
    }
}

fn is_parse(r: Result<gswitch_graph::io::Loaded, LoadError>) -> String {
    refusal(r).1
}

#[test]
fn oversized_mtx_header_is_rejected_before_allocation() {
    // Header claims ~10^15 vertices; rejection must come from the limit
    // check on the size line, long before any edge storage is reserved.
    let text = "%%MatrixMarket matrix coordinate pattern general\n1000000000000000 1 1\n1 1\n";
    let (line, msg) = refusal(load_mtx(text.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("exceeds limit"), "{msg}");
    assert_eq!(line, Some(2), "{msg}");
}

#[test]
fn mtx_size_line_overflow_is_a_parse_error() {
    // Larger than u64::MAX: the usize parse itself must fail cleanly.
    let text = "%%MatrixMarket matrix coordinate pattern general\n99999999999999999999999999 1 1\n";
    let msg = is_parse(load_mtx(text.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("bad size line"), "{msg}");
}

#[test]
fn mtx_rejects_non_finite_weights() {
    for w in ["nan", "inf", "-inf", "NaN", "Infinity"] {
        let text = format!("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 {w}\n");
        let msg = is_parse(load_mtx(text.as_bytes(), &LoadOptions::default()));
        assert!(msg.contains("non-finite"), "weight `{w}`: {msg}");
    }
}

#[test]
fn mtx_strict_rejects_negative_weights_repair_folds_them() {
    let text = "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 -4.0\n";
    let msg = is_parse(load_mtx(text.as_bytes(), &LoadOptions::strict()));
    assert!(msg.contains("negative weight"), "{msg}");
    // Repair mode folds to |w| (the paper's integer-weight preprocessing).
    let l = load_mtx(text.as_bytes(), &LoadOptions::default()).unwrap();
    assert_eq!(l.graph.out_weights().unwrap().iter().max(), Some(&4));
}

#[test]
fn mtx_truncated_and_overlong_bodies() {
    // Fewer entries than declared: fine in repair mode, an error strictly.
    let short = "%%MatrixMarket matrix coordinate pattern general\n4 4 3\n1 2\n";
    assert!(load_mtx(short.as_bytes(), &LoadOptions::default()).is_ok());
    let msg = is_parse(load_mtx(short.as_bytes(), &LoadOptions::strict()));
    assert!(msg.contains("truncated"), "{msg}");
    // More entries than declared is hostile in every mode.
    let long = "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n1 2\n2 3\n";
    let msg = is_parse(load_mtx(long.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("more entries"), "{msg}");
}

#[test]
fn mtx_indices_outside_declared_range_are_rejected() {
    let zero = "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n0 2\n";
    let msg = is_parse(load_mtx(zero.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("outside 1..="), "{msg}");
    let big = "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n1 9\n";
    let msg = is_parse(load_mtx(big.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("outside 1..="), "{msg}");
}

#[test]
fn edge_list_id_overflow_is_rejected() {
    // u32::MAX as an id would wrap `max_id + 1` on a 32-bit host; the
    // loader must refuse it with a structured error either way.
    let text = format!("0 {}\n", u32::MAX);
    let r = load_edge_list(text.as_bytes(), &LoadOptions::default());
    match r {
        Err(LoadError::Parse { msg, .. }) => {
            assert!(msg.contains("overflow") || msg.contains("exceeds limit"), "{msg}");
        }
        Ok(l) => {
            // 64-bit host with default limits: n = 2^32 exceeds the
            // default vertex ceiling, so Ok is only reachable with huge
            // custom limits — never under the defaults used here.
            panic!("hostile id accepted: {} vertices", l.graph.num_vertices());
        }
        Err(e) => panic!("unexpected error kind: {e}"),
    }
}

#[test]
fn edge_list_rejects_64bit_ids_and_mixed_weight_lines() {
    let huge = format!("{} 1\n", u64::MAX);
    let msg = is_parse(load_edge_list(huge.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("bad source id"), "{msg}");
    let mixed = "0 1 5\n1 2\n";
    let msg = is_parse(load_edge_list(mixed.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("mixed weighted"), "{msg}");
}

#[test]
fn edge_list_strict_rejects_dirty_input_repair_counts_it() {
    // One self loop and one edge listed in both orientations.
    let dirty = "0 0\n0 1\n1 0\n";
    let msg = is_parse(load_edge_list(dirty.as_bytes(), &LoadOptions::strict()));
    assert!(msg.contains("strict mode"), "{msg}");
    let l = load_edge_list(dirty.as_bytes(), &LoadOptions::default()).unwrap();
    assert_eq!(l.report.self_loops_dropped, 1, "{:?}", l.report);
    // Symmetrized, each orientation is stored twice: two directed
    // duplicates.
    assert_eq!(l.report.parallel_edges_deduped, 2, "{:?}", l.report);
    assert_eq!((l.weights_raised, l.repairs()), (0, 3));
}

#[test]
fn raised_weights_are_counted_as_repairs() {
    let l = load_edge_list("0 1 0\n1 2 5\n".as_bytes(), &LoadOptions::default()).unwrap();
    assert!(l.report.is_clean(), "{:?}", l.report);
    assert_eq!((l.weights_raised, l.repairs()), (1, 1));
    let l = load_dimacs("p sp 3 2\na 1 2 0\na 2 3 0\n".as_bytes(), &LoadOptions::default());
    assert_eq!(l.unwrap().repairs(), 2);
}

/// A problem of the whole file (nothing to read, a refused repair) has
/// no line to point at, so its message names none.
#[test]
fn whole_file_errors_name_no_line() {
    let cases = [
        (load_mtx("".as_bytes(), &LoadOptions::default()), "empty file"),
        (load_edge_list("# nothing\n".as_bytes(), &LoadOptions::default()), "no edges in file"),
        (load_dimacs("c nothing\n".as_bytes(), &LoadOptions::default()), "missing problem line"),
        (load_edge_list("0 0\n".as_bytes(), &LoadOptions::strict()), "input needs repair"),
    ];
    for (r, fragment) in cases {
        let err = r.map(|_| ()).unwrap_err().to_string();
        assert!(err.contains(fragment) && !err.contains("at line"), "{err}");
    }
}

#[test]
fn dimacs_zero_based_ids_are_rejected() {
    let text = "p sp 4 2\na 0 1 5\n";
    let msg = is_parse(load_dimacs(text.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("1-based"), "{msg}");
}

#[test]
fn dimacs_arc_before_problem_line_and_overlong_bodies() {
    let early = "a 1 2 3\np sp 4 4\n";
    let msg = is_parse(load_dimacs(early.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("before problem line"), "{msg}");
    let long = "p sp 4 1\na 1 2 3\na 2 3 4\n";
    let msg = is_parse(load_dimacs(long.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("more arcs"), "{msg}");
    let truncated = "p sp 4 3\na 1 2 3\n";
    assert!(load_dimacs(truncated.as_bytes(), &LoadOptions::default()).is_ok());
    let msg = is_parse(load_dimacs(truncated.as_bytes(), &LoadOptions::strict()));
    assert!(msg.contains("truncated"), "{msg}");
}

#[test]
fn dimacs_header_bomb_is_limited() {
    let text = "p sp 1000000000000 1000000000000 \n";
    let (line, msg) = refusal(load_dimacs(text.as_bytes(), &LoadOptions::default()));
    assert!(msg.contains("exceeds limit"), "{msg}");
    assert_eq!(line, Some(1), "{msg}");
}

#[test]
fn dimacs_second_problem_line_is_rejected() {
    // A second `p` line must not restart the graph and drop earlier arcs.
    let text = "p sp 3 1\na 1 2 5\np sp 3 1\n";
    for opts in [LoadOptions::default(), LoadOptions::strict()] {
        let msg = is_parse(load_dimacs(text.as_bytes(), &opts));
        assert!(msg.contains("second problem line"), "{msg}");
    }
}

/// Strict mode refuses a weight that would be raised to 1; repair mode
/// raises it. `text` holds one edge between vertices 0 and 1.
fn strict_refuses_weight_below_one(
    text: &str,
    load: impl Fn(&[u8], &LoadOptions) -> Result<gswitch_graph::io::Loaded, LoadError>,
) {
    let msg = is_parse(load(text.as_bytes(), &LoadOptions::strict()));
    assert!(msg.contains("strict mode") && msg.contains("below 1"), "{msg}");
    let l = load(text.as_bytes(), &LoadOptions::default()).unwrap();
    assert_eq!(l.graph.out_weights().unwrap(), &[1, 1]);
    assert_eq!(l.repairs(), 1, "{:?}", l.report);
}

#[test]
fn dimacs_strict_rejects_zero_weight() {
    strict_refuses_weight_below_one("p sp 2 1\na 1 2 0\n", |b, o| load_dimacs(b, o));
}

#[test]
fn edge_list_strict_rejects_zero_weight() {
    strict_refuses_weight_below_one("0 1 0\n", |b, o| load_edge_list(b, o));
}

#[test]
fn mtx_strict_rejects_weight_that_rounds_below_one() {
    let header = "%%MatrixMarket matrix coordinate real general\n2 2 1\n";
    strict_refuses_weight_below_one(&format!("{header}1 2 0.2\n"), |b, o| load_mtx(b, o));
    // The check follows the rounding: 0.6 rounds to 1 and needs no repair.
    let l = load_mtx(format!("{header}1 2 0.6\n").as_bytes(), &LoadOptions::strict()).unwrap();
    assert_eq!(l.graph.out_weights().unwrap(), &[1, 1]);
}

#[test]
fn mtx_rejects_unreadable_field_and_symmetry() {
    for header in ["complex general", "pattern skew-symmetric", "real hermitian", "integer"] {
        let text = format!("%%MatrixMarket matrix coordinate {header}\n2 2 1\n1 2 1 0\n");
        for opts in [LoadOptions::default(), LoadOptions::strict()] {
            assert!(load_mtx(text.as_bytes(), &opts).is_err(), "`{header}` accepted");
        }
    }
    let ok = "%%MatrixMarket matrix coordinate Integer Symmetric\n2 2 1\n1 2 3\n";
    assert!(load_mtx(ok.as_bytes(), &LoadOptions::strict()).is_ok());
}
