//! Token-level source lints: the repo invariants a lexical match can
//! check but clippy cannot express.
//!
//! | rule | severity | scope | invariant |
//! |------|----------|-------|-----------|
//! | `uninstrumented-atomic` | deny | `src/` of kernels, simt | every atomic op is accounted in the SIMT cost model |
//! | `unbounded-collection` | warn | `src/` of runtime, shard | a `VecDeque` queue in a file with no notion of capacity |
//! | `per-edge-shared-rmw` | warn | `src/` of core, kernels, algos, shard | an `EdgeApp` per-edge callback issues no read-modify-write on a whole-app atomic — per-edge accounting moves to a per-vertex hook or the barrier |
//!
//! The purely lexical rules this pass used to carry (raw std locks,
//! serving-path unwraps, unbounded channels, raw `Instant::now`, OS
//! threads, `todo!`) are clippy lints configured in the root
//! `clippy.toml` and `[workspace.lints]` (DESIGN §4.9).

use crate::findings::{Finding, Severity};
use crate::source::{matching, SourceFile};

/// Crates that implement the instrumented SIMT kernels: every atomic
/// must be reflected in a `KernelProfile` counter.
const KERNEL_CRATES: [&str; 2] = ["kernels", "simt"];

/// The primitive layer (`AtomicArray`, `AtomicBitSet`): it cannot see
/// warp context, so the calling kernels charge `KernelProfile::atomics`
/// per call site, and this rule checks those callers instead.
const ATOMIC_PRIMITIVES: &str = "crates/kernels/src/atomics.rs";

/// Atomic operations the cost model charges for.
const ATOMIC_OPS: [&str; 9] = [
    "fetch_add",
    "fetch_sub",
    "fetch_min",
    "fetch_max",
    "fetch_or",
    "fetch_and",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_set",
];

/// Identifiers whose presence in a function counts as "this function
/// emits cost-model counters" (profile fields or accumulators).
const EMISSION_IDENTS: [&str; 5] = ["atomics", "atomic_conflicts", "conflicts", "profile", "prof"];

/// Run every source lint over one file.
pub fn lint_file(sf: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    uninstrumented_atomic(sf, &mut out);
    unbounded_collection(sf, &mut out);
    per_edge_shared_rmw(sf, &mut out);
    out
}

/// `uninstrumented-atomic`: a kernel-side function performs an atomic
/// operation but never touches a cost-model counter. The Inspector's
/// 21 features and the Executor's profiling feedback are computed from
/// `KernelProfile`; an uncounted atomic silently skews every decision
/// the autotuner makes.
fn uninstrumented_atomic(sf: &SourceFile, out: &mut Vec<Finding>) {
    let in_scope = sf.crate_name().map(|c| KERNEL_CRATES.contains(&c)).unwrap_or(false);
    if !in_scope || !sf.in_crate_src() || sf.rel == ATOMIC_PRIMITIVES {
        return;
    }
    let t = &sf.toks;
    for f in sf.functions() {
        if f.is_test {
            continue;
        }
        let body = &t[f.body.clone()];
        let first_atomic = body.iter().enumerate().find(|(k, tok)| {
            ATOMIC_OPS.iter().any(|op| tok.is_ident(op))
                && body.get(k + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        });
        let Some((_, atomic_tok)) = first_atomic else { continue };
        let emits = body.iter().any(|tok| EMISSION_IDENTS.iter().any(|e| tok.is_ident(e)));
        if !emits {
            out.push(Finding::new(
                "uninstrumented-atomic",
                Severity::Deny,
                &sf.rel,
                atomic_tok.line,
                sf.snippet(atomic_tok.line),
                format!(
                    "fn `{}` issues `{}` but emits no cost-model counter \
                     (KernelProfile::atomics/atomic_conflicts) — the SIMT model must account \
                     for every atomic",
                    f.name, atomic_tok.text
                ),
            ));
        }
    }
}

/// Crates that queue work for serving: the runtime's scheduler and the
/// shard batcher both sit behind explicit admission control.
const QUEUEING_CRATES: [&str; 2] = ["runtime", "shard"];

/// `unbounded-collection` (warn, heuristic): a `VecDeque::new()` in a
/// runtime or shard file that never mentions a capacity anywhere. A
/// queue with no notion of capacity is how slow consumers turn into
/// OOM kills.
fn unbounded_collection(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !sf.crate_name().is_some_and(|c| QUEUEING_CRATES.contains(&c)) || !sf.in_crate_src() {
        return;
    }
    if sf.has_ident_containing("capacity") {
        return;
    }
    let t = &sf.toks;
    for i in 3..t.len() {
        if sf.test_mask[i] {
            continue;
        }
        if t[i].is_ident("new")
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
            && t[i - 3].is_ident("VecDeque")
        {
            out.push(Finding::new(
                "unbounded-collection",
                Severity::Warn,
                &sf.rel,
                t[i].line,
                sf.snippet(t[i].line),
                "VecDeque in a file with no capacity bound anywhere — check that something \
                 limits its growth"
                    .to_string(),
            ));
        }
    }
}

/// Crates whose `src/` implements `EdgeApp`s (algorithms, and the views
/// and wrappers the drivers put in front of them).
const APP_CRATES: [&str; 4] = ["core", "kernels", "algos", "shard"];

/// The `EdgeApp` callbacks Expand calls once per traversed edge.
const PER_EDGE_CALLBACKS: [&str; 4] = ["emit", "comp", "comp_atomic", "would_tie"];

/// Read-modify-writes that take their cache line exclusive.
const SHARED_RMW_OPS: [&str; 4] = ["fetch_add", "fetch_or", "fetch_and", "swap"];

/// What tells a `std::sync::atomic` call from an `AtomicArray` /
/// `AtomicBitSet` element access of the same name: only the former names
/// a memory ordering.
const ORDERING_IDENTS: [&str; 6] =
    ["Ordering", "Relaxed", "SeqCst", "AcqRel", "Acquire", "Release"];

/// `per-edge-shared-rmw`: `self.<field>.fetch_add/fetch_or/fetch_and/swap(
/// .., <ordering>)` inside a per-edge `EdgeApp` callback. A per-vertex
/// element (`AtomicArray`, `AtomicBitSet`) spreads its writers over the
/// vertex space; a single `AtomicU64` of the app is one cache line every
/// lane and every pool thread pulls exclusive once per edge — the sharded
/// view's per-edge record counter cost two cores more than one (PR 23).
/// Count per vertex (`prepare`) or at the barrier instead.
fn per_edge_shared_rmw(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !sf.crate_name().is_some_and(|c| APP_CRATES.contains(&c)) || !sf.in_crate_src() {
        return;
    }
    let t = &sf.toks;
    for f in sf.functions() {
        if f.is_test || !PER_EDGE_CALLBACKS.contains(&f.name.as_str()) {
            continue;
        }
        let body = &t[f.body.clone()];
        for k in 0..body.len().saturating_sub(5) {
            let on_own_field = body[k].is_ident("self")
                && body[k + 1].is_punct('.')
                && body[k + 2].kind == crate::lexer::TokKind::Ident
                && body[k + 3].is_punct('.')
                && SHARED_RMW_OPS.iter().any(|op| body[k + 4].is_ident(op))
                && body[k + 5].is_punct('(');
            if !on_own_field {
                continue;
            }
            let args = &body[k + 5..matching(body, k + 5)];
            if args.iter().any(|tok| ORDERING_IDENTS.iter().any(|o| tok.is_ident(o))) {
                let op = &body[k + 4];
                out.push(Finding::new(
                    "per-edge-shared-rmw",
                    Severity::Warn,
                    &sf.rel,
                    op.line,
                    sf.snippet(op.line),
                    format!(
                        "fn `{}` runs once per edge and does `self.{}.{}` on a whole-app atomic \
                         — every lane and pool thread bounces that one cache line; count per \
                         vertex (`prepare`) or at the barrier",
                        f.name,
                        body[k + 2].text,
                        op.text
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        lint_file(&SourceFile::parse(rel, src))
    }

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn atomic_without_counter_flagged_with_counter_ok() {
        let bad = "fn push(&self) { self.cell.fetch_add(1, Relaxed); }";
        let f = lint("crates/kernels/src/x.rs", bad);
        assert_eq!(rules(&f), vec!["uninstrumented-atomic"]);

        let good =
            "fn push(&self, acc: &mut Acc) { self.cell.fetch_add(1, Relaxed); acc.atomics += 1; }";
        let f = lint("crates/kernels/src/x.rs", good);
        assert!(f.is_empty(), "{f:?}");

        // Out-of-scope crate: the runtime's id counter is not a kernel.
        let f = lint("crates/runtime/src/x.rs", bad);
        assert!(rules(&f).is_empty());
        // The primitive layer itself: its callers are the ones checked.
        assert!(lint("crates/kernels/src/atomics.rs", bad).is_empty());
    }

    #[test]
    fn unbounded_collection_heuristic() {
        let bare = "struct Q { q: VecDeque<u64> }\nfn f() -> VecDeque<u64> { VecDeque::new() }";
        let f = lint("crates/runtime/src/x.rs", bare);
        assert_eq!(rules(&f), vec!["unbounded-collection"]);
        assert_eq!(f[0].severity, Severity::Warn);
        let bounded = format!("{bare}\nfn cap(queue_capacity: usize) {{}}");
        assert!(lint("crates/runtime/src/x.rs", &bounded).is_empty());
        // The shard plan store's FIFO is in scope; its real file names a
        // capacity, mirrored here.
        let f = lint("crates/shard/src/x.rs", bare);
        assert_eq!(rules(&f), vec!["unbounded-collection"]);
        assert!(lint("crates/shard/src/x.rs", &bounded).is_empty());
    }

    #[test]
    fn whole_app_rmw_in_per_edge_callbacks_warns() {
        let counter = "impl EdgeApp for V { fn comp_atomic(&self, d: u32, m: u32) -> bool { \
                       self.records.fetch_add(1, Ordering::Relaxed); self.app.comp_atomic(d, m) } }";
        for rel in ["crates/core/src/x.rs", "crates/algos/src/x.rs", "crates/shard/src/x.rs"] {
            let f = lint(rel, counter);
            assert_eq!(rules(&f), vec!["per-edge-shared-rmw"], "{rel}");
            assert_eq!(f[0].severity, Severity::Warn);
        }
        let swap =
            "fn would_tie(&self, d: u32, m: u32) -> bool { self.last.swap(d, Relaxed) == m }";
        assert_eq!(rules(&lint("crates/algos/src/x.rs", swap)), vec!["per-edge-shared-rmw"]);
        // Per-vertex elements are what the callbacks are for: no ordering
        // argument, one cell per destination.
        let cells = "fn comp_atomic(&self, d: u32, m: f64) -> bool { \
                     self.seen.set(d); self.residual.fetch_add(d, m) < self.eps }";
        assert!(lint("crates/algos/src/x.rs", cells).is_empty());
        // Per-vertex hooks and barrier code may count on the app itself.
        let prepare = "fn prepare(&self, v: u32) { self.records.fetch_add(1, Ordering::Relaxed); }";
        assert!(lint("crates/core/src/x.rs", prepare).is_empty());
        // Test apps count their own calls; other crates implement no apps.
        let in_test = format!("#[cfg(test)]\nmod t {{ {counter} }}");
        assert!(lint("crates/core/src/x.rs", &in_test).is_empty());
        assert!(lint("crates/shard/tests/t.rs", counter).is_empty());
        assert!(lint("crates/runtime/src/x.rs", counter).is_empty());
    }
}
