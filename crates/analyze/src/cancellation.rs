//! Pass — cancellation soundness (`unpolled-hot-loop`).
//!
//! The engine has no preemption: a run stops only when a super-step
//! polls its `RunProbe` (§4.7). That invariant is load-bearing for
//! deadlines, cancellation, and shutdown — and it is exactly the kind
//! of property a unit test can't hold, because every new kernel loop
//! re-opens it. This pass checks it statically over the call graph:
//!
//! 1. **Driver coverage.** Each root (`run` / `run_sharded` in
//!    `crates/core` — the one-lane and K-lane entry points of the single
//!    super-step loop, `engine::drive`) must reach at least one loop
//!    that polls a probe (`…probe….check(…)`). An entry point that
//!    never polls can never be stopped.
//! 2. **Unbounded loops.** Every `while`/`loop` in a function
//!    reachable from a root must poll inside the loop — lexically, or
//!    by calling (inside the loop) a function that polls. A `for` loop
//!    is bounded by its iterator and inherits the enclosing
//!    super-step's poll, so it is exempt; a `while`/`loop` can spin
//!    past the super-step boundary, so it must poll itself.
//!
//! Deliberate trade-offs (documented in DESIGN §4.15): CAS-retry
//! loops (body contains `compare_exchange*`) are exempt — they are
//! lock-free primitives whose iterations are bounded by contention,
//! not by work. Reachability uses strict (unambiguous) call edges, so
//! a loop only reachable through an ambiguous name is not checked —
//! the pass under-approximates rather than drowning real findings.

use crate::callgraph::{loops_in, CallGraph, FnId, LoopKind, LoopSpan};
use crate::findings::{Finding, Severity};
use crate::source::SourceFile;

/// Entry points of the super-step loop, looked up in `crates/core` src
/// files; everything the loop runs (its rescue spin included) is
/// reachable from either.
const ROOTS: [&str; 2] = ["run", "run_sharded"];

/// Does token `i` look like a probe poll — `.check(` with a `probe`
/// receiver in the immediately preceding tokens?
fn is_poll_site(sf: &SourceFile, i: usize) -> bool {
    let t = &sf.toks;
    let call_shape = t[i].is_ident("check")
        && t.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        && i >= 1
        && t[i - 1].is_punct('.');
    if !call_shape {
        return false;
    }
    t[i.saturating_sub(5)..i]
        .iter()
        .any(|p| p.kind == crate::lexer::TokKind::Ident && p.text.contains("probe"))
}

/// Does `l` (in function `f` of `sf`) poll — directly, or via a call
/// inside the loop to a function that transitively polls?
fn loop_polls(sf: &SourceFile, l: &LoopSpan, f: FnId, cg: &CallGraph, polls: &[bool]) -> bool {
    // Header-inclusive: `while probe.check(..).is_none()` polls in the
    // condition, which runs once per iteration like the body does.
    let span = l.head..l.body.end;
    if span.clone().any(|i| is_poll_site(sf, i)) {
        return true;
    }
    cg.callees(f).any(|site| !site.ambiguous && span.contains(&site.tok) && polls[site.callee])
}

/// Run the pass.
pub fn analyze(files: &[SourceFile], cg: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();

    let roots: Vec<FnId> = (0..cg.fns.len())
        .filter(|&f| {
            let node = &cg.fns[f];
            let sf = &files[node.file];
            !node.is_test
                && ROOTS.contains(&node.name.as_str())
                && sf.crate_name() == Some("core")
                && sf.in_crate_src()
        })
        .collect();
    if roots.is_empty() {
        return findings;
    }
    let reached = cg.reachable(&roots, true);

    // `polls[f]` — f's body contains a poll site, or f calls (anywhere)
    // a polling function. Monotone fixpoint, cycle-tolerant.
    let mut polls: Vec<bool> = (0..cg.fns.len())
        .map(|f| {
            let node = &cg.fns[f];
            node.body.clone().any(|i| is_poll_site(&files[node.file], i))
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..cg.fns.len() {
            if !polls[f] && cg.callees(f).any(|site| !site.ambiguous && polls[site.callee]) {
                polls[f] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Rule 1: every root must reach a polled loop somewhere.
    for &root in &roots {
        let any_polled_loop = (0..cg.fns.len()).filter(|&f| reached[f]).any(|f| {
            let node = &cg.fns[f];
            let sf = &files[node.file];
            loops_in(&sf.toks, node.body.clone()).iter().any(|l| loop_polls(sf, l, f, cg, &polls))
        });
        if !any_polled_loop {
            let node = &cg.fns[root];
            let sf = &files[node.file];
            findings.push(Finding::new(
                "unpolled-hot-loop",
                Severity::Deny,
                &sf.rel,
                node.line,
                sf.snippet(node.line),
                format!(
                    "super-step driver `{}` never polls a RunProbe on any reachable path — a \
                     run through it cannot be cancelled, deadlined, or shut down",
                    node.name
                ),
            ));
        }
    }

    // Rule 2: unbounded loops in reachable functions must poll.
    for (f, was_reached) in reached.iter().enumerate() {
        if !was_reached || cg.fns[f].is_test {
            continue;
        }
        let node = &cg.fns[f];
        let sf = &files[node.file];
        for l in loops_in(&sf.toks, node.body.clone()) {
            if l.kind == LoopKind::For {
                continue;
            }
            // Lock-free CAS retry: bounded by contention, not work.
            if l.body.clone().any(|i| sf.toks[i].text.starts_with("compare_exchange")) {
                continue;
            }
            if !loop_polls(sf, &l, f, cg, &polls) {
                findings.push(Finding::new(
                    "unpolled-hot-loop",
                    Severity::Deny,
                    &sf.rel,
                    l.line,
                    sf.snippet(l.line),
                    format!(
                        "unbounded `{}` in `{}` is reachable from the super-step drivers but \
                         never polls a RunProbe — it can spin past every cancellation and \
                         deadline check",
                        match l.kind {
                            LoopKind::While => "while",
                            _ => "loop",
                        },
                        node.name
                    ),
                ));
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pass(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> =
            srcs.iter().map(|(rel, s)| SourceFile::parse(*rel, s)).collect();
        let cg = CallGraph::build(&files);
        analyze(&files, &cg)
    }

    /// Both entry points over one polled super-step loop, like
    /// `crates/core/src/engine.rs`.
    const POLLED_DRIVER: &str = "pub fn run(opts: &EngineOptions) { drive(opts); }\n\
       pub fn run_sharded(opts: &EngineOptions) { drive(opts); }\n\
       fn drive(opts: &EngineOptions) {\n\
         for iteration in 0..opts.max_iterations {\n\
           if let Some(reason) = opts.probe.check(iteration) { break; }\n\
           step();\n\
         }\n\
       }\n\
       fn step() {}";

    #[test]
    fn polled_driver_is_clean() {
        assert!(run_pass(&[("crates/core/src/engine.rs", POLLED_DRIVER)]).is_empty());
    }

    #[test]
    fn driver_without_any_poll_is_flagged() {
        let src = "pub fn run(opts: &EngineOptions) { drive(opts); }\n\
           fn drive(opts: &EngineOptions) {\n\
             for iteration in 0..opts.max_iterations { step(); }\n\
           }\n\
           fn step() {}";
        let f = run_pass(&[("crates/core/src/engine.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("never polls"));
    }

    #[test]
    fn unbounded_callee_loop_without_poll_is_flagged() {
        // The rescue spin under the shared loop, without its poll.
        let src = format!(
            "{POLLED_DRIVER}\n\
             fn drain() {{ while pending() {{ relax(); }} }}\n\
             fn pending() -> bool {{ false }}\n\
             fn relax() {{}}"
        )
        .replace("fn step() {}", "fn step() { drain(); }");
        let f = run_pass(&[("crates/core/src/engine.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unpolled-hot-loop");
        assert!(f[0].message.contains("drain"), "{}", f[0].message);
    }

    #[test]
    fn poll_via_helper_inside_loop_is_accepted() {
        let src = "pub fn run(opts: &EngineOptions) {\n\
             loop { if bail(opts) { break; } }\n\
           }\n\
           fn bail(opts: &EngineOptions) -> bool { opts.probe.check(0).is_some() }";
        assert!(run_pass(&[("crates/core/src/engine.rs", src)]).is_empty());
    }

    #[test]
    fn cas_retry_loops_are_exempt() {
        let src = format!(
            "{POLLED_DRIVER}\n\
             fn step_impl(cell: &AtomicU64) {{\n\
               let mut cur = cell.load(Relaxed);\n\
               loop {{\n\
                 match cell.compare_exchange_weak(cur, cur + 1, Relaxed, Relaxed) {{\n\
                   Ok(_) => return,\n\
                   Err(seen) => cur = seen,\n\
                 }}\n\
               }}\n\
             }}"
        );
        // `step_impl` is unreachable here, but even a reachable CAS loop
        // would be exempt; splice it into the reachable path to prove it.
        let reachable = src.replace("fn step() {}", "fn step() { step_impl(&CELL); }");
        assert!(run_pass(&[("crates/core/src/engine.rs", &reachable)]).is_empty());
    }

    #[test]
    fn loops_outside_core_roots_are_ignored() {
        let src = "pub fn serve() { loop { accept(); } }\nfn accept() {}";
        assert!(run_pass(&[("crates/runtime/src/server.rs", src)]).is_empty());
    }
}
