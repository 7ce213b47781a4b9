//! Pass — outcome conservation (`unaccounted-terminal-status`).
//!
//! The soak suite proves a ledger identity dynamically: every job the
//! scheduler admits resolves to exactly one terminal `JobStatus`, and
//! every terminal status bumps its matching `jobs_*` counter — so
//! `submitted == Σ terminal counters` holds under churn. This pass is
//! the static mirror: every *construction site* of a terminal
//! `JobStatus` variant must be paired with an increment of an
//! accounting counter for that variant, either in the same function or
//! in some (transitive) caller on the call graph.
//!
//! What counts as a construction site: a `JobStatus::Variant` token
//! sequence in non-test crate-src code that is not a match pattern
//! (next token `=>` or `|`), not a comparison (preceded by `==`/`!=`),
//! and not inside a `matches!` invocation. What counts as accounting:
//! `ident.inc(` where `ident` is on the variant's accept list (e.g.
//! `timeout_queued`/`timeout_midrun`/`timeout_late` all account for
//! `DeadlineExceeded` — which of the three is a runtime decision).
//!
//! A status can also be booked by a `settle`-shaped callee, one that
//! increments the variant's counter for whatever status it is handed:
//! a construction passed directly as an argument to such a callee
//! (`settle(…, JobStatus::Shed, …)`) is accounted, and so is one
//! whose transitive caller calls such a callee (a status returned up
//! to the code that settles it).
//!
//! Trade-offs (DESIGN §4.15): caller search follows *all* edges,
//! ambiguous ones included — an unaccounted status is only reported
//! when no plausible caller accounts for it, so the pass
//! under-reports rather than flagging dispatch-table indirection.

use crate::callgraph::{CallGraph, FnId};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::source::{matching, SourceFile};

/// Terminal variants and the counter identifiers that account for them.
/// Gauges (`queue_depth`) and flow counters (`submitted`, `rejected`,
/// `retried`) are not terminal accounting and are deliberately absent.
const ACCOUNTS: [(&str, &[&str]); 7] = [
    ("Ok", &["ok", "jobs_ok"]),
    ("Error", &["error", "jobs_error"]),
    ("Failed", &["failed", "jobs_failed"]),
    ("Cancelled", &["cancelled", "jobs_cancelled"]),
    ("DeadlineExceeded", &["timeout_queued", "timeout_midrun", "timeout_late", "jobs_timeout"]),
    ("Shed", &["shed", "jobs_shed"]),
    ("BreakerOpen", &["breaker_fastfail", "jobs_breaker_open"]),
];

fn accepts(variant: &str) -> Option<&'static [&'static str]> {
    ACCOUNTS.iter().find(|(v, _)| *v == variant).map(|(_, a)| *a)
}

/// Is the `JobStatus` token at `i` a construction of a terminal
/// variant (as opposed to a pattern, comparison, or `matches!` arm)?
/// Returns the variant name when it is.
fn construction_at(sf: &SourceFile, i: usize) -> Option<&str> {
    let t = &sf.toks;
    if !t[i].is_ident("JobStatus")
        || !t.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
        || !t.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(false)
    {
        return None;
    }
    let variant = t.get(i + 3).filter(|n| n.kind == TokKind::Ident)?;
    accepts(&variant.text)?;
    // Match pattern: `JobStatus::V =>` or `JobStatus::V | ...`.
    if let Some(next) = t.get(i + 4) {
        if next.is_punct('|') {
            return None;
        }
        if next.is_punct('=') && t.get(i + 5).map(|n| n.is_punct('>')).unwrap_or(false) {
            return None;
        }
    }
    // Comparison: `== JobStatus::V` / `!= JobStatus::V`.
    if i >= 2 && t[i - 1].is_punct('=') && (t[i - 2].is_punct('=') || t[i - 2].is_punct('!')) {
        return None;
    }
    // `matches!(self, JobStatus::V)` — scan back to the statement edge.
    for k in (i.saturating_sub(40)..i).rev() {
        let p = &t[k];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        if p.is_ident("matches") && t.get(k + 1).map(|n| n.is_punct('!')).unwrap_or(false) {
            return None;
        }
    }
    Some(&t[i + 3].text)
}

/// Does function `f` increment a counter on `variant`'s accept list —
/// an `ident.inc(` where `ident` accounts for the variant?
fn fn_accounts(files: &[SourceFile], cg: &CallGraph, f: FnId, variant: &str) -> bool {
    let accept = accepts(variant).unwrap_or(&[]);
    let node = &cg.fns[f];
    let t = &files[node.file].toks;
    node.body.clone().any(|i| {
        t[i].kind == TokKind::Ident
            && accept.contains(&t[i].text.as_str())
            && t.get(i + 1).map(|n| n.is_punct('.')).unwrap_or(false)
            && t.get(i + 2).map(|n| n.is_ident("inc")).unwrap_or(false)
            && t.get(i + 3).map(|n| n.is_punct('(')).unwrap_or(false)
    })
}

/// Is the construction at token `i` of `f` a whole argument —
/// `callee(…, JobStatus::V, …)` — of a call to a callee that accounts
/// for `variant`?
fn passed_to_booking(
    files: &[SourceFile],
    cg: &CallGraph,
    f: FnId,
    i: usize,
    variant: &str,
) -> bool {
    let t = &files[cg.fns[f].file].toks;
    let is = |k: usize, c: &str| t.get(k).is_some_and(|n| c.chars().any(|c| n.is_punct(c)));
    if i == 0 || !is(i - 1, "(,") || !is(i + 4, ",)") {
        return false;
    }
    cg.callees(f).any(|s| {
        // Step over nested groups: only the call's own top level counts.
        let mut k = s.tok + 2;
        while k < i {
            k = if is(k, "([{") { matching(t, k) + 1 } else { k + 1 };
        }
        k == i && i < matching(t, s.tok + 1) && fn_accounts(files, cg, s.callee, variant)
    })
}

/// Is the construction at token `i` of `f` accounted: booked in `f`
/// (a counter, or a direct argument to a booking callee), or in a
/// transitive caller that increments the counter or calls a booking
/// callee? All call edges are followed (ambiguity included) —
/// accounting through a dispatcher still counts.
fn accounted(files: &[SourceFile], cg: &CallGraph, f: FnId, i: usize, variant: &str) -> bool {
    if passed_to_booking(files, cg, f, i, variant) {
        return true;
    }
    let mut seen = vec![false; cg.fns.len()];
    let mut stack = vec![f];
    seen[f] = true;
    while let Some(cur) = stack.pop() {
        if fn_accounts(files, cg, cur, variant)
            || (cur != f && cg.callees(cur).any(|s| fn_accounts(files, cg, s.callee, variant)))
        {
            return true;
        }
        for site in cg.callers(cur) {
            if !seen[site.caller] {
                seen[site.caller] = true;
                stack.push(site.caller);
            }
        }
    }
    false
}

/// Run the pass.
pub fn analyze(files: &[SourceFile], cg: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (fi, sf) in files.iter().enumerate() {
        if !sf.in_crate_src() {
            continue;
        }
        for i in 0..sf.toks.len() {
            if sf.test_mask[i] {
                continue;
            }
            let Some(variant) = construction_at(sf, i) else { continue };
            let Some(f) = cg.fn_containing(fi, i) else { continue };
            if cg.fns[f].is_test || accounted(files, cg, f, i, variant) {
                continue;
            }
            let line = sf.toks[i].line;
            findings.push(Finding::new(
                "unaccounted-terminal-status",
                Severity::Deny,
                &sf.rel,
                line,
                sf.snippet(line),
                format!(
                    "`JobStatus::{variant}` is constructed in `{}` but no counter accounting \
                     for it ({}) is incremented there, by a callee it is passed to, or in \
                     any caller — the soak ledger \
                     identity (submitted == Σ terminal counters) cannot hold through this path",
                    cg.fns[f].name,
                    accepts(variant).unwrap_or(&[]).join("/"),
                ),
            ));
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

    #[test]
    fn same_function_accounting_is_clean() {
        let src = "fn drop_victim(&self) {\n\
             self.m.shed.inc();\n\
             let out = skeleton(JobStatus::Shed);\n\
             send(out);\n\
           }";
        assert!(run_pass(&[("crates/runtime/src/sched.rs", src)]).is_empty());
    }

    #[test]
    fn caller_accounting_is_clean() {
        let src = "fn shed_lowest(&self) { self.m.shed.inc(); synthesize_shed(); }\n\
           fn synthesize_shed() { let out = skeleton(JobStatus::Shed); send(out); }";
        assert!(run_pass(&[("crates/runtime/src/sched.rs", src)]).is_empty());
    }

    #[test]
    fn unaccounted_construction_is_flagged() {
        let src = "fn reject(&self) { let out = skeleton(JobStatus::Shed); send(out); }";
        let f = run_pass(&[("crates/runtime/src/sched.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unaccounted-terminal-status");
        assert!(f[0].message.contains("Shed"));
    }

    #[test]
    fn wrong_counter_does_not_account() {
        // Bumping `error` does not excuse constructing `Failed`.
        let src = "fn report(&self) {\n\
             self.m.error.inc();\n\
             let out = skeleton(JobStatus::Failed);\n\
             send(out);\n\
           }";
        let f = run_pass(&[("crates/runtime/src/sched.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Failed"));
    }

    #[test]
    fn patterns_comparisons_and_matches_are_not_constructions() {
        let src = "fn classify(&self, s: JobStatus) -> bool {\n\
             match s {\n\
               JobStatus::Shed | JobStatus::BreakerOpen => {}\n\
               JobStatus::Ok => self.m.ok.inc(),\n\
               _ => {}\n\
             }\n\
             if s == JobStatus::Failed || s != JobStatus::Cancelled { return true; }\n\
             matches!(s, JobStatus::Error)\n\
           }";
        assert!(run_pass(&[("crates/runtime/src/sched.rs", src)]).is_empty());
    }

    #[test]
    fn test_code_and_non_src_files_are_ignored() {
        let in_tests = "fn t() { let x = skeleton(JobStatus::Shed); }";
        let in_cfg_test = "#[cfg(test)]\nmod tests {\n\
             fn t() { let x = skeleton(JobStatus::Failed); }\n\
           }";
        assert!(run_pass(&[
            ("crates/runtime/tests/soak.rs", in_tests),
            ("crates/runtime/src/lib.rs", in_cfg_test),
        ])
        .is_empty());
    }

    #[test]
    fn status_passed_to_a_booking_callee_is_clean() {
        let src = "fn evict(&self) { self.settle(victim, JobStatus::Shed); }\n\
           fn settle(&self, job: Job, status: JobStatus) {\n\
             match status { JobStatus::Shed => self.m.shed.inc(), _ => {} }\n\
           }";
        assert!(run_pass(&[("crates/runtime/src/sched.rs", src)]).is_empty());
    }

    #[test]
    fn status_passed_to_a_non_counting_callee_is_flagged() {
        // Only a direct argument counts: a status built first and
        // passed through a local, or nested in another call's
        // arguments, is still the constructor's to book.
        let src = "fn evict(&self) { finish(JobStatus::Shed); }\n\
           fn later(&self) { let s = JobStatus::Shed; self.settle(s); }\n\
           fn nested(&self) { self.settle(finish(JobStatus::Shed)); }\n\
           fn finish(status: JobStatus) { send(status); }\n\
           fn settle(&self, status: JobStatus) { self.m.shed.inc(); }";
        let f = run_pass(&[("crates/runtime/src/sched.rs", src)]);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|f| f.message.contains("Shed")));
    }

    #[test]
    fn status_returned_to_a_settling_caller_is_clean() {
        let src = "fn run(&self) -> Result<(), JobStatus> { Err(JobStatus::Failed) }\n\
           fn worker(&self) { let r = run(); settle(r); }\n\
           fn settle(r: Result<(), JobStatus>) { self.m.failed.inc(); }";
        assert!(run_pass(&[("crates/runtime/src/sched.rs", src)]).is_empty());
    }

    #[test]
    fn deadline_accounting_accepts_any_timeout_counter() {
        let src = "fn expire(&self) {\n\
             self.m.timeout_late.inc();\n\
             let out = skeleton(JobStatus::DeadlineExceeded);\n\
             send(out);\n\
           }";
        assert!(run_pass(&[("crates/runtime/src/sched.rs", src)]).is_empty());
    }
}
