//! Pass — atomic signaling discipline (`relaxed-signal`).
//!
//! An `AtomicBool` written in one thread and polled in another is a
//! *signal*: the reader acts on state the writer published before the
//! store (a cancel reason, a brownout decision, a tracing toggle).
//! `Ordering::Relaxed` synchronizes nothing — the flag flip can become
//! visible before the state it announces. The store must be `Release`
//! (or stronger) and the polled load `Acquire` (or stronger).
//!
//! The pass finds `AtomicBool` bindings declared in the signaling
//! crates, then looks for the cross-thread shape through the call
//! graph: the flag is stored in one function and loaded in a *loop* in
//! another — either lexically inside a `for`/`while`/`loop`, or in a
//! function that some loop calls (transitively, ambiguous edges
//! included: "could this be polled hot?" wants over-approximation).
//! When that shape exists and either side uses `Relaxed`, it flags.
//!
//! Pure counters are excluded by *type*: `AtomicU32`/`AtomicU64`
//! statistics never gate control flow here, and `Relaxed` is exactly
//! right for them, so no exemption needs to enumerate them.
//! Trade-offs (DESIGN §4.15): binding matching is name-based, like the
//! lock-order pass; a same-function store+load pair is not a signal
//! (no cross-thread edge proven) and stays unflagged.

use crate::callgraph::{loops_in, CallGraph, LoopSpan};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::source::{matching, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose `AtomicBool`s are treated as cross-thread signals.
/// `kernels`/`simt` data-parallel atomics are deliberately excluded —
/// their visibility is fenced at super-step boundaries by design.
const SIGNAL_CRATES: [&str; 4] = ["core", "runtime", "obs", "shard"];

/// Store-flavoured atomic operations (anything that publishes).
const STORES: [&str; 8] = [
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_or",
    "fetch_and",
    "fetch_nand",
    "fetch_xor",
];

/// One access to a tracked flag.
struct Access {
    file: usize,
    func: Option<usize>,
    line: u32,
    relaxed: bool,
    in_loop: bool,
    fn_name: String,
}

/// Collect `name: AtomicBool` binding names declared in signal crates
/// (struct fields, statics, parameters — anything `name :` followed by
/// a path ending in `AtomicBool`).
fn flag_names(files: &[SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for sf in files.iter().filter(|sf| signal_file(sf)) {
        let t = &sf.toks;
        for i in 0..t.len().saturating_sub(2) {
            if sf.test_mask[i]
                || t[i].kind != TokKind::Ident
                || !t[i + 1].is_punct(':')
                || t.get(i + 2).map(|n| n.is_punct(':')).unwrap_or(true)
            {
                continue;
            }
            // Walk the type path: idents, `::`, `&` — stop elsewhere.
            let mut j = i + 2;
            while j < t.len() && j < i + 12 {
                match &t[j] {
                    n if n.is_ident("AtomicBool") => {
                        names.insert(t[i].text.clone());
                        break;
                    }
                    n if n.kind == TokKind::Ident || n.is_punct(':') || n.is_punct('&') => j += 1,
                    _ => break,
                }
            }
        }
    }
    names
}

fn signal_file(sf: &SourceFile) -> bool {
    sf.in_crate_src() && sf.crate_name().map(|c| SIGNAL_CRATES.contains(&c)).unwrap_or(false)
}

/// Does the argument list opening at `open` mention `Relaxed`?
fn args_mention_relaxed(sf: &SourceFile, open: usize) -> bool {
    sf.toks[open..matching(&sf.toks, open)].iter().any(|tok| tok.is_ident("Relaxed"))
}

/// Run the pass.
pub fn analyze(files: &[SourceFile], cg: &CallGraph) -> Vec<Finding> {
    let names = flag_names(files);
    if names.is_empty() {
        return Vec::new();
    }
    let loops: Vec<Vec<LoopSpan>> = files
        .iter()
        .map(|sf| if signal_file(sf) { loops_in(&sf.toks, 0..sf.toks.len()) } else { Vec::new() })
        .collect();
    let loop_called = cg.loop_called(&loops);

    // Per flag name: store accesses and load accesses.
    let mut stores: BTreeMap<&str, Vec<Access>> = BTreeMap::new();
    let mut loads: BTreeMap<&str, Vec<Access>> = BTreeMap::new();
    for (fi, sf) in files.iter().enumerate() {
        if !signal_file(sf) {
            continue;
        }
        let t = &sf.toks;
        for i in 0..t.len().saturating_sub(3) {
            if sf.test_mask[i]
                || t[i].kind != TokKind::Ident
                || !names.contains(&t[i].text)
                || !t[i + 1].is_punct('.')
                || t[i + 2].kind != TokKind::Ident
                || !t.get(i + 3).map(|n| n.is_punct('(')).unwrap_or(false)
            {
                continue;
            }
            let op = t[i + 2].text.as_str();
            let is_store = STORES.contains(&op);
            if !is_store && op != "load" {
                continue;
            }
            let func = cg.fn_containing(fi, i);
            if func.map(|f| cg.fns[f].is_test).unwrap_or(false) {
                continue;
            }
            let access = Access {
                file: fi,
                func,
                line: t[i].line,
                relaxed: args_mention_relaxed(sf, i + 3),
                // Header-inclusive: a `while !flag.load(..)` condition
                // is the spin itself.
                in_loop: loops[fi].iter().any(|l| (l.head..l.body.end).contains(&i)),
                fn_name: func.map(|f| cg.fns[f].name.clone()).unwrap_or_default(),
            };
            let key = names.get(t[i].text.as_str()).expect("checked above").as_str();
            if is_store { &mut stores } else { &mut loads }.entry(key).or_default().push(access);
        }
    }

    let mut findings = Vec::new();
    for (flag, flag_loads) in &loads {
        let Some(flag_stores) = stores.get(flag) else { continue };
        for ld in flag_loads {
            let polled = ld.in_loop || ld.func.map(|f| loop_called[f]).unwrap_or(false);
            if !polled {
                continue;
            }
            // Cross-function publisher, and Relaxed on either side.
            let Some(st) = flag_stores.iter().find(|st| st.func != ld.func) else { continue };
            if !st.relaxed && !ld.relaxed {
                continue;
            }
            let sf = &files[ld.file];
            let side = match (st.relaxed, ld.relaxed) {
                (true, true) => "both the store and the polled load are Relaxed".to_string(),
                (true, false) => format!("the store in `{}` is Relaxed", st.fn_name),
                _ => "the polled load is Relaxed".to_string(),
            };
            findings.push(Finding::new(
                "relaxed-signal",
                Severity::Deny,
                &sf.rel,
                ld.line,
                sf.snippet(ld.line),
                format!(
                    "AtomicBool `{flag}` is a cross-thread signal — written in `{}` (line {}), \
                     polled in a loop via `{}` — but {side}; the flag flip can outrun the state \
                     it announces. Use Release for the store and Acquire for the load",
                    st.fn_name, st.line, ld.fn_name,
                ),
            ));
            break; // one finding per flag: the fix is per-flag, not per-load
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

    const RELAXED_PAIR: &str = "struct Worker { stop: AtomicBool }\n\
       impl Worker {\n\
         fn request_stop(&self) { self.stop.store(true, Ordering::Relaxed); }\n\
         fn drive(&self) {\n\
           while !self.stop.load(Ordering::Relaxed) { step(); }\n\
         }\n\
       }\n\
       fn step() {}";

    #[test]
    fn relaxed_store_and_spin_load_is_flagged() {
        let f = run_pass(&[("crates/runtime/src/flag.rs", RELAXED_PAIR)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "relaxed-signal");
        assert!(f[0].message.contains("stop"));
        assert!(f[0].message.contains("request_stop"));
    }

    #[test]
    fn release_acquire_pair_is_clean() {
        let src = RELAXED_PAIR
            .replace("store(true, Ordering::Relaxed)", "store(true, Ordering::Release)")
            .replace("load(Ordering::Relaxed)", "load(Ordering::Acquire)");
        assert!(run_pass(&[("crates/runtime/src/flag.rs", &src)]).is_empty());
    }

    #[test]
    fn relaxed_load_outside_any_loop_is_clean() {
        // No polling shape: a one-shot read is not a spin.
        let src = "struct Worker { stop: AtomicBool }\n\
           impl Worker {\n\
             fn request_stop(&self) { self.stop.store(true, Ordering::Release); }\n\
             fn stopped(&self) -> bool { self.stop.load(Ordering::Relaxed) }\n\
           }";
        assert!(run_pass(&[("crates/runtime/src/flag.rs", src)]).is_empty());
    }

    #[test]
    fn loop_called_load_is_polling_via_call_graph() {
        // The load is lexically loop-free but its function is called
        // from a loop two hops up — still a spin.
        let src = "struct Worker { stop: AtomicBool }\n\
           impl Worker {\n\
             fn request_stop(&self) { self.stop.swap(true, Ordering::Relaxed); }\n\
             fn stopped(&self) -> bool { self.stop.load(Ordering::Relaxed) }\n\
           }\n\
           fn poll_once(w: &Worker) -> bool { w.stopped() }\n\
           fn drive(w: &Worker) { loop { if poll_once(w) { break; } } }";
        let f = run_pass(&[("crates/runtime/src/flag.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("stopped"));
    }

    #[test]
    fn integer_counters_are_excluded_by_type() {
        let src = "struct Stats { hits: AtomicU64 }\n\
           impl Stats {\n\
             fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             fn spin(&self) { while self.hits.load(Ordering::Relaxed) < 10 { } }\n\
           }";
        assert!(run_pass(&[("crates/runtime/src/stats.rs", src)]).is_empty());
    }

    #[test]
    fn kernel_crate_atomics_are_out_of_scope() {
        assert!(run_pass(&[("crates/kernels/src/flag.rs", RELAXED_PAIR)]).is_empty());
    }
}
