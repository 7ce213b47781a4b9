//! Pass 1 — token-level source lints.
//!
//! Each rule encodes an invariant that previously lived only in
//! reviewers' heads:
//!
//! | rule | severity | scope | invariant |
//! |------|----------|-------|-----------|
//! | `raw-std-lock` | deny | everywhere but `obs/src/sync.rs` | all locks go through the poison-recovering `gswitch_obs::sync` wrappers |
//! | `hot-path-unwrap` | deny | `src/` of core, kernels, runtime, simt, obs, shard | no `unwrap()`/`expect()` on serving paths — degrade, don't die |
//! | `uninstrumented-atomic` | deny | `src/` of kernels, simt | every atomic op is accounted in the SIMT cost model |
//! | `unbounded-channel` | deny | `src/` of runtime | no unbounded `mpsc::channel` — admission control is explicit |
//! | `unbounded-collection` | warn | `src/` of runtime | a `VecDeque` queue in a file with no notion of capacity |
//! | `untimed-hot-section` | deny | `src/` of core, kernels, runtime, shard | wall-clock reads go through the obs `Clock`, so spans/profiles see them |
//! | `hot-path-thread-spawn` | deny | `src/` of core, kernels | parallel work runs as `gswitch_pool` parts on the persistent pool — no OS thread is created per kernel call or per phase |
//! | `per-edge-shared-rmw` | warn | `src/` of core, kernels, algos, shard | an `EdgeApp` per-edge callback issues no read-modify-write on a whole-app atomic — per-edge accounting moves to a per-vertex hook or the barrier |
//! | `todo-marker` | deny | everywhere | no `todo!`/`unimplemented!`/`dbg!` ships |

use crate::findings::{Finding, Severity};
use crate::source::SourceFile;

/// Crates whose `src/` is a serving hot path: panics there take down
/// workers or wedge the process.
const HOT_CRATES: [&str; 6] = ["core", "kernels", "runtime", "simt", "obs", "shard"];

/// Crates that implement the instrumented SIMT kernels: every atomic
/// must be reflected in a `KernelProfile` counter.
const KERNEL_CRATES: [&str; 2] = ["kernels", "simt"];

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
    raw_std_lock(sf, &mut out);
    hot_path_unwrap(sf, &mut out);
    uninstrumented_atomic(sf, &mut out);
    unbounded_channel(sf, &mut out);
    unbounded_collection(sf, &mut out);
    untimed_hot_section(sf, &mut out);
    hot_path_thread_spawn(sf, &mut out);
    per_edge_shared_rmw(sf, &mut out);
    todo_marker(sf, &mut out);
    out
}

/// `raw-std-lock`: any `std::sync::Mutex` / `std::sync::RwLock`
/// mention outside the one module allowed to wrap them. A raw std lock
/// poisons forever after a panicking holder; `gswitch_obs::sync`
/// exists precisely so one isolated worker panic cannot wedge the
/// scheduler (DESIGN §4.7).
fn raw_std_lock(sf: &SourceFile, out: &mut Vec<Finding>) {
    if sf.rel.ends_with("crates/obs/src/sync.rs") || sf.rel == "crates/obs/src/sync.rs" {
        return;
    }
    let t = &sf.toks;
    let mut i = 0;
    while i + 5 < t.len() {
        if t[i].is_ident("std")
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("sync")
            && t[i + 4].is_punct(':')
            && t[i + 5].is_punct(':')
        {
            // Scan the rest of the path / use-tree for the lock types.
            let mut j = i + 6;
            while j < t.len() {
                let tok = &t[j];
                if tok.is_ident("Mutex") || tok.is_ident("RwLock") {
                    out.push(Finding::new(
                        "raw-std-lock",
                        Severity::Deny,
                        &sf.rel,
                        tok.line,
                        sf.snippet(tok.line),
                        format!(
                            "raw std::sync::{} — use gswitch_obs::sync::{} (poison-recovering) \
                             instead",
                            tok.text, tok.text
                        ),
                    ));
                }
                let path_like = tok.kind == crate::lexer::TokKind::Ident
                    || tok.is_punct(':')
                    || tok.is_punct('{')
                    || tok.is_punct('}')
                    || tok.is_punct(',');
                if !path_like {
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// `hot-path-unwrap`: `.unwrap()` / `.expect(` in non-test `src/` code
/// of the serving crates. A panic on these paths kills a worker (best
/// case) or poisons shared state mid-update (worst case); errors must
/// degrade through structured outcomes instead (DESIGN §4.7).
fn hot_path_unwrap(sf: &SourceFile, out: &mut Vec<Finding>) {
    let in_scope = sf.crate_name().map(|c| HOT_CRATES.contains(&c)).unwrap_or(false);
    if !in_scope || !sf.in_crate_src() {
        return;
    }
    let t = &sf.toks;
    for i in 1..t.len().saturating_sub(1) {
        if sf.test_mask[i] {
            continue;
        }
        if (t[i].is_ident("unwrap") || t[i].is_ident("expect"))
            && t[i - 1].is_punct('.')
            && t[i + 1].is_punct('(')
        {
            out.push(Finding::new(
                "hot-path-unwrap",
                Severity::Deny,
                &sf.rel,
                t[i].line,
                sf.snippet(t[i].line),
                format!(
                    ".{}() on a serving hot path — return a structured error or degrade \
                     (see DESIGN §4.7 \"degrade, don't die\")",
                    t[i].text
                ),
            ));
        }
    }
}

/// `uninstrumented-atomic`: a kernel-side function performs an atomic
/// operation but never touches a cost-model counter. The Inspector's
/// 21 features and the Executor's profiling feedback are computed from
/// `KernelProfile`; an uncounted atomic silently skews every decision
/// the autotuner makes.
fn uninstrumented_atomic(sf: &SourceFile, out: &mut Vec<Finding>) {
    let in_scope = sf.crate_name().map(|c| KERNEL_CRATES.contains(&c)).unwrap_or(false);
    if !in_scope || !sf.in_crate_src() {
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

/// `unbounded-channel`: `mpsc::channel()` in runtime or shard `src/`.
/// The serving stack's backpressure story is explicit admission control
/// (`SubmitError::QueueFull`, tenant quotas); an unbounded channel
/// reintroduces the hidden buffer that design removed.
fn unbounded_channel(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !sf.crate_name().is_some_and(|c| QUEUEING_CRATES.contains(&c)) || !sf.in_crate_src() {
        return;
    }
    let t = &sf.toks;
    for i in 3..t.len() {
        if sf.test_mask[i] {
            continue;
        }
        if t[i].is_ident("channel")
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
            && t[i - 3].is_ident("mpsc")
        {
            out.push(Finding::new(
                "unbounded-channel",
                Severity::Deny,
                &sf.rel,
                t[i].line,
                sf.snippet(t[i].line),
                "unbounded mpsc::channel in the serving runtime — bound it, or justify why \
                 admission control already bounds it"
                    .to_string(),
            ));
        }
    }
}

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

/// Crates whose `src/` must time work through the obs `Clock`: the
/// engine, kernels, runtime and shard driver all emit spans, and a raw
/// `Instant::now()` there is a timing the profile cannot see (and that
/// a manual clock in tests cannot steer).
const TIMED_CRATES: [&str; 4] = ["core", "kernels", "runtime", "shard"];

/// `untimed-hot-section`: `Instant::now()` in non-test `src/` code of a
/// span-instrumented crate. Wall-clock reads on those paths belong to
/// `gswitch_obs::Clock` (`SpanCtx::clock()`, `RuntimeObs::clock()`), so
/// every measured interval can be attributed to a span and the whole
/// stack can run against a manual clock in tests. A raw `Instant` is a
/// hot section the profile silently omits.
fn untimed_hot_section(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !sf.crate_name().is_some_and(|c| TIMED_CRATES.contains(&c)) || !sf.in_crate_src() {
        return;
    }
    let t = &sf.toks;
    for i in 0..t.len().saturating_sub(4) {
        if sf.test_mask[i] {
            continue;
        }
        if t[i].is_ident("Instant")
            && t[i + 1].is_punct(':')
            && t[i + 2].is_punct(':')
            && t[i + 3].is_ident("now")
            && t[i + 4].is_punct('(')
        {
            out.push(Finding::new(
                "untimed-hot-section",
                Severity::Deny,
                &sf.rel,
                t[i].line,
                sf.snippet(t[i].line),
                "raw Instant::now() in a span-instrumented crate — read the obs Clock \
                 (SpanCtx::clock() / RuntimeObs::clock()) so the interval shows up in span \
                 profiles and timelines"
                    .to_string(),
            ));
        }
    }
}

/// Crates whose parallel calls run thousands of times per query: the
/// kernels, and the engine's per-phase lane fan-out.
const POOLED_CRATES: [&str; 2] = ["core", "kernels"];

/// `hot-path-thread-spawn`: `thread::scope` / `thread::spawn` /
/// `thread::Builder` in non-test `src/` code of core or kernels. Creating
/// and joining an OS thread costs tens of µs, which under a kernel call
/// or a sharded phase is a floor beneath every super-step (ROADMAP
/// item 1); `gswitch_pool::parts` / `ranges` / `parts_mut` run the parts
/// on the persistent pool instead.
fn hot_path_thread_spawn(sf: &SourceFile, out: &mut Vec<Finding>) {
    if !sf.crate_name().is_some_and(|c| POOLED_CRATES.contains(&c)) || !sf.in_crate_src() {
        return;
    }
    let t = &sf.toks;
    for i in 3..t.len() {
        if sf.test_mask[i] {
            continue;
        }
        if ["scope", "spawn", "Builder"].iter().any(|name| t[i].is_ident(name))
            && t[i - 1].is_punct(':')
            && t[i - 2].is_punct(':')
            && t[i - 3].is_ident("thread")
        {
            out.push(Finding::new(
                "hot-path-thread-spawn",
                Severity::Deny,
                &sf.rel,
                t[i].line,
                sf.snippet(t[i].line),
                format!(
                    "thread::{} in a kernel or engine crate — every call would pay an OS \
                     thread's creation and join; run the work as `gswitch_pool::parts` on the \
                     persistent pool",
                    t[i].text
                ),
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
            // The call's arguments: up to the parenthesis that closes it.
            let mut depth = 0usize;
            let mut args = body[k + 5..].iter().take_while(|tok| {
                depth += usize::from(tok.is_punct('('));
                depth -= usize::from(tok.is_punct(')'));
                depth > 0
            });
            if args.any(|tok| ORDERING_IDENTS.iter().any(|o| tok.is_ident(o))) {
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

/// `todo-marker`: `todo!` / `unimplemented!` / `dbg!` anywhere.
fn todo_marker(sf: &SourceFile, out: &mut Vec<Finding>) {
    let t = &sf.toks;
    for i in 0..t.len().saturating_sub(1) {
        let is_marker =
            t[i].is_ident("todo") || t[i].is_ident("unimplemented") || t[i].is_ident("dbg");
        if is_marker && t[i + 1].is_punct('!') {
            out.push(Finding::new(
                "todo-marker",
                Severity::Deny,
                &sf.rel,
                t[i].line,
                sf.snippet(t[i].line),
                format!("`{}!` must not ship", t[i].text),
            ));
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
    fn raw_lock_flagged_including_use_trees() {
        let f = lint(
            "crates/runtime/src/x.rs",
            "use std::sync::{Arc, Mutex};\nstruct S { m: std::sync::RwLock<u32> }",
        );
        assert_eq!(rules(&f), vec!["raw-std-lock", "raw-std-lock"]);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn guard_types_and_atomics_are_not_locks() {
        let f = lint(
            "crates/runtime/src/x.rs",
            "use std::sync::{Arc, MutexGuard, mpsc};\nuse std::sync::atomic::AtomicU64;",
        );
        assert!(rules(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn sync_module_itself_is_exempt() {
        let f = lint("crates/obs/src/sync.rs", "pub struct Lock<T>(std::sync::Mutex<T>);");
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_in_hot_crate_src_flagged() {
        let f = lint("crates/core/src/x.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(rules(&f), vec!["hot-path-unwrap"]);
        let f = lint("crates/core/src/x.rs", "fn f(x: Option<u32>) -> u32 { x.expect(\"msg\") }");
        assert_eq!(rules(&f), vec!["hot-path-unwrap"]);
        // The shard batcher runs inside serving workers: hot too.
        let f = lint("crates/shard/src/x.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(rules(&f), vec!["hot-path-unwrap"]);
    }

    #[test]
    fn unwrap_variants_and_cold_crates_pass() {
        // unwrap_or / unwrap_or_else / unwrap_or_default are the fix,
        // not the bug.
        let f = lint("crates/core/src/x.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }");
        assert!(f.is_empty());
        // The training/bench crates may unwrap (offline tools).
        let f = lint("crates/bench/src/x.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert!(f.is_empty());
        // Integration tests of hot crates may unwrap.
        let f = lint("crates/runtime/tests/t.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert!(f.is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_is_fine() {
        let f = lint(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { fn g(x: Option<u32>) -> u32 { x.unwrap() } }",
        );
        assert!(f.is_empty(), "{f:?}");
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
    }

    #[test]
    fn unbounded_channel_flagged_in_queueing_crates_only() {
        let src = "fn f() { let (tx, rx) = mpsc::channel(); }";
        let f = lint("crates/runtime/src/x.rs", src);
        assert_eq!(rules(&f), vec!["unbounded-channel"]);
        let f = lint("crates/shard/src/x.rs", src);
        assert_eq!(rules(&f), vec!["unbounded-channel"]);
        assert!(lint("crates/core/src/x.rs", src).is_empty());
        // sync_channel is bounded: fine.
        let f = lint("crates/runtime/src/x.rs", "fn f() { let p = mpsc::sync_channel(8); }");
        assert!(f.is_empty());
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
    fn instant_now_flagged_in_timed_crates_only() {
        let src = "fn f() { let t0 = Instant::now(); work(); t0.elapsed(); }";
        for rel in [
            "crates/core/src/x.rs",
            "crates/kernels/src/x.rs",
            // The degree-bucketed work-partition path is the hottest
            // pre-expand section; its timings must flow through the
            // Partition span, never a raw Instant.
            "crates/kernels/src/bucket.rs",
            "crates/runtime/src/x.rs",
            "crates/shard/src/x.rs",
        ] {
            assert_eq!(rules(&lint(rel, src)), vec!["untimed-hot-section"], "{rel}");
        }
        // The obs crate implements the Clock; bench/analyze are offline.
        assert!(lint("crates/obs/src/x.rs", src).is_empty());
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
        // Tests may use raw Instants (they also may not care about spans).
        let in_test = format!("#[cfg(test)]\nmod t {{ {src} }}");
        assert!(lint("crates/core/src/x.rs", &in_test).is_empty());
        assert!(lint("crates/runtime/tests/t.rs", src).is_empty());
        // Other Instant methods (duration_since, elapsed on a stored
        // Instant handed over by the Clock) are fine.
        let f = lint("crates/core/src/x.rs", "fn f(at: Instant) { at.elapsed(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn thread_creation_flagged_in_pooled_crates_only() {
        let src = "fn f(xs: &mut [u32]) { std::thread::scope(|s| { s.spawn(|| xs.len()); }); }";
        for rel in ["crates/core/src/x.rs", "crates/kernels/src/x.rs"] {
            assert_eq!(rules(&lint(rel, src)), vec!["hot-path-thread-spawn"], "{rel}");
        }
        let f = lint("crates/core/src/x.rs", "fn f() { thread::spawn(work); }");
        assert_eq!(rules(&f), vec!["hot-path-thread-spawn"]);
        let builder = "fn f() { let b = thread::Builder::new(); }";
        assert_eq!(rules(&lint("crates/kernels/src/x.rs", builder)), vec!["hot-path-thread-spawn"]);
        // The batch executor's one scope per batch and the scheduler's
        // workers are created once per long-lived unit, not per call.
        assert!(lint("crates/shard/src/x.rs", src).is_empty());
        assert!(lint("crates/runtime/src/x.rs", src).is_empty());
        // Tests may race real threads against the kernels' atomics.
        let in_test = format!("#[cfg(test)]\nmod t {{ {src} }}");
        assert!(lint("crates/kernels/src/x.rs", &in_test).is_empty());
        assert!(lint("crates/core/tests/t.rs", src).is_empty());
        // Naming the current thread or yielding creates nothing.
        let f = lint("crates/core/src/x.rs", "fn f() { thread::yield_now(); thread::current(); }");
        assert!(f.is_empty(), "{f:?}");
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

    #[test]
    fn todo_markers_deny_anywhere_even_tests() {
        let f = lint("crates/graph/src/x.rs", "fn f() { todo!() }");
        assert_eq!(rules(&f), vec!["todo-marker"]);
        let f = lint("crates/bench/src/x.rs", "#[cfg(test)]\nmod t { fn g() { dbg!(1); } }");
        assert_eq!(rules(&f), vec!["todo-marker"]);
        // ...but not in comments or strings.
        let f = lint("crates/graph/src/x.rs", "// todo!()\nfn f() { let s = \"todo!()\"; }");
        assert!(f.is_empty());
    }
}
