//! Pass 2 — lock-order analysis.
//!
//! The serving runtime holds several `gswitch_obs::sync` locks
//! (scheduler queue, cancellation set, running map, registry and cache
//! tables, metric maps). A deadlock needs two functions acquiring two
//! of them in opposite orders — exactly the bug a unit test is worst
//! at catching, because it only appears under concurrent timing.
//!
//! The pass is conservative and, since the call graph landed
//! (DESIGN §4.15), *interprocedural*:
//!
//! 1. **Discover locks.** A struct field declared as
//!    `Lock<…>` / `RwLock<…>` (the obs wrappers — clippy denies raw
//!    std locks) defines a lock identity `file::field`.
//! 2. **Track acquisitions per function.** `<field>.lock()`,
//!    `<field>.read()`, `<field>.write()` acquire. A `let`-bound guard
//!    is held until its enclosing block closes; a temporary guard (no
//!    `let`) is released at the end of the statement; `drop(guard)`
//!    releases early.
//! 3. **Propagate across calls.** Each function's *transitive*
//!    acquisition set (`acquires_star`, a fixpoint over unambiguous
//!    call edges) says what it may lock somewhere below it. Calling
//!    `g()` while holding `A` adds an edge `A → B` for every `B` in
//!    `acquires_star(g)` — the ordering a deadlock needs, even when
//!    the two acquisitions live in different functions.
//! 4. **Report cycles.** Any cycle in the graph is a potential
//!    deadlock; the finding quotes one witness edge per direction so
//!    the two conflicting acquisition paths are visible in the report.
//!    Interprocedural witnesses are rendered as `caller → callee`.
//!
//! Field names are resolved to identities same-file first, then by
//! global uniqueness; an ambiguous name (two different files declare
//! it and the use is in a third file) is skipped rather than guessed.
//! Call edges follow the same discipline: only unambiguous edges
//! propagate lock sets, erring away from false cycles.

use crate::callgraph::{CallGraph, FnId};
use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::source::{matching, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// A known lock: the struct field that declares it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockId {
    /// File that declares the field.
    pub file: String,
    /// Field name.
    pub field: String,
}

impl LockId {
    fn render(&self) -> String {
        let file = self.file.rsplit('/').next().unwrap_or(&self.file);
        format!("{}::{}", file.trim_end_matches(".rs"), self.field)
    }
}

/// One observed `held → acquired` ordering, with its witness site.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Lock already held.
    pub held: LockId,
    /// Lock acquired while holding `held`.
    pub acquired: LockId,
    /// Function where the ordering occurs.
    pub function: String,
    /// Witness location.
    pub file: String,
    /// Witness line (of the inner acquisition).
    pub line: u32,
}

/// Find `Lock<...>` / `RwLock<...>` struct fields: `name : [path ::]*
/// (Lock|RwLock) <`.
pub fn discover_locks(sf: &SourceFile) -> Vec<LockId> {
    let t = &sf.toks;
    let mut out = Vec::new();
    for i in 2..t.len().saturating_sub(1) {
        if (t[i].is_ident("Lock") || t[i].is_ident("RwLock")) && t[i + 1].is_punct('<') {
            // Walk back over a `path::` prefix to the `:` of the field
            // declaration.
            let mut j = i;
            while j >= 2 && t[j - 1].is_punct(':') && t[j - 2].is_punct(':') {
                if j >= 3 && t[j - 3].kind == TokKind::Ident {
                    j -= 3;
                } else {
                    break;
                }
            }
            // A field declaration has `name :` right before the type
            // (a single colon — a `::` path means this is an
            // expression or a turbofish, not a declaration).
            if j >= 2
                && t[j - 1].is_punct(':')
                && !t[j - 2].is_punct(':')
                && t[j - 2].kind == TokKind::Ident
            {
                out.push(LockId { file: sf.rel.clone(), field: t[j - 2].text.clone() });
            }
        }
    }
    out
}

/// A guard currently held while scanning a function body.
#[derive(Debug)]
struct Held {
    lock: LockId,
    /// Variable bound to the guard, when `let`-bound.
    var: Option<String>,
    /// Brace depth of the binding: a `let` guard dies when the scope
    /// closes; a temporary dies at the next `;` at this depth.
    depth: usize,
    temporary: bool,
}

/// Resolve a field name at a use site to a lock identity.
fn resolve<'a>(locks: &'a [LockId], field: &str, use_file: &str) -> Option<&'a LockId> {
    if let Some(local) = locks.iter().find(|l| l.field == field && l.file == use_file) {
        return Some(local);
    }
    let mut global = locks.iter().filter(|l| l.field == field);
    match (global.next(), global.next()) {
        (Some(only), None) => Some(only),
        _ => None, // unknown or ambiguous — do not guess
    }
}

/// Is the token at absolute index `i` a lock acquisition
/// (`<field>.lock()` / `.read()` / `.write()`)? Returns the identity.
fn acquisition_at<'a>(sf: &SourceFile, i: usize, locks: &'a [LockId]) -> Option<&'a LockId> {
    let t = &sf.toks;
    if (t[i].is_ident("lock") || t[i].is_ident("read") || t[i].is_ident("write"))
        && i >= 2
        && t[i - 1].is_punct('.')
        && t.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
        && t[i - 2].kind == TokKind::Ident
    {
        resolve(locks, &t[i - 2].text, &sf.rel)
    } else {
        None
    }
}

/// Scan one function body (absolute token range of `f` in `cg`) and
/// emit ordering edges, both for direct acquisitions and — through
/// `star` — for calls to functions that acquire further down.
fn scan_function(
    files: &[SourceFile],
    cg: &CallGraph,
    f: FnId,
    locks: &[LockId],
    star: &[BTreeSet<LockId>],
    edges: &mut Vec<Edge>,
) {
    let node = &cg.fns[f];
    let sf = &files[node.file];
    let fn_name = &node.name;
    let body = &sf.toks[node.body.clone()];
    let base = node.body.start;
    // Unambiguous call sites in this body, keyed by absolute token.
    // Direct recursion is skipped: the callee's orderings are already
    // observed intra-procedurally, and a name-collision self-edge
    // (`token.cancel()` inside `Scheduler::cancel`) must not order the
    // function's own locks against each other.
    let calls: BTreeMap<usize, FnId> = cg
        .callees(f)
        .filter(|s| !s.ambiguous && s.callee != f && !cg.fns[s.callee].is_test)
        .map(|s| (s.tok, s.callee))
        .collect();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    // Does the current statement start with `let`? Tracked so we know
    // whether an acquisition binds a guard or creates a temporary.
    let mut stmt_let_var: Option<String> = None;
    let mut stmt_has_let = false;

    let mut i = 0;
    while i < body.len() {
        let tok = &body[i];
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            held.retain(|h| h.depth <= depth);
        } else if tok.is_punct(';') {
            held.retain(|h| !(h.temporary && h.depth == depth));
            stmt_let_var = None;
            stmt_has_let = false;
        } else if tok.is_ident("let") {
            stmt_has_let = true;
            // `let mut name` / `let name`
            let mut j = i + 1;
            if body.get(j).map(|t| t.is_ident("mut")).unwrap_or(false) {
                j += 1;
            }
            stmt_let_var = body.get(j).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
        } else if tok.is_ident("drop") && body.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false)
        {
            if let Some(var) = body.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                held.retain(|h| h.var.as_deref() != Some(var.text.as_str()));
            }
        } else if (tok.is_ident("lock") || tok.is_ident("read") || tok.is_ident("write"))
            && i >= 2
            && body[i - 1].is_punct('.')
            && body.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false)
            && body[i - 2].kind == TokKind::Ident
        {
            if let Some(lock) = resolve(locks, &body[i - 2].text, &sf.rel) {
                for h in &held {
                    if h.lock != *lock {
                        edges.push(Edge {
                            held: h.lock.clone(),
                            acquired: lock.clone(),
                            function: fn_name.to_string(),
                            file: sf.rel.clone(),
                            line: tok.line,
                        });
                    }
                }
                // `let g = x.lock();` binds the guard; but a chained
                // call (`x.lock().len()`) makes the guard a statement
                // temporary even under `let` — only the chain's result
                // is bound.
                let close = matching(body, i + 1);
                let chained = body.get(close + 1).map(|t| t.is_punct('.')).unwrap_or(false);
                let bound = stmt_has_let && !chained;
                held.push(Held {
                    lock: lock.clone(),
                    var: if bound { stmt_let_var.clone() } else { None },
                    depth,
                    temporary: !bound,
                });
            }
        }
        // Interprocedural: calling `g()` while holding locks orders
        // them before everything `g` may acquire transitively. Same-
        // lock pairs are skipped — flow-insensitive `star` cannot tell
        // re-acquisition from release-then-relock in the callee.
        if let Some(&callee) = calls.get(&(base + i)) {
            if acquisition_at(sf, base + i, locks).is_none() {
                for h in &held {
                    for acq in &star[callee] {
                        if *acq != h.lock {
                            edges.push(Edge {
                                held: h.lock.clone(),
                                acquired: acq.clone(),
                                function: format!("{fn_name} → {}", cg.fns[callee].name),
                                file: sf.rel.clone(),
                                line: body[i].line,
                            });
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Run the pass over all files: discover locks, compute each
/// function's transitive acquisition set, collect ordering edges
/// (direct and through calls), report cycles.
pub fn analyze(files: &[SourceFile], cg: &CallGraph) -> Vec<Finding> {
    let mut locks: Vec<LockId> = Vec::new();
    for sf in files {
        locks.extend(discover_locks(sf));
    }
    locks.sort();
    locks.dedup();

    // acquires_star: direct acquisitions ∪ callees' sets, to fixpoint
    // over unambiguous non-test edges. Cycle-tolerant: the union only
    // grows, so iteration terminates at the least fixpoint.
    let mut star: Vec<BTreeSet<LockId>> = cg
        .fns
        .iter()
        .map(|node| {
            let sf = &files[node.file];
            node.body.clone().filter_map(|i| acquisition_at(sf, i, &locks)).cloned().collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for f in 0..cg.fns.len() {
            let mut add: Vec<LockId> = Vec::new();
            for site in cg.callees(f) {
                if site.ambiguous || cg.fns[site.callee].is_test {
                    continue;
                }
                add.extend(star[site.callee].difference(&star[f]).cloned());
            }
            if !add.is_empty() {
                star[f].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: Vec<Edge> = Vec::new();
    for f in 0..cg.fns.len() {
        if cg.fns[f].is_test {
            continue;
        }
        scan_function(files, cg, f, &locks, &star, &mut edges);
    }
    cycles_to_findings(&edges)
}

/// Detect cycles in the ordering graph and render one finding per
/// conflicting pair/cycle.
fn cycles_to_findings(edges: &[Edge]) -> Vec<Finding> {
    // Adjacency with a representative witness per directed pair.
    let mut adj: BTreeMap<&LockId, BTreeSet<&LockId>> = BTreeMap::new();
    let mut witness: BTreeMap<(&LockId, &LockId), &Edge> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
        witness.entry((&e.held, &e.acquired)).or_insert(e);
    }

    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<&LockId>> = BTreeSet::new();

    // DFS from every node; a back edge to a node on the current path is
    // a cycle. Graphs here are tiny (a handful of locks), so the
    // simple exponential-in-theory walk is fine in practice.
    for start in adj.keys() {
        let mut path: Vec<&LockId> = vec![start];
        let mut stack: Vec<Vec<&LockId>> = vec![adj[start].iter().copied().collect()];
        while let Some(frontier) = stack.last_mut() {
            let Some(next) = frontier.pop() else {
                stack.pop();
                path.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|&n| n == next) {
                // Canonicalize the cycle so each is reported once.
                let cycle: Vec<&LockId> = path[pos..].to_vec();
                let mut canon = cycle.clone();
                let min_idx =
                    canon.iter().enumerate().min_by_key(|(_, l)| *l).map(|(i, _)| i).unwrap_or(0);
                canon.rotate_left(min_idx);
                if reported.insert(canon) {
                    findings.push(render_cycle(&cycle, &witness));
                }
                continue;
            }
            if path.len() > adj.len() {
                continue;
            }
            path.push(next);
            stack.push(adj.get(next).map(|s| s.iter().copied().collect()).unwrap_or_default());
        }
    }
    findings
}

fn render_cycle(cycle: &[&LockId], witness: &BTreeMap<(&LockId, &LockId), &Edge>) -> Finding {
    let order: Vec<String> = cycle.iter().map(|l| l.render()).collect();
    let mut paths = String::new();
    for k in 0..cycle.len() {
        let a = cycle[k];
        let b = cycle[(k + 1) % cycle.len()];
        if let Some(e) = witness.get(&(a, b)) {
            paths.push_str(&format!(
                "  `{}` ({}:{}) holds {} then takes {}\n",
                e.function,
                e.file,
                e.line,
                a.render(),
                b.render()
            ));
        }
    }
    let first = witness
        .get(&(cycle[0], cycle[1 % cycle.len()]))
        .map(|e| (e.file.clone(), e.line))
        .unwrap_or_default();
    Finding::new(
        "lock-order-cycle",
        Severity::Deny,
        first.0,
        first.1,
        "",
        format!(
            "potential deadlock: locks acquired in a cycle [{}]; conflicting paths:\n{}",
            order.join(" → "),
            paths.trim_end()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter().map(|(rel, s)| SourceFile::parse(*rel, s)).collect()
    }

    fn run(fs: &[SourceFile]) -> Vec<Finding> {
        let cg = CallGraph::build(fs);
        analyze(fs, &cg)
    }

    const DECL: &str =
        "struct Shared { queue: Lock<VecDeque<Job>>, cancelled: Lock<HashSet<u64>> }";

    #[test]
    fn discovers_lock_fields() {
        let sf = SourceFile::parse("crates/runtime/src/scheduler.rs", DECL);
        let locks = discover_locks(&sf);
        let names: Vec<&str> = locks.iter().map(|l| l.field.as_str()).collect();
        assert_eq!(names, vec!["queue", "cancelled"]);
    }

    #[test]
    fn discovers_qualified_and_rwlock_fields() {
        let sf = SourceFile::parse(
            "crates/runtime/src/cache.rs",
            "pub struct C { entries: gswitch_obs::sync::RwLock<HashMap<K, V>> }",
        );
        let locks = discover_locks(&sf);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].field, "entries");
    }

    #[test]
    fn opposite_orders_are_a_cycle() {
        let src = format!(
            "{DECL}\n\
             fn cancel(&self) {{ let q = self.queue.lock(); let c = self.cancelled.lock(); }}\n\
             fn purge(&self) {{ let c = self.cancelled.lock(); let q = self.queue.lock(); }}"
        );
        let fs = files(&[("crates/runtime/src/scheduler.rs", &src)]);
        let findings = run(&fs);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "lock-order-cycle");
        assert!(findings[0].message.contains("cancel"));
        assert!(findings[0].message.contains("purge"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{DECL}\n\
             fn a(&self) {{ let q = self.queue.lock(); let c = self.cancelled.lock(); }}\n\
             fn b(&self) {{ let q = self.queue.lock(); let c = self.cancelled.lock(); }}"
        );
        let fs = files(&[("crates/runtime/src/scheduler.rs", &src)]);
        assert!(run(&fs).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        // b releases queue before taking cancelled, so no edge exists
        // and the reversed order in a cannot form a cycle.
        let src = format!(
            "{DECL}\n\
             fn a(&self) {{ let c = self.cancelled.lock(); let q = self.queue.lock(); }}\n\
             fn b(&self) {{ let q = self.queue.lock(); drop(q); let c = self.cancelled.lock(); }}"
        );
        let fs = files(&[("crates/runtime/src/scheduler.rs", &src)]);
        assert!(run(&fs).is_empty());
    }

    #[test]
    fn scope_end_releases_the_guard() {
        let src = format!(
            "{DECL}\n\
             fn a(&self) {{ let c = self.cancelled.lock(); let q = self.queue.lock(); }}\n\
             fn b(&self) {{ {{ let q = self.queue.lock(); }} let c = self.cancelled.lock(); }}"
        );
        let fs = files(&[("crates/runtime/src/scheduler.rs", &src)]);
        assert!(run(&fs).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = format!(
            "{DECL}\n\
             fn a(&self) {{ let c = self.cancelled.lock(); let q = self.queue.lock(); }}\n\
             fn b(&self) {{ let n = self.queue.lock().len(); let c = self.cancelled.lock(); }}"
        );
        let fs = files(&[("crates/runtime/src/scheduler.rs", &src)]);
        // The temporary in b's first statement is released at the `;`,
        // so only a's edge exists — no cycle.
        assert!(run(&fs).is_empty());
    }

    #[test]
    fn cross_file_cycle_detected() {
        let a = "struct R { registry: Lock<u32> }\n\
                 fn reg(&self, s: &S) { let r = self.registry.lock(); let m = s.metrics.lock(); }";
        let b = "struct S { metrics: Lock<u32> }\n\
                 fn met(&self, r: &R) { let m = self.metrics.lock(); let g = r.registry.lock(); }";
        let fs = files(&[("crates/runtime/src/registry.rs", a), ("crates/obs/src/metrics.rs", b)]);
        let findings = run(&fs);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("registry"));
        assert!(findings[0].message.contains("metrics"));
    }

    #[test]
    fn ambiguous_field_names_are_skipped() {
        // Two files declare `entries`; a third file uses it — cannot
        // tell which, so no edge (and no false cycle).
        let fs = files(&[
            ("crates/runtime/src/cache.rs", "struct C { entries: RwLock<u32> }"),
            ("crates/runtime/src/registry.rs", "struct R { entries: RwLock<u32> }"),
            (
                "crates/runtime/src/other.rs",
                "struct O { table: Lock<u32> }\n\
                 fn f(&self, c: &C) { let t = self.table.lock(); let e = c.entries.read(); }\n\
                 fn g(&self, c: &C) { let e = c.entries.read(); let t = self.table.lock(); }",
            ),
        ]);
        assert!(run(&fs).is_empty());
    }

    #[test]
    fn interprocedural_cycle_detected() {
        // `append` holds wal across a call to `compact`, which takes
        // index; `rebuild` takes index then wal directly. No single
        // function holds both in the bad order — only the call graph
        // sees the cycle.
        let src = "struct W { wal: Lock<Vec<u64>>, index: Lock<u32> }\n\
             fn append(&self) { let w = self.wal.lock(); self.compact(); }\n\
             fn compact(&self) { let ix = self.index.lock(); }\n\
             fn rebuild(&self) { let ix = self.index.lock(); let w = self.wal.lock(); }";
        let fs = files(&[("crates/runtime/src/wal.rs", src)]);
        let findings = run(&fs);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("append → compact"), "{}", findings[0].message);
        assert!(findings[0].message.contains("rebuild"));
    }

    #[test]
    fn consistent_interprocedural_order_is_clean() {
        let src = "struct W { wal: Lock<Vec<u64>>, index: Lock<u32> }\n\
             fn append(&self) { let w = self.wal.lock(); self.compact(); }\n\
             fn compact(&self) { let ix = self.index.lock(); }\n\
             fn rebuild(&self) { let w = self.wal.lock(); self.compact(); }";
        let fs = files(&[("crates/runtime/src/wal.rs", src)]);
        assert!(run(&fs).is_empty());
    }

    #[test]
    fn star_propagates_through_call_chains() {
        // wal is held across a call whose lock acquisition sits two
        // hops down (`append → relay → compact`).
        let src = "struct W { wal: Lock<Vec<u64>>, index: Lock<u32> }\n\
             fn append(&self) { let w = self.wal.lock(); self.relay(); }\n\
             fn relay(&self) { self.compact(); }\n\
             fn compact(&self) { let ix = self.index.lock(); }\n\
             fn rebuild(&self) { let ix = self.index.lock(); let w = self.wal.lock(); }";
        let fs = files(&[("crates/runtime/src/wal.rs", src)]);
        let findings = run(&fs);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("append → relay"), "{}", findings[0].message);
    }

    #[test]
    fn ambiguous_calls_do_not_propagate() {
        // Two crates declare `compact`; a third calls it while holding
        // wal. The target is a guess, so no lock set propagates and the
        // reversed direct order cannot close a cycle.
        let a = "struct W { wal: Lock<Vec<u64>> }\n\
                 fn append(&self) { let w = self.wal.lock(); compact(); }";
        let b = "struct X { index: Lock<u32> }\n\
                 fn compact() { }\n\
                 fn rebuild(x: &X, w: &W) { let ix = x.index.lock(); let g = w.wal.lock(); }";
        let c = "fn compact() { let ix = X_GLOBAL.index.lock(); }";
        let fs = files(&[
            ("crates/runtime/src/wal.rs", a),
            ("crates/runtime/src/store.rs", b),
            ("crates/shard/src/compactor.rs", c),
        ]);
        assert!(run(&fs).is_empty(), "{:?}", run(&fs));
    }

    #[test]
    fn direct_recursion_does_not_order_own_locks() {
        // `t.cancel()` resolves (by name) to the enclosing `cancel`
        // itself; that self-edge must not order cancel's own locks
        // against each other — here it would fabricate a
        // cancelled → queue edge and close a false cycle with `submit`.
        let src = format!(
            "{DECL}\n\
             fn submit(&self) {{ let q = self.queue.lock(); let c = self.cancelled.lock(); }}\n\
             fn cancel(&self, t: &Token) {{\n\
               {{ let q = self.queue.lock(); }}\n\
               if self.cancelled.lock().contains(&1) {{ t.cancel(); }}\n\
             }}"
        );
        let fs = files(&[("crates/runtime/src/scheduler.rs", &src)]);
        assert!(run(&fs).is_empty(), "{:?}", run(&fs));
    }

    #[test]
    fn test_functions_are_ignored() {
        let src = format!(
            "{DECL}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
               fn a(s: &Shared) {{ let q = s.queue.lock(); let c = s.cancelled.lock(); }}\n\
               fn b(s: &Shared) {{ let c = s.cancelled.lock(); let q = s.queue.lock(); }}\n\
             }}"
        );
        let fs = files(&[("crates/runtime/src/scheduler.rs", &src)]);
        assert!(run(&fs).is_empty());
    }
}
