//! Workspace-wide function index and call graph (DESIGN §4.15).
//!
//! The function-level rules, cancellation soundness and cross-call lock
//! order all need the same substrate: every function in the workspace
//! with its body token span, plus resolved call edges between them.
//! This module builds it once per run on top of
//! [`SourceFile::functions`], the run's one function scan.
//!
//! Resolution is name-based, the same discipline the lock-order pass
//! uses for lock fields: a call site `name(` resolves same-file first,
//! then by global uniqueness. When several functions share the name,
//! edges to *all* candidates are recorded and marked
//! [`CallSite::ambiguous`]; each pass chooses its own strictness —
//! reachability-style queries may take ambiguous edges (erring toward
//! coverage), while lock-set propagation uses only unambiguous ones
//! (erring away from false cycles). Names with a very large candidate
//! set (`new`, `len`, …) carry no information and are skipped entirely.

use crate::lexer::{Tok, TokKind};
use crate::source::{matching, FnNode, SourceFile};
use std::collections::BTreeMap;
use std::ops::Range;

/// Index into [`CallGraph::fns`].
pub type FnId = usize;

/// One resolved call site.
#[derive(Debug)]
pub struct CallSite {
    /// Calling function.
    pub caller: FnId,
    /// Called function.
    pub callee: FnId,
    /// Token index of the callee name in the caller's file.
    pub tok: usize,
    /// 1-based source line of the call.
    pub line: u32,
    /// True when the name had several candidates and this edge is one
    /// guess among them.
    pub ambiguous: bool,
}

/// A loop found inside a function body.
#[derive(Debug)]
pub struct LoopSpan {
    /// Which keyword introduced it.
    pub kind: LoopKind,
    /// Token index of the keyword.
    pub head: usize,
    /// Token range of the loop body (outer braces excluded), absolute
    /// in the file's token stream.
    pub body: Range<usize>,
    /// 1-based line of the keyword.
    pub line: u32,
}

/// Loop flavour — `for` loops are bounded by their iterator, `while`
/// and `loop` are potentially unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    For,
    While,
    Loop,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function, in file order.
    pub fns: Vec<FnNode>,
    /// Every resolved call site.
    pub sites: Vec<CallSite>,
    /// Outgoing site indices per function.
    out: Vec<Vec<usize>>,
    /// Name → candidate functions.
    by_name: BTreeMap<String, Vec<FnId>>,
}

/// Keywords that read like `ident (` but are never calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "loop", "match", "return", "fn", "let", "in", "move", "else", "break",
    "continue", "unsafe",
];

/// Names with more global candidates than this carry no resolution
/// signal and are skipped.
const MAX_CANDIDATES: usize = 8;

impl CallGraph {
    /// Index every function in `files` and resolve call sites.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut cg = CallGraph::default();
        // Function index, file by file. Nested fns get their own nodes;
        // sites are attributed to the innermost enclosing body below.
        let mut file_fns: Vec<Vec<FnId>> = vec![Vec::new(); files.len()];
        for (fi, sf) in files.iter().enumerate() {
            for f in sf.functions(fi) {
                let id = cg.fns.len();
                cg.by_name.entry(f.name.clone()).or_default().push(id);
                file_fns[fi].push(id);
                cg.fns.push(f);
            }
        }
        cg.out = vec![Vec::new(); cg.fns.len()];

        for (fi, sf) in files.iter().enumerate() {
            let t = &sf.toks;
            for i in 0..t.len().saturating_sub(1) {
                if t[i].kind != TokKind::Ident || !t[i + 1].is_punct('(') {
                    continue;
                }
                if NON_CALL_KEYWORDS.contains(&t[i].text.as_str()) {
                    continue;
                }
                // `fn name(` is a definition, not a call.
                if i > 0 && t[i - 1].is_ident("fn") {
                    continue;
                }
                let Some(caller) = cg.fn_at(&file_fns[fi], i) else { continue };
                let is_method = i > 0 && t[i - 1].is_punct('.');
                let (candidates, ambiguous) = cg.resolve(&t[i].text, fi, is_method);
                for callee in candidates {
                    let site = cg.sites.len();
                    cg.sites.push(CallSite { caller, callee, tok: i, line: t[i].line, ambiguous });
                    cg.out[caller].push(site);
                }
            }
        }
        cg
    }

    /// Candidate targets for a call to `name` from file `fi`:
    /// same-file first (unambiguous even with several global
    /// declarations), then global. Test functions are never call
    /// targets. Returns the candidate list and whether it is a guess.
    ///
    /// Two guards against std/trait collisions, where a method like
    /// `Vec::new` or `HashMap::insert` shares its name with a
    /// workspace function: a name with more than [`MAX_CANDIDATES`]
    /// workspace declarations never resolves (even same-file — at that
    /// arity the match is coincidence), and a *method* call (`.name(`)
    /// resolving outside its own file is always marked ambiguous,
    /// because nothing ties the receiver's type to that file.
    fn resolve(&self, name: &str, fi: usize, is_method: bool) -> (Vec<FnId>, bool) {
        let Some(all) = self.by_name.get(name) else { return (Vec::new(), false) };
        let live: Vec<FnId> = all.iter().copied().filter(|&f| !self.fns[f].is_test).collect();
        if live.len() > MAX_CANDIDATES {
            return (Vec::new(), false); // too generic to mean anything
        }
        let local: Vec<FnId> = live.iter().copied().filter(|&f| self.fns[f].file == fi).collect();
        match local.len() {
            1 => (local, false),
            n if n > 1 => (local, true),
            _ => match live.len() {
                0 => (Vec::new(), false),
                1 => (live, is_method),
                _ => (live, true),
            },
        }
    }

    /// The innermost function of `candidates` whose body contains token
    /// `tok`.
    fn fn_at(&self, candidates: &[FnId], tok: usize) -> Option<FnId> {
        candidates
            .iter()
            .copied()
            .filter(|&f| self.fns[f].body.contains(&tok))
            .min_by_key(|&f| self.fns[f].body.len())
    }

    /// Functions declared with `name`.
    pub fn named(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Outgoing call sites of `f`.
    pub fn callees(&self, f: FnId) -> impl Iterator<Item = &CallSite> {
        self.out[f].iter().map(|&s| &self.sites[s])
    }

    /// `reached[f]` — `f` is one of `roots` or transitively called from
    /// one. Cycle-tolerant BFS over non-test functions. With
    /// `strict`, ambiguous edges are not followed.
    pub fn reachable(&self, roots: &[FnId], strict: bool) -> Vec<bool> {
        let mut reached = vec![false; self.fns.len()];
        let mut queue: Vec<FnId> = Vec::new();
        for &r in roots {
            if !reached[r] {
                reached[r] = true;
                queue.push(r);
            }
        }
        while let Some(f) = queue.pop() {
            for site in self.callees(f) {
                if (strict && site.ambiguous) || self.fns[site.callee].is_test {
                    continue;
                }
                if !reached[site.callee] {
                    reached[site.callee] = true;
                    queue.push(site.callee);
                }
            }
        }
        reached
    }
}

/// Every loop inside `body` (absolute token range into `toks`),
/// including loops nested in closures. The body `{` is the first brace
/// at paren depth 0 after the keyword, so braces inside header calls
/// (`.map(|x| { .. })`) are skipped.
pub fn loops_in(toks: &[Tok], body: Range<usize>) -> Vec<LoopSpan> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let kind = if toks[i].is_ident("for") {
            // `for<'a>` bounds are types, not loops.
            if toks.get(i + 1).map(|t| t.is_punct('<')).unwrap_or(false) {
                i += 1;
                continue;
            }
            Some(LoopKind::For)
        } else if toks[i].is_ident("while") {
            Some(LoopKind::While)
        } else if toks[i].is_ident("loop") {
            Some(LoopKind::Loop)
        } else {
            None
        };
        let Some(kind) = kind else {
            i += 1;
            continue;
        };
        let mut open = i + 1;
        while open < body.end && !toks[open].is_punct('{') {
            if toks[open].is_punct('(') || toks[open].is_punct('[') {
                open = matching(toks, open);
            }
            open += 1;
        }
        if open >= body.end {
            i += 1;
            continue;
        }
        let close = matching(toks, open);
        out.push(LoopSpan { kind, head: i, body: open + 1..close, line: toks[i].line });
        i = open + 1; // descend: nested loops get their own spans
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> =
            srcs.iter().map(|(rel, s)| SourceFile::parse(*rel, s)).collect();
        let cg = CallGraph::build(&files);
        (files, cg)
    }

    fn id(cg: &CallGraph, name: &str) -> FnId {
        cg.named(name).first().copied().unwrap_or_else(|| panic!("fn {name} not indexed"))
    }

    #[test]
    fn resolves_same_file_then_global_unique() {
        let (_, cg) = graph(&[
            ("crates/core/src/a.rs", "fn entry() { helper(); shared(); } fn helper() {}"),
            ("crates/core/src/b.rs", "fn shared() {}"),
        ]);
        let entry = id(&cg, "entry");
        let callees: Vec<&str> =
            cg.callees(entry).map(|s| cg.fns[s.callee].name.as_str()).collect();
        assert!(callees.contains(&"helper"));
        assert!(callees.contains(&"shared"));
        assert!(cg.callees(entry).all(|s| !s.ambiguous));
    }

    #[test]
    fn ambiguous_names_fan_out_marked() {
        let (_, cg) = graph(&[
            ("crates/core/src/a.rs", "fn entry(x: &X) { x.step(); }"),
            ("crates/core/src/b.rs", "fn step() {}"),
            ("crates/core/src/c.rs", "fn step() {}"),
        ]);
        let entry = id(&cg, "entry");
        let sites: Vec<_> = cg.callees(entry).collect();
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.ambiguous));
    }

    #[test]
    fn test_functions_are_not_call_targets() {
        let (_, cg) = graph(&[
            ("crates/core/src/a.rs", "fn entry() { helper(); }"),
            ("crates/core/src/b.rs", "#[cfg(test)]\nmod t { fn helper() {} }"),
        ]);
        assert_eq!(cg.callees(id(&cg, "entry")).count(), 0);
    }

    #[test]
    fn reachability_tolerates_cycles() {
        let (_, cg) = graph(&[(
            "crates/core/src/a.rs",
            "fn a() { b(); } fn b() { c(); a(); } fn c() {} fn lonely() {}",
        )]);
        let reached = cg.reachable(&[id(&cg, "a")], true);
        assert!(reached[id(&cg, "a")]);
        assert!(reached[id(&cg, "b")]);
        assert!(reached[id(&cg, "c")]);
        assert!(!reached[id(&cg, "lonely")]);
    }

    #[test]
    fn strict_reachability_skips_ambiguous_edges() {
        let (_, cg) = graph(&[
            ("crates/core/src/a.rs", "fn entry(x: &X) { x.dup(); }"),
            ("crates/core/src/b.rs", "fn dup() {}"),
            ("crates/core/src/c.rs", "fn dup() {}"),
        ]);
        let entry = id(&cg, "entry");
        let strict = cg.reachable(&[entry], true);
        let loose = cg.reachable(&[entry], false);
        assert!(cg.named("dup").iter().all(|&d| !strict[d]));
        assert!(cg.named("dup").iter().all(|&d| loose[d]));
    }

    #[test]
    fn loops_found_with_kinds_and_nesting() {
        let sf = SourceFile::parse(
            "crates/core/src/l.rs",
            "fn f(v: &[u32]) { for x in v.iter().map(|y| { y + 1 }) { while go() { loop { } } } }",
        );
        let loops = loops_in(&sf.toks, 0..sf.toks.len());
        let kinds: Vec<LoopKind> = loops.iter().map(|l| l.kind).collect();
        assert_eq!(kinds, vec![LoopKind::For, LoopKind::While, LoopKind::Loop]);
        // The closure brace in the header is not the for body.
        assert!(loops[0].body.len() > loops[1].body.len());
        assert!(loops[0].body.contains(&loops[1].head));
        assert!(loops[1].body.contains(&loops[2].head));
    }

    #[test]
    fn generic_names_are_skipped() {
        let mut srcs =
            vec![("crates/core/src/u.rs".to_string(), "fn entry(x: &X) { x.new(); }".to_string())];
        for k in 0..10 {
            srcs.push((format!("crates/core/src/g{k}.rs"), "fn new() {}".to_string()));
        }
        let pairs: Vec<(&str, &str)> = srcs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let (_, cg) = graph(&pairs);
        assert_eq!(cg.callees(id(&cg, "entry")).count(), 0);
    }

    #[test]
    fn generic_names_are_skipped_even_same_file() {
        // A same-file `new` must not capture `Vec::new()` when the name
        // is workspace-generic — that match is coincidence, not a call.
        let mut srcs = vec![(
            "crates/core/src/u.rs".to_string(),
            "fn new() {} fn entry() -> Vec<u32> { Vec::new() }".to_string(),
        )];
        for k in 0..9 {
            srcs.push((format!("crates/core/src/g{k}.rs"), "fn new() {}".to_string()));
        }
        let pairs: Vec<(&str, &str)> = srcs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let (_, cg) = graph(&pairs);
        assert_eq!(cg.callees(id(&cg, "entry")).count(), 0);
    }

    #[test]
    fn cross_file_method_calls_are_guesses() {
        // `map.keys()` is almost certainly a std method; a workspace fn
        // that happens to share the name gets an edge, but marked
        // ambiguous so strict passes skip it.
        let (_, cg) = graph(&[
            ("crates/core/src/a.rs", "fn entry(m: &M) { m.keys(); }"),
            ("crates/shard/src/store.rs", "fn keys() {}"),
        ]);
        let entry = id(&cg, "entry");
        let sites: Vec<_> = cg.callees(entry).collect();
        assert_eq!(sites.len(), 1);
        assert!(sites[0].ambiguous);
    }

    #[test]
    fn same_file_method_and_cross_file_free_calls_stay_strict() {
        let (_, cg) = graph(&[
            ("crates/core/src/a.rs", "fn entry(&self) { self.step(); relax(); }\nfn step() {}"),
            ("crates/core/src/b.rs", "fn relax() {}"),
        ]);
        let entry = id(&cg, "entry");
        assert_eq!(cg.callees(entry).count(), 2);
        assert!(cg.callees(entry).all(|s| !s.ambiguous));
    }
}
