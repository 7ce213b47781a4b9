//! A lexed source file plus the structure the rules need: which tokens
//! are test-only code, where functions begin and end, and which crate
//! the file belongs to.

use crate::lexer::{lex, Tok, TokKind};
use std::ops::Range;

/// One analyzed file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Token stream (comments and literal contents already stripped).
    pub toks: Vec<Tok>,
    /// `test_mask[i]` — token `i` sits inside a `#[cfg(test)]` item or
    /// a `#[test]` function.
    pub test_mask: Vec<bool>,
    /// Raw source lines, for snippets.
    lines: Vec<String>,
}

/// A function found in a file.
#[derive(Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Token range of the body, *excluding* the outer braces.
    pub body: Range<usize>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True when the function is test code (`#[test]`, or inside a
    /// `#[cfg(test)]` region).
    pub is_test: bool,
}

impl SourceFile {
    /// Lex and annotate `text`.
    pub fn parse(rel: impl Into<String>, text: &str) -> Self {
        let toks = lex(text);
        let test_mask = compute_test_mask(&toks);
        SourceFile {
            rel: rel.into(),
            toks,
            test_mask,
            lines: text.lines().map(|l| l.to_string()).collect(),
        }
    }

    /// The source line (trimmed) for a snippet, or empty.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// `crates/<name>/...` → `Some(name)`; the root `src/` facade and
    /// anything else → `None`.
    pub fn crate_name(&self) -> Option<&str> {
        let rest = self.rel.strip_prefix("crates/")?;
        rest.split('/').next()
    }

    /// True for `src/` code of the crate (not `tests/`, `benches/`,
    /// `examples/`).
    pub fn in_crate_src(&self) -> bool {
        match self.rel.strip_prefix("crates/") {
            Some(rest) => {
                let mut parts = rest.split('/');
                let _crate = parts.next();
                parts.next() == Some("src")
            }
            None => self.rel.starts_with("src/"),
        }
    }

    /// True when the whole file holds an identifier containing `needle`
    /// (used by heuristic rules like `unbounded-collection`).
    pub fn has_ident_containing(&self, needle: &str) -> bool {
        self.toks.iter().any(|t| t.kind == TokKind::Ident && t.text.contains(needle))
    }

    /// Extract every function with a body.
    pub fn functions(&self) -> Vec<FnSpan> {
        let t = &self.toks;
        let mut out = Vec::new();
        let mut i = 0;
        while i < t.len() {
            if t[i].is_ident("fn")
                && t.get(i + 1).map(|n| n.kind == TokKind::Ident).unwrap_or(false)
            {
                let name = t[i + 1].text.clone();
                let line = t[i].line;
                // The body is the first `{` before any `;` (trait
                // method declarations end with `;` and have no body).
                let mut j = i + 2;
                let mut body = None;
                while j < t.len() {
                    if t[j].is_punct(';') {
                        break;
                    }
                    if t[j].is_punct('{') {
                        body = Some(j);
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = body {
                    let close = matching(t, open);
                    let is_test = self.test_mask[i];
                    out.push(FnSpan { name, body: open + 1..close, line, is_test });
                    // Continue scanning *inside* the body too (nested
                    // fns appear as their own spans).
                    i = open + 1;
                    continue;
                }
            }
            i += 1;
        }
        out
    }
}

/// Index of the bracket that closes the `{`, `[` or `(` at `open` (the
/// last token when it is never closed).
pub fn matching(t: &[Tok], open: usize) -> usize {
    let (opens, closes) = match t[open].text.as_str() {
        "{" => ('{', '}'),
        "[" => ('[', ']'),
        _ => ('(', ')'),
    };
    let mut depth = 0usize;
    for (j, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct(opens) {
            depth += 1;
        } else if tok.is_punct(closes) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    t.len().saturating_sub(1)
}

/// Does this attribute body (tokens between `#[` and `]`) mark the
/// item as test-only? `#[test]`, `#[tokio::test]`, `#[cfg(test)]`,
/// `#[cfg(any(test, ...))]` do; `#[cfg(not(test))]` marks *non*-test
/// code and must not.
fn is_test_marking_attr(body: &[Tok]) -> bool {
    let mentions_test = body.iter().any(|b| b.is_ident("test"));
    if !mentions_test {
        return false;
    }
    if body.first().map(|b| b.is_ident("cfg")).unwrap_or(false) {
        return !body.iter().any(|b| b.is_ident("not"));
    }
    true
}

/// Mark every token of an item under a test-marking attribute: a
/// `#[cfg(test)]` module, fn, impl or use, and a `#[test]` function.
fn compute_test_mask(t: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; t.len()];
    let mut i = 0;
    while i < t.len() {
        if t[i].is_punct('#') && t.get(i + 1).map(|n| n.is_punct('[')).unwrap_or(false) {
            let close = matching(t, i + 1);
            if t.get(i + 2..close).is_some_and(is_test_marking_attr) {
                // Skip further attributes, then mask the whole item.
                let mut k = close + 1;
                while k + 1 < t.len() && t[k].is_punct('#') && t[k + 1].is_punct('[') {
                    k = matching(t, k + 1) + 1;
                }
                // The item runs to its closing `}` (mod/fn/impl) or to
                // `;` (use/static), whichever comes first structurally.
                let end = match (k..t.len()).find(|&m| t[m].is_punct(';') || t[m].is_punct('{')) {
                    Some(m) if t[m].is_punct('{') => matching(t, m),
                    Some(m) => m,
                    None => t.len().saturating_sub(1),
                };
                for slot in mask.iter_mut().take(end + 1).skip(i) {
                    *slot = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub fn hot(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    fn helper() { inner_marker.unwrap(); }
    #[test]
    fn a_test() { other.unwrap(); }
}
"#;

    #[test]
    fn cfg_test_module_is_masked() {
        let sf = SourceFile::parse("crates/core/src/x.rs", SRC);
        let masked: Vec<&str> = sf
            .toks
            .iter()
            .zip(&sf.test_mask)
            .filter(|(t, &m)| m && t.kind == TokKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"inner_marker"));
        assert!(masked.contains(&"helper"));
        // The hot function is not masked.
        let hot_idx = sf.toks.iter().position(|t| t.is_ident("hot")).expect("hot token");
        assert!(!sf.test_mask[hot_idx]);
    }

    #[test]
    fn functions_found_with_test_flags() {
        let sf = SourceFile::parse("crates/core/src/x.rs", SRC);
        let fns = sf.functions();
        let names: Vec<(&str, bool)> = fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert!(names.contains(&("hot", false)));
        assert!(names.contains(&("helper", true)), "{names:?}");
        assert!(names.contains(&("a_test", true)));
    }

    #[test]
    fn test_attr_without_cfg_mod_is_detected() {
        let src = "#[test]\nfn standalone() { x.unwrap(); }\nfn normal() {}";
        let sf = SourceFile::parse("crates/core/src/y.rs", src);
        let fns = sf.functions();
        assert_eq!(fns.iter().find(|f| f.name == "standalone").map(|f| f.is_test), Some(true));
        assert_eq!(fns.iter().find(|f| f.name == "normal").map(|f| f.is_test), Some(false));
    }

    #[test]
    fn crate_name_and_src_classification() {
        let sf = SourceFile::parse("crates/runtime/src/scheduler.rs", "fn a() {}");
        assert_eq!(sf.crate_name(), Some("runtime"));
        assert!(sf.in_crate_src());
        let tf = SourceFile::parse("crates/runtime/tests/faults.rs", "fn a() {}");
        assert_eq!(tf.crate_name(), Some("runtime"));
        assert!(!tf.in_crate_src());
        let root = SourceFile::parse("src/lib.rs", "fn a() {}");
        assert_eq!(root.crate_name(), None);
        assert!(root.in_crate_src());
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn decl(&self) -> u32; fn with_default(&self) -> u32 { 1 } }";
        let sf = SourceFile::parse("crates/core/src/t.rs", src);
        let fns = sf.functions();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "with_default");
    }

    #[test]
    fn cfg_test_use_item_masks_to_semicolon_only() {
        let src = "#[cfg(test)]\nuse std::sync::Mutex;\nfn live() {}";
        let sf = SourceFile::parse("crates/core/src/u.rs", src);
        let mutex_idx = sf.toks.iter().position(|t| t.is_ident("Mutex")).expect("mutex");
        let live_idx = sf.toks.iter().position(|t| t.is_ident("live")).expect("live");
        assert!(sf.test_mask[mutex_idx]);
        assert!(!sf.test_mask[live_idx]);
    }
}
