//! A hand-rolled Rust lexer, just deep enough for rule matching.
//!
//! The rules in this crate match *token* sequences, never raw text, so
//! a `Mutex` mentioned in a doc comment, a `todo!` inside a string
//! literal, or an `unwrap(` spelled in a `r#"..."#` raw string must
//! not produce tokens. That is the entire job of this module: strip
//! comments (line, nested block), strings (plain, raw with any hash
//! count, byte, C), char literals (disambiguated from lifetimes), and
//! numbers, and hand back identifiers and punctuation with line
//! numbers attached.
//!
//! No `syn`: the workspace vendors its few dependencies and a full
//! parse is not needed — every rule is expressible over a flat token
//! stream plus bracket matching (`source::matching`).

/// What a token is. Only the distinctions the rules need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `Mutex`, `unwrap`, ...).
    Ident,
    /// Single punctuation character (`.`, `:`, `(`, `{`, `!`, ...).
    Punct,
    /// Numeric literal (consumed as one token, value unused).
    Num,
    /// String/char literal of any flavour (content discarded).
    Lit,
    /// Lifetime (`'a`) — kept so `'a` is never mistaken for a char.
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Source text for `Ident`/`Punct` tokens; empty for literals.
    pub text: String,
    /// 1-based line number.
    pub line: u32,
}

impl Tok {
    /// True when this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Lex `src` into a token stream. Never fails: unterminated constructs
/// simply consume to end of input (the analyzer lints source that
/// already compiled, so this is a non-issue in practice).
pub fn lex(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Count newlines in b[from..to] into `line`.
    fn advance_lines(b: &[char], from: usize, to: usize, line: &mut u32) {
        for &c in &b[from..to.min(b.len())] {
            if c == '\n' {
                *line += 1;
            }
        }
    }

    while i < b.len() {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (`//`, `///`, `//!`).
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, nested per Rust rules.
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            advance_lines(&b, start, i, &mut line);
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br##"..."## / cr"..." etc.
        if c == 'r' || c == 'b' || c == 'c' {
            if let Some(end) = try_raw_or_prefixed_string(&b, i) {
                toks.push(Tok { kind: TokKind::Lit, text: String::new(), line });
                advance_lines(&b, i, end, &mut line);
                i = end;
                continue;
            }
        }
        // Plain string literal.
        if c == '"' {
            let start = i;
            i += 1;
            while i < b.len() {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    i += 1;
                    break;
                } else {
                    i += 1;
                }
            }
            toks.push(Tok { kind: TokKind::Lit, text: String::new(), line });
            advance_lines(&b, start, i, &mut line);
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // A lifetime is `'` ident-start NOT followed by a closing
            // quote (`'a'` is a char, `'a` in `<'a>` is a lifetime).
            let is_lifetime = match b.get(i + 1) {
                Some(&n) if n.is_alphabetic() || n == '_' => {
                    // Find where the ident run ends; lifetime iff the
                    // run is not followed by `'`.
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                        j += 1;
                    }
                    b.get(j) != Some(&'\'')
                }
                _ => false,
            };
            if is_lifetime {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                toks.push(Tok { kind: TokKind::Lifetime, text: String::new(), line });
                i = j;
            } else {
                // Char literal: handle escapes (`'\''`, `'\\'`, `'\n'`).
                let start = i;
                i += 1;
                if b.get(i) == Some(&'\\') {
                    i += 2;
                } else {
                    i += 1;
                }
                while i < b.len() && b[i] != '\'' {
                    i += 1; // e.g. '\u{1F600}'
                }
                i += 1;
                toks.push(Tok { kind: TokKind::Lit, text: String::new(), line });
                advance_lines(&b, start, i, &mut line);
            }
            continue;
        }
        // Number (also eats suffixes/underscores/hex: one opaque token).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_' || b[j] == '.') {
                // A `.` followed by a non-digit is method call syntax
                // (`1.max(2)`), not part of the number.
                if b[j] == '.' && !b.get(j + 1).map(|c| c.is_ascii_digit()).unwrap_or(false) {
                    break;
                }
                j += 1;
            }
            toks.push(Tok { kind: TokKind::Num, text: String::new(), line });
            i = j;
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            let text: String = b[i..j].iter().collect();
            toks.push(Tok { kind: TokKind::Ident, text, line });
            i = j;
            continue;
        }
        // Everything else: one punctuation character per token.
        toks.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    toks
}

/// If position `i` starts a raw or prefixed string literal
/// (`r"`, `r#"`, `b"`, `br#"`, `c"`, `cr#"` ...), return the index one
/// past its end; otherwise `None` (so `r` as an identifier lexes
/// normally).
fn try_raw_or_prefixed_string(b: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    // Optional b/c prefix before r, e.g. br#"..."#.
    if (b[j] == 'b' || b[j] == 'c') && matches!(b.get(j + 1), Some(&'r') | Some(&'"')) {
        if b.get(j + 1) == Some(&'"') {
            // b"..." / c"...": plain string with a one-letter prefix.
            return Some(scan_plain_string(b, j + 1));
        }
        j += 1;
    }
    if b[j] == 'r' {
        let mut hashes = 0usize;
        let mut k = j + 1;
        while b.get(k) == Some(&'#') {
            hashes += 1;
            k += 1;
        }
        if b.get(k) == Some(&'"') {
            // Scan to `"` followed by `hashes` hashes.
            k += 1;
            while k < b.len() {
                if b[k] == '"'
                    && b[k + 1..].iter().take(hashes).filter(|&&c| c == '#').count() == hashes
                {
                    return Some(k + 1 + hashes);
                }
                k += 1;
            }
            return Some(b.len());
        }
        return None; // `r` identifier or raw identifier `r#ident`
    }
    None
}

/// Scan a plain `"` string starting at the opening quote index; returns
/// the index one past the closing quote.
fn scan_plain_string(b: &[char], quote: usize) -> usize {
    let mut i = quote + 1;
    while i < b.len() {
        if b[i] == '\\' {
            i += 2;
        } else if b[i] == '"' {
            return i + 1;
        } else {
            i += 1;
        }
    }
    b.len()
}

/// Convenience: the identifiers of a token stream as `&str`s (testing).
pub fn idents(toks: &[Tok]) -> Vec<&str> {
    toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().filter(|t| t.kind != TokKind::Lit).map(|t| t.text).collect()
    }

    #[test]
    fn line_comments_produce_no_tokens() {
        let toks = lex("// std::sync::Mutex unwrap() todo!()\nlet x = 1;");
        assert!(!idents(&toks).contains(&"Mutex"));
        assert!(idents(&toks).contains(&"let"));
        // The `let` is on line 2.
        assert_eq!(toks[0].line, 2);
    }

    #[test]
    fn nested_block_comments_skip_cleanly() {
        let toks = lex("/* outer /* inner Mutex */ still comment unwrap() */ fn f() {}");
        let ids = idents(&toks);
        assert_eq!(ids, vec!["fn", "f"]);
    }

    #[test]
    fn strings_hide_their_content() {
        let toks = lex(r#"let s = "std::sync::Mutex::unwrap(todo!())";"#);
        let ids = idents(&toks);
        assert!(!ids.contains(&"Mutex"));
        assert!(!ids.contains(&"todo"));
        assert!(ids.contains(&"s"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let toks = lex(r#"let s = "a\"Mutex\"b"; let t = 1;"#);
        assert!(!idents(&toks).contains(&"Mutex"));
        assert!(idents(&toks).contains(&"t"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r###"let s = r#"contains "quotes" and Mutex and unwrap("#; let u = 2;"###);
        let ids = idents(&toks);
        assert!(!ids.contains(&"Mutex"));
        assert!(!ids.contains(&"unwrap"));
        assert!(ids.contains(&"u"));
    }

    #[test]
    fn byte_and_c_strings_are_literals() {
        let toks = lex("let a = b\"Mutex\"; let b2 = br#\"unwrap(\"#; let c = c\"todo!\";");
        let ids = idents(&toks);
        assert!(!ids.contains(&"Mutex"));
        assert!(!ids.contains(&"unwrap"));
        assert!(!ids.contains(&"todo"));
        assert!(ids.contains(&"b2"));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        // 'a' is a char; '_x and 'static are lifetimes; '\'' escapes.
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'a'; let q = '\\''; let nl = '\\n'; }");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        assert_eq!(lifetimes, 2);
        let lits = toks.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 3);
        // And the char content never leaks an identifier token ('a'
        // must not produce an `a`, '\n' must not produce an `n`).
        assert!(!idents(&toks).contains(&"a"));
        assert!(!idents(&toks).contains(&"n"));
    }

    #[test]
    fn char_literal_content_is_not_tokenized() {
        let toks = lex("let x = 'M'; let y = Mutex::new(());");
        // Exactly one Mutex ident (the real one), the 'M' char is a Lit.
        let count = idents(&toks).iter().filter(|&&s| s == "Mutex").count();
        assert_eq!(count, 1);
    }

    #[test]
    fn numbers_are_single_opaque_tokens() {
        let toks = lex("let x = 1_000.5e3f64 + 0xFF_u32; x.max(2)");
        // The f64/u32 suffixes must not surface as identifiers.
        let ids = idents(&toks);
        assert!(!ids.contains(&"f64"));
        assert!(!ids.contains(&"u32"));
        assert!(ids.contains(&"max"), "method after number literal still lexes: {ids:?}");
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "/* one\ntwo\nthree */\n\"a\nb\"\nfn f() {}";
        let toks = lex(src);
        let f = toks.iter().find(|t| t.is_ident("fn")).expect("fn token");
        assert_eq!(f.line, 6);
    }

    #[test]
    fn punctuation_is_one_char_per_token() {
        let toks = texts("a::b.c(!)");
        assert_eq!(toks, vec!["a", ":", ":", "b", ".", "c", "(", "!", ")"]);
    }

    #[test]
    fn doc_comment_mentioning_rules_is_invisible() {
        // The regression that motivates token-level matching: prose in
        // doc comments talks about `lock().expect(...)` without those
        // being real calls.
        let src = "//! each `lock().expect(...)` site becomes a panic\nstruct S;";
        let toks = lex(src);
        assert_eq!(idents(&toks), vec!["struct", "S"]);
    }
}
