//! Pass — span discipline (`unregistered-span`, `unguarded-span`).
//!
//! The profiler's invariants (§4.11): every [`SpanKind`] variant is
//! enumerable by tooling through the `SPAN_KINDS` registry (the JSON
//! importer round-trips through it, so an unregistered kind silently
//! drops records), and every span is closed by an RAII guard — a
//! variant nobody creates is dead weight, and a manual begin/end pair
//! leaks its span on every early return and panic between the calls.
//!
//! Three checks over the token stream:
//! * `unregistered-span` (deny) — an `enum SpanKind` variant missing
//!   from the `SPAN_KINDS` registry array.
//! * `unguarded-span` (warn) — a variant with zero non-test creation
//!   sites (`start(SpanKind::V`, `start_tagged(SpanKind::V`,
//!   `record_interval(SpanKind::V`, or a `kind: SpanKind::V` record
//!   literal).
//! * `unguarded-span` (warn) — a manual `begin(SpanKind::…)` /
//!   `end(SpanKind::…)` call; guards are the only sanctioned shape.
//!
//! Trade-offs (DESIGN §4.15): creation detection is syntactic, so a
//! kind only ever created through a variable (`let k = …; start(k, …)`)
//! reads as unguarded — indirection like that is exactly what the
//! registry is meant to avoid, so the warning is intended.

use crate::findings::{Finding, Severity};
use crate::lexer::TokKind;
use crate::source::{matching, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// RAII guard-creation entry points (`fn(SpanKind, ..)` shapes).
const CREATORS: [&str; 3] = ["start", "start_tagged", "record_interval"];

/// One `SpanKind` variant declaration site.
struct Variant {
    name: String,
    file: usize,
    line: u32,
}

/// Collect enum variants of every `enum SpanKind { .. }` declaration.
fn enum_variants(files: &[SourceFile]) -> Vec<Variant> {
    let mut out = Vec::new();
    for (fi, sf) in files.iter().enumerate() {
        if !sf.in_crate_src() {
            continue;
        }
        let t = &sf.toks;
        for i in 0..t.len().saturating_sub(2) {
            if !(t[i].is_ident("enum") && t[i + 1].is_ident("SpanKind") && t[i + 2].is_punct('{')) {
                continue;
            }
            let close = matching(t, i + 2);
            let mut j = i + 3;
            while j < close {
                // Unit variants only: `Name ,` / `Name }` (attrs skipped).
                if t[j].is_punct('#') && t[j + 1].is_punct('[') {
                    j = matching(t, j + 1);
                } else if t[j].kind == TokKind::Ident
                    && t.get(j + 1).map(|n| n.is_punct(',') || n.is_punct('}')).unwrap_or(true)
                {
                    out.push(Variant { name: t[j].text.clone(), file: fi, line: t[j].line });
                }
                j += 1;
            }
        }
    }
    out
}

/// Variant names listed in `SPAN_KINDS` registry arrays
/// (`const SPAN_KINDS: [SpanKind; N] = [SpanKind::A, ..]`).
fn registered(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for sf in files.iter().filter(|sf| sf.in_crate_src()) {
        let t = &sf.toks;
        for i in 0..t.len() {
            if !t[i].is_ident("SPAN_KINDS")
                || !t.get(i + 1).map(|n| n.is_punct(':')).unwrap_or(false)
            {
                continue;
            }
            // Skip the type to the initializer: `= [ ... ]`.
            let Some(eq) = (i..t.len()).find(|&j| t[j].is_punct('=')) else { continue };
            let Some(open) = (eq..t.len()).find(|&j| t[j].is_punct('[')) else { continue };
            for j in open..matching(t, open) {
                if let Some(name) = variant_path_at(t, j) {
                    out.insert(t[name].text.clone());
                }
            }
        }
    }
    out
}

/// If tokens at `j` spell `SpanKind :: Name`, return `Name`'s index.
fn variant_path_at(t: &[crate::lexer::Tok], j: usize) -> Option<usize> {
    (t[j].is_ident("SpanKind")
        && t.get(j + 1).map(|n| n.is_punct(':')).unwrap_or(false)
        && t.get(j + 2).map(|n| n.is_punct(':')).unwrap_or(false)
        && t.get(j + 3).map(|n| n.kind == TokKind::Ident).unwrap_or(false))
    .then_some(j + 3)
}

/// Run the pass.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let variants = enum_variants(files);
    if variants.is_empty() {
        return Vec::new();
    }
    let names: BTreeSet<&str> = variants.iter().map(|v| v.name.as_str()).collect();
    let reg = registered(files);

    // Creation sites and manual begin/end calls, workspace-wide.
    let mut created: BTreeMap<&str, usize> = BTreeMap::new();
    let mut findings = Vec::new();
    for sf in files.iter().filter(|sf| sf.in_crate_src()) {
        let t = &sf.toks;
        for i in 0..t.len() {
            if sf.test_mask[i] {
                continue;
            }
            let Some(vi) = variant_path_at(t, i) else { continue };
            let variant = t[vi].text.as_str();
            if !names.contains(variant) {
                continue;
            }
            // `creator(SpanKind::V` or a `kind: SpanKind::V` literal?
            let call = i >= 2 && t[i - 1].is_punct('(') && t[i - 2].kind == TokKind::Ident;
            if call && CREATORS.contains(&t[i - 2].text.as_str()) {
                *created.entry(names.get(variant).copied().unwrap_or_default()).or_insert(0) += 1;
            } else if call && (t[i - 2].text == "begin" || t[i - 2].text == "end") {
                findings.push(Finding::new(
                    "unguarded-span",
                    Severity::Warn,
                    &sf.rel,
                    t[i].line,
                    sf.snippet(t[i].line),
                    format!(
                        "manual `{}(SpanKind::{variant}, ..)` — begin/end pairs leak the span \
                         on early return and panic; create it through an RAII guard \
                         (`LocalSpans::start`) instead",
                        t[i - 2].text
                    ),
                ));
            } else if i >= 2 && t[i - 1].is_punct(':') && t[i - 2].is_ident("kind") {
                *created.entry(names.get(variant).copied().unwrap_or_default()).or_insert(0) += 1;
            }
        }
    }

    for v in &variants {
        let sf = &files[v.file];
        if !reg.contains(&v.name) {
            findings.push(Finding::new(
                "unregistered-span",
                Severity::Deny,
                &sf.rel,
                v.line,
                sf.snippet(v.line),
                format!(
                    "SpanKind::{} is not listed in the SPAN_KINDS registry — importers and \
                     profile tooling enumerate kinds through it, so records of this kind are \
                     silently dropped",
                    v.name
                ),
            ));
        }
        if created.get(v.name.as_str()).copied().unwrap_or(0) == 0 {
            findings.push(Finding::new(
                "unguarded-span",
                Severity::Warn,
                &sf.rel,
                v.line,
                sf.snippet(v.line),
                format!(
                    "SpanKind::{} has no RAII guard-creation site (`start`/`start_tagged`/\
                     `record_interval`/record literal) outside tests — either the kind is dead \
                     or its spans are opened by hand",
                    v.name
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
        analyze(&files)
    }

    const GOOD: &str = "pub enum SpanKind { Request, Execute }\n\
       pub const SPAN_KINDS: [SpanKind; 2] = [SpanKind::Request, SpanKind::Execute];\n\
       fn use_them(spans: &LocalSpans) {\n\
         let g = spans.start(SpanKind::Execute, 0);\n\
         spans.record(SpanRecord { kind: SpanKind::Request, dur_ns: 1 });\n\
       }";

    #[test]
    fn registered_and_guarded_kinds_are_clean() {
        assert!(run_pass(&[("crates/obs/src/span.rs", GOOD)]).is_empty());
    }

    #[test]
    fn variant_missing_from_registry_is_denied() {
        let src = GOOD.replace(
            "pub enum SpanKind { Request, Execute }",
            "pub enum SpanKind { Request, Execute, Ghost }",
        );
        // Ghost: unregistered (deny) and also never created (warn).
        let f = run_pass(&[("crates/obs/src/span.rs", &src)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "unregistered-span" && x.message.contains("Ghost")));
        assert!(f.iter().any(|x| x.rule == "unguarded-span" && x.message.contains("Ghost")));
    }

    #[test]
    fn uncreated_variant_warns_even_when_registered() {
        let src = "pub enum SpanKind { Request }\n\
           pub const SPAN_KINDS: [SpanKind; 1] = [SpanKind::Request];\n\
           fn as_str(k: SpanKind) -> &'static str { match k { SpanKind::Request => \"r\" } }";
        // The match arm in as_str is not a creation site.
        let f = run_pass(&[("crates/obs/src/span.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unguarded-span");
    }

    #[test]
    fn manual_begin_end_pairs_are_flagged() {
        let src = format!(
            "{GOOD}\n\
             fn by_hand(spans: &LocalSpans) {{\n\
               spans.begin(SpanKind::Execute, 0);\n\
               work();\n\
               spans.end(SpanKind::Execute, 0);\n\
             }}\n\
             fn work() {{}}"
        );
        let f = run_pass(&[("crates/obs/src/span.rs", &src)]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unguarded-span"));
        assert!(f[0].message.contains("begin") || f[1].message.contains("begin"));
    }

    #[test]
    fn creation_in_other_crates_counts() {
        let obs = "pub enum SpanKind { Request }\n\
           pub const SPAN_KINDS: [SpanKind; 1] = [SpanKind::Request];";
        let sched = "fn admit(spans: &LocalSpans) { let g = spans.start(SpanKind::Request, 0); }";
        assert!(run_pass(&[
            ("crates/obs/src/span.rs", obs),
            ("crates/runtime/src/scheduler.rs", sched),
        ])
        .is_empty());
    }

    #[test]
    fn test_only_creation_does_not_count() {
        let src = "pub enum SpanKind { Request }\n\
           pub const SPAN_KINDS: [SpanKind; 1] = [SpanKind::Request];\n\
           #[cfg(test)]\n\
           mod tests {\n\
             fn t(spans: &LocalSpans) { let g = spans.start(SpanKind::Request, 0); }\n\
           }";
        let f = run_pass(&[("crates/obs/src/span.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unguarded-span");
    }
}
