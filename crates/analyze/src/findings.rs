//! Structured findings: what every pass produces and the CI gate
//! consumes.

use serde::Serialize;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Advisory: reported, fails the build only under `--deny-warnings`.
    Warn,
    /// Violation of a repo invariant: always fails the build.
    Deny,
}

/// One finding. Serializes to the JSON shape the CI annotation step
/// reads (`rule`, `severity`, `file`, `line`, `snippet`, `message`).
#[derive(Clone, Debug, Serialize)]
pub struct Finding {
    /// Stable rule identifier (e.g. `lock-order-cycle`).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Path relative to the workspace root (or the model file path for
    /// pass 3).
    pub file: String,
    /// 1-based line; 0 when the finding is file-scoped (model files).
    pub line: u32,
    /// The offending source fragment, trimmed.
    pub snippet: String,
    /// Human explanation, including what to do about it.
    pub message: String,
}

impl Finding {
    /// Build a finding.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        file: impl Into<String>,
        line: u32,
        snippet: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            rule,
            severity,
            file: file.into(),
            line,
            snippet: snippet.into(),
            message: message.into(),
        }
    }

    /// One text line per finding: `severity rule file:line — message`.
    pub fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        };
        let head =
            format!("{sev:4} {:24} {}:{} — {}", self.rule, self.file, self.line, self.message);
        if self.snippet.is_empty() {
            head
        } else {
            format!("{head}\n     | {}", self.snippet)
        }
    }
}

/// The report the binary renders: findings plus counts.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Report {
    /// All findings.
    pub findings: Vec<Finding>,
    /// Deny findings.
    pub deny: usize,
    /// Warn findings.
    pub warn: usize,
    /// Files scanned by the source passes.
    pub files_scanned: usize,
    /// Model files checked by pass 3.
    pub models_checked: usize,
    /// Functions indexed by the call graph (interprocedural passes).
    pub functions_indexed: usize,
    /// Resolved call edges in the call graph.
    pub call_edges: usize,
}

impl Report {
    /// Fold `findings` in and update the counters.
    pub fn absorb(&mut self, findings: Vec<Finding>) {
        for f in findings {
            match f.severity {
                Severity::Deny => self.deny += 1,
                Severity::Warn => self.warn += 1,
            }
            self.findings.push(f);
        }
    }

    /// Exit code under the given strictness: nonzero on any deny, or
    /// any warn when `deny_warnings`.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        if self.deny > 0 || (deny_warnings && self.warn > 0) {
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_exit_codes() {
        let mut r = Report::default();
        r.absorb(vec![Finding::new("unbounded-collection", Severity::Warn, "a.rs", 2, "", "m")]);
        assert_eq!((r.deny, r.warn), (0, 1));
        assert_eq!(r.exit_code(false), 0);
        assert_eq!(r.exit_code(true), 1);

        r.absorb(vec![Finding::new("relaxed-signal", Severity::Deny, "b.rs", 3, "x", "m")]);
        assert_eq!((r.deny, r.warn), (1, 1));
        assert_eq!(r.exit_code(false), 1);
    }

    #[test]
    fn render_shapes() {
        let f = Finding::new("relaxed-signal", Severity::Deny, "a.rs", 7, "x.load(Relaxed)", "m");
        let s = f.render();
        assert!(s.contains("deny"));
        assert!(s.contains("a.rs:7"));
        assert!(s.contains("x.load(Relaxed)"));
    }
}
