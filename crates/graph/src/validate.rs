//! Structural validation of CSR graphs.
//!
//! [`Csr::new`] enforces its invariants with panics — the right contract
//! for trusted in-process construction, and the wrong one for bytes
//! that arrived over a socket or from a hostile file. [`CsrValidator`]
//! re-checks the same invariants (and a few graph-level consistency
//! rules) without panicking, producing a [`ValidationReport`] the
//! serving runtime can turn into a structured registration error. It
//! counts nothing: the serving registry counts its refusals in its own
//! metrics.

use crate::{Csr, Graph, VertexId};

/// Outcome of a validation pass: size summary plus every violation
/// found (capped — see [`CsrValidator::max_issues`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Vertices the structure claims to cover.
    pub vertices: usize,
    /// Directed edges the structure claims to store.
    pub edges: usize,
    /// Human-readable violations, empty when the structure is sound.
    pub issues: Vec<String>,
}

impl ValidationReport {
    /// True when no violation was found.
    pub fn is_valid(&self) -> bool {
        self.issues.is_empty()
    }

    fn push(&mut self, cap: usize, msg: String) {
        if self.issues.len() < cap {
            self.issues.push(msg);
        }
    }
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_valid() {
            write!(f, "valid ({} vertices, {} edges)", self.vertices, self.edges)
        } else {
            write!(f, "invalid: {}", self.issues.join("; "))
        }
    }
}

/// Panic-free checker for the invariants [`Csr::new`] asserts, plus
/// graph-level consistency (degree sums, weight alignment, positive
/// weights).
#[derive(Clone, Copy, Debug)]
pub struct CsrValidator {
    /// Stop collecting after this many issues (a hostile input with a
    /// million bad targets should not cost a million allocations).
    pub max_issues: usize,
}

impl Default for CsrValidator {
    fn default() -> Self {
        CsrValidator { max_issues: 8 }
    }
}

impl CsrValidator {
    /// A validator with the default issue cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Validate raw CSR parts against a claimed vertex count `n` —
    /// exactly what [`Csr::new`] would panic on, as a report.
    pub fn validate_parts(
        &self,
        n: usize,
        offsets: &[u64],
        targets: &[VertexId],
    ) -> ValidationReport {
        let mut rep = ValidationReport { vertices: n, edges: targets.len(), ..Default::default() };
        let cap = self.max_issues.max(1);
        if offsets.is_empty() {
            rep.push(cap, "offsets array is empty".into());
            return rep;
        }
        if offsets.len() != n + 1 {
            rep.push(cap, format!("offsets length {} != vertices + 1 ({})", offsets.len(), n + 1));
        }
        if offsets[0] != 0 {
            rep.push(cap, format!("offsets[0] = {} (must be 0)", offsets[0]));
        }
        for (i, w) in offsets.windows(2).enumerate() {
            if w[1] < w[0] {
                rep.push(cap, format!("offsets not monotone at vertex {i}: {} > {}", w[0], w[1]));
                if rep.issues.len() >= cap {
                    break;
                }
            }
        }
        let last = *offsets.last().unwrap();
        if last != targets.len() as u64 {
            rep.push(cap, format!("final offset {last} != edge count {}", targets.len()));
        }
        for (i, &t) in targets.iter().enumerate() {
            if t as usize >= n {
                rep.push(cap, format!("edge {i} targets vertex {t} (graph has {n} vertices)"));
                if rep.issues.len() >= cap {
                    break;
                }
            }
        }
        rep
    }

    /// Validate a constructed [`Csr`] (cheap belt-and-braces: the type
    /// already enforced this at construction).
    pub fn validate_csr(&self, csr: &Csr) -> ValidationReport {
        self.validate_parts(csr.num_vertices(), csr.offsets(), csr.targets())
    }

    /// Validate a whole [`Graph`]: both CSR views, out/in edge-count
    /// agreement, degree sums, weight-array alignment, and positive
    /// weights (the builder clamps weights to ≥ 1; a zero here means
    /// the graph bypassed it).
    pub fn validate_graph(&self, g: &Graph) -> ValidationReport {
        let cap = self.max_issues.max(1);
        let mut rep = self.validate_csr(g.out_csr());
        if !g.is_symmetric() {
            let inc = self.validate_csr(g.in_csr());
            for issue in inc.issues {
                rep.push(cap, format!("in-CSR: {issue}"));
            }
            if g.in_csr().num_edges() != g.out_csr().num_edges() {
                rep.push(
                    cap,
                    format!(
                        "in-CSR stores {} edges but out-CSR stores {}",
                        g.in_csr().num_edges(),
                        g.out_csr().num_edges()
                    ),
                );
            }
        }
        let degree_sum: u64 =
            (0..g.num_vertices() as VertexId).map(|v| g.out_degree(v) as u64).sum();
        if degree_sum != g.num_edges() as u64 {
            rep.push(cap, format!("degree sum {degree_sum} != edge count {}", g.num_edges()));
        }
        for (label, ws, csr) in
            [("out", g.out_weights(), g.out_csr()), ("in", g.in_weights(), g.in_csr())]
        {
            let Some(ws) = ws else { continue };
            if ws.len() != csr.num_edges() {
                rep.push(
                    cap,
                    format!(
                        "{label}-weights length {} != edge count {}",
                        ws.len(),
                        csr.num_edges()
                    ),
                );
            }
            if let Some(i) = ws.iter().position(|&w| w == 0) {
                rep.push(cap, format!("{label}-weight {i} is zero (weights must be ≥ 1)"));
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn valid_graph_passes() {
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
        let rep = CsrValidator::new().validate_graph(&g);
        assert!(rep.is_valid(), "{rep}");
        assert_eq!((rep.vertices, rep.edges), (4, 6));
    }

    #[test]
    fn bad_parts_each_produce_an_issue() {
        let v = CsrValidator::new();
        assert!(!v.validate_parts(2, &[], &[]).is_valid());
        // offsets[0] != 0
        assert!(!v.validate_parts(1, &[1, 1], &[0]).is_valid());
        // non-monotone
        assert!(!v.validate_parts(2, &[0, 2, 1], &[0, 0, 1]).is_valid());
        // final offset disagrees with edge count
        assert!(!v.validate_parts(2, &[0, 1, 3], &[1]).is_valid());
        // wrong offsets length
        assert!(!v.validate_parts(3, &[0, 1], &[1]).is_valid());
        // out-of-range target
        let rep = v.validate_parts(2, &[0, 1, 2], &[1, 7]);
        assert!(!rep.is_valid());
        assert!(rep.issues[0].contains("targets vertex 7"), "{rep}");
    }

    #[test]
    fn issue_cap_bounds_the_report() {
        let targets: Vec<VertexId> = (10..40).collect(); // all out of range
        let mut offsets = vec![0u64];
        offsets.extend((1..=30).map(|i| i as u64));
        let rep = CsrValidator { max_issues: 3 }.validate_parts(30, &offsets, &targets);
        assert_eq!(rep.issues.len(), 3);
    }

    #[test]
    fn zero_weight_is_flagged() {
        let g = GraphBuilder::new(2).weighted_edges([(0, 1, 5)]).build();
        assert!(CsrValidator::new().validate_graph(&g).is_valid());
        // Hand-assemble a graph with a zero weight, bypassing the builder.
        let csr = Csr::new(vec![0, 1, 2], vec![1, 0]);
        let bad = Graph::from_parts(csr, None, Some(vec![0, 1]), None, "bad");
        let rep = CsrValidator::new().validate_graph(&bad);
        assert!(!rep.is_valid());
        assert!(rep.to_string().contains("zero"));
    }
}
