//! The correctness gate. Every distinct (graph, algorithm, source) cell
//! is checked once, untimed, against `gswitch_algos::reference` on its
//! full per-vertex answer; every timed operation is then checked against
//! the cell's [`Digest`], which is cheap enough to compute per op.

use crate::inputs::Algo;
use gswitch_algos::reference;
use gswitch_graph::{Graph, VertexId};

/// A full per-vertex answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Levels(Vec<u32>),
    Distances(Vec<u32>),
    Labels(Vec<u32>),
    Ranks(Vec<f64>),
    Scores(Vec<f64>),
}

/// The summary of an answer that every timed op is compared on: the two
/// scalars `gswitch_runtime::execute` reports for the algorithm
/// (`reached`/`depth`, `reached`/`max_distance`, `components`,
/// `rank_sum`/`rank_max`, `nonzero_scores`/`score_max`) plus convergence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Digest {
    pub algo: Algo,
    pub first: f64,
    pub second: f64,
    pub converged: bool,
}

/// Names of a digest's two scalars among `JobOutcome::metrics`.
pub fn digest_metric_names(algo: Algo) -> (&'static str, Option<&'static str>) {
    match algo {
        Algo::Bfs => ("reached", Some("depth")),
        Algo::Sssp => ("reached", Some("max_distance")),
        Algo::Cc => ("components", None),
        Algo::Pr => ("rank_sum", Some("rank_max")),
        Algo::Bc => ("nonzero_scores", Some("score_max")),
    }
}

fn reached_and_max(values: &[u32]) -> (f64, f64) {
    let reached = values.iter().filter(|&&x| x != u32::MAX).count();
    let max = values.iter().filter(|&&x| x != u32::MAX).max().copied().unwrap_or(0);
    (reached as f64, f64::from(max))
}

impl Digest {
    pub fn of(answer: &Answer, converged: bool) -> Digest {
        let (algo, (first, second)) = match answer {
            Answer::Levels(v) => (Algo::Bfs, reached_and_max(v)),
            Answer::Distances(v) => (Algo::Sssp, reached_and_max(v)),
            Answer::Labels(v) => {
                let roots = v.iter().enumerate().filter(|&(i, &l)| l == i as u32).count();
                (Algo::Cc, (roots as f64, 0.0))
            }
            Answer::Ranks(v) => (Algo::Pr, (v.iter().sum(), v.iter().copied().fold(0.0, f64::max))),
            Answer::Scores(v) => (
                Algo::Bc,
                (
                    v.iter().filter(|&&s| s > 0.0).count() as f64,
                    v.iter().copied().fold(0.0, f64::max),
                ),
            ),
        };
        Digest { algo, first, second, converged }
    }

    /// Whether a timed op's digest agrees with the verified cell's.
    /// Integer-valued summaries must be equal. PageRank may end one
    /// super-step apart between runs (racing `fetch_add`s change the
    /// accumulation order at the eps boundary) and BC sums floats in
    /// racing order, so their scalars get a relative tolerance.
    pub fn agrees(&self, cell: &Digest) -> bool {
        let close = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * (1.0 + b.abs());
        if self.algo != cell.algo || !self.converged || !cell.converged {
            return false;
        }
        match self.algo {
            Algo::Bfs | Algo::Sssp | Algo::Cc => {
                self.first == cell.first && self.second == cell.second
            }
            Algo::Pr => {
                close(self.first, cell.first, 5e-3) && close(self.second, cell.second, 5e-2)
            }
            Algo::Bc => self.first == cell.first && close(self.second, cell.second, 1e-9),
        }
    }
}

fn same_partition(a: &[u32], b: &[u32]) -> bool {
    let mut a_to_b = std::collections::HashMap::new();
    let mut b_to_a = std::collections::HashMap::new();
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| {
            *a_to_b.entry(x).or_insert(y) == y && *b_to_a.entry(y).or_insert(x) == x
        })
}

/// Check a full answer against the reference implementation. `g` is the
/// graph the algorithm ran on (the weighted twin for SSSP).
pub fn check_reference(g: &Graph, src: VertexId, answer: &Answer) -> Result<(), String> {
    match answer {
        Answer::Levels(v) => {
            (v == &reference::bfs(g, src)).then_some(()).ok_or("BFS levels differ".into())
        }
        Answer::Distances(v) => {
            (v == &reference::sssp(g, src)).then_some(()).ok_or("SSSP distances differ".into())
        }
        Answer::Labels(v) => {
            same_partition(v, &reference::cc(g)).then_some(()).ok_or("CC partitions differ".into())
        }
        Answer::Scores(v) => {
            let want = reference::bc(g, src);
            let worst = v
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs() / (1.0 + b.abs()))
                .fold(0.0, f64::max);
            (v.len() == want.len() && worst <= 1e-9)
                .then_some(())
                .ok_or(format!("BC scores off by {worst:e} (limit 1e-9)"))
        }
        Answer::Ranks(v) => {
            let want = reference::pagerank(g, 0.85, 1e-12, 500);
            let l1: f64 = v.iter().zip(&want).map(|(a, b)| (a - b).abs()).sum();
            let mass: f64 = want.iter().sum();
            (v.len() == want.len() && l1 <= 1e-2 * mass)
                .then_some(())
                .ok_or(format!("PR L1 error {l1:e} exceeds 1e-2 x {mass}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_compare_up_to_relabelling() {
        assert!(same_partition(&[0, 0, 2, 2], &[5, 5, 1, 1]));
        assert!(!same_partition(&[0, 0, 2, 2], &[5, 5, 5, 1]));
        assert!(!same_partition(&[0, 0, 0, 2], &[5, 5, 1, 1]));
        assert!(!same_partition(&[0, 0], &[5, 5, 5]));
    }

    #[test]
    fn digests_match_what_the_runtime_reports() {
        let d = Digest::of(&Answer::Levels(vec![0, 1, u32::MAX, 2]), true);
        assert_eq!((d.first, d.second), (3.0, 2.0));
        let d = Digest::of(&Answer::Labels(vec![0, 0, 2, 2, 4]), true);
        assert_eq!(d.first, 3.0);
        let d = Digest::of(&Answer::Scores(vec![0.0, 1.5, 0.5]), true);
        assert_eq!((d.first, d.second), (2.0, 1.5));
    }

    #[test]
    fn a_wrong_or_unconverged_answer_does_not_agree() {
        let cell = Digest::of(&Answer::Levels(vec![0, 1, 2]), true);
        assert!(cell.agrees(&cell));
        assert!(!Digest::of(&Answer::Levels(vec![0, 1, 3]), true).agrees(&cell));
        assert!(!Digest::of(&Answer::Levels(vec![0, 1, 2]), false).agrees(&cell));
        assert!(!Digest::of(&Answer::Distances(vec![0, 1, 2]), true).agrees(&cell));
        let pr = Digest::of(&Answer::Ranks(vec![0.5, 0.5]), true);
        assert!(Digest::of(&Answer::Ranks(vec![0.5, 0.501]), true).agrees(&pr));
        assert!(!Digest::of(&Answer::Ranks(vec![0.5, 0.6]), true).agrees(&pr));
    }

    #[test]
    fn reference_check_accepts_the_reference_and_rejects_a_corrupted_answer() {
        let g = gswitch_graph::gen::grid2d(6, 6, 0.0, 1);
        let levels = reference::bfs(&g, 3);
        assert!(check_reference(&g, 3, &Answer::Levels(levels.clone())).is_ok());
        let mut bad = levels;
        bad[10] += 1;
        assert!(check_reference(&g, 3, &Answer::Levels(bad)).is_err());
        let ranks = reference::pagerank(&g, 0.85, 1e-12, 500);
        assert!(check_reference(&g, 0, &Answer::Ranks(ranks.clone())).is_ok());
        let bad: Vec<f64> = ranks.iter().map(|r| r * 1.05).collect();
        assert!(check_reference(&g, 0, &Answer::Ranks(bad)).is_err());
    }
}
