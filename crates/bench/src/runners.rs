//! Uniform benchmark runners: one entry point per (algorithm × system).

use gswitch_algos::{bc, bfs, cc, pr, sssp};
use gswitch_baselines as base;
use gswitch_core::{EngineOptions, Policy, RunReport, StaticPolicy};
use gswitch_graph::{gen, Graph, VertexId};
use gswitch_simt::{DeviceSpec, SimMs};

/// The five benchmarks of §2.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Breadth-first search.
    Bfs,
    /// Connected components.
    Cc,
    /// Delta-PageRank.
    Pr,
    /// Single-source shortest paths (dynamic stepping).
    Sssp,
    /// Betweenness centrality (single source).
    Bc,
}

impl Algo {
    /// All five, in the paper's table order.
    pub const ALL: [Algo; 5] = [Algo::Bfs, Algo::Cc, Algo::Pr, Algo::Sssp, Algo::Bc];

    /// Lowercase tag used in record/bench names.
    pub fn tag(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Cc => "cc",
            Algo::Pr => "pr",
            Algo::Sssp => "sssp",
            Algo::Bc => "bc",
        }
    }

    /// Whether the benchmark needs edge weights.
    pub fn weighted(self) -> bool {
        matches!(self, Algo::Sssp)
    }
}

/// PageRank tolerance used across all systems ("the same terminal
/// condition", §5.2).
pub const PR_TOL: f64 = 1e-3;

/// Outcome of one benchmark run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Total simulated runtime (ms).
    pub time_ms: SimMs,
    /// Iterations (super-steps) executed.
    pub iterations: usize,
    /// Full engine trace(s), when the system runs on the engine.
    pub report: Option<RunReport>,
}

impl RunOutcome {
    fn from_report(r: RunReport) -> Self {
        RunOutcome { time_ms: r.total_ms(), iterations: r.n_iterations(), report: Some(r) }
    }
}

/// The traversal source every system uses on a given graph: the
/// max-degree vertex (the convention GPU BFS papers use so the traversal
/// actually covers the big component).
pub fn source_of(g: &Graph) -> VertexId {
    g.max_degree_vertex().unwrap_or(0)
}

/// Prepare a graph for `algo`: attach deterministic weights for SSSP.
pub fn prepare(g: &Graph, algo: Algo) -> Graph {
    if algo.weighted() && !g.is_weighted() {
        gen::with_random_weights(g, 64, 0xC0FFEE)
    } else {
        g.clone()
    }
}

/// Run GSWITCH (the autotuner) on one benchmark.
pub fn run_gswitch(g: &Graph, algo: Algo, policy: &dyn Policy, device: &DeviceSpec) -> RunOutcome {
    let opts = EngineOptions::on(device.clone());
    let src = source_of(g);
    match algo {
        Algo::Bfs => RunOutcome::from_report(bfs::bfs(g, src, policy, &opts).report),
        Algo::Cc => RunOutcome::from_report(cc::cc(g, policy, &opts).report),
        Algo::Pr => RunOutcome::from_report(pr::pagerank(g, PR_TOL, policy, &opts).report),
        Algo::Sssp => RunOutcome::from_report(sssp::sssp(g, src, policy, &opts).report),
        Algo::Bc => {
            let r = bc::bc(g, src, policy, &opts);
            RunOutcome {
                time_ms: r.total_ms(),
                iterations: r.n_iterations(),
                report: Some(merge_reports(r.forward, r.backward)),
            }
        }
    }
}

/// Run the Gunrock-like baseline on one benchmark.
pub fn run_gunrock(g: &Graph, algo: Algo, device: &DeviceSpec) -> RunOutcome {
    let opts = EngineOptions::on(device.clone());
    let src = source_of(g);
    match algo {
        Algo::Bfs => RunOutcome::from_report(base::gunrock::bfs_run(g, src, &opts).report),
        Algo::Cc => RunOutcome::from_report(base::gunrock::cc_run(g, &opts).report),
        Algo::Pr => RunOutcome::from_report(base::gunrock::pr_run(g, PR_TOL, &opts).report),
        Algo::Sssp => RunOutcome::from_report(base::gunrock::sssp_run(g, src, &opts).report),
        Algo::Bc => {
            let r = base::gunrock::bc_run(g, src, &opts);
            RunOutcome {
                time_ms: r.total_ms(),
                iterations: r.n_iterations(),
                report: Some(merge_reports(r.forward, r.backward)),
            }
        }
    }
}

/// Run the per-algorithm specialist of Table 3 (Enterprise, GPUCC, WS-VR,
/// Frog, GPUBC). Returns its name with the outcome.
pub fn run_specialist(g: &Graph, algo: Algo, device: &DeviceSpec) -> (&'static str, RunOutcome) {
    let opts = EngineOptions::on(device.clone());
    let src = source_of(g);
    match algo {
        Algo::Bfs => {
            ("Enterprise", RunOutcome::from_report(base::enterprise::bfs_run(g, src, &opts).report))
        }
        Algo::Cc => {
            let r = base::gpucc::cc_run(g, device);
            (
                "GPUCC",
                RunOutcome { time_ms: r.time_ms, iterations: r.rounds as usize, report: None },
            )
        }
        Algo::Pr => ("WS-VR", RunOutcome::from_report(base::wsvr::pr_run(g, PR_TOL, &opts).report)),
        Algo::Sssp => {
            let r = base::frog::sssp_run(g, src, 8, device);
            ("Frog", RunOutcome { time_ms: r.time_ms, iterations: r.sweeps as usize, report: None })
        }
        Algo::Bc => (
            "GPUBC",
            RunOutcome::from_report({
                let r = base::gpubc::bc_run(g, src, &opts);
                merge_reports(r.forward, r.backward)
            }),
        ),
    }
}

/// Run one benchmark with a pinned kernel configuration.
pub fn run_static(
    g: &Graph,
    algo: Algo,
    cfg: gswitch_core::KernelConfig,
    device: &DeviceSpec,
) -> RunOutcome {
    run_gswitch(g, algo, &StaticPolicy::new(cfg), device)
}

/// Concatenate two phase reports (BC forward + backward).
pub fn merge_reports(mut a: RunReport, b: RunReport) -> RunReport {
    a.converged &= b.converged;
    a.iterations.extend(b.iterations);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_core::AutoPolicy;

    #[test]
    fn all_runners_complete_on_a_small_graph() {
        let g = gen::erdos_renyi(300, 1_200, 3);
        let dev = DeviceSpec::k40m();
        for algo in Algo::ALL {
            let gp = prepare(&g, algo);
            let a = run_gswitch(&gp, algo, &AutoPolicy, &dev);
            let b = run_gunrock(&gp, algo, &dev);
            let (name, c) = run_specialist(&gp, algo, &dev);
            assert!(a.time_ms > 0.0, "{:?} gswitch", algo);
            assert!(b.time_ms > 0.0, "{:?} gunrock", algo);
            assert!(c.time_ms > 0.0, "{:?} {name}", algo);
            assert!(a.iterations > 0);
        }
    }

    #[test]
    fn source_is_max_degree() {
        let g = gen::star(50);
        assert_eq!(source_of(&g), 0);
    }

    #[test]
    fn prepare_only_weights_sssp() {
        let g = gen::erdos_renyi(50, 100, 1);
        assert!(!prepare(&g, Algo::Bfs).is_weighted());
        assert!(prepare(&g, Algo::Sssp).is_weighted());
    }
}
