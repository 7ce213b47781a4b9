//! The paper's five benchmark applications (§2.1) implemented on the
//! GSWITCH 4-function API, each in ~50 lines of app code — the
//! productivity claim of §4.2 — plus sequential CPU references used by
//! the test suite to verify every kernel variant bit-for-bit (or within
//! float tolerance for PageRank).
//!
//! | Benchmark | Module | Paper reference |
//! |---|---|---|
//! | Breadth-First Search | [`bfs`] | direction-optimizing BFS \[7\] |
//! | Connected Components | [`cc`] | label propagation (cf. Soman \[53\]) |
//! | PageRank | [`pr`] | delta-PageRank \[19\] |
//! | Single-Source Shortest Path | [`sssp`] | dynamic stepping (§3 P4), Bellman-Ford, Δ-stepping \[42\] |
//! | Betweenness Centrality | [`bc`] | Brandes on GPUs \[47\] |

#![warn(missing_docs)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod pr;
pub mod reference;
pub mod sssp;

pub use bfs::Bfs;
pub use cc::Cc;
pub use pr::PageRank;
pub use sssp::{BellmanFord, DeltaStepping, Sssp};

#[cfg(test)]
mod tests {
    use crate::bc::{BcBackward, BcForward};
    use crate::{BellmanFord, Bfs, Cc, DeltaStepping, PageRank, Sssp};
    use gswitch_core::{
        run, AsFormat, Direction, EngineOptions, GraphApp, KernelConfig, StaticPolicy, Status,
    };
    use gswitch_graph::{gen, Graph};
    use gswitch_kernels::expand::{expand_cost, ExpandCounts, ExpandShape};
    use gswitch_kernels::{classify, expand, materialize, WorkPlan};
    use gswitch_simt::DeviceSpec;

    /// Every cell of an app's state, as bits.
    pub(crate) trait Cells {
        fn cells(&self) -> Vec<u64>;
    }

    /// `app` after `steps` push super-steps on `g`, advanced to the next.
    /// Each push plan stays below 257 tasks, so on one thread, and the
    /// state is the same on every call.
    fn after<A: GraphApp>(g: &Graph, app: A, steps: u32) -> A {
        let push = StaticPolicy::new(KernelConfig::push_baseline());
        run(g, &app, &push, &EngineOptions { max_iterations: steps, ..Default::default() });
        app.advance(steps);
        app
    }

    /// One pull Expand of the app `setup` makes, classified afresh, is
    /// exact whatever the schedule: five pooled repeats each equal the
    /// same plan walked in task order on this thread, one `comp` per
    /// message — every app cell, `touched`, the edges, the activations,
    /// the activated set and the priced profile, bit for bit. (The pool is
    /// sized once per process, so the serial side is the walk, not a
    /// smaller pool.)
    fn pooled_pull_is_exact<A: GraphApp + Cells>(tag: &str, g: &Graph, setup: impl Fn() -> A) {
        assert!(A::pull_rows_independent(), "{tag}");
        let spec = DeviceSpec::k40m();
        let cfg = KernelConfig {
            direction: Direction::Pull,
            format: AsFormat::UnsortedQueue,
            ..KernelConfig::push_baseline()
        };
        let step = || {
            let app = setup();
            let co = classify(g, &app, &spec);
            let (frontier, _) = materialize::<A>(g, &co.status, cfg.direction, cfg.format, &spec);
            (app, co.status, frontier)
        };

        let (app, status, frontier) = step();
        let plan = WorkPlan::for_frontier(g, &frontier, cfg.direction);
        assert!(plan.total_edges() >= 1 << 15, "{tag}: {} edges stay on the caller", {
            plan.total_edges()
        });
        let entries = frontier.as_queue().expect("a queue workload");
        let incoming = g.in_csr();
        let mut touched = vec![0u32; entries.len()];
        let mut counts = ExpandCounts::default();
        let mut activated = Vec::new();
        for &t in plan.tasks() {
            for &s in plan.task_slots(t) {
                let v = entries[s as usize];
                let wins = counts.wins;
                for &u in &incoming.targets()[incoming.edge_range(v)] {
                    touched[s as usize] += 1;
                    if status[u as usize] == Status::Active as u8 {
                        counts.hits += 1;
                        if app.comp(v, app.emit(u, 1)) {
                            counts.wins += 1;
                            if A::PULL_EARLY_EXIT {
                                break;
                            }
                        }
                    }
                }
                if counts.wins > wins {
                    activated.push(v);
                }
            }
        }
        activated.sort_unstable();
        counts.edges = touched.iter().map(|&t| u64::from(t)).sum();
        let shape = ExpandShape { touched: &touched, bitmap: false, sorted: frontier.is_sorted() };
        let profile = expand_cost(&spec, cfg.direction, cfg.lb, A::NEEDS_WEIGHTS, &shape, &counts);
        let out_edges: u64 = activated.iter().map(|&v| u64::from(g.out_csr().degree(v))).sum();
        let want = app.cells();
        assert!(counts.hits > 0, "{tag}: a step that reads no message");

        for repeat in 0..5 {
            let (app, status, frontier) = step();
            let out = expand(g, &app, &frontier, &status, cfg, &spec);
            let at = format!("{tag}, repeat {repeat}");
            assert!(app.cells() == want, "{at}: app state");
            assert_eq!(out.touched, touched, "{at}");
            assert_eq!(out.edges_touched, counts.edges, "{at}");
            assert_eq!(out.activations, activated.len() as u64, "{at}");
            assert_eq!(out.distinct_activated, activated.len() as u64, "{at}");
            assert_eq!(out.activated.to_sorted_vec(), activated, "{at}");
            assert_eq!(out.activated_out_edges, out_edges, "{at}");
            assert_eq!(out.profile, profile, "{at}");
        }
    }

    /// Every app that declares independent pull rows, on plans the pool
    /// takes by their edges (a few dozen tasks) and, for PageRank, by
    /// their task count (more than 256) too.
    #[test]
    fn pooled_pull_expand_is_exact() {
        let min_relaxing = [
            Cc::pull_rows_independent(),
            Sssp::pull_rows_independent(),
            BellmanFord::pull_rows_independent(),
            DeltaStepping::pull_rows_independent(),
        ];
        assert_eq!(min_relaxing, [false; 4], "CC and SSSP rows read what other rows lower");
        let g = gen::barabasi_albert(6_000, 8, 9);
        let n = g.num_vertices();
        pooled_pull_is_exact("bfs", &g, || after(&g, Bfs::new(n, 0), 1));
        pooled_pull_is_exact("bc forward", &g, || after(&g, BcForward::new(n, 0), 1));
        let forward = after(&g, BcForward::new(n, 0), u32::MAX);
        pooled_pull_is_exact("bc backward", &g, || after(&g, BcBackward::new(&forward), 0));
        pooled_pull_is_exact("pr", &g, || after(&g, PageRank::new(&g, 1e-3), 2));
        let large = gen::barabasi_albert(30_000, 16, 9);
        pooled_pull_is_exact("pr, large", &large, || PageRank::new(&large, 1e-3));
    }
}
