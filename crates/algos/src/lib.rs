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
    use gswitch_graph::VertexId;
    use gswitch_graph::{gen, Graph};
    use gswitch_kernels::expand::{expand_cost, ExpandCounts, ExpandShape};
    use gswitch_kernels::{classify, expand, expand_planned, materialize, WorkPlan};
    use gswitch_kernels::{ExpandOutput, Frontier, Fusion};
    use gswitch_simt::{DeviceSpec, KernelProfile};

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

    /// What a push Expand leaves for the trace and the next step to see.
    type Seen = ([u64; 5], Vec<VertexId>, Option<Vec<VertexId>>, KernelProfile);

    fn seen(o: &ExpandOutput) -> Seen {
        let counts =
            [o.activations, o.distinct_activated, o.ties, o.edges_touched, o.activated_out_edges];
        (counts, o.activated.to_sorted_vec(), o.next_queue.clone(), o.profile)
    }

    /// A push Expand whose caller is the app's sole writer combines with
    /// `comp`, one that may share the app with `comp_atomic`; on one thread
    /// the two must not be told apart. From the state `make()` reaches
    /// after `steps` push super-steps, a standalone step, and a fused step
    /// followed by the chain's next one (its raw queue re-filtered and
    /// prepared inside the kernel), leave every app cell, every count, the
    /// activated set, the fused queue and the priced profile bit for bit
    /// the same either way. Every plan stays below 257 tasks, so both sides
    /// run on this thread and the sole-writer side does take `comp`.
    fn sole_writer_push_is_exact<A: GraphApp + Cells>(
        tag: &str,
        g: &Graph,
        steps: u32,
        make: impl Fn() -> A,
    ) {
        let spec = DeviceSpec::k40m();
        for fusion in [Fusion::Standalone, Fusion::Fused] {
            let cfg = KernelConfig { fusion, ..KernelConfig::push_baseline() };
            let side = |sole_writer: bool| {
                let app = after(g, make(), steps);
                let co = classify(g, &app, &spec);
                let (frontier, _) =
                    materialize::<A>(g, &co.status, cfg.direction, cfg.format, &spec);
                let tasks = WorkPlan::for_frontier(g, &frontier, cfg.direction).tasks().len();
                assert!(tasks <= 256, "{tag}: {tasks} tasks go to the pool");
                let expand = |f: &Frontier| {
                    expand_planned(g, &app, f, &co.status, cfg, &spec, None, sole_writer)
                };
                let first = expand(&frontier);
                assert!(first.edges_touched > 0, "{tag}: a step that pushes nothing");
                let mut outs = vec![seen(&first)];
                if let Some(queue) = first.next_queue {
                    app.advance(steps + 1);
                    outs.push(seen(&expand(&Frontier::RawQueue(queue))));
                }
                (outs, app.cells())
            };
            let ((sole, sole_cells), (shared, shared_cells)) = (side(true), side(false));
            assert!(sole_cells == shared_cells, "{tag} {fusion:?}: app state");
            assert_eq!(sole, shared, "{tag} {fusion:?}");
        }
    }

    #[test]
    fn sole_writer_push_expand_is_exact() {
        let g = gen::with_random_weights(&gen::barabasi_albert(3_000, 8, 9), 64, 9);
        let n = g.num_vertices();
        sole_writer_push_is_exact("bfs", &g, 1, || Bfs::new(n, 0));
        sole_writer_push_is_exact("cc", &g, 1, || Cc::new(n));
        sole_writer_push_is_exact("sssp", &g, 2, || Sssp::new(&g, 0));
        sole_writer_push_is_exact("bellman-ford", &g, 2, || BellmanFord::new(&g, 0));
        sole_writer_push_is_exact("delta-stepping", &g, 2, || DeltaStepping::new(&g, 0, 16));
        sole_writer_push_is_exact("pr", &g, 2, || PageRank::new(&g, 1e-3));
        sole_writer_push_is_exact("bc forward", &g, 1, || BcForward::new(n, 0));
        let forward = after(&g, BcForward::new(n, 0), u32::MAX);
        sole_writer_push_is_exact("bc backward", &g, 0, || BcBackward::new(&forward));
    }
}
