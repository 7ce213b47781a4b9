//! Brute-force oracle labelling (§4.4).
//!
//! "The true optimal configurations were attained via brute-force
//! experimentation." Running all 144 expand variants per iteration on
//! real hardware is what the authors did offline; here the cost model
//! makes it cheap: the *semantics* of Expand are identical across P2/P3
//! candidates, so one read-only workload analysis per direction prices
//! every (direction × format × load-balance) combination analytically,
//! and fusion is priced from measured duplicate/tie feedback. The oracle
//! then *executes* the argmin variant so the trajectory it labels is the
//! optimal one, and emits one [`Record`] per iteration.

use crate::engine::{classify_rescuing, EngineOptions};
use crate::features::History;
use gswitch_graph::Graph;
use gswitch_kernels::expand::{analytic_pull_profile, analytic_push_profile};
use gswitch_kernels::filter::materialize_cost;
use gswitch_kernels::lb::{edge_costs, price_all};
use gswitch_kernels::pattern::{
    AppCaps, AsFormat, Direction, Fusion, KernelConfig, LoadBalance, PatternMask, SteppingDelta,
};
use gswitch_kernels::{expand, Classification, EdgeApp, Status};
use gswitch_ml::{FeatureDb, Labels, Record};
use gswitch_simt::{DeviceSpec, SimMs};

/// Oracle configuration.
#[derive(Clone, Debug)]
pub struct OracleOptions {
    /// The simulated GPU the labels are optimal for.
    pub device: DeviceSpec,
    /// Safety bound on super-steps.
    pub max_iterations: u32,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions { device: DeviceSpec::default(), max_iterations: 50_000 }
    }
}

/// Result of an oracle-driven run.
#[derive(Debug, Default)]
pub struct OracleOutcome {
    /// One record per iteration (features + optimal labels).
    pub records: Vec<Record>,
    /// Total simulated time of the optimal trajectory (ms).
    pub optimal_ms: SimMs,
    /// Iterations executed.
    pub iterations: u32,
}

/// Per-direction read-only workload analysis (public for the harness's
/// per-iteration strategy matrices, Fig. 14).
#[derive(Debug)]
pub struct DirAnalysis {
    /// Compact per-entry touched counts (queue view).
    pub compact: Vec<u32>,
    /// Full per-vertex touched counts (bitmap view; zero = idle slot).
    pub full: Vec<u32>,
    /// Emit-side hits (pull only; push: edges).
    pub hits: u64,
    /// Workload entry count.
    pub vertices: u64,
}

/// Analyze the push workload without touching app state.
pub fn analyze_push(g: &Graph, status: &[u8]) -> DirAnalysis {
    let (out, n) = (g.out_csr(), g.num_vertices());
    let active = |v: &usize| status[*v] == Status::Active as u8;
    // Per vertex: on the caller up to 256 vertices, else
    // `min(threads, ⌈n / 256⌉)` parts.
    let per = n.div_ceil(gswitch_pool::threads().min(n.div_ceil(256)).max(1));
    let full = gswitch_pool::ranges(n, per, |vs| {
        vs.map(|v| if active(&v) { out.degree(v as u32) } else { 0 }).collect::<Vec<_>>()
    })
    .concat();
    let compact = gswitch_pool::ranges(n, per, |vs| {
        vs.filter(active).map(|v| out.degree(v as u32)).collect::<Vec<_>>()
    })
    .concat();
    let hits: u64 = compact.iter().map(|&d| d as u64).sum();
    let vertices = compact.len() as u64;
    DirAnalysis { compact, full, hits, vertices }
}

/// Analyze the pull workload without touching app state: for early-exit
/// apps each receiver scans until its first active in-neighbor; otherwise
/// it scans everything and every active in-neighbor costs an emit.
pub fn analyze_pull<A: EdgeApp>(g: &Graph, status: &[u8]) -> DirAnalysis {
    let incoming = g.in_csr();
    let is_receiver = |v: usize| {
        A::pull_receives(match status[v] {
            0 => Status::Active,
            1 => Status::Inactive,
            _ => Status::Fixed,
        })
    };
    let scan = |v: usize| {
        if !is_receiver(v) {
            return (0, 0);
        }
        let sources = incoming.neighbors(v as u32);
        if A::PULL_EARLY_EXIT {
            for (i, &u) in sources.iter().enumerate() {
                if status[u as usize] == Status::Active as u8 {
                    return ((i + 1) as u32, 1);
                }
            }
            (sources.len() as u32, 0)
        } else {
            let hits =
                sources.iter().filter(|&&u| status[u as usize] == Status::Active as u8).count()
                    as u32;
            (sources.len() as u32, hits)
        }
    };
    // Per vertex: on the caller up to 256 vertices, else
    // `min(threads, ⌈n / 256⌉)` parts.
    let n = g.num_vertices();
    let per = n.div_ceil(gswitch_pool::threads().min(n.div_ceil(256)).max(1));
    let per_vertex: Vec<(u32, u32)> =
        gswitch_pool::ranges(n, per, |vs| vs.map(scan).collect::<Vec<_>>()).concat();
    let full: Vec<u32> = per_vertex.iter().map(|&(t, _)| t).collect();
    let mut compact = Vec::new();
    let mut hits = 0u64;
    let mut vertices = 0u64;
    for (v, &(t, h)) in per_vertex.iter().enumerate() {
        if is_receiver(v) {
            compact.push(t);
            hits += h as u64;
            vertices += 1;
        }
    }
    DirAnalysis { compact, full, hits, vertices }
}

/// Price every (format × lb) combination of one direction; returns
/// `[(format, lb, expand_ms + materialize_ms); 12]`.
pub fn price_direction<A: EdgeApp>(
    g: &Graph,
    spec: &DeviceSpec,
    direction: Direction,
    analysis: &DirAnalysis,
) -> Vec<(AsFormat, LoadBalance, SimMs)> {
    let n = g.num_vertices();
    let base = match direction {
        Direction::Push => analytic_push_profile(&analysis.compact, A::NEEDS_WEIGHTS),
        Direction::Pull => {
            analytic_pull_profile(&analysis.compact, A::NEEDS_WEIGHTS, analysis.hits)
        }
    };
    let mut out = Vec::with_capacity(12);
    for format in [AsFormat::Bitmap, AsFormat::UnsortedQueue, AsFormat::SortedQueue] {
        let sorted = format == AsFormat::SortedQueue;
        let bitmap = format == AsFormat::Bitmap;
        let costs = edge_costs(spec, direction, sorted);
        let touched = if bitmap { &analysis.full } else { &analysis.compact };
        let gen_ms = spec.kernel_time_ms(&materialize_cost(format, n, analysis.vertices, spec));
        for (lb, price) in price_all(spec, &costs, touched, bitmap) {
            let mut p = base;
            if sorted {
                p.bytes_read = (p.bytes_read as f64
                    * (1.0 - gswitch_kernels::lb::SORTED_BYTES_DISCOUNT))
                    as u64;
            }
            p.tasks = price.tasks;
            p.syncs = price.syncs;
            p.scan_elems += price.scan_elems;
            p.launches += price.extra_launches;
            out.push((format, lb, gen_ms + spec.kernel_time_ms(&p)));
        }
    }
    out
}

/// Run `app` on `g` along the oracle-optimal trajectory, labelling every
/// iteration. `benchmark` tags the records ("bfs", "pr", ...).
pub fn oracle_run<A: EdgeApp>(
    g: &Graph,
    app: &A,
    benchmark: &str,
    opts: &OracleOptions,
) -> OracleOutcome {
    // Labelling lets every pattern vary that the app permits.
    let (caps, mask) = (AppCaps::of::<A>(), PatternMask::all());
    let spec = &opts.device;
    let mut outcome = OracleOutcome::default();
    let mut hist = History::new(*g.stats());
    // Offline labelling has no deadline (the default probe never stops the
    // rescue spin) and no reason to hurry: every step sweeps.
    let engine = EngineOptions::on(spec.clone());
    let mut co = Classification::new(g, spec);
    // Fusion labelling inputs from the previously executed iteration.
    let mut prev_dup_ratio = 1.0f64;

    for iteration in 0..opts.max_iterations {
        app.advance(iteration);
        hist.ctx.iteration = iteration;

        // P4: the oracle applies the paper's ±35% rule and labels with it
        // (the trained tree learns to reproduce the rule from features).
        let stepping = if caps.steps(mask) {
            let s = hist.ctx.stepping_by_rule();
            app.adjust_priority(s);
            s
        } else {
            SteppingDelta::Remain
        };

        let Ok(classify_ms) =
            classify_rescuing(&mut co, app, &engine, iteration, false, None, None)
        else {
            break;
        };
        if co.stats().v_active == 0 {
            break;
        }
        hist.ctx.stats = *co.stats();

        // Brute force: price all 24 (direction × format × lb) shapes.
        let push = analyze_push(g, co.status());
        let pull = analyze_pull::<A>(g, co.status());
        let push_prices = price_direction::<A>(g, spec, Direction::Push, &push);
        let pull_prices = if pull.vertices > 0 {
            price_direction::<A>(g, spec, Direction::Pull, &pull)
        } else {
            Vec::new()
        };

        let best_of = |prices: &[(AsFormat, LoadBalance, SimMs)]| {
            prices.iter().copied().min_by(|a, b| a.2.total_cmp(&b.2))
        };
        let Some(best_push) = best_of(&push_prices) else {
            // No priceable push shape — cannot happen for a well-formed
            // device spec, but nothing is labelable this iteration, so
            // stop the trajectory rather than panic mid-labelling.
            break;
        };
        let best_pull = best_of(&pull_prices);

        let (direction, best) = match best_pull {
            Some(bp) if bp.2 < best_push.2 => (Direction::Pull, bp),
            _ => (Direction::Push, best_push),
        };
        let chosen_prices = match direction {
            Direction::Push => &push_prices,
            Direction::Pull => &pull_prices,
        };
        // Per-pattern labels: each candidate's best time with the other
        // pattern free.
        let lb_label = LoadBalance::ALL
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let ta = min_time(chosen_prices, |(_, lb, _)| *lb == a);
                let tb = min_time(chosen_prices, |(_, lb, _)| *lb == b);
                ta.total_cmp(&tb)
            })
            .unwrap_or(LoadBalance::Twc);
        let fmt_label = AsFormat::ALL
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let ta = min_time(chosen_prices, |(f, _, _)| *f == a);
                let tb = min_time(chosen_prices, |(f, _, _)| *f == b);
                ta.total_cmp(&tb)
            })
            .unwrap_or(AsFormat::Bitmap);

        // P5: fusion saves next iteration's classify+materialize+launch;
        // it costs the duplicate ratio on the expand side.
        let fusion_label = if caps.fuses(mask, direction) {
            let mat_ms = spec.kernel_time_ms(&materialize_cost(
                best.0,
                g.num_vertices(),
                co.stats().push.vertices,
                spec,
            ));
            let saving = classify_ms + mat_ms + spec.launch_overhead_us / 1e3;
            let penalty = (prev_dup_ratio - 1.0) * best.2;
            if saving > penalty {
                Fusion::Fused
            } else {
                Fusion::Standalone
            }
        } else {
            Fusion::Standalone
        };

        // Record features + labels before executing.
        let features = hist.ctx.features(direction);
        let label = KernelConfig {
            direction,
            format: fmt_label,
            lb: lb_label,
            stepping,
            fusion: fusion_label,
        };
        outcome.records.push(Record {
            features,
            labels: labels_of(label, caps, mask),
            benchmark: benchmark.to_string(),
            graph: g.name().to_string(),
        });

        // Execute the argmin shape (standalone — state advance must stay
        // duplicate-free so later labels stay exact).
        let config = KernelConfig {
            direction,
            format: best.0,
            lb: best.1,
            stepping,
            fusion: Fusion::Standalone,
        };
        let (frontier, mat_profile) = co.materialize::<A>(config.direction, config.format, spec);
        let eo = expand(g, app, &frontier, co.status(), config, spec);

        let filter_ms = classify_ms + spec.kernel_time_ms(&mat_profile);
        let expand_ms = spec.kernel_time_ms(&eo.profile);
        outcome.optimal_ms += filter_ms + expand_ms;
        outcome.iterations += 1;

        // Feedback for the next iteration's features and fusion label.
        hist.fold(filter_ms, expand_ms, eo.edges_touched);
        prev_dup_ratio = if eo.distinct_activated == 0 {
            1.0
        } else {
            // A fused kernel admits at most one racer per vertex (bitmap
            // marking), so the duplicate mass is capped by the distinct
            // count regardless of how many parents tied.
            (eo.activations + eo.ties.min(eo.distinct_activated)) as f64
                / eo.distinct_activated as f64
        };
    }
    outcome
}

/// Each pattern's class index in `label`, or `None` where `caps` and
/// `mask` leave the pattern no choice (the trees learn only real ones).
fn labels_of(label: KernelConfig, caps: AppCaps, mask: PatternMask) -> Labels {
    let class = |k: usize| Some(k as u8);
    Labels {
        direction: class(label.direction.class()),
        format: class(label.format.class()),
        load_balance: class(label.lb.class()),
        stepping: class(label.stepping.class()).filter(|_| caps.steps(mask)),
        fusion: class(label.fusion.class()).filter(|_| caps.fuses(mask, label.direction)),
    }
}

fn min_time(
    prices: &[(AsFormat, LoadBalance, SimMs)],
    pred: impl Fn(&(AsFormat, LoadBalance, SimMs)) -> bool,
) -> SimMs {
    prices.iter().filter(|p| pred(p)).map(|p| p.2).fold(f64::INFINITY, f64::min)
}

/// Label a whole corpus: run the oracle for one app constructor over many
/// graphs, merging all records into a [`FeatureDb`].
pub fn label_corpus<A: EdgeApp>(
    graphs: &[(String, Graph)],
    make_app: impl Fn(&Graph) -> A + Sync,
    benchmark: &str,
    opts: &OracleOptions,
) -> FeatureDb {
    // Per graph: one part each.
    let dbs = gswitch_pool::parts(graphs.len(), |i| {
        let g = &graphs[i].1;
        oracle_run(g, &make_app(g), benchmark, opts).records
    });
    let mut db = FeatureDb::new();
    for records in dbs {
        db.records.extend(records);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::Bfs;
    use gswitch_graph::{gen, GraphBuilder};

    #[test]
    fn oracle_produces_one_record_per_iteration() {
        let g = gen::erdos_renyi(400, 1_600, 5);
        let app = Bfs::new(400, 0);
        let out = oracle_run(&g, &app, "bfs", &OracleOptions::default());
        assert_eq!(out.records.len() as u32, out.iterations);
        assert!(out.iterations >= 2);
        assert!(out.optimal_ms > 0.0);
        for r in &out.records {
            assert!(r.labels.direction.is_some());
            assert!(r.labels.format.is_some());
            assert!(r.labels.load_balance.is_some());
            assert!(r.labels.stepping.is_none(), "BFS is not priority-driven");
            assert_eq!(r.benchmark, "bfs");
        }
    }

    #[test]
    fn oracle_state_matches_reference_bfs() {
        let g = gen::kronecker(9, 6, 7);
        let app = Bfs::new(g.num_vertices(), 0);
        oracle_run(&g, &app, "bfs", &OracleOptions::default());
        // Reference
        let mut dist = vec![u32::MAX; g.num_vertices()];
        dist[0] = 0;
        let mut q = std::collections::VecDeque::from([0u32]);
        while let Some(u) = q.pop_front() {
            for &v in g.out_csr().neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        assert_eq!(app.level.to_vec(), dist);
    }

    #[test]
    fn oracle_prefers_pull_on_dense_middle_iterations() {
        // A dense social-like graph has the classic BFS hump; the oracle
        // should pick pull at least once in the middle.
        let g = gen::barabasi_albert(4_000, 8, 11);
        let app = Bfs::new(g.num_vertices(), 0);
        let out = oracle_run(&g, &app, "bfs", &OracleOptions::default());
        assert!(
            out.records.iter().any(|r| r.labels.direction == Some(1)),
            "pull never chosen on a dense BA graph"
        );
    }

    #[test]
    fn label_corpus_merges_records() {
        let graphs: Vec<(String, Graph)> = (0..3)
            .map(|s| {
                let g = gen::erdos_renyi(200, 800, s);
                (g.name().to_string(), g)
            })
            .collect();
        let db = label_corpus(
            &graphs,
            |g| Bfs::new(g.num_vertices(), 0),
            "bfs",
            &OracleOptions::default(),
        );
        assert!(db.len() >= 6);
        let names: std::collections::HashSet<_> =
            db.records.iter().map(|r| r.graph.clone()).collect();
        assert_eq!(names.len(), 3);
    }

    /// The candidate space is defined once. For each of the 144
    /// configurations: trees that predict the oracle's labels make
    /// `ModelPolicy` propose the configuration back (up to legality — the
    /// oracle labels only what the app lets vary), and a trace line
    /// carries it exactly; the ml crate's class metadata follows `ALL`.
    #[test]
    fn every_candidate_round_trips_through_labels_trees_and_trace_lines() {
        use crate::engine::tests::Stepped;
        use crate::policy::{ModelPolicy, Policy};
        use gswitch_ml::{DecisionTree, Pattern, TrainParams, FEATURE_COUNT};
        use gswitch_obs::{Provenance, StampedEvent, TraceEvent};

        // `UnsortedQueue` is class name "unsorted_queue".
        fn snake<T: std::fmt::Debug>(all: &[T]) -> Vec<String> {
            let snake = |s: String| {
                s.char_indices().fold(String::new(), |mut out, (i, c)| {
                    if i > 0 && c.is_uppercase() {
                        out.push('_');
                    }
                    out.push(c.to_ascii_lowercase());
                    out
                })
            };
            all.iter().map(|c| snake(format!("{c:?}"))).collect()
        }
        for (pattern, names) in [
            (Pattern::Direction, snake(Direction::ALL)),
            (Pattern::Format, snake(AsFormat::ALL)),
            (Pattern::LoadBalance, snake(LoadBalance::ALL)),
            (Pattern::Stepping, snake(SteppingDelta::ALL)),
            (Pattern::Fusion, snake(Fusion::ALL)),
        ] {
            assert_eq!(pattern.n_classes(), names.len(), "{pattern:?}");
            assert_eq!(pattern.class_names(), names, "{pattern:?}");
        }

        // A tree that answers `class` whatever it is shown.
        let constant = |class: u8| {
            let rows = [vec![0.0; FEATURE_COUNT]];
            DecisionTree::train(&rows, &[class as usize], TrainParams::default()).unwrap()
        };
        let (caps, mask) = (AppCaps::of::<Stepped>(), PatternMask::all());
        let mut ctx = History::new(*gen::erdos_renyi(50, 100, 1).stats()).ctx;
        ctx.stats.pull.vertices = 1; // a pull has receivers
        let event = TraceEvent {
            iteration: 3,
            config: KernelConfig::default(),
            provenance: Provenance::Decided,
            predicted_ms: 1.5,
            measured_ms: 2.0,
            filter_ms: 0.5,
            overhead_ms: 0.05,
            v_active: 10,
            e_active: 80,
            edges_touched: 75,
            activations: 40,
            duplicates: 3,
            task_total_cycles: 1000.0,
            task_max_cycles: 250.0,
            task_count: 8,
            features: [0.25; FEATURE_COUNT],
            shard: None,
        };
        let mut seen = std::collections::HashSet::new();
        for shape in KernelConfig::all_shapes() {
            for &stepping in SteppingDelta::ALL {
                let config = KernelConfig { stepping, ..shape };
                assert!(seen.insert(config), "{config} listed twice");

                let l = labels_of(config, caps, mask);
                let labels = [
                    (Pattern::Direction, l.direction),
                    (Pattern::Format, l.format),
                    (Pattern::LoadBalance, l.load_balance),
                    (Pattern::Stepping, l.stepping),
                    (Pattern::Fusion, l.fusion),
                ];
                let mut model = ModelPolicy::empty();
                for (pattern, label) in labels {
                    if let Some(class) = label {
                        model = model.with_tree(pattern, constant(class));
                    }
                }
                let proposed = KernelConfig {
                    stepping: model.decide_stepping(&ctx, &caps),
                    ..model.decide(&ctx, &caps)
                };
                assert_eq!(caps.legalise(mask, proposed), caps.legalise(mask, config), "{config}");
                if labels.iter().all(|(_, label)| label.is_some()) {
                    assert_eq!(proposed, config, "the trees alone decided");
                }

                let line = StampedEvent {
                    seq: 0,
                    job: 0,
                    graph: String::new(),
                    algo: String::new(),
                    event: TraceEvent { config, ..event },
                }
                .to_json_line();
                assert_eq!(StampedEvent::from_json_line(&line).unwrap().event.config, config);
            }
        }
        assert_eq!(seen.len(), 144, "the paper's 144 expand variants");
    }

    #[test]
    fn analyze_push_counts_active_degrees() {
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (1, 3)]).build();
        // status: 0 active, others inactive
        let status = vec![0u8, 1, 1, 1];
        let a = analyze_push(&g, &status);
        assert_eq!(a.vertices, 1);
        assert_eq!(a.compact, vec![2]);
        assert_eq!(a.full, vec![2, 0, 0, 0]);
        assert_eq!(a.hits, 2);
    }

    #[test]
    fn analyze_pull_respects_early_exit() {
        // 3 has in-neighbors {1, 0... }; make 0 and 1 active, 2,3 inactive.
        let g = GraphBuilder::new(4).edges([(0, 3), (1, 3), (0, 2)]).build();
        let status = vec![0u8, 0, 1, 1];
        let a = analyze_pull::<Bfs>(&g, &status);
        // Receivers: 2 (parents {0}: 1 touch) and 3 (parents {0,1}: stop at first).
        assert_eq!(a.vertices, 2);
        assert_eq!(a.hits, 2);
        assert!(a.compact.iter().all(|&t| t == 1));
    }
}
