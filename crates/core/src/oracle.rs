//! Brute-force oracle labelling (§4.4).
//!
//! "The true optimal configurations were attained via brute-force
//! experimentation." Running all 144 expand variants per iteration on
//! real hardware is what the authors did offline; here the cost model
//! makes it cheap: the *semantics* of Expand are identical across P2/P3
//! candidates, so one read-only workload analysis per direction prices
//! every (direction × format × load-balance) combination analytically
//! (`price`, what a [`Lookahead`] calls), and fusion is priced from
//! measured duplicate/tie feedback.
//!
//! The oracle is a [`Policy`] that the engine's one super-step loop runs
//! like any other: at every step it ranks the lookahead's prices and
//! proposes the argmin shape, standalone, so the trajectory it labels is
//! the optimal one and stays duplicate-free. [`oracle_run`] then reads
//! one [`Record`] per iteration off the run's traces — the features the
//! Inspector assembled, the same ones serving decides from.

use crate::engine::{run, EngineOptions};
use crate::features::DecisionContext;
use crate::policy::{Lookahead, Policy, Priced};
use gswitch_graph::Graph;
use gswitch_kernels::expand::{analytic_pull_profile, analytic_push_profile};
use gswitch_kernels::filter::materialize_cost;
use gswitch_kernels::lb::{edge_costs, price_all};
use gswitch_kernels::pattern::{
    AppCaps, AsFormat, Direction, Fusion, KernelConfig, LoadBalance, PatternMask,
};
use gswitch_kernels::{EdgeApp, Status};
use gswitch_ml::{Labels, Record};
use gswitch_obs::sync::Lock;
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
}

/// Per-direction read-only workload analysis.
#[derive(Debug)]
struct DirAnalysis {
    /// Compact per-entry touched counts (queue view).
    compact: Vec<u32>,
    /// Full per-vertex touched counts (bitmap view; zero = idle slot).
    full: Vec<u32>,
    /// Emit-side hits (pull only; push: edges).
    hits: u64,
    /// Workload entry count.
    vertices: u64,
}

/// Analyze the push workload without touching app state.
fn analyze_push(g: &Graph, status: &[u8]) -> DirAnalysis {
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
fn analyze_pull<A: EdgeApp>(g: &Graph, status: &[u8]) -> DirAnalysis {
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
fn price_direction<A: EdgeApp>(
    g: &Graph,
    spec: &DeviceSpec,
    direction: Direction,
    analysis: &DirAnalysis,
) -> Vec<Priced> {
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

/// Every (format × lb) shape of `direction` over the classification
/// `status` of `g`, priced for app `A` — the [`Lookahead`] of a lane
/// running `A`.
pub(crate) fn price<A: EdgeApp>(
    g: &Graph,
    spec: &DeviceSpec,
    status: &[u8],
    direction: Direction,
) -> Vec<Priced> {
    let analysis = match direction {
        Direction::Push => analyze_push(g, status),
        Direction::Pull => analyze_pull::<A>(g, status),
    };
    price_direction::<A>(g, spec, direction, &analysis)
}

/// What the oracle saw at one step: the per-pattern labels of direction,
/// format and load balance, the best shape's priced ms, and what fusing
/// that shape would save (next step's classify + materialize + launch).
type Verdict = (KernelConfig, SimMs, SimMs);

/// Proposes the argmin priced shape, standalone, and keeps each step's
/// [`Verdict`] for the records pass.
#[derive(Default)]
struct OraclePolicy {
    verdicts: Lock<Vec<Verdict>>,
}

impl Policy for OraclePolicy {
    fn name(&self) -> &str {
        "oracle"
    }

    /// Unpriced, the oracle has nothing to rank: the reference shape.
    fn decide(&self, _ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        KernelConfig::push_baseline()
    }

    fn decide_priced(
        &self,
        ctx: &DecisionContext,
        _caps: &AppCaps,
        look: &Lookahead,
    ) -> KernelConfig {
        // Brute force: price all 24 (direction × format × lb) shapes, pull
        // only where it has receivers.
        let push = look.prices(Direction::Push);
        let pull =
            if ctx.stats.pull.vertices > 0 { look.prices(Direction::Pull) } else { Vec::new() };
        let best_of = |prices: &[Priced]| prices.iter().copied().min_by(|a, b| a.2.total_cmp(&b.2));
        let (direction, prices) = match (best_of(&push), best_of(&pull)) {
            (Some(s), Some(l)) if l.2 < s.2 => (Direction::Pull, pull),
            _ => (Direction::Push, push),
        };
        // Twelve shapes per direction, so never empty; were it, the
        // reference shape runs, and its NaN price never labels fusion.
        let base = KernelConfig::push_baseline();
        let (format, lb, best_ms) = best_of(&prices).unwrap_or((base.format, base.lb, SimMs::NAN));
        let label = KernelConfig {
            direction,
            format: best_class(AsFormat::ALL, &prices, |p| p.0).unwrap_or(format),
            lb: best_class(LoadBalance::ALL, &prices, |p| p.1).unwrap_or(lb),
            ..base
        };
        let (spec, n) = (look.device, look.graph.num_vertices());
        let mat_ms =
            spec.kernel_time_ms(&materialize_cost(format, n, ctx.stats.push.vertices, spec));
        let saving_ms = look.classify_ms + mat_ms + spec.launch_overhead_us / 1e3;
        self.verdicts.lock().push((label, best_ms, saving_ms));
        KernelConfig { direction, format, lb, ..base }
    }
}

/// Run `app` on `g` along the oracle-optimal trajectory, labelling every
/// iteration. `benchmark` tags the records ("bfs", "pr", ...).
pub fn oracle_run<A: EdgeApp>(
    g: &Graph,
    app: &A,
    benchmark: &str,
    opts: &OracleOptions,
) -> OracleOutcome {
    // Every step decides: no stability bypass, no seed, no sentinel, and
    // a standalone proposal never starts a fused chain. Offline labelling
    // has no deadline (the default probe never stops the rescue spin).
    let engine = EngineOptions {
        max_iterations: opts.max_iterations,
        stability_bypass: false,
        ..EngineOptions::on(opts.device.clone())
    };
    let policy = OraclePolicy::default();
    let report = run(g, app, &policy, &engine);
    let verdicts = std::mem::take(&mut *policy.verdicts.lock());
    debug_assert_eq!(verdicts.len(), report.iterations.len(), "one decision per step");

    // Labelling lets every pattern vary that the app permits.
    let (caps, mask) = (AppCaps::of::<A>(), PatternMask::all());
    let mut outcome = OracleOutcome::default();
    // The previous step's duplicate ratio: what fusing would cost.
    let mut dup_ratio = 1.0f64;
    for (t, (label, best_ms, saving_ms)) in report.iterations.iter().zip(verdicts) {
        // P5: fusion saves next iteration's classify+materialize+launch;
        // it costs the duplicate ratio on the expand side. P4: the engine
        // applied the paper's ±35% rule, and the oracle labels with it.
        let fused = caps.fuses(mask, label.direction) && saving_ms > (dup_ratio - 1.0) * best_ms;
        let fusion = if fused { Fusion::Fused } else { Fusion::Standalone };
        let label = KernelConfig { stepping: t.config.stepping, fusion, ..label };
        outcome.records.push(Record {
            features: t.features,
            labels: labels_of(label, caps, mask),
            benchmark: benchmark.to_string(),
            graph: g.name().to_string(),
        });
        outcome.optimal_ms += t.filter_ms + t.expand_ms;
        dup_ratio = if t.distinct_activated == 0 {
            1.0
        } else {
            // A fused kernel admits at most one racer per vertex (bitmap
            // marking), so the duplicate mass is capped by the distinct
            // count regardless of how many parents tied.
            (t.activations + t.ties.min(t.distinct_activated)) as f64 / t.distinct_activated as f64
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

/// A per-pattern label: the candidate in `all` whose best shape, the other
/// pattern free, prices lowest.
fn best_class<T: Copy + PartialEq>(
    all: &[T],
    prices: &[Priced],
    class: fn(&Priced) -> T,
) -> Option<T> {
    let time =
        |c: T| prices.iter().filter(|p| class(p) == c).map(|p| p.2).fold(f64::INFINITY, f64::min);
    all.iter().copied().min_by(|&a, &b| time(a).total_cmp(&time(b)))
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
        assert!(out.records.len() >= 2);
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

    /// The candidate space is defined once. For each of the 144
    /// configurations: trees that predict the oracle's labels make
    /// `ModelPolicy` propose the configuration back (up to legality — the
    /// oracle labels only what the app lets vary), and a trace line
    /// carries it exactly; the ml crate's class metadata follows `ALL`.
    #[test]
    fn every_candidate_round_trips_through_labels_trees_and_trace_lines() {
        use crate::engine::tests::Stepped;
        use crate::features::History;
        use crate::policy::ModelPolicy;
        use gswitch_kernels::pattern::SteppingDelta;
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
