//! Differential suite for the cache-conscious kernel rewrite.
//!
//! The bucketed, prefetch-hinted Expand must be *semantically identical*
//! to a straightforward scalar sweep: same activations, same ties, same
//! edges touched, same per-slot touched counts, same per-vertex values,
//! and (fused) the same next-frontier multiset. Every case runs the real
//! kernel on one app instance and a sequential reference on a second,
//! identically-initialised instance, then compares — across both
//! directions, all three workload formats, random graphs, and a
//! degree-skewed hub fixture that forces the cta bucket.

use gswitch_graph::{gen, Graph, GraphBuilder, VertexId, Weight};
use gswitch_kernels::atomics::AtomicArray;
use gswitch_kernels::bucket::{Bucket, WorkPlan};
use gswitch_kernels::filter::status_of;
use gswitch_kernels::{
    classify, expand, expand_planned, materialize, AsFormat, Direction, EdgeApp, Frontier, Fusion,
    KernelConfig, LoadBalance, Status, SteppingDelta,
};
use gswitch_simt::DeviceSpec;
use proptest::prelude::*;

// ---------------------------------------------------------------- apps --

/// BFS-style level app (equal messages within a level, so activation and
/// tie counts are deterministic regardless of race winners).
struct LevelApp {
    level: AtomicArray<u32>,
    current: std::sync::atomic::AtomicU32,
}

impl LevelApp {
    fn new(n: usize, src: VertexId) -> Self {
        let a = LevelApp {
            level: AtomicArray::filled(n, u32::MAX),
            current: std::sync::atomic::AtomicU32::new(0),
        };
        a.level.store(src, 0);
        a
    }
    fn cur(&self) -> u32 {
        self.current.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl EdgeApp for LevelApp {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = true;
    fn filter(&self, v: VertexId) -> Status {
        let l = self.level.load(v);
        if l == self.cur() {
            Status::Active
        } else if l == u32::MAX {
            Status::Inactive
        } else {
            Status::Fixed
        }
    }
    fn emit(&self, u: VertexId, _w: Weight) -> u32 {
        self.level.load(u) + 1
    }
    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        self.level.fetch_min(dst, msg) > msg
    }
    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        if msg < self.level.load(dst) {
            self.level.store(dst, msg);
            true
        } else {
            false
        }
    }
    fn advance(&self, it: u32) {
        self.current.store(it, std::sync::atomic::Ordering::Relaxed);
    }
    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        self.level.load(dst) == msg
    }
}

/// PR-style accumulation app: every vertex is active, every edge adds a
/// source-determined `f64` contribution. `comp_atomic` is a fetch-add that
/// always succeeds, so counts are deterministic; only the FP sums are
/// order-sensitive (compared within 1e-9).
struct RankApp {
    sums: AtomicArray<f64>,
}

impl RankApp {
    fn new(n: usize) -> Self {
        RankApp { sums: AtomicArray::filled(n, 0.0) }
    }
}

impl EdgeApp for RankApp {
    type Msg = f64;
    fn filter(&self, _v: VertexId) -> Status {
        Status::Active
    }
    fn emit(&self, u: VertexId, _w: Weight) -> f64 {
        (u as f64 + 1.0) * 1e-3
    }
    fn comp_atomic(&self, dst: VertexId, msg: f64) -> bool {
        self.sums.fetch_add(dst, msg);
        true
    }
    fn comp(&self, dst: VertexId, msg: f64) -> bool {
        self.sums.store(dst, self.sums.load(dst) + msg);
        true
    }
    fn pull_receives(status: Status) -> bool {
        !matches!(status, Status::Fixed)
    }
}

// ----------------------------------------------------- scalar reference --

/// What the scalar sweep observed; the subset of [`ExpandOutput`] the
/// rewrite promises to preserve bit-for-bit (FP sums aside).
struct RefOut {
    activations: u64,
    distinct: u64,
    ties: u64,
    edges: u64,
    touched: Vec<u32>,
    queue: Option<Vec<VertexId>>,
}

/// Sequential push/pull sweep with the exact semantics `expand` documents:
/// fused inputs re-filter, fused ties enqueue under the cap-2 model, pull
/// rows early-exit when the app allows. No buckets, no chunks, no
/// parallelism — one flat loop in workload order.
fn reference_expand<A: EdgeApp>(
    g: &Graph,
    app: &A,
    frontier: &Frontier,
    status: &[u8],
    direction: Direction,
    fused: bool,
) -> RefOut {
    let n = g.num_vertices();
    let entries = frontier.to_vec();
    let bitmap_mode = frontier.as_queue().is_none();
    let mut touched = vec![0u32; if bitmap_mode { n } else { entries.len() }];
    let mut out = RefOut {
        activations: 0,
        distinct: 0,
        ties: 0,
        edges: 0,
        touched: Vec::new(),
        queue: fused.then(Vec::new),
    };
    let mut activated = vec![false; n];
    let mut tie_marked = vec![false; n];
    let refilter = frontier.may_have_duplicates();

    for (slot, &v) in entries.iter().enumerate() {
        let deg = match direction {
            Direction::Push => {
                if refilter && app.filter(v) != Status::Active {
                    0
                } else {
                    if refilter {
                        app.prepare(v);
                    }
                    let csr = g.out_csr();
                    let r = csr.edge_range(v);
                    let deg = r.len() as u32;
                    for (i, &u) in csr.targets()[r.clone()].iter().enumerate() {
                        let w: Weight = match (A::NEEDS_WEIGHTS, g.out_weights()) {
                            (true, Some(ws)) => ws[r.start + i],
                            _ => 1,
                        };
                        let msg = app.emit(v, w);
                        if app.comp_atomic(u, msg) {
                            out.activations += 1;
                            if !activated[u as usize] {
                                activated[u as usize] = true;
                                out.distinct += 1;
                            }
                            if let Some(q) = out.queue.as_mut() {
                                q.push(u);
                            }
                        } else if app.would_tie(u, msg) {
                            out.ties += 1;
                            if out.queue.is_some() && !tie_marked[u as usize] {
                                tie_marked[u as usize] = true;
                                if let Some(q) = out.queue.as_mut() {
                                    q.push(u);
                                }
                            }
                        }
                    }
                    deg
                }
            }
            Direction::Pull => {
                let csr = g.in_csr();
                let r = csr.edge_range(v);
                let mut scanned = 0u32;
                let mut changed_any = false;
                for (i, &u) in csr.targets()[r.clone()].iter().enumerate() {
                    scanned += 1;
                    if status_of(status[u as usize]) == Status::Active {
                        let w: Weight = match (A::NEEDS_WEIGHTS, g.in_weights()) {
                            (true, Some(ws)) => ws[r.start + i],
                            _ => 1,
                        };
                        if app.comp(v, app.emit(u, w)) {
                            changed_any = true;
                            if A::PULL_EARLY_EXIT {
                                break;
                            }
                        }
                    }
                }
                if changed_any {
                    out.activations += 1;
                    out.distinct += 1;
                }
                scanned
            }
        };
        out.edges += deg as u64;
        touched[if bitmap_mode { v as usize } else { slot }] = deg;
    }
    out.touched = touched;
    out
}

// ------------------------------------------------------------- harness --

fn cfg(direction: Direction, format: AsFormat, fusion: Fusion) -> KernelConfig {
    KernelConfig {
        direction,
        format,
        lb: LoadBalance::Twc,
        stepping: SteppingDelta::Remain,
        fusion,
    }
}

const FORMATS: [AsFormat; 3] = [AsFormat::Bitmap, AsFormat::SortedQueue, AsFormat::UnsortedQueue];

/// Run BFS level-by-level with the real kernel on one app and the scalar
/// reference on another, asserting the observable subset matches at every
/// level and the final level arrays are bit-identical.
fn check_bfs(g: &Graph, src: VertexId, direction: Direction, format: AsFormat) {
    let n = g.num_vertices();
    let spec = DeviceSpec::k40m();
    let kernel_app = LevelApp::new(n, src);
    let ref_app = LevelApp::new(n, src);
    for level in 0..16u32 {
        kernel_app.advance(level);
        ref_app.advance(level);
        let co = classify(g, &kernel_app, &spec);
        let co_ref = classify(g, &ref_app, &spec);
        assert_eq!(co.status, co_ref.status, "classification diverged at level {level}");
        if co.stats.v_active == 0 {
            break;
        }
        let (frontier, _) = materialize::<LevelApp>(g, &co.status, direction, format, &spec);
        let (ref_frontier, _) =
            materialize::<LevelApp>(g, &co_ref.status, direction, format, &spec);
        let eo = expand(
            g,
            &kernel_app,
            &frontier,
            &co.status,
            cfg(direction, format, Fusion::Standalone),
            &spec,
        );
        let r = reference_expand(g, &ref_app, &ref_frontier, &co_ref.status, direction, false);
        assert_eq!(eo.edges_touched, r.edges, "edges at level {level}");
        assert_eq!(eo.touched, r.touched, "touched at level {level}");
        assert_eq!(eo.activations, r.activations, "activations at level {level}");
        assert_eq!(eo.distinct_activated, r.distinct, "distinct at level {level}");
        assert_eq!(eo.ties, r.ties, "ties at level {level}");
    }
    // The per-vertex results (hence the next frontier, which Filter
    // derives from them) are bit-identical.
    assert_eq!(kernel_app.level.to_vec(), ref_app.level.to_vec());
}

fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec((0..n as u32, 0..n as u32), 0..140)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bfs_matches_reference_across_formats_and_directions(
        (n, edges) in edge_list(),
        src_pick in 0usize..40,
    ) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let src = (src_pick % n) as VertexId;
        for direction in [Direction::Push, Direction::Pull] {
            for format in FORMATS {
                check_bfs(&g, src, direction, format);
            }
        }
    }

    #[test]
    fn fused_push_queue_matches_reference_multiset(
        (n, edges) in edge_list(),
        src_pick in 0usize..40,
    ) {
        let g = GraphBuilder::new(n).edges(edges).build();
        let src = (src_pick % n) as VertexId;
        let spec = DeviceSpec::k40m();
        let kernel_app = LevelApp::new(n, src);
        let ref_app = LevelApp::new(n, src);
        let co = classify(&g, &kernel_app, &spec);
        let (frontier, _) =
            materialize::<LevelApp>(&g, &co.status, Direction::Push, AsFormat::UnsortedQueue, &spec);
        let eo = expand(
            &g,
            &kernel_app,
            &frontier,
            &co.status,
            cfg(Direction::Push, AsFormat::UnsortedQueue, Fusion::Fused),
            &spec,
        );
        let r = reference_expand(&g, &ref_app, &frontier, &co.status, Direction::Push, true);
        prop_assert_eq!(eo.activations, r.activations);
        prop_assert_eq!(eo.ties, r.ties);
        // Queue order differs across tasks; the multiset (cap-2 duplicate
        // model: min(2, same-value parents) copies per vertex) must not.
        let mut got = eo.next_queue.clone().unwrap_or_default();
        let mut want = r.queue.unwrap_or_default();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(kernel_app.level.to_vec(), ref_app.level.to_vec());
    }
}

// ------------------------------------------------------------ fixtures --

/// One hub wired to 400 leaves (degree ≥ 256 ⇒ cta bucket) plus a chain
/// hanging off a leaf so the traversal runs several levels deep.
fn hub_graph() -> Graph {
    let leaves = 400u32;
    let mut edges: Vec<(u32, u32)> = (1..=leaves).map(|l| (0, l)).collect();
    edges.push((1, leaves + 1));
    edges.push((leaves + 1, leaves + 2));
    GraphBuilder::new(leaves as usize + 3).edges(edges).build()
}

#[test]
fn hub_fixture_forces_cta_bucket_and_matches_reference() {
    let g = hub_graph();
    // The hub's degree lands in the cta bucket of the push plan.
    let frontier = Frontier::RawQueue(vec![0]);
    let plan = WorkPlan::for_frontier(&g, &frontier, Direction::Push);
    assert!(
        plan.tasks().iter().any(|t| t.bucket == Bucket::Cta),
        "hub row must form a cta task, got {:?}",
        plan.tasks()
    );
    for direction in [Direction::Push, Direction::Pull] {
        for format in FORMATS {
            check_bfs(&g, 0, direction, format);
        }
    }
}

#[test]
fn rank_app_matches_reference_within_1e9() {
    let g = gen::erdos_renyi(300, 1800, 11);
    let spec = DeviceSpec::k40m();
    for direction in [Direction::Push, Direction::Pull] {
        let kernel_app = RankApp::new(300);
        let ref_app = RankApp::new(300);
        let co = classify(&g, &kernel_app, &spec);
        let format =
            if direction == Direction::Pull { AsFormat::Bitmap } else { AsFormat::SortedQueue };
        let (frontier, _) = materialize::<RankApp>(&g, &co.status, direction, format, &spec);
        let eo = expand(
            &g,
            &kernel_app,
            &frontier,
            &co.status,
            cfg(direction, format, Fusion::Standalone),
            &spec,
        );
        let r = reference_expand(&g, &ref_app, &frontier, &co.status, direction, false);
        assert_eq!(eo.edges_touched, r.edges);
        assert_eq!(eo.activations, r.activations);
        assert_eq!(eo.touched, r.touched);
        for (v, (a, b)) in
            kernel_app.sums.to_vec().iter().zip(ref_app.sums.to_vec().iter()).enumerate()
        {
            assert!((a - b).abs() <= 1e-9, "vertex {v}: kernel {a} vs reference {b}");
        }
    }
}

#[test]
fn planned_expand_with_reused_plan_is_bitwise_identical() {
    let g = hub_graph();
    let n = g.num_vertices();
    let spec = DeviceSpec::k40m();
    let a1 = LevelApp::new(n, 0);
    let a2 = LevelApp::new(n, 0);
    let co = classify(&g, &a1, &spec);
    let (frontier, _) =
        materialize::<LevelApp>(&g, &co.status, Direction::Push, AsFormat::SortedQueue, &spec);
    let plan = WorkPlan::for_frontier(&g, &frontier, Direction::Push);
    let c = cfg(Direction::Push, AsFormat::SortedQueue, Fusion::Standalone);
    let planned = expand_planned(&g, &a1, &frontier, &co.status, c, &spec, Some(&plan), false);
    let fresh = expand(&g, &a2, &frontier, &co.status, c, &spec);
    assert_eq!(planned.profile, fresh.profile, "plan reuse must not change pricing");
    assert_eq!(planned.activations, fresh.activations);
    assert_eq!(planned.edges_touched, fresh.edges_touched);
    assert_eq!(planned.touched, fresh.touched);
    assert_eq!(a1.level.to_vec(), a2.level.to_vec());
}
