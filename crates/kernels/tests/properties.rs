//! Property-based tests of the kernel library.

use gswitch_graph::{gen, Graph, GraphBuilder, VertexId};
use gswitch_kernels::atomics::{AtomicArray, AtomicBitSet};
use gswitch_kernels::expand::{analyze, expand_cost, ExpandCounts, ExpandShape};
use gswitch_kernels::filter::{materialize_cost, status_of};
use gswitch_kernels::lb::{self, edge_costs};
use gswitch_kernels::{
    classify, expand, materialize, AsFormat, Classification, Direction, EdgeApp, Frontier,
    KernelConfig, LoadBalance, Status,
};
use gswitch_simt::{DeviceSpec, KernelProfile, TaskStats};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

fn touched_vec() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..2_000, 0..512)
}

/// An app whose statuses are set from outside and whose `prepare` counts
/// its calls per vertex. Pull membership follows the status (BFS-style
/// default), so removals reach the in-degree extremes.
struct Scripted {
    status: AtomicArray<u32>,
    prepared: AtomicArray<u32>,
}

impl Scripted {
    fn new(statuses: &[u32]) -> Self {
        let app = Scripted {
            status: AtomicArray::filled(statuses.len(), 0),
            prepared: AtomicArray::filled(statuses.len(), 0),
        };
        for (v, &s) in statuses.iter().enumerate() {
            app.status.store(v as VertexId, s);
        }
        app
    }
}

impl EdgeApp for Scripted {
    type Msg = ();
    fn filter(&self, v: VertexId) -> Status {
        match self.status.load(v) {
            0 => Status::Active,
            1 => Status::Inactive,
            _ => Status::Fixed,
        }
    }
    fn prepare(&self, v: VertexId) {
        self.prepared.fetch_add(v, 1);
    }
    fn emit(&self, _u: VertexId, _w: u32) {}
    fn comp_atomic(&self, _d: VertexId, _m: ()) -> bool {
        false
    }
    fn comp(&self, _d: VertexId, _m: ()) -> bool {
        false
    }
}

/// An app whose pull workload is every vertex whatever its status (SSSP
/// and PR gather everywhere); `materialize` reads only its statuses' bytes.
struct GatherAll;

impl EdgeApp for GatherAll {
    type Msg = ();
    fn filter(&self, _v: VertexId) -> Status {
        Status::Inactive
    }
    fn emit(&self, _u: VertexId, _w: u32) {}
    fn comp_atomic(&self, _d: VertexId, _m: ()) -> bool {
        false
    }
    fn comp(&self, _d: VertexId, _m: ()) -> bool {
        false
    }
    fn pull_receives(_status: Status) -> bool {
        true
    }
}

/// A built frontier holds exactly `want`, ascending, in `format`, priced
/// at what `materialize_cost` charges for its size.
fn assert_frontier(
    (frontier, profile): (Frontier, KernelProfile),
    format: AsFormat,
    n: usize,
    want: &[VertexId],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(frontier.format(), format);
    prop_assert_eq!(frontier.is_sorted(), format == AsFormat::SortedQueue);
    prop_assert_eq!(frontier.len(), want.len());
    prop_assert_eq!(&frontier.to_vec()[..], want);
    if let Frontier::Bitmap(bits) = &frontier {
        prop_assert_eq!(bits.len(), n);
    }
    prop_assert_eq!(profile, materialize_cost(format, n, want.len() as u64, &DeviceSpec::k40m()));
    Ok(())
}

/// Every frontier of `A`'s two workloads over `status`, built by
/// `materialize` from the bytes and by `snap` (from its Active list once it
/// holds one), against a per-vertex loop over the bytes.
fn assert_word_built_frontiers<A: EdgeApp>(
    g: &Graph,
    status: &[u8],
    snap: &Classification,
) -> Result<(), TestCaseError> {
    let (spec, n) = (DeviceSpec::k40m(), status.len());
    for &direction in Direction::ALL {
        let want: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| {
                let st = status_of(status[v as usize]);
                match direction {
                    Direction::Push => st == Status::Active,
                    Direction::Pull => A::pull_receives(st),
                }
            })
            .collect();
        for &format in AsFormat::ALL {
            assert_frontier(
                materialize::<A>(g, status, direction, format, &spec),
                format,
                n,
                &want,
            )?;
            assert_frontier(snap.materialize::<A>(direction, format, &spec), format, n, &want)?;
        }
    }
    Ok(())
}

/// A weighted min-gather whose messages come from a fixed array, so a
/// row's outcome does not depend on which rows ran before it. `EXIT`
/// makes it stop at a row's first improvement.
struct MinOf<const EXIT: bool> {
    sent: Vec<u32>,
    vals: AtomicArray<u32>,
}

impl<const EXIT: bool> MinOf<EXIT> {
    fn new(sent: &[u32], start: &[u32]) -> Self {
        let app = MinOf { sent: sent.to_vec(), vals: AtomicArray::filled(start.len(), 0) };
        for (v, &x) in start.iter().enumerate() {
            app.vals.store(v as VertexId, x);
        }
        app
    }
}

impl<const EXIT: bool> EdgeApp for MinOf<EXIT> {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = EXIT;
    const NEEDS_WEIGHTS: bool = true;
    fn filter(&self, _v: VertexId) -> Status {
        Status::Inactive // Expand reads the status bytes it is handed
    }
    fn emit(&self, u: VertexId, w: u32) -> u32 {
        self.sent[u as usize] + w
    }
    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        self.vals.fetch_min(dst, msg) > msg
    }
    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        let improves = msg < self.vals.load(dst);
        if improves {
            self.vals.store(dst, msg);
        }
        improves
    }
}

/// A pull Expand of `frontier` against the loop it replaced: one `comp`
/// per Active in-edge, every counter bumped per edge.
fn assert_pull_matches_per_edge_loop<const EXIT: bool>(
    g: &Graph,
    status: &[u8],
    sent: &[u32],
    start: &[u32],
    frontier: Frontier,
) -> Result<(), TestCaseError> {
    let spec = DeviceSpec::k40m();
    let cfg = KernelConfig { direction: Direction::Pull, ..KernelConfig::push_baseline() };
    let app = MinOf::<EXIT>::new(sent, start);
    let out = expand(g, &app, &frontier, status, cfg, &spec);

    let old = MinOf::<EXIT>::new(sent, start);
    let (incoming, weights) = (g.in_csr(), g.in_weights().expect("weighted graph"));
    let n = g.num_vertices();
    let bitmap = frontier.as_queue().is_none();
    let slots = frontier.to_vec();
    let mut touched = vec![0u32; if bitmap { n } else { slots.len() }];
    let mut bytes_read = if bitmap { n.div_ceil(64) as u64 * 8 } else { 4 * slots.len() as u64 };
    let (mut bytes_written, mut edges, mut out_edges) = (0u64, 0u64, 0u64);
    let (mut hits, mut wins) = (0u64, 0u64);
    let mut activated = Vec::new();
    for (slot, &v) in slots.iter().enumerate() {
        let mut changed = false;
        let row = &mut touched[if bitmap { v as usize } else { slot }];
        for i in incoming.edge_range(v) {
            let u = incoming.targets()[i];
            *row += 1;
            bytes_read += 5;
            if status[u as usize] == Status::Active as u8 {
                bytes_read += 32 + 4;
                hits += 1;
                if old.comp(v, old.emit(u, weights[i])) {
                    changed = true;
                    bytes_written += 8;
                    wins += 1;
                    if EXIT {
                        break;
                    }
                }
            }
        }
        if changed {
            activated.push(v);
            out_edges += g.out_csr().degree(v) as u64;
        }
        edges += *row as u64;
    }
    activated.sort_unstable();

    prop_assert_eq!(app.vals.to_vec(), old.vals.to_vec());
    prop_assert_eq!(&out.touched, &touched);
    prop_assert_eq!(out.bitmap_mode, bitmap);
    prop_assert_eq!(out.edges_touched, edges);
    prop_assert_eq!(out.activations, activated.len() as u64);
    prop_assert_eq!(out.distinct_activated, activated.len() as u64);
    prop_assert_eq!(out.activated.to_sorted_vec(), activated);
    prop_assert_eq!(out.activated_out_edges, out_edges);
    prop_assert_eq!((out.ties, &out.next_queue), (0, &None));
    let p = out.profile;
    prop_assert_eq!((p.bytes_read, p.bytes_written), (bytes_read, bytes_written));
    prop_assert_eq!(
        (p.edges_expanded, p.atomics, p.atomic_conflicts, p.duplicates),
        (edges, 0, 0, 0)
    );
    // The per-edge loop's counts, charged through `expand_cost`, are the
    // kernel's profile.
    let counts = ExpandCounts { edges, hits, wins, conflicts: 0 };
    let shape = ExpandShape { touched: &touched, bitmap, sorted: false };
    prop_assert_eq!(p, expand_cost(&spec, Direction::Pull, cfg.lb, true, &shape, &counts));
    Ok(())
}

/// After `update`, the snapshot is what a fresh sweep of the same app
/// state gives, and `prepare` ran once per Active vertex in this step.
fn assert_update_matches_sweep(
    snap: &mut Classification,
    g: &gswitch_graph::Graph,
    app: &Scripted,
    mut dirty: Vec<VertexId>,
) -> Result<(), TestCaseError> {
    app.prepared.fill(0);
    snap.update(app, &mut dirty);
    let n = g.num_vertices() as VertexId;
    for v in 0..n {
        let want = (app.filter(v) == Status::Active) as u32;
        prop_assert!(
            app.prepared.load(v) == want,
            "prepare ran {} times on vertex {v}",
            app.prepared.load(v)
        );
    }
    let fresh = classify(g, app, &DeviceSpec::k40m());
    prop_assert_eq!(snap.status(), &fresh.status[..]);
    prop_assert_eq!(*snap.stats(), fresh.stats);
    let actives: Vec<VertexId> = (0..n).filter(|&v| app.filter(v) == Status::Active).collect();
    prop_assert_eq!(snap.active(), &actives[..]);
    Ok(())
}

/// The workload rules of the four algorithms the oracle labels, as `K`:
/// [`BFS`] (levels; pull stops at the first parent, only the unvisited
/// receive), [`CC`] (labels; every non-`Fixed` vertex receives), [`SSSP`]
/// (weighted distances; everyone receives) and [`PR`] (a residual sum that
/// activates on crossing a threshold, so a row wins at most once).
struct Relax<const K: u8> {
    val: AtomicArray<u32>,
    staged: AtomicArray<u32>,
    changed_at: AtomicArray<u32>,
    current: AtomicU32,
}

const BFS: u8 = 0;
const CC: u8 = 1;
const SSSP: u8 = 2;
const PR: u8 = 3;
/// PR's activation threshold on the residual.
const THRESHOLD: u32 = 4;

impl<const K: u8> Relax<K> {
    /// The app after `level` push steps from its start (source vertex 0),
    /// and its classification at `level`.
    fn at_level(g: &Graph, level: u32) -> (Self, Vec<u8>) {
        let n = g.num_vertices();
        let app = Relax {
            val: AtomicArray::filled(n, if K == PR { 4 * THRESHOLD } else { u32::MAX }),
            staged: AtomicArray::filled(n, 0),
            changed_at: AtomicArray::filled(n, if K == CC { 0 } else { u32::MAX }),
            current: AtomicU32::new(0),
        };
        match K {
            CC => (0..n as VertexId).for_each(|v| app.val.store(v, v)),
            PR => {}
            _ => {
                app.val.store(0, 0);
                app.changed_at.store(0, 0);
            }
        }
        let spec = DeviceSpec::k40m();
        for it in 0..level {
            app.advance(it);
            let status = classify(g, &app, &spec).status;
            let (frontier, _) =
                materialize::<Self>(g, &status, Direction::Push, AsFormat::UnsortedQueue, &spec);
            expand(g, &app, &frontier, &status, KernelConfig::push_baseline(), &spec);
        }
        app.advance(level);
        let status = classify(g, &app, &spec).status;
        (app, status)
    }

    fn mark(&self, v: VertexId) {
        self.changed_at.store(v, self.current.load(Relaxed) + 1);
    }
}

impl<const K: u8> EdgeApp for Relax<K> {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = K == BFS;
    const NEEDS_WEIGHTS: bool = K == SSSP;
    fn filter(&self, v: VertexId) -> Status {
        let active = match K {
            PR => self.val.load(v) > THRESHOLD,
            _ => self.changed_at.load(v) == self.current.load(Relaxed),
        };
        match (active, K) {
            (true, _) => Status::Active,
            (false, BFS) if self.val.load(v) != u32::MAX => Status::Fixed,
            _ => Status::Inactive,
        }
    }
    fn prepare(&self, v: VertexId) {
        if K == PR {
            self.staged.store(v, self.val.load(v) / 2);
            self.val.store(v, 0);
        }
    }
    fn emit(&self, u: VertexId, w: u32) -> u32 {
        match K {
            BFS => self.val.load(u) + 1,
            SSSP => self.val.load(u).saturating_add(w),
            PR => self.staged.load(u),
            _ => self.val.load(u),
        }
    }
    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        if K == PR {
            let old = self.val.fetch_add(dst, msg);
            return old <= THRESHOLD && old + msg > THRESHOLD;
        }
        let improves = self.val.fetch_min(dst, msg) > msg;
        if improves {
            self.mark(dst);
        }
        improves
    }
    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        let old = self.val.load(dst);
        if K == PR {
            self.val.store(dst, old + msg);
            return old <= THRESHOLD && old + msg > THRESHOLD;
        }
        if msg < old {
            self.val.store(dst, msg);
            self.mark(dst);
        }
        msg < old
    }
    fn advance(&self, it: u32) {
        self.current.store(it, Relaxed);
    }
    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        K != PR && self.val.load(dst) == msg
    }
    fn pull_receives(status: Status) -> bool {
        match K {
            BFS => status == Status::Inactive,
            CC => status != Status::Fixed,
            _ => true,
        }
    }
}

/// Price = charge: at `level` of app `K` on `g`, in every (direction ×
/// format × lb) shape, the `expand_cost` of what `analyze` predicts is
/// the profile the executed Expand charges, field by field — except the
/// two terms only execution knows, held to their bounds: `atomic_conflicts`
/// (priced 0 ≤ charged ≤ `atomics`) and pull `bytes_written` (priced at
/// `hits` wins, 8 bytes each, ≥ charged); `duplicates` is not priced.
fn assert_priced_is_charged<const K: u8>(g: &Graph, level: u32) -> Result<(), TestCaseError> {
    let spec = DeviceSpec::k40m();
    for &direction in Direction::ALL {
        for &format in AsFormat::ALL {
            for &lb in LoadBalance::ALL {
                let (app, status) = Relax::<K>::at_level(g, level);
                let analysis = analyze::<Relax<K>>(g, &status, direction);
                let shape = analysis.shape(format);
                let counts = analysis.counts;
                let priced = expand_cost(&spec, direction, lb, K == SSSP, &shape, &counts);

                let (frontier, _) = materialize::<Relax<K>>(g, &status, direction, format, &spec);
                let cfg = KernelConfig { direction, format, lb, ..KernelConfig::push_baseline() };
                let out = expand(g, &app, &frontier, &status, cfg, &spec);
                let charged = out.profile;
                let at = format!("K={K} level {level} {cfg}");
                prop_assert_eq!((&at, &out.touched[..]), (&at, shape.touched));
                prop_assert_eq!((&at, priced.atomic_conflicts), (&at, 0));
                prop_assert!(charged.atomic_conflicts <= charged.atomics, "{at}");
                if direction == Direction::Pull {
                    prop_assert_eq!((&at, priced.bytes_written), (&at, 8 * counts.hits));
                    prop_assert!(charged.bytes_written <= priced.bytes_written, "{at}");
                    prop_assert_eq!((&at, charged.bytes_written % 8), (&at, 0));
                }
                let bounded = KernelProfile {
                    atomic_conflicts: priced.atomic_conflicts,
                    bytes_written: priced.bytes_written,
                    duplicates: priced.duplicates,
                    ..charged
                };
                prop_assert_eq!((&at, bounded), (&at, priced));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pricing never produces negative or NaN cycle counts, and total
    /// cycles grow monotonically when work is appended.
    #[test]
    fn pricing_sane(touched in touched_vec(), bitmap in any::<bool>()) {
        let spec = DeviceSpec::k40m();
        let costs = edge_costs(&spec, Direction::Push, false);
        for lb_kind in [LoadBalance::Twc, LoadBalance::Wm, LoadBalance::Cm, LoadBalance::Strict] {
            let p = lb::price(&spec, lb_kind, &costs, &touched, bitmap);
            prop_assert!(p.tasks.total_cycles.is_finite());
            prop_assert!(p.tasks.total_cycles >= 0.0);
            prop_assert!(p.tasks.max_cycles <= p.tasks.total_cycles + 1e-9);

            let mut bigger = touched.clone();
            bigger.push(1_000);
            let p2 = lb::price(&spec, lb_kind, &costs, &bigger, bitmap);
            prop_assert!(
                p2.tasks.total_cycles >= p.tasks.total_cycles,
                "{lb_kind:?} shrank when work was added"
            );
        }
    }

    /// TaskStats::merge is order-insensitive on its aggregates.
    #[test]
    fn task_stats_merge_commutes(a in proptest::collection::vec(0.0f64..1e6, 0..64),
                                 b in proptest::collection::vec(0.0f64..1e6, 0..64)) {
        let build = |v: &[f64]| {
            let mut t = TaskStats::default();
            for &x in v {
                t.add_task(x);
            }
            t
        };
        let (ta, tb) = (build(&a), build(&b));
        let mut ab = ta;
        ab.merge(&tb);
        let mut ba = tb;
        ba.merge(&ta);
        prop_assert_eq!(ab.count, ba.count);
        prop_assert_eq!(ab.max_cycles, ba.max_cycles);
        prop_assert!((ab.total_cycles - ba.total_cycles).abs() < 1e-6);
    }

    /// AtomicArray fetch_min converges to the sequence minimum regardless
    /// of order, and fetch_add to the sum.
    #[test]
    fn atomic_array_semantics(vals in proptest::collection::vec(0u32..1_000_000, 1..64)) {
        let arr = AtomicArray::<u32>::filled(1, u32::MAX);
        for &v in &vals {
            arr.fetch_min(0, v);
        }
        prop_assert_eq!(arr.load(0), *vals.iter().min().unwrap());

        let sum = AtomicArray::<u64>::filled(1, 0);
        for &v in &vals {
            sum.fetch_add(0, v as u64);
        }
        prop_assert_eq!(sum.load(0), vals.iter().map(|&v| v as u64).sum::<u64>());
    }

    /// Bitset set/unset/count behave like a reference HashSet.
    #[test]
    fn bitset_matches_reference(ops in proptest::collection::vec((0u32..256, any::<bool>()), 0..128)) {
        let bits = AtomicBitSet::new(256);
        let mut reference = std::collections::BTreeSet::new();
        for (v, set) in ops {
            if set {
                prop_assert_eq!(bits.set(v), reference.insert(v));
            } else {
                prop_assert_eq!(bits.unset(v), reference.remove(&v));
            }
        }
        prop_assert_eq!(bits.count(), reference.len());
        let collected: Vec<u32> = reference.into_iter().collect();
        prop_assert_eq!(bits.to_sorted_vec(), collected);
    }

    /// Dirty-set updates of the resident classification leave exactly
    /// what a fresh sweep would, over any sequence of per-vertex status
    /// changes — duplicates in the dirty list, vertices that did not
    /// change, and steps that change nothing included.
    #[test]
    fn classification_update_equals_fresh_sweep(
        n in 2usize..96,
        edges in proptest::collection::vec((0u32..96, 0u32..96), 0..400),
        initial in proptest::collection::vec(0u32..3, 96..97),
        steps in proptest::collection::vec(
            proptest::collection::vec((0u32..96, 0u32..3, any::<bool>()), 0..24), 1..8),
    ) {
        let fit = |v: u32| v % n as u32;
        let g = GraphBuilder::new(n)
            .symmetric(false)
            .edges(edges.into_iter().map(|(a, b)| (fit(a), fit(b))))
            .build();
        let app = Scripted::new(&initial[..n]);
        let mut snap = Classification::new(&g, &DeviceSpec::k40m());
        snap.sweep(&app);
        for step in steps {
            let mut dirty = Vec::new();
            for (v, status, twice) in step {
                app.status.store(fit(v), status);
                dirty.extend(std::iter::repeat_n(fit(v), 1 + twice as usize));
            }
            assert_update_matches_sweep(&mut snap, &g, &app, dirty)?;
        }
    }

    /// The pull workload's degree extremes stay exact when the unique
    /// extreme-degree receiver leaves the workload and when it returns.
    #[test]
    fn pull_extremes_survive_removal_and_return(spokes in 2u32..40, low in 0u32..3) {
        // Vertex 0 has in-degree `spokes` (unique maximum), vertex 1 has
        // in-degree 0 (unique minimum), every spoke in-degree 1.
        let n = spokes as usize + 2;
        let g = GraphBuilder::new(n)
            .symmetric(false)
            .edges((2..n as u32).flat_map(|s| [(s, 0), (0, s)]))
            .build();
        let app = Scripted::new(&vec![1; n]);
        let mut snap = Classification::new(&g, &DeviceSpec::k40m());
        snap.sweep(&app);
        prop_assert_eq!((snap.stats().pull.max_degree, snap.stats().pull.min_degree), (spokes, 0));
        for extreme in [0u32, 1] {
            for status in [2, low, 1] {
                app.status.store(extreme, status);
                assert_update_matches_sweep(&mut snap, &g, &app, vec![extreme])?;
            }
        }
        // Both extremes gone at once, then everything: an empty workload.
        for v in 0..n as u32 {
            app.status.store(v, if v < 2 { 2 } else { 1 });
        }
        assert_update_matches_sweep(&mut snap, &g, &app, vec![1, 0, 0])?;
        prop_assert_eq!((snap.stats().pull.max_degree, snap.stats().pull.min_degree), (1, 1));
        for v in 0..n as u32 {
            app.status.store(v, 0);
        }
        assert_update_matches_sweep(&mut snap, &g, &app, (0..n as u32).collect())?;
        prop_assert_eq!(snap.stats().pull.vertices, 0);
    }

    /// Every field of a pull Expand's output is what the per-edge loop
    /// gives: any graph, any status bytes, queue or bitmap workload, with
    /// and without early exit.
    #[test]
    fn pull_expand_equals_the_per_edge_loop(
        (n, edges, receivers, seed) in (
            2usize..80,
            proptest::collection::vec((0u32..80, 0u32..80), 0..500),
            0usize..80,
            any::<u64>(),
        ),
        (status, sent, start, order) in (
            proptest::collection::vec(0u8..3, 80..81),
            proptest::collection::vec(0u32..40, 80..81),
            proptest::collection::vec(0u32..100, 80..81),
            proptest::collection::vec(any::<u32>(), 80..81),
        ),
        bitmap in any::<bool>(),
        exit in any::<bool>(),
    ) {
        let fit = |v: u32| v % n as u32;
        let g = GraphBuilder::new(n)
            .symmetric(false)
            .edges(edges.into_iter().map(|(a, b)| (fit(a), fit(b))))
            .build();
        let g = gen::with_random_weights(&g, 9, seed);
        // A random subset of the vertices in a random order.
        let mut queue: Vec<VertexId> = (0..n as VertexId).collect();
        queue.sort_by_key(|&v| order[v as usize]);
        queue.truncate(receivers.min(n));
        let frontier = if bitmap {
            let bits = AtomicBitSet::new(n);
            queue.iter().for_each(|&v| { bits.set(v); });
            Frontier::Bitmap(bits)
        } else {
            Frontier::UnsortedQueue(queue)
        };
        let (status, sent, start) = (&status[..n], &sent[..n], &start[..n]);
        if exit {
            assert_pull_matches_per_edge_loop::<true>(&g, status, sent, start, frontier)?;
        } else {
            assert_pull_matches_per_edge_loop::<false>(&g, status, sent, start, frontier)?;
        }
    }

    /// Price = charge, for BFS, CC, SSSP and PR states at any level of
    /// any weighted directed graph, in all 24 Expand shapes (see
    /// `assert_priced_is_charged`).
    #[test]
    fn expand_cost_of_the_analysis_is_the_charge(
        (n, edges, seed) in (
            2usize..64,
            proptest::collection::vec((0u32..64, 0u32..64), 0..300),
            any::<u64>(),
        ),
        level in 0u32..5,
    ) {
        let fit = |v: u32| v % n as u32;
        let g = GraphBuilder::new(n)
            .symmetric(false)
            .edges(edges.into_iter().map(|(a, b)| (fit(a), fit(b))))
            .build();
        let g = gen::with_random_weights(&g, 9, seed);
        assert_priced_is_charged::<BFS>(&g, level)?;
        assert_priced_is_charged::<CC>(&g, level)?;
        assert_priced_is_charged::<SSSP>(&g, level)?;
        assert_priced_is_charged::<PR>(&g, level)?;
    }

    /// Frontiers built a word at a time equal the per-vertex loop: any
    /// status bytes (a byte past `Fixed` included) over a word boundary or
    /// not, both directions, a pull workload that follows the status
    /// (`Scripted`) and one that does not (`GatherAll`), scanned out of the
    /// bytes and listed from the Active list — bitmap, sorted and unsorted
    /// queue alike, at an unchanged price; and `Classification::active` is
    /// the push workload.
    #[test]
    fn word_built_frontiers_equal_the_per_vertex_loop(
        bytes in (0usize..6, 66usize..700)
            .prop_map(|(k, random)| [0, 1, 63, 64, 65, random][k])
            .prop_flat_map(|n| proptest::collection::vec(0u8..4, n..n + 1)),
    ) {
        let n = bytes.len();
        let g = GraphBuilder::new(n).build();
        let app = Scripted::new(&bytes.iter().map(|&b| u32::from(b)).collect::<Vec<_>>());
        let mut snap = Classification::new(&g, &DeviceSpec::k40m());
        snap.sweep(&app);
        for listed in [false, true] {
            if listed {
                let active: Vec<VertexId> =
                    (0..n as VertexId).filter(|&v| bytes[v as usize] == 0).collect();
                prop_assert_eq!(snap.active(), &active[..]);
            }
            assert_word_built_frontiers::<Scripted>(&g, &bytes, &snap)?;
            assert_word_built_frontiers::<GatherAll>(&g, &bytes, &snap)?;
        }
    }

    /// Float values survive the bit-packing round trip.
    #[test]
    fn float_array_roundtrip(x in any::<f64>().prop_filter("finite", |v| v.is_finite())) {
        let a = AtomicArray::<f64>::filled(1, 0.0);
        a.store(0, x);
        prop_assert_eq!(a.load(0).to_bits(), x.to_bits());
    }
}
