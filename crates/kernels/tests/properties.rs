//! Property-based tests of the kernel library.

use gswitch_graph::{GraphBuilder, VertexId};
use gswitch_kernels::atomics::{AtomicArray, AtomicBitSet};
use gswitch_kernels::lb::{self, edge_costs};
use gswitch_kernels::{classify, Classification, Direction, EdgeApp, LoadBalance, Status};
use gswitch_simt::{DeviceSpec, TaskStats};
use proptest::prelude::*;

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

    /// price_all agrees with the individual pricing functions.
    #[test]
    fn price_all_consistent(touched in touched_vec()) {
        let spec = DeviceSpec::p100();
        let costs = edge_costs(&spec, Direction::Pull, true);
        for (lb_kind, p) in lb::price_all(&spec, &costs, &touched, false) {
            let q = lb::price(&spec, lb_kind, &costs, &touched, false);
            prop_assert_eq!(p.tasks.count, q.tasks.count);
            prop_assert!((p.tasks.total_cycles - q.tasks.total_cycles).abs() < 1e-6);
            prop_assert_eq!(p.syncs, q.syncs);
            prop_assert_eq!(p.scan_elems, q.scan_elems);
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

    /// Float values survive the bit-packing round trip.
    #[test]
    fn float_array_roundtrip(x in any::<f64>().prop_filter("finite", |v| v.is_finite())) {
        let a = AtomicArray::<f64>::filled(1, 0.0);
        a.store(0, x);
        prop_assert_eq!(a.load(0).to_bits(), x.to_bits());
    }
}
