//! Divergence-sentinel integration tests, driven by the engine's
//! `frontier::corrupt` fault site (`--features fault-injection`) and by an
//! app whose `refilter_hint` under-reports. The armed fault is
//! process-global, so this suite lives in its own
//! integration-test binary — its process contains nothing but these
//! tests — and each test holds `faults::exclusive()`, which empties the
//! fault table on entry.

#![cfg(feature = "fault-injection")]

use gswitch_core::engine::fault_site::FRONTIER_CORRUPT;
use gswitch_core::{run, EngineOptions, GraphApp, KernelConfig, RunReport, StaticPolicy, Status};
use gswitch_graph::{gen, Graph, GraphBuilder, VertexId};
use gswitch_kernels::atomics::{AtomicArray, AtomicBitSet};
use gswitch_kernels::pattern::{AsFormat, Fusion};
use gswitch_obs::faults::{self, Fault};

/// Every subsequent non-reference materialization silently loses one
/// workload entry.
fn arm_frontier_corruption() {
    faults::arm(FRONTIER_CORRUPT, Fault::Trip);
}

/// Minimal BFS app (mirrors the engine's unit-test app).
struct Bfs {
    level: AtomicArray<u32>,
    current: std::sync::atomic::AtomicU32,
}

impl Bfs {
    fn new(n: usize, src: VertexId) -> Self {
        let b = Bfs {
            level: AtomicArray::filled(n, u32::MAX),
            current: std::sync::atomic::AtomicU32::new(0),
        };
        b.level.store(src, 0);
        b
    }
}

impl GraphApp for Bfs {
    type Msg = u32;
    const PULL_EARLY_EXIT: bool = true;
    fn filter(&self, v: VertexId) -> Status {
        let l = self.level.load(v);
        let cur = self.current.load(std::sync::atomic::Ordering::Relaxed);
        if l == cur {
            Status::Active
        } else if l == u32::MAX {
            Status::Inactive
        } else {
            Status::Fixed
        }
    }
    fn emit(&self, u: VertexId, _w: u32) -> u32 {
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

fn bfs_reference(g: &Graph, src: VertexId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices()];
    dist[src as usize] = 0;
    let mut q = std::collections::VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for &v in g.out_csr().neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// A tuned (non-reference) shape, so the injected fault applies to it.
fn buggy_variant() -> StaticPolicy {
    StaticPolicy::new(KernelConfig {
        format: AsFormat::SortedQueue,
        ..KernelConfig::push_baseline()
    })
}

fn path_graph(n: usize) -> Graph {
    GraphBuilder::new(n).edges((0..n as VertexId - 1).map(|i| (i, i + 1))).build()
}

#[test]
fn injected_fault_without_sentinel_corrupts_the_answer() {
    let _g = faults::exclusive();
    let g = path_graph(16);
    let app = Bfs::new(16, 0);
    arm_frontier_corruption();
    let rep = run(&g, &app, &buggy_variant(), &EngineOptions::default());
    faults::reset();
    // The path frontier is a single vertex; losing it ends the traversal
    // immediately. The run "converges" — to the wrong answer.
    assert!(rep.converged);
    assert_eq!(rep.sentinel.mismatches, 0, "sentinel was off");
    assert_eq!(app.level.load(15), u32::MAX, "fault silently truncated the traversal");
}

#[test]
fn sentinel_detects_the_fault_and_recovers_the_exact_answer() {
    let _g = faults::exclusive();
    let g = path_graph(16);
    let expected = bfs_reference(&g, 0);
    let app = Bfs::new(16, 0);
    arm_frontier_corruption();
    let rep = run(&g, &app, &buggy_variant(), &EngineOptions::default().verify_every(1));
    let fired = faults::fired(FRONTIER_CORRUPT);
    faults::reset();
    assert!(fired >= 1, "the fault never actually fired");
    // Detection on the very first corrupted iteration, in-place repair,
    // and a pinned reference run to the exact BFS levels: the reference
    // variant is never corrupted, so nothing mismatches after the pin.
    assert!(rep.converged);
    assert_eq!(rep.sentinel.mismatches, 1);
    assert_eq!(rep.sentinel.pinned_at, Some(0));
    assert_eq!(app.level.to_vec(), expected);
}

#[test]
fn sentinel_detects_within_the_configured_cadence() {
    let _g = faults::exclusive();
    let g = gen::erdos_renyi(300, 2_400, 13);
    let app = Bfs::new(300, 0);
    // Multiple sources keep the traversal alive through the lost entry,
    // so the fault damages the run without ending it before the first
    // scheduled check.
    for s in [1, 2, 3] {
        app.level.store(s, 0);
    }
    arm_frontier_corruption();
    let rep = run(&g, &app, &buggy_variant(), &EngineOptions::default().verify_every(2));
    faults::reset();
    assert!(rep.converged);
    // The fault corrupts every tuned materialization, so the first
    // scheduled check (the second standalone super-step) must catch it.
    assert_eq!(rep.sentinel.pinned_at, Some(1));
    // From the pin onward the reference shape runs fault-free: every
    // vertex the reference traversal reaches is reached here too.
    let expected = bfs_reference(&g, 0);
    for (v, (&got, &want)) in app.level.to_vec().iter().zip(&expected).enumerate() {
        if want != u32::MAX {
            assert_ne!(got, u32::MAX, "vertex {v} lost to the pre-pin fault");
        }
    }
}

#[test]
fn pinned_run_reports_sentinel_provenance() {
    let _g = faults::exclusive();
    let g = path_graph(12);
    let app = Bfs::new(12, 0);
    let ring = std::sync::Arc::new(gswitch_obs::TraceRing::new(64));
    let recorder = gswitch_core::RecorderHandle::new(ring.recorder(1, "path", "bfs"));
    arm_frontier_corruption();
    let opts = EngineOptions { recorder, ..EngineOptions::default().verify_every(1) };
    let rep = run(&g, &app, &buggy_variant(), &opts);
    faults::reset();
    assert!(rep.sentinel.pinned_at.is_some());
    let events = ring.snapshot();
    assert!(
        events.iter().any(|e| e.event.provenance == gswitch_core::Provenance::Sentinel),
        "no Sentinel-provenance trace event was recorded"
    );
}

#[test]
fn reference_shape_is_exempt_from_the_fault() {
    let _g = faults::exclusive();
    let g = path_graph(10);
    let expected = bfs_reference(&g, 0);
    let app = Bfs::new(10, 0);
    arm_frontier_corruption();
    // AutoPolicy on a path picks push baseline shapes; wherever it picks
    // exactly the reference config the fault must not apply. Run the
    // reference statically to prove the exemption end to end.
    let rep =
        run(&g, &app, &StaticPolicy::new(KernelConfig::push_baseline()), &EngineOptions::default());
    faults::reset();
    assert!(rep.converged);
    assert_eq!(app.level.to_vec(), expected, "reference run must be untouched");
}

/// Level-driven activation (the shape of BC's backward phase): vertex `v`
/// is Active in super-step `v / WIDTH`, when `prepare` stamps it, and no
/// message ever activates anything — so `refilter_hint` alone tells the
/// Inspector which vertices turn Active, and `omit` makes it lie about one.
struct Waves {
    stamped_at: AtomicArray<u32>,
    current: std::sync::atomic::AtomicU32,
    omit: Option<VertexId>,
}

const WIDTH: u32 = 4;

impl Waves {
    fn new(n: usize, omit: Option<VertexId>) -> Self {
        Waves {
            stamped_at: AtomicArray::filled(n, u32::MAX),
            current: std::sync::atomic::AtomicU32::new(0),
            omit,
        }
    }

    fn current(&self) -> u32 {
        self.current.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Run on a path under the baseline shape; returns the report and the
    /// step each vertex was stamped in.
    fn run(n: usize, omit: Option<VertexId>, opts: &EngineOptions) -> (RunReport, Vec<u32>) {
        let app = Waves::new(n, omit);
        let policy = StaticPolicy::new(KernelConfig::push_baseline());
        let rep = run(&path_graph(n), &app, &policy, opts);
        (rep, app.stamped_at.to_vec())
    }
}

impl GraphApp for Waves {
    type Msg = ();
    fn filter(&self, v: VertexId) -> Status {
        match (v / WIDTH).cmp(&self.current()) {
            std::cmp::Ordering::Less => Status::Fixed,
            std::cmp::Ordering::Equal => Status::Active,
            std::cmp::Ordering::Greater => Status::Inactive,
        }
    }
    fn prepare(&self, v: VertexId) {
        self.stamped_at.store(v, self.current());
    }
    fn emit(&self, _u: VertexId, _w: u32) {}
    fn comp_atomic(&self, _dst: VertexId, _msg: ()) -> bool {
        false
    }
    fn comp(&self, _dst: VertexId, _msg: ()) -> bool {
        false
    }
    fn advance(&self, it: u32) {
        self.current.store(it, std::sync::atomic::Ordering::Relaxed);
    }
    fn refilter_hint(&self, out: &mut Vec<VertexId>) -> bool {
        let wave = self.current() * WIDTH..(self.current() + 1) * WIDTH;
        out.extend(wave.filter(|&v| (v as usize) < self.stamped_at.len() && Some(v) != self.omit));
        true
    }
}

const WAVES_N: usize = 64;

fn waves_reference() -> Vec<u32> {
    (0..WAVES_N as u32).map(|v| v / WIDTH).collect()
}

#[test]
fn lying_hint_without_sentinel_loses_the_omitted_vertex() {
    let _g = faults::exclusive();
    let (rep, stamped) = Waves::run(WAVES_N, Some(21), &EngineOptions::default());
    assert!(rep.converged);
    assert_eq!(rep.sentinel.mismatches, 0, "sentinel was off");
    // The Inspector believed the hint: vertex 21 never turned Active.
    assert_eq!(stamped[21], u32::MAX);
}

#[test]
fn sentinel_catches_a_lying_hint_before_it_costs_the_answer() {
    let _g = faults::exclusive();
    let ring = std::sync::Arc::new(gswitch_obs::TraceRing::new(64));
    let recorder = gswitch_core::RecorderHandle::new(ring.recorder(1, "path", "waves"));
    let opts = EngineOptions { recorder, ..EngineOptions::default().verify_every(1) };
    let (rep, stamped) = Waves::run(WAVES_N, Some(21), &opts);
    assert!(rep.converged);
    // Caught in the step vertex 21 should have turned Active, before any
    // `prepare` of that step ran; that step and all later ones sweep.
    assert_eq!(rep.sentinel.mismatches, 1);
    assert_eq!(rep.sentinel.pinned_at, Some(21 / WIDTH));
    assert_eq!(stamped, waves_reference());
    let pinned: Vec<u32> = ring
        .snapshot()
        .iter()
        .filter(|e| e.event.provenance == gswitch_core::Provenance::Sentinel)
        .map(|e| e.event.iteration)
        .collect();
    assert_eq!(pinned, (21 / WIDTH..WAVES_N as u32 / WIDTH).collect::<Vec<_>>());
}

#[test]
fn honest_hint_never_trips_the_sentinel() {
    let _g = faults::exclusive();
    let (rep, stamped) = Waves::run(WAVES_N, None, &EngineOptions::default().verify_every(1));
    assert!(rep.converged);
    assert!(rep.sentinel.checks > WAVES_N as u32 / WIDTH, "the hint was never checked");
    assert_eq!(rep.sentinel.mismatches, 0);
    assert_eq!(rep.sentinel.pinned_at, None);
    assert_eq!(stamped, waves_reference());
    // The same run without the sentinel gives the same answer.
    assert_eq!(Waves::run(WAVES_N, None, &EngineOptions::default()).1, waves_reference());
}

/// BFS levels from two seeds on two paths, `0..LATE` and `LATE..BEACON_N`,
/// where the seed `LATE` stays dormant until step `WAKE`. Run fused, the
/// wave from vertex 0 is one chain from step 0 to the end of its path, and
/// the step after it is the first to classify since step 0: the vertices
/// the chain reached turned `Fixed` in between, and `LATE` turned Active
/// with the step counter. No message ever activates `LATE`, so only
/// `refilter_hint` names it; `omit` makes the hint leave it out.
struct Beacon {
    level: AtomicArray<u32>,
    pending: AtomicBitSet,
    current: std::sync::atomic::AtomicU32,
    omit: bool,
}

const BEACON_N: usize = 256;
const LATE: VertexId = 40;
const WAKE: u32 = 5;

impl Beacon {
    /// Run fused push; returns the report and the levels.
    fn run(omit: bool, opts: &EngineOptions) -> (RunReport, Vec<u32>) {
        let app = Beacon {
            level: AtomicArray::filled(BEACON_N, u32::MAX),
            pending: AtomicBitSet::new(BEACON_N),
            current: std::sync::atomic::AtomicU32::new(0),
            omit,
        };
        for seed in [0, LATE] {
            app.level.store(seed, 0);
            app.pending.set(seed);
        }
        let paths = (0..BEACON_N as VertexId - 1).filter(|&v| v + 1 != LATE).map(|v| (v, v + 1));
        let g = GraphBuilder::new(BEACON_N).edges(paths).build();
        let fused = KernelConfig { fusion: Fusion::Fused, ..KernelConfig::push_baseline() };
        let rep = run(&g, &app, &StaticPolicy::new(fused), opts);
        (rep, app.level.to_vec())
    }

    fn current(&self) -> u32 {
        self.current.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl GraphApp for Beacon {
    type Msg = u32;
    fn filter(&self, v: VertexId) -> Status {
        let awake = v != LATE || self.current() >= WAKE;
        match (self.pending.get(v), self.level.load(v)) {
            (true, _) if awake => Status::Active,
            (true, _) | (false, u32::MAX) => Status::Inactive,
            // One seed per path: a level, once relaxed, is final.
            (false, _) => Status::Fixed,
        }
    }
    fn prepare(&self, v: VertexId) {
        self.pending.unset(v);
    }
    fn emit(&self, u: VertexId, _w: u32) -> u32 {
        self.level.load(u) + 1
    }
    fn comp_atomic(&self, dst: VertexId, msg: u32) -> bool {
        let improved = self.level.fetch_min(dst, msg) > msg;
        if improved {
            self.pending.set(dst);
        }
        improved
    }
    fn comp(&self, dst: VertexId, msg: u32) -> bool {
        let improved = msg < self.level.load(dst);
        if improved {
            self.level.store(dst, msg);
            self.pending.set(dst);
        }
        improved
    }
    fn advance(&self, it: u32) {
        self.current.store(it, std::sync::atomic::Ordering::Relaxed);
    }
    fn would_tie(&self, dst: VertexId, msg: u32) -> bool {
        self.level.load(dst) == msg
    }
    fn refilter_hint(&self, out: &mut Vec<VertexId>) -> bool {
        // `LATE` wakes with the step counter while it is pending.
        if !self.omit && self.pending.get(LATE) {
            out.push(LATE);
        }
        true
    }
}

fn beacon_reference() -> Vec<u32> {
    (0..BEACON_N as VertexId).map(|v| if v < LATE { v } else { v - LATE }).collect()
}

/// The first step after the fused chain that starts at step 0.
fn post_chain_step(rep: &RunReport) -> u32 {
    let chain = rep.iterations.iter().skip(1).take_while(|t| t.estimated).count() as u32;
    assert!(chain >= WAKE, "the wave from vertex 0 should chain past step {WAKE}: {chain}");
    chain + 1
}

#[test]
fn lying_hint_after_a_fused_chain_loses_the_dormant_seed_without_the_sentinel() {
    let _g = faults::exclusive();
    let (rep, level) = Beacon::run(true, &EngineOptions::default());
    assert!(rep.converged);
    post_chain_step(&rep);
    // The post-chain step updated from the chain's activations and the
    // hint, never saw `LATE` turn Active, and the run ended there.
    assert_eq!(level[..LATE as usize], beacon_reference()[..LATE as usize]);
    assert!(level[LATE as usize + 1..].iter().all(|&l| l == u32::MAX));
}

#[test]
fn sentinel_catches_a_lying_hint_on_the_first_post_chain_step() {
    let _g = faults::exclusive();
    let (rep, level) = Beacon::run(true, &EngineOptions::default().verify_every(1));
    assert!(rep.converged);
    assert_eq!(rep.sentinel.mismatches, 1);
    assert_eq!(rep.sentinel.pinned_at, Some(post_chain_step(&rep)));
    assert_eq!(level, beacon_reference());
}

/// The proof the sentinel runs covers the whole chain: every vertex the
/// chain reached moved from `Inactive` to `Fixed` with no `comp` in the
/// last chain step reporting it.
#[test]
fn honest_hint_after_a_fused_chain_never_trips_the_sentinel() {
    let _g = faults::exclusive();
    let (rep, level) = Beacon::run(false, &EngineOptions::default().verify_every(1));
    assert!(rep.converged);
    post_chain_step(&rep);
    assert!(rep.sentinel.checks > 0);
    assert_eq!((rep.sentinel.mismatches, rep.sentinel.pinned_at), (0, None));
    assert_eq!(level, beacon_reference());
    assert_eq!(Beacon::run(false, &EngineOptions::default()).1, beacon_reference());
}
