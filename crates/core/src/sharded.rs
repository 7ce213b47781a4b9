//! Partitioned execution: K lanes of the engine's one super-step loop.
//!
//! [`run_sharded`] runs one application over a [`ShardedCsr`] — K
//! locally-renumbered shards with halo tables (`gswitch_graph::shard`) —
//! by handing `engine::drive` one lane per shard. A lane sees its
//! [`LocalShard`] through a `ShardView` that translates local vertex
//! ids to global ones and pins halo copies to `Fixed` (the owning shard
//! alone classifies, prepares and expands a vertex), and keeps its own
//! decision history, so the Selector tunes the P2 format and P3 load
//! balance per shard. P1 is pinned to push and P4/P5 off: cross-shard
//! pull and fused chains would break the exchange protocol (DESIGN §4.11).
//!
//! App state lives in one global set of atomic arrays, so a push update
//! into a halo vertex lands in the owner's data directly — the atomic
//! *is* the exchange payload. The view counts those halo hits, and each
//! super-step's barrier prices the implied frontier-exchange traffic with
//! [`DeviceSpec::exchange_time_ms`], merging duplicates first unless the
//! app is `DUP_TOLERANT`. A lane worker that panics (or is lost) surfaces
//! as a structured [`ShardError`], never a hang: the phase's other
//! workers finish, then the super-step aborts with the first failure.

use crate::cancel::{ProbeHandle, StopReason};
use crate::engine::{drive, EngineOptions, IterationTrace, Lane, LaneFailure, PatternMask};
use crate::policy::Policy;
use gswitch_graph::shard::{LocalShard, ShardedCsr};
use gswitch_graph::{VertexId, Weight};
use gswitch_kernels::exchange::ExchangeProfile;
use gswitch_kernels::pattern::{Direction, Fusion};
use gswitch_kernels::{EdgeApp, Status};
use gswitch_obs::{RecorderHandle, SpanCtx};
use gswitch_simt::{DeviceSpec, SimMs};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a sharded run could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// The app/partition combination is outside the sharded driver's
    /// contract (e.g. a priority-driven app, whose global threshold the
    /// per-shard selectors cannot coordinate).
    Unsupported(String),
    /// A shard worker panicked; the panic was contained and converted.
    WorkerPanicked {
        /// Shard whose worker died.
        shard: u32,
        /// Phase the worker died in (`"classify"` or `"exchange"`).
        phase: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A shard worker vanished without a payload (its result was
    /// dropped before the exchange barrier).
    WorkerLost {
        /// Shard whose result never arrived.
        shard: u32,
        /// Phase the result was lost in.
        phase: &'static str,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Unsupported(why) => write!(f, "sharded execution unsupported: {why}"),
            ShardError::WorkerPanicked { shard, phase, message } => {
                write!(f, "shard {shard} worker panicked during {phase}: {message}")
            }
            ShardError::WorkerLost { shard, phase } => {
                write!(f, "shard {shard} worker lost during {phase}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Options for [`run_sharded`] — the sharded analogue of
/// [`EngineOptions`].
#[derive(Clone, Debug)]
pub struct ShardedOptions {
    /// The simulated GPU each shard occupies (one device per shard).
    pub device: DeviceSpec,
    /// Safety bound on super-steps.
    pub max_supersteps: u32,
    /// Decision-trace sink; events carry `shard: Some(id)`.
    pub recorder: RecorderHandle,
    /// Cooperative stop probe, polled at every super-step barrier.
    pub probe: ProbeHandle,
    /// Span context. Per-shard inspect/expand phases run on worker
    /// threads and record spans tagged `shard: Some(id)` under each
    /// BSP super-step; host decision time is measured through its
    /// clock whether or not spans are collected.
    pub spans: SpanCtx,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            device: DeviceSpec::default(),
            max_supersteps: 50_000,
            recorder: RecorderHandle::none(),
            probe: ProbeHandle::none(),
            spans: SpanCtx::default(),
        }
    }
}

impl ShardedOptions {
    /// Options on a specific device.
    pub fn on(device: DeviceSpec) -> Self {
        ShardedOptions { device, ..Default::default() }
    }

    /// The sharded pins as inputs to the one loop: the patterns that
    /// would break the exchange protocol masked off. The rest rides on
    /// the lane's app type (`ShardView`: not priority-driven, no rescue)
    /// and on defaults — the per-shard stability bypass, no seed, and no
    /// sentinel (its serial sweep would cross shard borders).
    fn engine_options(&self) -> EngineOptions {
        let mask = PatternMask {
            direction: false, // push only: halo rows are empty in the local out-CSR
            stepping: false,  // no global priority window across shards
            fusion: false,    // a fused chain would skip the exchange barrier
            ..PatternMask::all()
        };
        EngineOptions {
            device: self.device.clone(),
            max_iterations: self.max_supersteps,
            mask,
            recorder: self.recorder.clone(),
            probe: self.probe.clone(),
            spans: self.spans.clone(),
            ..EngineOptions::default()
        }
    }
}

/// One bulk-synchronous super-step of a sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuperStep {
    /// Super-step index (0-based).
    pub iteration: u32,
    /// Simulated Filter time: the *slowest* shard's classify +
    /// materialize (shards run on parallel devices).
    pub filter_ms: SimMs,
    /// Simulated Expand time: the slowest shard's expand.
    pub expand_ms: SimMs,
    /// Simulated frontier-exchange time for the routed halo records.
    pub exchange_ms: SimMs,
    /// Host decision time across all shards.
    pub overhead_ms: f64,
    /// Exchange volume accounting for this step.
    pub exchange: ExchangeProfile,
    /// Active vertices across all shards.
    pub active: u64,
    /// Edges traversed across all shards.
    pub edges_touched: u64,
}

/// The result of a sharded run.
#[derive(Clone, Debug, Default)]
pub struct ShardedRunReport {
    /// Number of shards that ran.
    pub k: u32,
    /// Per-super-step traces in order.
    pub supersteps: Vec<SuperStep>,
    /// Whether the global active set emptied before `max_supersteps`.
    pub converged: bool,
    /// `Some` when the probe stopped the run early.
    pub stopped: Option<StopReason>,
    /// Per-shard total busy time (filter + expand), for imbalance.
    pub shard_busy_ms: Vec<f64>,
}

impl ShardedRunReport {
    /// Super-steps executed.
    pub fn n_supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Total critical-path Filter time (ms).
    pub fn filter_ms(&self) -> SimMs {
        self.supersteps.iter().map(|s| s.filter_ms).sum()
    }

    /// Total critical-path Expand time (ms).
    pub fn expand_ms(&self) -> SimMs {
        self.supersteps.iter().map(|s| s.expand_ms).sum()
    }

    /// Total frontier-exchange time (ms).
    pub fn exchange_ms(&self) -> SimMs {
        self.supersteps.iter().map(|s| s.exchange_ms).sum()
    }

    /// Total host overhead (ms).
    pub fn overhead_ms(&self) -> f64 {
        self.supersteps.iter().map(|s| s.overhead_ms).sum()
    }

    /// End-to-end simulated time: per-step critical path + exchange +
    /// host overhead.
    pub fn total_ms(&self) -> SimMs {
        self.filter_ms() + self.expand_ms() + self.exchange_ms() + self.overhead_ms()
    }

    /// Total edges traversed across shards.
    pub fn edges_touched(&self) -> u64 {
        self.supersteps.iter().map(|s| s.edges_touched).sum()
    }

    /// Aggregate exchange volume over the whole run.
    pub fn exchange_total(&self) -> ExchangeProfile {
        let mut total = ExchangeProfile::default();
        for s in &self.supersteps {
            total.absorb(&s.exchange);
        }
        total
    }

    /// Work imbalance across shards: the busiest shard's total busy time
    /// over the average (1.0 = perfectly balanced; 0.0 on an idle run).
    pub fn imbalance(&self) -> f64 {
        let total: f64 = self.shard_busy_ms.iter().sum();
        if self.shard_busy_ms.is_empty() || total == 0.0 {
            return 0.0;
        }
        let max = self.shard_busy_ms.iter().cloned().fold(0.0, f64::max);
        max / (total / self.shard_busy_ms.len() as f64)
    }
}

/// The per-shard adapter: presents one [`LocalShard`] to the kernels as
/// a self-contained graph application while every semantic call lands in
/// the *global* app. Halo copies classify as `Fixed` (their owner alone
/// drives them) and halo-directed updates count as exchange records.
///
/// The K views of a run sit side by side in one `Vec` while pool threads
/// run their lanes concurrently, so each is aligned to a cache-line pair
/// of its own (adjacent-line prefetch included): one lane's counter never
/// shares a line with its neighbour's.
#[repr(align(128))]
struct ShardView<'a, A: EdgeApp> {
    app: &'a A,
    shard: &'a LocalShard,
    /// Comp attempts whose destination is a halo copy — the records the
    /// exchange step must route to owners. Attempts, not successes: a
    /// shard cannot know remotely whether its update will win against a
    /// concurrent owner-side write, so every boundary-crossing message
    /// is routed (this also keeps the count deterministic run to run,
    /// which the `BENCH_shard.json` snapshot relies on).
    ///
    /// Counted per vertex, not per edge: a lane is pinned to standalone
    /// push, which expands the whole out-row of every Active owned vertex
    /// exactly once per super-step, so the step's attempts are exactly
    /// Σ `cut_degree(v)` over the Active vertices — added in `prepare`,
    /// which the Filter runs once per Active vertex.
    halo_records: AtomicU64,
    /// Distinct halo destinations this super-step.
    halo_seen: gswitch_kernels::atomics::AtomicBitSet,
}

impl<'a, A: EdgeApp> ShardView<'a, A> {
    fn new(app: &'a A, shard: &'a LocalShard) -> Self {
        ShardView {
            app,
            shard,
            halo_records: AtomicU64::new(0),
            halo_seen: gswitch_kernels::atomics::AtomicBitSet::new(shard.n_halo()),
        }
    }

    #[inline]
    fn global(&self, local: VertexId) -> VertexId {
        self.shard.to_global(local)
    }

    /// Drain this super-step's exchange counters into a routed profile.
    fn take_exchange(&self) -> ExchangeProfile {
        let records = self.halo_records.swap(0, Ordering::Relaxed);
        let distinct = self.halo_seen.count() as u64;
        self.halo_seen.clear();
        let payload = std::mem::size_of::<A::Msg>() as u32;
        ExchangeProfile::for_app(records, distinct, A::DUP_TOLERANT, payload)
    }
}

impl<A: EdgeApp> EdgeApp for ShardView<'_, A> {
    type Msg = A::Msg;

    const PULL_EARLY_EXIT: bool = A::PULL_EARLY_EXIT;
    const DUP_TOLERANT: bool = A::DUP_TOLERANT;
    const NEEDS_WEIGHTS: bool = A::NEEDS_WEIGHTS;
    // PRIORITY_DRIVEN stays at its default (false): the driver rejects
    // priority-driven apps up front, and its mask pins stepping off.

    fn filter(&self, v: VertexId) -> Status {
        if self.shard.is_halo(v) {
            // The owner classifies (and prepares) the real vertex; the
            // halo copy is inert in this shard.
            Status::Fixed
        } else {
            self.app.filter(self.global(v))
        }
    }

    fn prepare(&self, v: VertexId) {
        // This step's Expand will send one record down each cut edge of
        // `v`; an interior vertex sends none and skips the locked add.
        let cut = self.shard.cut_degree(v);
        if cut > 0 {
            self.halo_records.fetch_add(u64::from(cut), Ordering::Relaxed);
        }
        self.app.prepare(self.global(v));
    }

    fn emit(&self, u: VertexId, w: Weight) -> A::Msg {
        self.app.emit(self.global(u), w)
    }

    fn comp_atomic(&self, dst: VertexId, msg: A::Msg) -> bool {
        if self.shard.is_halo(dst) {
            // The atomic below delivers the update to the owner's data
            // directly; what remains is the routing cost — charged per
            // attempt (`prepare` counted this edge), because a real shard
            // must send the message before knowing whether it wins at the
            // owner. Only the first record to a destination writes here.
            self.halo_seen.set(dst - self.shard.n_owned() as VertexId);
        }
        self.app.comp_atomic(self.global(dst), msg)
    }

    fn comp(&self, dst: VertexId, msg: A::Msg) -> bool {
        self.app.comp(self.global(dst), msg)
    }

    // No-op: the driver advances the global app once per super-step;
    // K per-shard calls would skip levels.
    fn advance(&self, _iteration: u32) {}

    fn pull_receives(status: Status) -> bool {
        A::pull_receives(status)
    }

    fn would_tie(&self, dst: VertexId, msg: A::Msg) -> bool {
        self.app.would_tie(self.global(dst), msg)
    }

    // rescue() deliberately not forwarded: convergence is a global
    // property the driver owns; a per-shard rescue could resurrect one
    // shard while the barrier believes the run has drained.
}

/// Every lane is a shard worker here: its contained failure is structured.
impl From<LaneFailure> for ShardError {
    fn from(LaneFailure { lane: shard, phase, payload }: LaneFailure) -> Self {
        let Some(p) = payload else { return ShardError::WorkerLost { shard, phase } };
        let message = match p.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map_or("opaque panic payload", |s| s).to_string(),
        };
        ShardError::WorkerPanicked { shard, phase, message }
    }
}

/// Run `app` over the partitioned graph until global convergence.
///
/// Semantics match the single-graph engine exactly for push-mode apps —
/// it is the same loop: one global app instance, barriers between
/// classify and expand, `advance` called once per super-step, `prepare`
/// exactly once per active vertex (its owner's classify). Priority-driven
/// apps are rejected — their stepping window is global state the
/// per-shard selectors cannot coordinate.
pub fn run_sharded<A: EdgeApp>(
    sharded: &ShardedCsr,
    app: &A,
    policy: &dyn Policy,
    opts: &ShardedOptions,
) -> Result<ShardedRunReport, ShardError> {
    if A::PRIORITY_DRIVEN {
        return Err(ShardError::Unsupported(
            "priority-driven apps need a global stepping window; run them single-shard".into(),
        ));
    }
    let k = sharded.k();
    let views: Vec<ShardView<'_, A>> =
        sharded.shards().iter().map(|sh| ShardView::new(app, sh)).collect();
    let mut lanes: Vec<_> = (0..k)
        .zip(&views)
        .map(|(s, v)| {
            Lane::new(
                v.shard.graph(),
                v,
                &opts.device,
                Some(s),
                opts.spans.collector().local(s, opts.spans.job),
            )
        })
        .collect();
    let mut report =
        ShardedRunReport { k, shard_busy_ms: vec![0.0; k as usize], ..Default::default() };

    let sink = &mut |traces: &mut Vec<IterationTrace>, overhead_ms| {
        // The per-vertex exchange count holds only where every Active
        // vertex's whole row is pushed exactly once: pull sends nothing
        // down a cut edge, a fused chain re-`prepare`s queue entries.
        debug_assert!(
            traces.iter().all(|t| {
                let c = t.config;
                !t.estimated && c.direction == Direction::Push && c.fusion == Fusion::Standalone
            }),
            "a sharded lane ran a shape its exchange accounting does not price"
        );
        // The barrier: settle every lane's halo records. Shards are
        // parallel devices, so the step's filter/expand is the slowest
        // shard's; each shard's own busy time feeds the imbalance metric.
        let mut ss = SuperStep {
            iteration: report.supersteps.len() as u32,
            overhead_ms,
            active: traces.iter().map(|t| t.stats.v_active).sum(),
            ..SuperStep::default()
        };
        for ((view, busy_ms), t) in views.iter().zip(&mut report.shard_busy_ms).zip(traces.iter()) {
            ss.exchange.absorb(&view.take_exchange());
            ss.filter_ms = ss.filter_ms.max(t.filter_ms);
            ss.expand_ms = ss.expand_ms.max(t.expand_ms);
            ss.edges_touched += t.edges_touched;
            *busy_ms += t.filter_ms + t.expand_ms;
        }
        // Routed records cross the interconnect to k-1 peers.
        ss.exchange_ms = opts.device.exchange_time_ms(ss.exchange.bytes(), k.saturating_sub(1));
        report.supersteps.push(ss);
    };
    (report.converged, report.stopped) =
        drive(app, &mut lanes, policy, &opts.engine_options(), None, sink)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{Bfs, Stepped};
    use crate::engine::{run, EngineOptions};
    use crate::policy::{AutoPolicy, StaticPolicy};
    use gswitch_graph::{gen, Graph, GraphBuilder};
    use gswitch_kernels::pattern::{KernelConfig, SteppingDelta};
    use gswitch_obs::TraceRing;
    use std::sync::Arc;

    /// A panicking app, to prove worker isolation.
    struct Bomb;
    impl EdgeApp for Bomb {
        type Msg = u32;
        fn filter(&self, v: VertexId) -> Status {
            if v == 3 {
                panic!("boom at vertex 3");
            }
            Status::Active
        }
        fn emit(&self, _u: VertexId, _w: u32) -> u32 {
            0
        }
        fn comp_atomic(&self, _d: VertexId, _m: u32) -> bool {
            false
        }
        fn comp(&self, _d: VertexId, _m: u32) -> bool {
            false
        }
    }

    fn sharded_levels(g: &Graph, k: u32, src: VertexId) -> (Vec<u32>, ShardedRunReport) {
        let sharded = ShardedCsr::partition(g, k).expect("partition");
        let app = Bfs::new(g.num_vertices(), src);
        let rep = run_sharded(&sharded, &app, &AutoPolicy, &ShardedOptions::default())
            .expect("sharded run");
        (app.level.to_vec(), rep)
    }

    fn single_levels(g: &Graph, src: VertexId) -> Vec<u32> {
        let app = Bfs::new(g.num_vertices(), src);
        let rep = run(g, &app, &AutoPolicy, &EngineOptions::default());
        assert!(rep.converged);
        app.level.to_vec()
    }

    #[test]
    fn one_shard_matches_single_engine() {
        let g = gen::erdos_renyi(400, 1_600, 11);
        let expected = single_levels(&g, 0);
        let (levels, rep) = sharded_levels(&g, 1, 0);
        assert!(rep.converged);
        assert_eq!(levels, expected);
        // One shard has no peers: zero exchange.
        assert_eq!(rep.exchange_total().records, 0);
        assert_eq!(rep.exchange_ms(), 0.0);
    }

    #[test]
    fn multi_shard_bfs_bit_matches_single_shard() {
        for (graph, src) in [
            (gen::erdos_renyi(500, 2_000, 3), 0u32),
            (gen::kronecker(9, 8, 7), 0u32),
            (gen::grid2d(25, 25, 0.0, 5), 17u32),
        ] {
            let expected = single_levels(&graph, src);
            for k in [2u32, 4, 8] {
                let (levels, rep) = sharded_levels(&graph, k, src);
                assert!(rep.converged, "k={k} did not converge");
                assert_eq!(levels, expected, "k={k} diverged on {}", graph.name());
            }
        }
    }

    #[test]
    fn exchange_is_counted_and_priced() {
        // A path crossing shard boundaries guarantees halo traffic.
        let g = GraphBuilder::new(64).edges((0..63u32).map(|i| (i, i + 1))).build();
        let (_, rep) = sharded_levels(&g, 4, 0);
        let total = rep.exchange_total();
        assert!(total.records > 0, "boundary-crossing BFS produced no exchange records");
        assert!(total.bytes() > 0);
        assert!(rep.exchange_ms() > 0.0);
        // BFS is DUP_TOLERANT: everything routes.
        assert_eq!(total.routed, total.records);
    }

    #[test]
    fn sharded_trace_events_carry_shard_ids() {
        let g = gen::erdos_renyi(300, 1_200, 5);
        let sharded = ShardedCsr::partition(&g, 3).expect("partition");
        let app = Bfs::new(g.num_vertices(), 0);
        let ring = Arc::new(TraceRing::new(4096));
        let opts = ShardedOptions {
            recorder: RecorderHandle::new(ring.recorder(1, "er", "bfs")),
            ..Default::default()
        };
        let rep = run_sharded(&sharded, &app, &AutoPolicy, &opts).expect("run");
        assert!(rep.converged);
        let events = ring.snapshot();
        assert!(!events.is_empty());
        let mut shards_seen: Vec<u32> = events.iter().filter_map(|e| e.event.shard).collect();
        shards_seen.sort_unstable();
        shards_seen.dedup();
        assert_eq!(shards_seen, vec![0, 1, 2]);
        // Pinned patterns hold in every event.
        for e in &events {
            assert_eq!(e.event.config.direction, Direction::Push);
            assert_eq!(e.event.config.fusion, Fusion::Standalone);
            assert_eq!(e.event.config.stepping, SteppingDelta::Remain);
        }
    }

    #[test]
    fn sharded_run_emits_per_shard_spans() {
        use gswitch_obs::{profile, SpanCtx, SpanRing};
        let g = gen::erdos_renyi(300, 1_200, 5);
        let sharded = ShardedCsr::partition(&g, 3).expect("partition");
        let app = Bfs::new(g.num_vertices(), 0);
        let ring = Arc::new(SpanRing::new(8192));
        let parent = ring.alloc_id();
        let opts = ShardedOptions {
            spans: SpanCtx::new(ring.collector(), parent, 9, 42),
            ..Default::default()
        };
        let rep = run_sharded(&sharded, &app, &AutoPolicy, &opts).expect("run");
        assert!(rep.converged);
        let spans = ring.snapshot();
        assert_eq!(ring.dropped(), 0);

        // One SuperStep per executed superstep (+1: the final iteration
        // opens a span, detects convergence, and pushes no report step),
        // all under the caller's parent.
        let steps: Vec<_> =
            spans.iter().filter(|s| s.kind == gswitch_obs::SpanKind::SuperStep).collect();
        assert_eq!(steps.len(), rep.n_supersteps() + 1);
        let step_ids: std::collections::BTreeSet<u64> = steps
            .iter()
            .map(|s| {
                assert_eq!(s.parent, parent);
                assert_eq!(s.job, 42);
                s.id
            })
            .collect();

        // Every lane phase is a per-shard child of its super-step, emitted
        // by the shared step code; every shard shows up under every kind.
        use gswitch_obs::SpanKind::{Exchange, Expand, Filter, Inspect, Partition};
        let mut seen = std::collections::BTreeSet::new();
        for s in &spans {
            if [Inspect, Filter, Partition, Expand].contains(&s.kind) {
                assert!(step_ids.contains(&s.parent));
                seen.insert((s.kind.as_str(), s.shard.expect("lane span missing shard")));
            } else if s.kind == Exchange {
                assert!(step_ids.contains(&s.parent));
                assert_eq!(s.shard, None, "one exchange per step, not per shard");
            }
        }
        assert_eq!(seen.len(), 4 * 3, "{seen:?}");
        let n = |k| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(n(Exchange), rep.n_supersteps());
        assert_eq!(n(Filter), n(Expand));
        assert_eq!(n(Partition), n(Expand));

        // Self-time accounting never exceeds root wall time.
        let p = profile(&spans);
        assert!(p.excl_total_ms() <= p.total_ms + 1e-9);
    }

    #[test]
    fn worker_panic_becomes_structured_error() {
        let g = GraphBuilder::new(8).edges([(0, 1), (2, 3), (4, 5), (6, 7)]).build();
        let sharded = ShardedCsr::partition(&g, 2).expect("partition");
        let err = run_sharded(&sharded, &Bomb, &AutoPolicy, &ShardedOptions::default())
            .expect_err("bomb must fail");
        match err {
            ShardError::WorkerPanicked { phase, message, .. } => {
                assert_eq!(phase, "classify");
                assert!(message.contains("boom"), "payload lost: {message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn single_lane_panic_is_contained_sharded_and_reraised_unsharded() {
        let g = GraphBuilder::new(8).edges([(0, 1), (2, 3), (4, 5), (6, 7)]).build();
        // K = 1 runs inline (no spawn) but keeps the structured error...
        let sharded = ShardedCsr::partition(&g, 1).expect("partition");
        let err = run_sharded(&sharded, &Bomb, &AutoPolicy, &ShardedOptions::default())
            .expect_err("bomb must fail");
        assert!(
            matches!(&err, ShardError::WorkerPanicked { shard: 0, phase: "classify", message }
                if message.contains("boom")),
            "{err:?}"
        );
        // ...while `run` hands the caller its own panic, payload intact.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&g, &Bomb, &AutoPolicy, &EngineOptions::default());
        }));
        let payload = unwound.expect_err("bomb must unwind through run");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom at vertex 3"));
    }

    #[test]
    fn stepping_apps_are_rejected() {
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2)]).build();
        let sharded = ShardedCsr::partition(&g, 2).expect("partition");
        let err = run_sharded(&sharded, &Stepped, &AutoPolicy, &ShardedOptions::default())
            .expect_err("priority-driven must be rejected");
        assert!(matches!(err, ShardError::Unsupported(_)));
        assert!(err.to_string().contains("priority-driven"));
    }

    #[test]
    fn probe_stops_sharded_run() {
        use crate::cancel::{RunProbe, StopReason};
        struct StopAt(u32);
        impl RunProbe for StopAt {
            fn check(&self, iteration: u32) -> Option<StopReason> {
                (iteration >= self.0).then_some(StopReason::DeadlineExceeded)
            }
        }
        let g = gen::grid2d(30, 30, 0.0, 2);
        let sharded = ShardedCsr::partition(&g, 2).expect("partition");
        let app = Bfs::new(g.num_vertices(), 0);
        let opts =
            ShardedOptions { probe: ProbeHandle::new(Arc::new(StopAt(2))), ..Default::default() };
        let rep = run_sharded(&sharded, &app, &AutoPolicy, &opts).expect("run");
        assert_eq!(rep.stopped, Some(StopReason::DeadlineExceeded));
        assert!(!rep.converged);
        assert_eq!(rep.n_supersteps(), 2);
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let g = gen::kronecker(8, 8, 13);
        let (_, rep) = sharded_levels(&g, 4, 0);
        let sum: f64 = rep
            .supersteps
            .iter()
            .map(|s| s.filter_ms + s.expand_ms + s.exchange_ms + s.overhead_ms)
            .sum();
        assert!((rep.total_ms() - sum).abs() < 1e-9);
        assert_eq!(rep.shard_busy_ms.len(), 4);
        let imb = rep.imbalance();
        assert!(imb >= 1.0, "busiest/avg must be >= 1, got {imb}");
    }

    #[test]
    fn pins_hold_against_a_policy_asking_for_pull_and_fusion() {
        // The per-vertex exchange count is only right for standalone push;
        // the barrier asserts that shape on every step (debug builds), so a
        // policy that wants otherwise must come out as the pinned baseline.
        let g = gen::erdos_renyi(300, 1_500, 2);
        let sharded = ShardedCsr::partition(&g, 4).expect("partition");
        let run_under = |cfg| {
            let app = Bfs::new(g.num_vertices(), 0);
            let rep =
                run_sharded(&sharded, &app, &StaticPolicy::new(cfg), &ShardedOptions::default())
                    .expect("run");
            assert!(rep.converged);
            assert_eq!(app.level.to_vec(), single_levels(&g, 0));
            rep.supersteps.iter().map(|s| s.exchange).collect::<Vec<_>>()
        };
        let baseline = KernelConfig::push_baseline();
        let unpinned =
            KernelConfig { direction: Direction::Pull, fusion: Fusion::Fused, ..baseline };
        assert_eq!(run_under(unpinned), run_under(baseline));
    }

    #[test]
    fn static_policy_is_honored_per_shard() {
        let g = gen::erdos_renyi(300, 1_500, 2);
        let sharded = ShardedCsr::partition(&g, 2).expect("partition");
        let app = Bfs::new(g.num_vertices(), 0);
        let pinned = KernelConfig::push_baseline();
        let rep =
            run_sharded(&sharded, &app, &StaticPolicy::new(pinned), &ShardedOptions::default())
                .expect("run");
        assert!(rep.converged);
        assert_eq!(app.level.to_vec(), single_levels(&g, 0));
    }
}
