//! The Inspector → Selector → Executor loop (Fig. 10).

use crate::cancel::{ProbeHandle, StopReason};
use crate::features::History;
use crate::policy::{Lookahead, Policy};
use gswitch_graph::Graph;
use gswitch_graph::VertexId;
use gswitch_kernels::bucket::{DegreeSource, WorkPlan};
use gswitch_kernels::filter::status_of;
pub use gswitch_kernels::pattern::PatternMask;
use gswitch_kernels::pattern::{AppCaps, Direction, KernelConfig, SteppingDelta};
use gswitch_kernels::{
    expand_planned, Classification, EdgeApp, ExpandOutput, Frontier, IterStats, Status,
};
use gswitch_obs::{faults, LocalSpans, Provenance, RecorderHandle, SpanCtx, SpanKind, TraceEvent};
use gswitch_simt::{DeviceSpec, SimMs};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Fault-injection sites the super-step loop fires through
/// [`gswitch_obs::faults`] — inlined no-ops unless the `fault-injection`
/// feature is on. Each is fired with the lane's shard as its argument, so
/// `Schedule::only(shard)` picks the lane.
pub mod fault_site {
    /// A sharded lane's Selector → Executor half, before any work: a
    /// `Panic` here is a shard worker dying at the exchange step.
    pub const SHARD_PANIC: &str = "shard::panic";
    /// The exchange barrier, per collected sharded lane: a firing loses
    /// that lane's result.
    pub const SHARD_DROP: &str = "shard::drop";
    /// After a lane (shard 0 for a whole-graph run) materializes a
    /// frontier in any shape but the reference one: a firing silently
    /// drops one workload entry — the buggy tuned variant the divergence
    /// sentinel exists to catch. The reference shape is exempt, so the
    /// sentinel's pinned fallback genuinely recovers.
    pub const FRONTIER_CORRUPT: &str = "frontier::corrupt";
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// The simulated GPU.
    pub device: DeviceSpec,
    /// Safety bound on super-steps.
    pub max_iterations: u32,
    /// Pattern ablation mask.
    pub mask: PatternMask,
    /// Enable the "is stable? → bypass the decision making" fast path of
    /// Fig. 10.
    pub stability_bypass: bool,
    /// Allow the executor to break an unprofitable fused chain (the
    /// paper's switch-back rule). Disable only to study the *pure* fused
    /// candidate, as Fig. 9 does.
    pub break_fused_chains: bool,
    /// Decision-trace sink. Off by default; when off the loop pays one
    /// `Option` check per iteration and builds no event.
    pub recorder: RecorderHandle,
    /// Cooperative stop probe, polled at the top of every super-step.
    /// None by default (the run cannot be interrupted); a serving
    /// scheduler installs a [`CancelToken`](crate::CancelToken) so
    /// deadlines and cancellations take effect mid-run.
    pub probe: ProbeHandle,
    /// Divergence-sentinel cadence: every `n` super-steps the engine
    /// cross-checks the chosen variant's frontier (and, for
    /// duplicate-tolerant apps, its vertex values) against a serial
    /// re-derivation from the classification snapshot. On a mismatch
    /// the run records a [`Provenance::Sentinel`] trace event, counts it
    /// in [`RunReport::sentinel`], repairs the damage and pins the rest
    /// of the run to the reference (push-baseline) variant. `0` (the
    /// default) disables the sentinel; the checks run on the host and
    /// are priced at zero simulated cost.
    pub verify_every: u32,
    /// Span context: where host wall time goes. Off by default (one
    /// `Option` check per span site); the serving runtime installs a
    /// collector so super-steps and their inspect/select/filter/expand
    /// phases appear in `gswitch-trace --timeline`. Its clock is also
    /// the engine's only wall-time source — host overhead is measured
    /// through it whether or not spans are collected.
    pub spans: SpanCtx,
    /// Warm start from a previously tuned configuration. When `Some`,
    /// the first super-step executes the seed (legalised like any
    /// decision) instead of consulting the policy, and the decision
    /// history is primed as if the seed had already run a stable streak
    /// — so the Fig. 10 stability bypass can keep it from the second
    /// iteration on. The policy regains control the moment the expand
    /// time drifts, exactly as it would after any stable phase; a stale
    /// seed therefore costs at most one mis-configured super-step. The
    /// configuration to cache comes from [`RunReport::dominant_config`].
    pub seed: Option<KernelConfig>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            device: DeviceSpec::default(),
            max_iterations: 50_000,
            mask: PatternMask::all(),
            stability_bypass: true,
            break_fused_chains: true,
            recorder: RecorderHandle::none(),
            probe: ProbeHandle::none(),
            verify_every: 0,
            spans: SpanCtx::default(),
            seed: None,
        }
    }
}

impl EngineOptions {
    /// Options on a specific device.
    pub fn on(device: DeviceSpec) -> Self {
        EngineOptions { device, ..Default::default() }
    }

    /// Enable the divergence sentinel every `n` super-steps (0 = off).
    pub fn verify_every(mut self, n: u32) -> Self {
        self.verify_every = n;
        self
    }
}

/// Everything one super-step did — the raw material for every figure in
/// the evaluation.
#[derive(Clone, Debug)]
pub struct IterationTrace {
    /// Super-step index (0-based).
    pub iteration: u32,
    /// The configuration the Executor ran.
    pub config: KernelConfig,
    /// Whether the Selector actually ran (false = stability bypass or
    /// fused chain).
    pub decided: bool,
    /// Whether `stats` are estimates from Expand feedback (fused chain)
    /// rather than a classification pass.
    pub estimated: bool,
    /// Runtime characteristics the Selector saw.
    pub stats: IterStats,
    /// Simulated Filter time (classify + materialize), ms. Zero inside a
    /// fused chain.
    pub filter_ms: SimMs,
    /// Simulated Expand time, ms.
    pub expand_ms: SimMs,
    /// Autotuner overhead: measured host-side decision time plus the
    /// simulated device→host feedback copy, ms.
    pub overhead_ms: f64,
    /// Successful comp events.
    pub activations: u64,
    /// Distinct vertices activated.
    pub distinct_activated: u64,
    /// Comp attempts that tied an already-claimed value — what a fused
    /// kernel would have enqueued anyway.
    pub ties: u64,
    /// Edges traversed by Expand.
    pub edges_touched: u64,
    /// Duplicate frontier entries produced (fused only).
    pub duplicates: u64,
    /// The 21-entry feature vector presented to the Selector.
    pub features: [f64; gswitch_ml::FEATURE_COUNT],
}

/// What the divergence sentinel saw (all zero when it was off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SentinelReport {
    /// Cross-checks performed.
    pub checks: u32,
    /// Mismatches detected. This is the only count of them; a serving
    /// scheduler adds it to its `sentinel_mismatch` counter.
    pub mismatches: u32,
    /// Iteration at which the run was pinned to the reference variant,
    /// if a mismatch ever fired.
    pub pinned_at: Option<u32>,
}

impl SentinelReport {
    /// A tuned shortcut diverged at `iteration`: count it, pin the run.
    fn mismatch(&mut self, iteration: u32) {
        self.mismatches += 1;
        self.pinned_at.get_or_insert(iteration);
    }
}

/// The result of running an application to convergence.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-iteration traces in order.
    pub iterations: Vec<IterationTrace>,
    /// Whether the active set emptied before `max_iterations`.
    pub converged: bool,
    /// `Some` when the probe stopped the run early (never converged).
    pub stopped: Option<StopReason>,
    /// Divergence-sentinel outcome (`EngineOptions::verify_every`).
    pub sentinel: SentinelReport,
}

impl RunReport {
    /// Number of super-steps executed.
    pub fn n_iterations(&self) -> usize {
        self.iterations.len()
    }

    /// Total simulated Filter time (ms).
    pub fn filter_ms(&self) -> SimMs {
        self.iterations.iter().map(|t| t.filter_ms).sum()
    }

    /// Total simulated Expand time (ms).
    pub fn expand_ms(&self) -> SimMs {
        self.iterations.iter().map(|t| t.expand_ms).sum()
    }

    /// Total tuning overhead (ms).
    pub fn overhead_ms(&self) -> f64 {
        self.iterations.iter().map(|t| t.overhead_ms).sum()
    }

    /// Total runtime including overhead (ms) — the number every paper
    /// table reports.
    pub fn total_ms(&self) -> SimMs {
        self.filter_ms() + self.expand_ms() + self.overhead_ms()
    }

    /// Total edges traversed (work-efficiency metric of Fig. 8).
    pub fn edges_touched(&self) -> u64 {
        self.iterations.iter().map(|t| t.edges_touched).sum()
    }

    /// How many iterations actually consulted the Selector.
    pub fn decisions_made(&self) -> usize {
        self.iterations.iter().filter(|t| t.decided).count()
    }

    /// The configuration that ran the most super-steps — what a
    /// tuned-config cache should remember as "the" tuned configuration
    /// for this (graph, algorithm) pair. Ties break toward the config
    /// that reached the count first.
    pub fn dominant_config(&self) -> Option<KernelConfig> {
        let mut counts: Vec<(KernelConfig, usize)> = Vec::new();
        for t in &self.iterations {
            match counts.iter_mut().find(|(c, _)| *c == t.config) {
                Some((_, n)) => *n += 1,
                None => counts.push((t.config, 1)),
            }
        }
        counts.into_iter().max_by_key(|&(_, n)| n).map(|(c, _)| c)
    }
}

/// Run `app` on `g` under `policy` until convergence, warm-started from
/// [`EngineOptions::seed`] when it is set.
///
/// ```
/// use gswitch_core::{run, AutoPolicy, EngineOptions};
/// use gswitch_graph::gen;
///
/// // Autotuned connected components on a generated graph.
/// let g = gen::erdos_renyi(500, 1_000, 7);
/// let app = /* any EdgeApp; algorithms live in gswitch-algos */
/// # {
/// #     use gswitch_core::{GraphApp, Status};
/// #     use gswitch_kernels::atomics::AtomicArray;
/// #     struct Noop(AtomicArray<u32>);
/// #     impl GraphApp for Noop {
/// #         type Msg = u32;
/// #         fn filter(&self, _v: u32) -> Status { Status::Fixed }
/// #         fn emit(&self, _u: u32, _w: u32) -> u32 { 0 }
/// #         fn comp_atomic(&self, _d: u32, _m: u32) -> bool { false }
/// #         fn comp(&self, _d: u32, _m: u32) -> bool { false }
/// #     }
/// #     Noop(AtomicArray::filled(500, 0))
/// # };
/// let report = run(&g, &app, &AutoPolicy, &EngineOptions::default());
/// assert!(report.converged);
/// ```
pub fn run<A: EdgeApp>(g: &Graph, app: &A, policy: &dyn Policy, opts: &EngineOptions) -> RunReport {
    // One lane — the whole graph, the app itself: phases run inline on
    // this thread (so a lane's panic is re-raised as the caller's own) and
    // there is nothing to exchange.
    let mut lanes = [Lane::new(g, app, &opts.device, None, opts.spans.local())];
    let mut report = RunReport::default();
    let end = drive(app, &mut lanes, policy, opts, &mut |t, _| report.iterations.append(t));
    (report.converged, report.stopped) = end.unwrap_or_else(|f| {
        resume_unwind(f.payload.unwrap_or_else(|| Box::new("engine lane lost")))
    });
    report.sentinel = lanes[0].sentinel;
    report
}

/// What is fixed for a whole run; `reference` is the shape every app can
/// run (what the divergence sentinel pins to), legalised like the seed.
struct RunEnv<'a> {
    policy: &'a dyn Policy,
    caps: AppCaps,
    opts: &'a EngineOptions,
    seed: Option<KernelConfig>,
    reference: KernelConfig,
}

/// One simulated device's view of a run — the whole [`Graph`] with the
/// app itself ([`run`]) or a `LocalShard` behind its `ShardView`
/// (`run_sharded`) — and all the loop remembers about it between steps.
/// Pool threads write neighbouring lanes of one slice concurrently, so a
/// lane starts on a cache-line pair of its own.
#[repr(align(128))]
pub(crate) struct Lane<'a, L: EdgeApp> {
    g: &'a Graph,
    app: &'a L,
    /// Span and trace tag; `None` for the single whole-graph lane.
    shard: Option<u32>,
    /// Where this lane's phase spans stage (phases may run on a worker).
    spans: LocalSpans,
    /// Decision context + Table 1's historical block.
    hist: History,
    last_config: Option<KernelConfig>,
    same_config_streak: u32,
    /// The current super-step: its span id, P4 move, classification cost
    /// and the host decision time charged to it so far.
    step_span: u64,
    stepping: SteppingDelta,
    classify_ms: SimMs,
    select_ms: f64,
    /// The resident classification, and what every Expand since it
    /// activated — the state in which the Inspector may update the
    /// snapshot rather than rebuild it. `None` (first step, too many
    /// activations to list) sweeps.
    snap: Classification<'a>,
    activated: Option<Vec<VertexId>>,
    /// Direction-switch fast path: the previous Expand's work plan, reused
    /// when the next workload matches it — on symmetric graphs (in-degrees
    /// equal out-degrees) also across a direction switch.
    plan: Option<WorkPlan>,
    /// Fused chain: the raw queue the previous Expand emitted with its
    /// estimated stats, the chain's length and the moving average of its
    /// expand times, and the last standalone Filter cost (what breaking
    /// the chain buys back).
    pending: Option<(Vec<u32>, IterStats)>,
    chain_len: u32,
    chain_pace_ms: f64,
    last_filter_ms: f64,
    /// Divergence sentinel: what it saw (once `pinned_at` is set the run
    /// stays on the reference shape) and the standalone super-steps since
    /// its last check — chain iterations have no status snapshot to
    /// verify, so only verifiable ones count and a chain cannot starve it.
    pub(crate) sentinel: SentinelReport,
    since_check: u32,
}

/// A lane whose phase did not return: it panicked (`payload`) or, with no
/// payload, its result was lost before the barrier.
pub(crate) struct LaneFailure {
    pub(crate) lane: u32,
    pub(crate) phase: &'static str,
    pub(crate) payload: Option<Box<dyn Any + Send>>,
}

/// The message a caught panic carried: a `panic!`'s `&str` or `String`,
/// or a fixed text for any other payload.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().map_or("panic with a non-string payload", |s| s).into(),
    }
}

/// What a fired [`fault_site::FRONTIER_CORRUPT`] does to the frontier.
fn lose_one_entry(f: &mut Frontier) {
    match f {
        Frontier::Bitmap(b) => {
            if let Some(&v) = b.to_sorted_vec().first() {
                b.unset(v);
            }
        }
        Frontier::UnsortedQueue(q) | Frontier::SortedQueue(q) | Frontier::RawQueue(q) => {
            q.pop();
        }
    }
}

/// Work items — local vertices a phase visits or allocates for, plus the
/// active vertices and edges an Expand follows — below which a phase's
/// lanes run on the calling thread. A pool hand-off costs a wake-up and a
/// join (tens of µs once the worker has parked), which a lane repays only
/// with about that much work of its own; at 4–10 ns an item that is some
/// thousands of items per lane. The two ends, measured (CHANGES.md, PR 23):
/// with every phase on the pool the 300–1 200-vertex benchmark twins run
/// K = 4 at 1.4–1.7× their K = 1 wall (1.0–1.3× under this rule); with
/// every phase inline the 10⁴–10⁵-vertex ledger graphs lose the second
/// core (K = 4 over K = 1, geometric mean: BFS 1.29 vs 1.01, PR 1.18 vs
/// 0.87).
const FAN_OUT_MIN_ITEMS: u64 = 16_384;

/// Run one phase's `job` for every lane, appending the results to `out`
/// in lane order, panics contained. A single lane, or a phase with fewer
/// than [`FAN_OUT_MIN_ITEMS`] `items` across its lanes, runs on the
/// calling thread in lane order; otherwise the lanes are one task each on
/// the process-wide worker pool, which the calling thread works through
/// as well — so K lanes need no K threads, and a lane's kernels may go
/// parallel on the same pool.
fn fan_out<I: Send, T: Send>(
    lanes: &mut [I],
    phase: &'static str,
    items: u64,
    job: impl Fn(&mut I) -> T + Sync,
    out: &mut Vec<Result<T, LaneFailure>>,
) {
    let fail = |lane: usize, p| LaneFailure { lane: lane as u32, phase, payload: Some(p) };
    let contained = |s: usize, lane: &mut I| {
        catch_unwind(AssertUnwindSafe(|| job(lane))).map_err(|p| fail(s, p))
    };
    if lanes.len() == 1 || items < FAN_OUT_MIN_ITEMS {
        return out.extend(lanes.iter_mut().enumerate().map(|(s, lane)| contained(s, lane)));
    }
    // Per lane: one part each from `FAN_OUT_MIN_ITEMS` work items up.
    out.extend(gswitch_pool::parts_mut(lanes, 1, |s, lane| contained(s, &mut lane[0])));
}

/// The super-step loop of Fig. 10 — inspect → "is stable?" → select →
/// filter → expand → feedback — over `lanes.len()` ≥ 1 lanes of one
/// `root` application. Returns `(converged, stopped)`.
///
/// Each step ends in `sink(traces, overhead_ms)`, the record both report
/// types project from: every lane's [`IterationTrace`] in lane order and
/// the tuner overhead on the step's critical path (host decisions add up,
/// the per-device feedback copies overlap). The lane count and the phase's
/// size decide how phases run ([`fan_out`]: one lane or a small phase
/// inline, else pool tasks; a barrier per phase either way), the lane
/// count alone whether the step closes with an
/// `Exchange` span around `sink`, where the caller settles what the lanes
/// sent each other. All else that differs between [`run`] and
/// `run_sharded` is input: mask, `AppCaps` of the lane's app, seed.
pub(crate) fn drive<R: EdgeApp, L: EdgeApp>(
    root: &R,
    lanes: &mut [Lane<'_, L>],
    policy: &dyn Policy,
    opts: &EngineOptions,
    sink: &mut dyn FnMut(&mut Vec<IterationTrace>, f64),
) -> Result<(bool, Option<StopReason>), LaneFailure> {
    let caps = AppCaps::of::<L>();
    // Like any decision, so a config cached under a different mask or
    // app cannot smuggle in an illegal shape.
    let legal = |c| caps.legalise(opts.mask, c);
    let reference = legal(KernelConfig::push_baseline());
    let run = RunEnv { policy, caps, opts, seed: opts.seed.map(legal), reference };
    for lane in lanes.iter_mut() {
        // A seed counts as an established streak: the stability bypass
        // may retain it as soon as runtime history exists (iteration 1).
        lane.last_config = run.seed;
        lane.same_config_streak = if run.seed.is_some() { 2 } else { 0 };
    }
    let span_local = opts.spans.local();
    // What a phase touches whatever the frontier: a classification pass
    // visits every local vertex, and an Expand allocates (and in bitmap
    // mode prices) per local vertex before it follows an edge.
    let local_vertices: u64 = lanes.iter().map(|l| l.g.num_vertices() as u64).sum();
    // Phase results and the step's traces, reused from step to step.
    let (mut inspected, mut executed, mut traces) = (Vec::new(), Vec::new(), Vec::new());

    for iteration in 0..opts.max_iterations {
        // Cooperative stop, before this iteration does any work.
        if let Some(reason) = opts.probe.check(iteration) {
            return Ok((false, Some(reason)));
        }
        let step = span_local.start_tagged(SpanKind::SuperStep, opts.spans.parent, None, iteration);
        let step_id = step.id();
        // One advance however many lanes: they are windows onto one app.
        root.advance(iteration);

        // ---- Inspector, per lane; converged when nothing is active anywhere.
        let inspect = |l: &mut Lane<'_, L>| l.inspect(&run, iteration, step_id);
        fan_out(lanes, "classify", local_vertices, inspect, &mut inspected);
        for r in inspected.drain(..) {
            if let Err(reason) = r? {
                return Ok((false, Some(reason)));
            }
        }
        if lanes.iter().all(|l| l.hist.ctx.stats.v_active == 0 && l.pending.is_none()) {
            return Ok((true, None));
        }

        // ---- Selector → Executor → feedback, per lane; `sink` is the
        // barrier where halo-directed updates are settled as exchange.
        let frontier_work: u64 =
            lanes.iter().map(|l| l.hist.ctx.stats).map(|s| s.v_active + s.e_active).sum();
        let execute = |lane: &mut Lane<'_, L>| lane.execute(&run);
        fan_out(lanes, "exchange", local_vertices + frontier_work, execute, &mut executed);
        let _exchange = (lanes.len() > 1)
            .then(|| span_local.start_tagged(SpanKind::Exchange, step_id, None, iteration));
        let (mut overhead_ms, mut feedback_ms) = (0.0, 0.0);
        for (lane, trace) in lanes.iter().zip(executed.drain(..)) {
            let dropped = |&s: &u32| faults::fire_for(fault_site::SHARD_DROP, s.into());
            if let Some(lane) = lane.shard.filter(dropped) {
                return Err(LaneFailure { lane, phase: "exchange", payload: None });
            }
            let trace = trace?;
            overhead_ms += lane.select_ms;
            if !trace.estimated {
                feedback_ms = opts.device.feedback_time_ms();
            }
            traces.push(trace);
        }
        sink(&mut traces, overhead_ms + feedback_ms);
        traces.clear();
    }
    // Hitting the bound without draining the frontier is non-convergence.
    Ok((false, None))
}

/// Is re-filtering `dirty` of `n` vertices cheaper than sweeping them all?
/// An update pays a sort and a retract per vertex where the sweep streams,
/// so only below a quarter.
fn worth_updating(dirty: usize, n: usize) -> bool {
    dirty * 4 < n
}

/// The vertices whose `filter` result may differ from `snap`'s, or `None`
/// when that cannot be bounded usefully: what the Expands since `snap`
/// `activated` and what the app's hint names (`snap`'s own Active
/// vertices are the update's business). Unsorted, duplicates possible.
fn dirty_set<A: EdgeApp>(
    app: &A,
    snap: &Classification,
    activated: Vec<VertexId>,
) -> Option<Vec<VertexId>> {
    let mut dirty = activated; // the hint appends to it
    let bounded = app.refilter_hint(&mut dirty);
    let visited = dirty.len() + snap.stats().v_active as usize;
    (bounded && worth_updating(visited, snap.status().len())).then_some(dirty)
}

/// Divergence sentinel, hint half: with no `prepare` run yet, does every
/// vertex whose pure `filter` result differs from the carried snapshot sit
/// in `dirty` (sorted here) or among the snapshot's Active vertices?
fn dirty_covers_changes<A: EdgeApp>(
    app: &A,
    snap: &Classification,
    dirty: &mut [VertexId],
) -> bool {
    dirty.sort_unstable();
    snap.status().iter().enumerate().all(|(v, &was)| {
        let v = v as VertexId;
        app.filter(v) as u8 == was || was == Status::Active as u8 || dirty.binary_search(&v).is_ok()
    })
}

/// The rescue loop: a priority-driven app may unlock deferred work
/// (advance its threshold window) when the active set drains, and each
/// retry pays a classification. Leaves the last classification in `snap`
/// and returns the summed simulated cost. A pathological app can keep
/// unlocking work, so the spin polls `probe` — cancellation and deadlines
/// interrupt it rather than wait for it to drain.
///
/// Which vertices each pass visits is the one choice the Inspector makes,
/// from what the lane can see: with `hinted` (the run trusts the app's
/// `refilter_hint`) a pass updates `snap` from [`dirty_set`] whenever the
/// lane could list what moved since `snap` — `activated` is `Some` (what
/// every Expand since then activated: the previous step's, or a fused
/// chain's union), or this is a retry after a rescue, which ran nothing;
/// every other pass sweeps. A `sentinel` (given when its check is due)
/// makes every update prove its dirty set first
/// ([`dirty_covers_changes`]): a failed proof is a mismatch, and that pass
/// and all later ones sweep — no `prepare` ran yet, so the answer stays
/// exact.
fn classify_rescuing<A: EdgeApp>(
    snap: &mut Classification,
    app: &A,
    opts: &EngineOptions,
    iteration: u32,
    mut hinted: bool,
    mut activated: Option<Vec<VertexId>>,
    mut sentinel: Option<&mut SentinelReport>,
) -> Result<SimMs, StopReason> {
    let pass_ms = opts.device.kernel_time_ms(snap.profile());
    let mut classify_ms = 0.0;
    loop {
        let mut dirty = activated.take().filter(|_| hinted).and_then(|a| dirty_set(app, snap, a));
        if let (Some(report), Some(d)) = (sentinel.as_deref_mut(), dirty.as_mut()) {
            report.checks += 1;
            if !dirty_covers_changes(app, snap, d) {
                report.mismatch(iteration);
                (dirty, hinted) = (None, false);
            }
        }
        match dirty {
            Some(mut d) => snap.update(app, &mut d),
            None => snap.sweep(app),
        }
        classify_ms += pass_ms;
        if snap.stats().v_active > 0 || !app.rescue() {
            return Ok(classify_ms);
        }
        if let Some(reason) = opts.probe.check(iteration) {
            return Err(reason);
        }
        // Nothing was active, so nothing ran: after the rescue only what
        // the hint names can have moved.
        activated = Some(Vec::new());
    }
}

impl<'a, L: EdgeApp> Lane<'a, L> {
    /// A lane over `g` as seen through `app`, with no history yet.
    pub(crate) fn new(
        g: &'a Graph,
        app: &'a L,
        spec: &DeviceSpec,
        shard: Option<u32>,
        spans: LocalSpans,
    ) -> Self {
        Lane {
            g,
            app,
            shard,
            spans,
            hist: History::new(*g.stats()),
            last_config: None,
            same_config_streak: 0,
            step_span: 0,
            stepping: SteppingDelta::Remain,
            classify_ms: 0.0,
            select_ms: 0.0,
            snap: Classification::new(g, spec),
            activated: None,
            plan: None,
            pending: None,
            chain_len: 0,
            chain_pace_ms: 0.0,
            last_filter_ms: 0.0,
            sentinel: SentinelReport::default(),
            since_check: 0,
        }
    }

    /// Record a phase span of the current super-step, from `t0` to now.
    fn record_interval(&self, kind: SpanKind, t0: u64) {
        let (t1, it) = (self.spans.clock().now_ns(), self.hist.ctx.iteration);
        self.spans.record_interval(kind, self.step_span, t0, t1, self.shard, it);
    }

    /// Charge the Selector call begun at `t0` to this step's overhead:
    /// real wall time — the paper's 58–120 µs per iteration — around the
    /// policy calls only (kernel work is priced by the simulator).
    fn charge_select(&mut self, t0: u64) {
        self.select_ms += self.spans.clock().now_ns().saturating_sub(t0) as f64 / 1e6;
        self.record_interval(SpanKind::Select, t0);
    }

    /// Inspector: open super-step `iteration` and gather its runtime
    /// characteristics — classified, or estimated along a fused chain.
    fn inspect(&mut self, run: &RunEnv, iteration: u32, step_span: u64) -> Result<(), StopReason> {
        self.hist.ctx.iteration = iteration;
        (self.step_span, self.select_ms, self.stepping) = (step_span, 0.0, SteppingDelta::Remain);
        // P4 must precede classification: the threshold feeds `filter`.
        if run.caps.steps(run.opts.mask) {
            let t0 = self.spans.clock().now_ns();
            self.stepping = run.policy.decide_stepping(&self.hist.ctx, &run.caps);
            self.charge_select(t0);
            self.app.adjust_priority(self.stepping);
        }
        if let Some((_, estimate)) = &self.pending {
            self.hist.ctx.stats = *estimate;
            return Ok(());
        }
        let i0 = self.spans.clock().now_ns();
        // A pinned run distrusts the hint like every other tuned shortcut;
        // a step whose sentinel check is due proves it first.
        let (hinted, activated) = (self.sentinel.pinned_at.is_none(), self.activated.take());
        let sentinel = self.sentinel_due(run, 1).then_some(&mut self.sentinel);
        let (snap, opts) = (&mut self.snap, run.opts);
        let classified =
            classify_rescuing(snap, self.app, opts, iteration, hinted, activated, sentinel);
        self.record_interval(SpanKind::Inspect, i0);
        self.classify_ms = classified?;
        self.hist.ctx.stats = *self.snap.stats();
        Ok(())
    }

    /// Is a divergence-sentinel check due `ahead` standalone steps from the
    /// last one counted?
    fn sentinel_due(&self, run: &RunEnv, ahead: u32) -> bool {
        let every = run.opts.verify_every;
        every > 0 && self.sentinel.pinned_at.is_none() && self.since_check + ahead >= every
    }

    /// Selector, with the Fig. 10 "is stable? → bypass the decision
    /// making" fast path in front of the policy.
    fn select(&mut self, run: &RunEnv, chained: bool) -> (KernelConfig, bool, Provenance) {
        let ctx = &self.hist.ctx;
        let stable = run.opts.stability_bypass
            && self.same_config_streak >= 2
            && ctx.t_e_avg > 0.0
            && (ctx.t_e - ctx.t_e_avg).abs() <= 0.5 * ctx.t_e_avg;
        let (mut config, decided, provenance) = if chained {
            // A chain implies a last config; should that ever break, the
            // reference shape is a safe continuation — never a panic.
            (self.last_config.unwrap_or(run.reference), false, Provenance::FusedChain)
        } else if self.sentinel.pinned_at.is_some() {
            // A previous sentinel mismatch distrusts every tuned variant:
            // run the reference shape to completion.
            (run.reference, false, Provenance::Sentinel)
        } else if let (true, Some(prev)) = (stable, self.last_config) {
            // Requiring the Some (rather than unwrapping) means a broken
            // streak counter degrades to a fresh decision.
            (prev, false, Provenance::StabilityBypass)
        } else if let Some(s) = run.seed.filter(|_| ctx.iteration == 0) {
            // Warm start: the cached config plays the first decision.
            (s, false, Provenance::WarmStart)
        } else {
            let look = Lookahead {
                graph: self.g,
                status: self.snap.status(),
                device: &run.opts.device,
                classify_ms: self.classify_ms,
                price: crate::oracle::price::<L>,
            };
            let t0 = self.spans.clock().now_ns();
            let config = run.policy.decide_priced(ctx, &run.caps, &look);
            self.charge_select(t0);
            (config, true, Provenance::Decided)
        };
        // P4 was chosen before classification; the policy only proposed
        // the other four, and the one legality rule has the last word.
        config.stepping = self.stepping;
        (run.caps.legalise(run.opts.mask, config), decided, provenance)
    }

    /// Selector → Executor → feedback: this lane's super-step after the
    /// Inspector's barrier.
    fn execute(&mut self, run: &RunEnv) -> IterationTrace {
        if let Some(s) = self.shard {
            faults::fire_for(fault_site::SHARD_PANIC, s.into());
        }
        let (g, spec, clock) = (self.g, &run.opts.device, self.spans.clock().clone());
        let chain = self.pending.take();
        let estimated = chain.is_some();
        let (mut config, decided, mut provenance) = self.select(run, estimated);
        let stats = self.hist.ctx.stats;
        // Does the sentinel's post-Expand half apply (standalone step,
        // check due, not pinned by the frontier half)?
        let mut verify_values = false;
        let (frontier, filter_ms) = match chain {
            Some((queue, _)) => (Frontier::RawQueue(queue), 0.0),
            None => {
                let f0 = clock.now_ns();
                let (mut f, mat) =
                    self.snap.materialize::<L>(config.direction, config.format, spec);
                self.record_interval(SpanKind::Filter, f0);
                let mut mat_ms = spec.kernel_time_ms(&mat);
                let shard = self.shard.unwrap_or(0);
                if config != run.reference
                    && faults::fire_for(fault_site::FRONTIER_CORRUPT, shard.into())
                {
                    lose_one_entry(&mut f);
                }

                // ---- Divergence sentinel, frontier half: the chosen
                // format/direction must materialize exactly the workload
                // the status snapshot implies.
                self.since_check += 1;
                let verify = self.sentinel_due(run, 0);
                if verify {
                    let v0 = clock.now_ns();
                    self.since_check = 0;
                    self.sentinel.checks += 1;
                    let mut got = f.to_vec();
                    got.sort_unstable();
                    got.dedup();
                    if got != sentinel_expected_frontier::<L>(self.snap.status(), config.direction)
                    {
                        self.mismatch();
                        (config, provenance) = (run.reference, Provenance::Sentinel);
                        // Repair: rebuild the frontier with the reference
                        // shape so this very iteration completes correctly.
                        let (f2, mat2) =
                            self.snap.materialize::<L>(config.direction, config.format, spec);
                        f = f2;
                        mat_ms += spec.kernel_time_ms(&mat2);
                    }
                    self.record_interval(SpanKind::Sentinel, v0);
                }
                verify_values = verify && self.sentinel.pinned_at.is_none();
                self.last_filter_ms = self.classify_ms + mat_ms;
                (f, self.last_filter_ms)
            }
        };

        // ---- Work partition: build or reuse the degree plan.
        let p0 = clock.now_ns();
        let need = DegreeSource::of(config.direction);
        let plan = match self.plan.take() {
            Some(p) if p.matches(&frontier, need, g.is_symmetric()) => p,
            _ => WorkPlan::for_frontier(g, &frontier, config.direction),
        };
        self.record_interval(SpanKind::Partition, p0);

        // ---- Expand.
        let e0 = clock.now_ns();
        let status = self.snap.status();
        let mut eo = expand_planned(g, self.app, &frontier, status, config, spec, Some(&plan));
        self.record_interval(SpanKind::Expand, e0);
        self.plan = Some(plan);
        if estimated {
            // Fused continuation: it runs inside the kernel the chain's
            // first iteration launched — no launch, no feedback copy.
            eo.profile.launches = 0;
        }

        // ---- Divergence sentinel, value half: after a correct Expand a
        // serial re-application of emit/comp over the active vertices
        // finds nothing to do. Each successful comp is work the chosen
        // variant missed — and also the repair, so even the mismatch
        // iteration ends right. Only duplicate-tolerant (idempotent or
        // monotonic) apps can absorb the re-application.
        if verify_values && L::DUP_TOLERANT {
            let v0 = clock.now_ns();
            self.sentinel.checks += 1;
            if sentinel_value_sweep(g, self.app, self.snap.status()) > 0 {
                self.mismatch();
                provenance = Provenance::Sentinel;
            }
            self.record_interval(SpanKind::Sentinel, v0);
        }

        // ---- Feedback (device→host copy) + trace.
        let ctx = &self.hist.ctx;
        let trace = IterationTrace {
            iteration: ctx.iteration,
            config,
            decided,
            estimated,
            stats,
            filter_ms,
            expand_ms: spec.kernel_time_ms(&eo.profile),
            overhead_ms: self.select_ms + if estimated { 0.0 } else { spec.feedback_time_ms() },
            activations: eo.activations,
            distinct_activated: eo.distinct_activated,
            ties: eo.ties,
            edges_touched: eo.edges_touched,
            duplicates: eo.profile.duplicates,
            features: ctx.features(config.direction),
        };
        // Decision trace. The prediction is `t_e_avg` *before* this step
        // folds in — the expectation the stability bypass gambles on, so
        // `measured - predicted` is its regret.
        if let Some(rec) = run.opts.recorder.active() {
            rec.record(&TraceEvent {
                iteration: trace.iteration,
                config,
                provenance,
                predicted_ms: ctx.t_e_avg,
                measured_ms: trace.expand_ms,
                filter_ms,
                overhead_ms: trace.overhead_ms,
                v_active: stats.v_active,
                e_active: stats.e_active,
                edges_touched: eo.edges_touched,
                activations: eo.activations,
                duplicates: eo.profile.duplicates,
                task_total_cycles: eo.profile.tasks.total_cycles,
                task_max_cycles: eo.profile.tasks.max_cycles,
                task_count: eo.profile.tasks.count,
                features: trace.features,
                shard: self.shard,
            });
        }
        self.fold(run.opts, &trace, eo);
        trace
    }

    /// The sentinel caught the chosen variant diverging.
    fn mismatch(&mut self) {
        self.sentinel.mismatch(self.hist.ctx.iteration);
    }

    /// Fold the executed step into what the next one sees: Table 1's
    /// history, the same-config streak, and whether a fused chain goes on.
    fn fold(&mut self, opts: &EngineOptions, t: &IterationTrace, eo: ExpandOutput) {
        self.hist.fold(t.filter_ms, t.expand_ms, t.edges_touched);
        let same = self.last_config == Some(t.config);
        self.same_config_streak = if same { self.same_config_streak + 1 } else { 0 };
        self.last_config = Some(t.config);
        // What the next classification has to re-filter besides the hint:
        // everything activated since the resident one. A fused chain's
        // estimated steps classify nothing, so along a chain that is the
        // union of every step's activations, carried for as long as an
        // update would take it (duplicates count, the update removes them).
        let since = if t.estimated { self.activated.take() } else { Some(Vec::new()) };
        let n = self.g.num_vertices();
        self.activated = since
            .filter(|a| worth_updating(a.len() + t.distinct_activated as usize, n))
            .map(|mut a| {
                a.reserve(t.distinct_activated as usize);
                eo.activated.append_sorted(&mut a);
                a
            });

        let Some(queue) = eo.next_queue.filter(|q| !q.is_empty()) else {
            // Chain drained or none: the next iteration re-classifies (and
            // observes convergence if nothing is active).
            self.chain_len = 0;
            return;
        };
        // An exponential moving average: gradual frontier growth does not
        // read as an anomaly, only a sudden blow-up does.
        self.chain_len += 1;
        self.chain_pace_ms = match self.chain_len {
            1 => t.expand_ms,
            _ => 0.7 * self.chain_pace_ms + 0.3 * t.expand_ms,
        };
        // Break the chain when the next queue's duplicates are predicted
        // to waste more expand time than a standalone re-filter costs (the
        // social-graph failure mode of Fig. 9b), or when the last iteration
        // ran far beyond the chain's pace (the paper's switch-back rule).
        let spec = &opts.device;
        let waste_ms = fused_waste_ms(t.expand_ms, t.duplicates, queue.len());
        let refilter_ms =
            self.last_filter_ms + spec.launch_overhead_us / 1e3 + spec.feedback_time_ms();
        let dup_heavy = waste_ms > refilter_ms;
        // Pre-emptive break on frontier explosion (the enqueued-edge
        // estimate is a side product of the fused kernel): committing
        // blind through a hump would skip the direction decision exactly
        // where it matters — Enterprise's bottom-up switch, same signal.
        let exploding = eo.activated_out_edges > 4 * t.edges_touched.max(1);
        let healthy = !dup_heavy && !exploding && t.expand_ms <= 4.0 * self.chain_pace_ms;
        let pinned = self.sentinel.pinned_at.is_some();
        if !pinned && (!opts.break_fused_chains || healthy) {
            let estimate = estimate_stats(t, eo.activated_out_edges, queue.len() as u64);
            self.pending = Some((queue, estimate));
        } else {
            self.chain_len = 0;
        }
    }
}

/// Expand time a fused chain's next iteration is predicted to waste on
/// duplicate queue entries — 0.0, never NaN, on a drained queue.
fn fused_waste_ms(expand_ms: f64, duplicates: u64, queue_len: usize) -> f64 {
    if queue_len == 0 {
        0.0
    } else {
        expand_ms * duplicates as f64 / queue_len as f64
    }
}

/// Serially re-derive the workload the status snapshot implies for a
/// direction — the sentinel's ground truth for the frontier check. The
/// predicate mirrors `materialize` by construction: push visits actives,
/// pull visits receivers.
fn sentinel_expected_frontier<A: EdgeApp>(status: &[u8], direction: Direction) -> Vec<VertexId> {
    (0..status.len() as VertexId)
        .filter(|&v| {
            let st = status_of(status[v as usize]);
            match direction {
                Direction::Push => st == Status::Active,
                Direction::Pull => A::pull_receives(st),
            }
        })
        .collect()
}

/// Serial reference push sweep: re-apply emit/comp over every out-edge
/// of every active vertex. Returns the number of successful comps —
/// zero after a correct Expand; anything else is missed work (now
/// repaired by the sweep itself).
fn sentinel_value_sweep<A: EdgeApp>(g: &Graph, app: &A, status: &[u8]) -> u64 {
    let out = g.out_csr();
    let ws = g.out_weights();
    let mut repairs = 0u64;
    for v in 0..g.num_vertices() as VertexId {
        if status_of(status[v as usize]) != Status::Active {
            continue;
        }
        let r = out.edge_range(v);
        for (i, &t) in out.neighbors(v).iter().enumerate() {
            let w = match (A::NEEDS_WEIGHTS, ws) {
                (true, Some(ws)) => ws[r.start + i],
                _ => 1,
            };
            if app.comp(t, app.emit(v, w)) {
                repairs += 1;
            }
        }
    }
    repairs
}

/// Estimate the next iteration's runtime characteristics from Expand
/// feedback, without a classification pass (fused chain).
fn estimate_stats(t: &IterationTrace, activated_out_edges: u64, queue_len: u64) -> IterStats {
    let mut s = t.stats;
    s.v_active = t.distinct_activated;
    s.e_active = activated_out_edges;
    s.v_inactive = t.stats.v_inactive.saturating_sub(t.distinct_activated);
    s.e_inactive = t.stats.e_inactive.saturating_sub(activated_out_edges);
    s.push.vertices = queue_len;
    s.push.edges = activated_out_edges;
    s
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::{AutoPolicy, StaticPolicy};
    use gswitch_graph::{gen, GraphBuilder, VertexId};
    use gswitch_kernels::atomics::AtomicArray;
    use gswitch_kernels::pattern::{AsFormat, Fusion, LoadBalance};
    use gswitch_kernels::{classify, materialize};

    /// Minimal BFS app, shared by the engine, sharded and oracle tests.
    pub(crate) struct Bfs {
        pub(crate) level: AtomicArray<u32>,
        current: std::sync::atomic::AtomicU32,
    }

    impl Bfs {
        pub(crate) fn new(n: usize, src: VertexId) -> Self {
            let b = Bfs {
                level: AtomicArray::filled(n, u32::MAX),
                current: std::sync::atomic::AtomicU32::new(0),
            };
            b.level.store(src, 0);
            b
        }
    }

    impl EdgeApp for Bfs {
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
        fn refilter_hint(&self, _out: &mut Vec<VertexId>) -> bool {
            true // a status moves with a claimed level or off the ended one
        }
    }

    /// An inert priority-driven (and, by default, duplicate-tolerant) app:
    /// every candidate is legal for it.
    pub(crate) struct Stepped;

    impl EdgeApp for Stepped {
        type Msg = u32;
        const PRIORITY_DRIVEN: bool = true;
        fn filter(&self, _v: VertexId) -> Status {
            Status::Fixed
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

    /// Reference BFS.
    pub(crate) fn bfs_reference(g: &Graph, src: VertexId) -> Vec<u32> {
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

    #[test]
    fn fan_out_returns_every_lane_in_order_with_more_lanes_than_cores() {
        // Eight lanes is more than the pool has threads on a CI box, and
        // each lane's job goes parallel itself, as a lane's kernels do.
        let mut lanes: Vec<u64> = (1..=8).collect();
        let mut out = Vec::new();
        let job = |lane: &mut u64| {
            *lane *= 10;
            gswitch_pool::ranges(*lane as usize * 100, 256, |r| r.sum::<usize>() as u64)
                .into_iter()
                .sum::<u64>()
        };
        fan_out(&mut lanes, "classify", FAN_OUT_MIN_ITEMS, job, &mut out);
        let sums: Vec<u64> = out.into_iter().map(|r| r.ok().expect("no lane failed")).collect();
        assert_eq!(sums, (1..=8u64).map(|l| (0..l * 1000).sum()).collect::<Vec<_>>());
        assert_eq!(lanes, (1..=8).map(|l| l * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn fan_out_below_the_threshold_stays_on_the_calling_thread_in_lane_order() {
        let mut lanes: Vec<u32> = (0..4).collect();
        let order = gswitch_obs::sync::Lock::new(Vec::new());
        let job = |lane: &mut u32| {
            order.lock().push(*lane);
            std::thread::current().id()
        };
        let mut out = Vec::new();
        fan_out(&mut lanes, "exchange", FAN_OUT_MIN_ITEMS - 1, job, &mut out);
        let me = std::thread::current().id();
        assert!(out.into_iter().all(|r| r.ok() == Some(me)), "a lane left the calling thread");
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fan_out_at_the_threshold_shares_the_lanes_with_a_worker() {
        // With a second core the pool has a worker: lanes 0 and 1 wait for
        // each other, so the phase only ends if two threads ran lanes at
        // the same time. (On one core the pool is the caller alone.)
        let pooled = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
        let meet = std::sync::Barrier::new(2);
        let mut lanes: Vec<u32> = (0..4).collect();
        let job = |lane: &mut u32| {
            if pooled && *lane < 2 {
                meet.wait();
            }
            (*lane, std::thread::current().id())
        };
        let mut out = Vec::new();
        fan_out(&mut lanes, "exchange", FAN_OUT_MIN_ITEMS, job, &mut out);
        let (ids, threads): (Vec<_>, Vec<_>) =
            out.into_iter().map(|r| r.ok().expect("no lane failed")).unzip();
        assert_eq!(ids, vec![0, 1, 2, 3], "results come back in lane order");
        assert_eq!(threads[0] != threads[1], pooled);
    }

    #[test]
    fn fan_out_contains_a_lane_panic_and_keeps_the_other_lanes() {
        // The same failure from the inline path and from the pool.
        for items in [0, FAN_OUT_MIN_ITEMS] {
            let mut lanes: Vec<u32> = (0..4).collect();
            let mut out = Vec::new();
            let job = |lane: &mut u32| {
                assert!(*lane != 2, "lane {lane} failed");
                *lane + 100
            };
            fan_out(&mut lanes, "exchange", items, job, &mut out);
            assert_eq!(out.len(), 4);
            for (s, r) in out.into_iter().enumerate() {
                if s != 2 {
                    assert_eq!(r.ok(), Some(s as u32 + 100), "lane {s}");
                    continue;
                }
                let LaneFailure { lane, phase, payload } = r.expect_err("lane 2 panicked");
                assert_eq!((lane, phase), (2, "exchange"));
                let payload = payload.expect("a panic carries its payload");
                assert_eq!(payload.downcast_ref::<String>().unwrap(), "lane 2 failed");
            }
        }
    }

    #[test]
    fn panic_message_renders_str_string_and_other_payloads() {
        let caught = |f: fn()| catch_unwind(f).expect_err("the closure panics");
        assert_eq!(panic_message(caught(|| panic!("a literal"))), "a literal");
        assert_eq!(panic_message(caught(|| panic!("formatted {}", 7))), "formatted 7");
        assert_eq!(panic_message(Box::new("a &str")), "a &str");
        assert_eq!(panic_message(Box::new(String::from("a String"))), "a String");
        assert_eq!(panic_message(Box::new(42u32)), "panic with a non-string payload");
    }

    #[test]
    fn engine_bfs_matches_reference_on_path() {
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build();
        let app = Bfs::new(5, 0);
        let rep = run(&g, &app, &AutoPolicy, &EngineOptions::default());
        assert!(rep.converged);
        assert_eq!(app.level.to_vec(), vec![0, 1, 2, 3, 4]);
        // 4 productive expansions + the final one that proves exhaustion.
        assert_eq!(rep.n_iterations(), 5);
        assert!(rep.total_ms() > 0.0);
    }

    #[test]
    fn engine_emits_nested_phase_spans() {
        use gswitch_obs::{SpanKind, SpanRing};
        let g = GraphBuilder::new(5).edges([(0, 1), (1, 2), (2, 3), (3, 4)]).build();
        let app = Bfs::new(5, 0);
        let ring = std::sync::Arc::new(SpanRing::new(4096));
        // Parent ids always come from the same ring, like the serving
        // runtime's Execute span does.
        let parent = ring.alloc_id();
        let opts = EngineOptions {
            spans: gswitch_obs::SpanCtx::new(ring.collector(), parent, 2, 11),
            ..Default::default()
        };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        assert!(rep.converged);
        let spans = ring.snapshot();
        let steps: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::SuperStep).collect();
        // One SuperStep per engine iteration (including the convergence
        // probe), parented on the caller-supplied id.
        assert_eq!(steps.len(), rep.n_iterations() + 1);
        assert!(steps.iter().all(|s| s.parent == parent && s.worker == 2 && s.job == 11));
        // Every phase span nests under some SuperStep of the same run.
        let step_ids: std::collections::BTreeSet<u64> = steps.iter().map(|s| s.id).collect();
        let phases: Vec<_> = spans.iter().filter(|s| s.kind != SpanKind::SuperStep).collect();
        assert!(!phases.is_empty());
        assert!(phases.iter().all(|s| step_ids.contains(&s.parent)));
        assert!(phases.iter().any(|s| s.kind == SpanKind::Inspect));
        assert!(phases.iter().any(|s| s.kind == SpanKind::Expand));
        // Self-times decompose wall time: Σ excl ≤ Σ root inclusive.
        let p = gswitch_obs::profile(&spans);
        assert!(p.excl_total_ms() <= p.total_ms + 1e-9);
    }

    #[test]
    fn fused_waste_is_zero_not_nan_on_empty_queue() {
        // Regression: `expand_ms * dups / queue.len()` on a drained raw
        // queue divides by zero; the guard must return a clean 0.0 that
        // every downstream comparison handles.
        let w = fused_waste_ms(3.5, 7, 0);
        assert_eq!(w, 0.0);
        assert!(w.is_finite());
        // And the comparison the engine actually makes stays false.
        assert!(w <= 0.1);
        // Non-degenerate case: half the queue is duplicates.
        assert!((fused_waste_ms(4.0, 5, 10) - 2.0).abs() < 1e-12);
        // No duplicates wastes nothing.
        assert_eq!(fused_waste_ms(4.0, 0, 10), 0.0);
    }

    #[test]
    fn partition_span_emitted_for_every_expand() {
        use gswitch_obs::{SpanKind, SpanRing};
        let g = gen::kronecker(8, 8, 5);
        let app = Bfs::new(g.num_vertices(), 0);
        let ring = std::sync::Arc::new(SpanRing::new(4096));
        let parent = ring.alloc_id();
        let opts = EngineOptions {
            spans: gswitch_obs::SpanCtx::new(ring.collector(), parent, 0, 1),
            ..Default::default()
        };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        assert!(rep.converged);
        let spans = ring.snapshot();
        let n = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count();
        // Every Expand was planned under a Partition span (build or reuse).
        assert_eq!(n(SpanKind::Partition), n(SpanKind::Expand));
        assert!(n(SpanKind::Partition) > 0);
    }

    #[test]
    fn engine_bfs_matches_reference_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::erdos_renyi(500, 2_000, seed);
            let app = Bfs::new(500, 0);
            let rep = run(&g, &app, &AutoPolicy, &EngineOptions::default());
            assert!(rep.converged);
            assert_eq!(app.level.to_vec(), bfs_reference(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn every_static_shape_reaches_the_same_answer() {
        let g = gen::kronecker(9, 8, 3);
        let expected = bfs_reference(&g, 0);
        for cfg in KernelConfig::all_shapes() {
            let app = Bfs::new(g.num_vertices(), 0);
            let rep = run(&g, &app, &StaticPolicy::new(cfg), &EngineOptions::default());
            assert!(rep.converged, "{cfg}");
            assert_eq!(app.level.to_vec(), expected, "{cfg}");
        }
    }

    #[test]
    fn mask_pins_baseline_candidates() {
        let g = gen::grid2d(30, 30, 0.0, 1);
        let app = Bfs::new(g.num_vertices(), 0);
        let opts = EngineOptions { mask: PatternMask::none(), ..Default::default() };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        for t in &rep.iterations {
            assert_eq!(t.config.direction, Direction::Push);
            assert_eq!(t.config.lb, LoadBalance::Strict);
            assert_eq!(t.config.fusion, Fusion::Standalone);
        }
    }

    #[test]
    fn mask_up_to_is_monotone() {
        assert_eq!(PatternMask::up_to(0), PatternMask::none());
        assert_eq!(PatternMask::up_to(5), PatternMask::all());
        let m3 = PatternMask::up_to(3);
        assert!(m3.direction && m3.format && m3.load_balance);
        assert!(!m3.stepping && !m3.fusion);
    }

    #[test]
    fn fused_static_policy_chains_and_converges() {
        let g = gen::grid2d(40, 40, 0.0, 2);
        let expected = bfs_reference(&g, 0);
        let cfg = KernelConfig { fusion: Fusion::Fused, ..KernelConfig::push_baseline() };
        let app = Bfs::new(g.num_vertices(), 0);
        let rep = run(&g, &app, &StaticPolicy::new(cfg), &EngineOptions::default());
        assert!(rep.converged);
        assert_eq!(app.level.to_vec(), expected);
        // Chain iterations skip Filter.
        assert!(
            rep.iterations.iter().any(|t| t.filter_ms == 0.0 && t.iteration > 0),
            "expected fused-chain iterations"
        );
    }

    #[test]
    fn disconnected_graph_converges_without_reaching_everything() {
        let g = GraphBuilder::new(4).edges([(0, 1), (2, 3)]).build();
        let app = Bfs::new(4, 0);
        let rep = run(&g, &app, &AutoPolicy, &EngineOptions::default());
        assert!(rep.converged);
        assert_eq!(app.level.load(1), 1);
        assert_eq!(app.level.load(2), u32::MAX);
    }

    #[test]
    fn report_aggregates_are_consistent() {
        let g = gen::erdos_renyi(300, 1_500, 9);
        let app = Bfs::new(300, 0);
        let rep = run(&g, &app, &AutoPolicy, &EngineOptions::default());
        let sum: f64 =
            rep.iterations.iter().map(|t| t.filter_ms + t.expand_ms + t.overhead_ms).sum();
        assert!((rep.total_ms() - sum).abs() < 1e-9);
        assert!(rep.decisions_made() <= rep.n_iterations());
        assert!(rep.edges_touched() > 0);
    }

    #[test]
    fn stability_bypass_reduces_decisions() {
        // A long-diameter graph gives many similar iterations.
        let g = gen::grid2d(60, 60, 0.0, 3);
        let app = Bfs::new(g.num_vertices(), 0);
        let opts = EngineOptions { stability_bypass: true, ..Default::default() };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        assert!(
            rep.decisions_made() < rep.n_iterations(),
            "bypass never engaged over {} iterations",
            rep.n_iterations()
        );
    }

    #[test]
    fn warm_start_uses_seed_without_deciding() {
        let g = gen::kronecker(9, 8, 5);
        let expected = bfs_reference(&g, 0);

        let cold_app = Bfs::new(g.num_vertices(), 0);
        let cold = run(&g, &cold_app, &AutoPolicy, &EngineOptions::default());
        let tuned = cold.dominant_config().expect("cold run iterated");

        let warm_app = Bfs::new(g.num_vertices(), 0);
        let opts = EngineOptions { seed: Some(tuned), ..Default::default() };
        let warm = run(&g, &warm_app, &AutoPolicy, &opts);
        assert!(warm.converged);
        assert_eq!(warm_app.level.to_vec(), expected);
        // The seed replaces the first decision...
        assert!(!warm.iterations[0].decided);
        assert_eq!(warm.iterations[0].config, tuned);
        // ...and priming the streak means warm never decides more often.
        assert!(warm.decisions_made() <= cold.decisions_made());
    }

    #[test]
    fn warm_start_seed_is_masked_and_clamped() {
        let g = gen::grid2d(20, 20, 0.0, 6);
        let seed = KernelConfig {
            direction: Direction::Pull,
            format: AsFormat::Bitmap,
            lb: LoadBalance::Twc,
            stepping: SteppingDelta::Remain,
            fusion: Fusion::Fused,
        };
        let app = Bfs::new(g.num_vertices(), 0);
        let opts =
            EngineOptions { mask: PatternMask::none(), seed: Some(seed), ..Default::default() };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        // The mask pins every pattern to the baseline, seed or not.
        let c0 = rep.iterations[0].config;
        assert_eq!(c0.direction, Direction::Push);
        assert_eq!(c0.format, AsFormat::UnsortedQueue);
        assert_eq!(c0.lb, LoadBalance::Strict);
        assert_eq!(c0.fusion, Fusion::Standalone);
    }

    #[test]
    fn report_config_summaries() {
        let g = gen::erdos_renyi(400, 1_600, 11);
        let app = Bfs::new(400, 0);
        let rep = run(&g, &app, &AutoPolicy, &EngineOptions::default());
        let dom = rep.dominant_config().unwrap();
        let dom_count = rep.iterations.iter().filter(|t| t.config == dom).count();
        for t in &rep.iterations {
            let c = rep.iterations.iter().filter(|u| u.config == t.config).count();
            assert!(c <= dom_count);
        }
        assert_eq!(RunReport::default().dominant_config(), None);
    }

    #[test]
    fn probe_stops_run_mid_flight() {
        use crate::cancel::{ProbeHandle, RunProbe, StopReason};

        struct StopAt(u32);
        impl RunProbe for StopAt {
            fn check(&self, iteration: u32) -> Option<StopReason> {
                (iteration >= self.0).then_some(StopReason::DeadlineExceeded)
            }
        }

        let g = gen::grid2d(50, 50, 0.0, 4);
        let app = Bfs::new(g.num_vertices(), 0);
        let opts = EngineOptions {
            probe: ProbeHandle::new(std::sync::Arc::new(StopAt(2))),
            ..Default::default()
        };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        assert_eq!(rep.stopped, Some(StopReason::DeadlineExceeded));
        assert!(!rep.converged);
        assert_eq!(rep.n_iterations(), 2, "stop lands before iteration 2 does work");
    }

    #[test]
    fn cancel_token_stops_before_first_iteration() {
        use crate::cancel::{CancelToken, ProbeHandle};

        let token = std::sync::Arc::new(CancelToken::new());
        token.cancel();
        let g = gen::grid2d(10, 10, 0.0, 4);
        let app = Bfs::new(g.num_vertices(), 0);
        let opts = EngineOptions { probe: ProbeHandle::new(token), ..Default::default() };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        assert_eq!(rep.stopped, Some(crate::cancel::StopReason::Cancelled));
        assert_eq!(rep.n_iterations(), 0);
        // The app was never advanced: every vertex but the source is
        // untouched.
        assert_eq!(app.level.load(1), u32::MAX);
    }

    #[test]
    fn unprobed_run_reports_no_stop() {
        let g = gen::grid2d(10, 10, 0.0, 4);
        let app = Bfs::new(g.num_vertices(), 0);
        let rep = run(&g, &app, &AutoPolicy, &EngineOptions::default());
        assert!(rep.converged);
        assert_eq!(rep.stopped, None);
    }

    #[test]
    fn sentinel_on_healthy_run_checks_without_mismatch() {
        let g = gen::erdos_renyi(400, 1_600, 21);
        let expected = bfs_reference(&g, 0);
        let app = Bfs::new(400, 0);
        let opts = EngineOptions::default().verify_every(1);
        let rep = run(&g, &app, &AutoPolicy, &opts);
        assert!(rep.converged);
        assert_eq!(app.level.to_vec(), expected);
        assert!(rep.sentinel.checks > 0, "sentinel never engaged");
        assert_eq!(rep.sentinel.mismatches, 0);
        assert_eq!(rep.sentinel.pinned_at, None);
    }

    #[test]
    fn sentinel_off_by_default() {
        let g = gen::grid2d(10, 10, 0.0, 4);
        let app = Bfs::new(g.num_vertices(), 0);
        let rep = run(&g, &app, &AutoPolicy, &EngineOptions::default());
        assert_eq!(rep.sentinel, SentinelReport::default());
    }

    #[test]
    fn sentinel_cadence_skips_iterations() {
        // Long-diameter grid with fusion masked off: every super-step is
        // standalone, so every-5 must check far less often than every-1
        // (each scheduled iteration performs the frontier check and, for
        // BFS, the value check).
        let g = gen::grid2d(30, 30, 0.0, 7);
        let every = |n: u32| {
            let app = Bfs::new(g.num_vertices(), 0);
            let opts = EngineOptions {
                mask: PatternMask::up_to(3),
                ..EngineOptions::default().verify_every(n)
            };
            run(&g, &app, &AutoPolicy, &opts).sentinel.checks
        };
        let dense = every(1);
        let sparse = every(5);
        assert!(sparse < dense, "every-5 ({sparse}) should check less than every-1 ({dense})");
        assert!(sparse > 0);
    }

    #[test]
    fn value_sweep_finds_and_repairs_missed_work() {
        // Path 0→1→2. Pretend iteration 0's expand lost the 0→1 update:
        // vertex 0 is Active, vertex 1 still unvisited. The sweep must
        // both report the miss and repair it.
        let g = GraphBuilder::new(3).symmetric(false).edges([(0, 1), (1, 2)]).build();
        let app = Bfs::new(3, 0);
        let status = vec![Status::Active as u8, Status::Inactive as u8, Status::Inactive as u8];
        let repairs = sentinel_value_sweep(&g, &app, &status);
        assert_eq!(repairs, 1);
        assert_eq!(app.level.load(1), 1, "sweep repaired the dropped update");
        // A second sweep finds nothing: the state is consistent now.
        assert_eq!(sentinel_value_sweep(&g, &app, &status), 0);
    }

    #[test]
    fn expected_frontier_mirrors_materialize() {
        let g = gen::erdos_renyi(200, 800, 3);
        let app = Bfs::new(200, 0);
        let spec = DeviceSpec::default();
        let co = classify(&g, &app, &spec);
        for dir in [Direction::Push, Direction::Pull] {
            let expected = sentinel_expected_frontier::<Bfs>(&co.status, dir);
            let (f, _) = materialize::<Bfs>(&g, &co.status, dir, AsFormat::Bitmap, &spec);
            assert_eq!(f.to_vec(), expected, "{dir:?}");
        }
    }

    #[test]
    fn max_iterations_bound_reports_non_convergence() {
        let g = gen::grid2d(50, 50, 0.0, 4);
        let app = Bfs::new(g.num_vertices(), 0);
        let opts = EngineOptions { max_iterations: 3, ..Default::default() };
        let rep = run(&g, &app, &AutoPolicy, &opts);
        assert!(!rep.converged);
        assert_eq!(rep.n_iterations(), 3);
    }
}
