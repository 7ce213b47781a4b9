//! The Expand primitive — Patterns 1 (direction), 3 (load balance) and
//! 5 (fusion).
//!
//! Expand does the *real* semantic work of a super-step on the CPU —
//! `emit` + `comp`/`comp_atomic` over every workload edge — while counting
//! what its charge depends on ([`ExpandCounts`]: edges, pull hits and
//! wins, push conflicts; and each slot's touched edges). One function,
//! [`expand_cost`], turns those counts into the kernel's [`KernelProfile`],
//! load balance included (see [`crate::lb`]). Its other caller is the
//! oracle's lookahead: [`analyze`] predicts the counts of a direction from
//! a classification without running anything, and the oracle prices them
//! with `expand_cost`, as it prices a Materialize with
//! [`materialize_cost`](crate::filter::materialize_cost) — so a label is
//! priced by the function that charges the run.

use crate::app::{EdgeApp, Status};
use crate::atomics::AtomicBitSet;
use crate::bucket::{Task, WorkPlan};
use crate::filter::status_of;
use crate::frontier::Frontier;
use crate::lb;
use crate::pattern::{AsFormat, Direction, Fusion, KernelConfig, LoadBalance};
use gswitch_graph::{Graph, VertexId, Weight};
use gswitch_simt::{DeviceSpec, KernelProfile};

/// Result of one Expand kernel.
#[derive(Debug)]
pub struct ExpandOutput {
    /// Priced work of this kernel.
    pub profile: KernelProfile,
    /// Successful `comp`/`comp_atomic` calls (activation events, possibly
    /// several per destination in push mode).
    pub activations: u64,
    /// Distinct vertices activated.
    pub distinct_activated: u64,
    /// Those vertices, marked: every destination a `comp`/`comp_atomic`
    /// returned `true` for — with the step's Active vertices, all the next
    /// classification has to re-`filter` unless the app names more
    /// (`EdgeApp::refilter_hint`). Left as the bitset the kernel marks (a
    /// push kernel deduplicates with it anyway), so listing it
    /// (`to_sorted_vec`, O(n/64 + distinct)) is paid only by a caller that
    /// wants the list, and no edge loop pushes to a vector.
    pub activated: AtomicBitSet,
    /// Failed atomics that lost a same-value race (`EdgeApp::would_tie`):
    /// the duplicates a fused kernel enqueues, counted in every mode so
    /// the oracle can estimate fusion's cost without running it.
    pub ties: u64,
    /// Edges actually traversed (pull mode may skip edges; E of the
    /// iteration's feedback).
    pub edges_touched: u64,
    /// Sum of out-degrees of the distinct activated vertices — the
    /// Inspector's estimate of the next iteration's E_a without an extra
    /// device pass.
    pub activated_out_edges: u64,
    /// The next frontier, produced only by a fused kernel (duplicates
    /// preserved — that is fusion's cost).
    pub next_queue: Option<Vec<VertexId>>,
    /// Per-slot touched-edge counts in workload order: what the load
    /// balance was priced over.
    pub touched: Vec<u32>,
    /// Whether the workload was a bitmap (slots = all vertices).
    pub bitmap_mode: bool,
}

/// What an Expand did, or will do, that its charge depends on beyond the
/// per-slot touched edges of its [`ExpandShape`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExpandCounts {
    /// Edges traversed: Σ touched.
    pub edges: u64,
    /// Pull: messages read, one per Active in-neighbour a receiver reached.
    pub hits: u64,
    /// Pull: receiver-cell writes, the successful `comp`s (≤ `hits`).
    pub wins: u64,
    /// Push: atomics that did not improve their destination (≤ `edges`).
    pub conflicts: u64,
}

/// The workload an Expand runs over, as its charge sees it.
#[derive(Clone, Copy, Debug)]
pub struct ExpandShape<'a> {
    /// Per-slot touched edges in workload order: one slot per queue entry,
    /// or one per vertex for a bitmap (zero on unset bits).
    pub touched: &'a [u32],
    /// A bitmap workload: its `u64` words are read instead of queue entries.
    pub bitmap: bool,
    /// An ascending queue: coalesced reads (`lb::SORTED_BYTES_DISCOUNT`)
    /// and the sorted-locality edge costs.
    pub sorted: bool,
}

/// The one charge of an Expand: what a kernel in `direction` under `lb`
/// that did `counts` over `shape` costs. [`expand`] charges its measured
/// counts through it, and the oracle prices [`analyze`]'s predicted ones.
pub fn expand_cost(
    spec: &DeviceSpec,
    direction: Direction,
    lb: LoadBalance,
    needs_weights: bool,
    shape: &ExpandShape,
    counts: &ExpandCounts,
) -> KernelProfile {
    let weight = if needs_weights { 4 } else { 0 };
    let slots = shape.touched.len() as u64;
    let mut p = KernelProfile::launch();
    p.edges_expanded = counts.edges;
    // Workload reads: a bitmap's backing words, each exactly once; a
    // queue's entries.
    p.bytes_read = if shape.bitmap { slots.div_ceil(64) * 8 } else { 4 * slots };
    match direction {
        Direction::Push => {
            // Per edge: neighbour id (and weight), the source's value and
            // the destination's cell in; one atomic writing the cell.
            p.bytes_read += (20 + weight) * counts.edges;
            p.bytes_written = 16 * counts.edges;
            p.atomics = counts.edges;
            p.atomic_conflicts = counts.conflicts;
        }
        Direction::Pull => {
            // Per edge: source id + frontier-bit probe; per hit: the
            // source's value (and the weight); per win: the receiver's cell.
            p.bytes_read += 5 * counts.edges + (32 + weight) * counts.hits;
            p.bytes_written = 8 * counts.wins;
        }
    }
    if shape.sorted {
        // Coalescing: ascending vertex order moves fewer memory sectors.
        p.bytes_read = (p.bytes_read as f64 * (1.0 - lb::SORTED_BYTES_DISCOUNT)) as u64;
    }
    let costs = lb::edge_costs(spec, direction, shape.sorted);
    let price = lb::price(spec, lb, &costs, shape.touched, shape.bitmap);
    p.tasks = price.tasks;
    p.syncs = price.syncs;
    p.scan_elems = price.scan_elems;
    p.launches += price.extra_launches;
    p
}

/// What an Expand in one direction will charge over a classification,
/// found without running it: the counts and both views of the per-slot
/// touched edges. It cannot know two execution-only terms and prices
/// their bounds: push `conflicts` as 0, pull `wins` as `hits`.
#[derive(Debug)]
pub struct ExpandAnalysis {
    /// The predicted counts.
    pub counts: ExpandCounts,
    /// Touched edges per workload entry (the queue view).
    pub compact: Vec<u32>,
    /// Touched edges per vertex (the bitmap view; zero = idle slot).
    pub full: Vec<u32>,
}

impl ExpandAnalysis {
    /// The workload shape of this direction materialized as `format`.
    pub fn shape(&self, format: AsFormat) -> ExpandShape<'_> {
        let bitmap = format == AsFormat::Bitmap;
        ExpandShape {
            touched: if bitmap { &self.full } else { &self.compact },
            bitmap,
            sorted: format == AsFormat::SortedQueue,
        }
    }
}

/// Predict what an Expand of app `A` in `direction` over the
/// classification `status` of `g` will charge, touching no app state. The
/// workload is the Active vertices (push) or the receivers (pull); a push
/// row touches every out-edge, a pull row scans its in-edges — to its
/// first Active source for early-exit apps, with every Active source a
/// hit otherwise.
pub fn analyze<A: EdgeApp>(g: &Graph, status: &[u8], direction: Direction) -> ExpandAnalysis {
    let (out, incoming) = (g.out_csr(), g.in_csr());
    let active = |u: u32| status[u as usize] == Status::Active as u8;
    let member = |v: usize| match direction {
        Direction::Push => active(v as u32),
        Direction::Pull => A::pull_receives(status_of(status[v])),
    };
    // A row's (touched, hits).
    let scan = |v: usize| -> (u32, u32) {
        if !member(v) {
            return (0, 0);
        }
        if direction == Direction::Push {
            return (out.degree(v as u32), 0);
        }
        let sources = incoming.neighbors(v as u32);
        if A::PULL_EARLY_EXIT {
            match sources.iter().position(|&u| active(u)) {
                Some(i) => (i as u32 + 1, 1),
                None => (sources.len() as u32, 0),
            }
        } else {
            (sources.len() as u32, sources.iter().filter(|&&u| active(u)).count() as u32)
        }
    };
    // Per vertex: on the caller up to 256 vertices, else
    // `min(threads, ⌈n / 256⌉)` parts.
    let n = g.num_vertices();
    let per = n.div_ceil(gswitch_pool::threads().min(n.div_ceil(256)).max(1));
    let rows: Vec<(u32, u32)> =
        gswitch_pool::ranges(n, per, |vs| vs.map(scan).collect::<Vec<_>>()).concat();
    let mut counts = ExpandCounts::default();
    let mut compact = Vec::new();
    for (v, &(touched, hits)) in rows.iter().enumerate() {
        if member(v) {
            compact.push(touched);
            counts.edges += touched as u64;
            counts.hits += hits as u64;
        }
    }
    counts.wins = counts.hits; // the bound: every hit a win
    ExpandAnalysis { counts, compact, full: rows.into_iter().map(|(t, _)| t).collect() }
}

/// Lookahead distance (in edges) of the push loop's software-prefetch
/// hint. Far enough that the line lands before the demand load, near
/// enough that it is not evicted again on typical frontier rows.
const PREFETCH_DIST: usize = 8;

/// Run the Expand kernel per `cfg` on the workload `frontier` produced by
/// the Filter (or by a previous fused Expand). `status` is the Filter's
/// classification snapshot (pull mode and fused re-filtering read it).
pub fn expand<A: EdgeApp>(
    g: &Graph,
    app: &A,
    frontier: &Frontier,
    status: &[u8],
    cfg: KernelConfig,
    spec: &DeviceSpec,
) -> ExpandOutput {
    expand_planned(g, app, frontier, status, cfg, spec, None)
}

/// [`expand`] with an optional pre-built [`WorkPlan`] over this exact
/// workload (same entries, matching degree source). The engine's
/// direction-switch fast path passes the previous iteration's plan here
/// when the workload fingerprint matches, skipping the degree rescan;
/// `None` builds a fresh plan (identical semantics, identical pricing).
pub fn expand_planned<A: EdgeApp>(
    g: &Graph,
    app: &A,
    frontier: &Frontier,
    status: &[u8],
    cfg: KernelConfig,
    spec: &DeviceSpec,
    plan: Option<&WorkPlan>,
) -> ExpandOutput {
    match cfg.direction {
        Direction::Push => expand_push(g, app, frontier, cfg, spec, plan),
        Direction::Pull => expand_pull(g, app, frontier, status, cfg, spec, plan),
    }
}

/// Tasks a sweep runs on the calling thread: up to here a pool hand-off
/// (a queue push and a futex wake, a few µs) costs more than it shares.
const POOLED_TASKS: usize = 256;
/// Plan edges from which a pull sweep of independent rows
/// ([`EdgeApp::pull_rows_independent`]) goes to the pool whatever its task
/// count: a pull row costs a few ns per edge, so from here the parts
/// outweigh the hand-off.
const POOLED_PULL_EDGES: u64 = 1 << 15;
/// Parts a pooled sweep is cut into: enough that the slowest part is a
/// few percent of the step whatever the bucket mix, few enough that the
/// claims (one relaxed `fetch_add` each) stay invisible.
const POOLED_PARTS: usize = 32;

/// Per-task accumulator for the semantic pass: counts only; the charge
/// is [`expand_cost`]'s.
#[derive(Default)]
struct Acc {
    touched: Vec<u32>,
    out_queue: Vec<VertexId>,
    edges: u64,
    hits: u64,
    wins: u64,
    conflicts: u64,
    activations: u64,
    distinct: u64,
    ties: u64,
    activated_edges: u64,
}

/// Output of the bucketed sweep, before pricing.
struct Swept {
    /// Per-slot touched-edge counts, back in workload order (queue: slot
    /// order; bitmap: one slot per vertex, zeros on unset bits).
    touched: Vec<u32>,
    /// Per-task accumulators in task order (small → warp → cta).
    accs: Vec<Acc>,
}

/// Run `process` over every workload slot, partitioned by degree buckets:
/// small/warp rows ride in edge-balanced blocks, cta rows (hubs) get
/// tasks of their own, so one hub never serializes its neighbours' work.
/// Bitmap workloads are first swept word-by-word (zero words skipped,
/// `trailing_zeros` iteration) into the plan's cached entry list.
/// `independent`: no row reads what another writes, so the sweep may be
/// pooled by edges (the caller vouches; see the rule below).
fn run_bucketed<F>(
    g: &Graph,
    frontier: &Frontier,
    direction: Direction,
    plan: Option<&WorkPlan>,
    independent: bool,
    process: F,
) -> Swept
where
    F: Fn(VertexId, &mut Acc) -> u32 + Sync,
{
    // A usable plan must carry the bitmap entry sweep when the workload
    // is a bitmap; anything else falls back to a fresh build.
    let owned: Option<WorkPlan> = match plan {
        Some(p) if frontier.as_queue().is_some() || p.entries().is_some() => None,
        _ => Some(WorkPlan::for_frontier(g, frontier, direction)),
    };
    let plan = owned.as_ref().or(plan);
    let Some(plan) = plan else {
        // Unreachable by construction (owned is Some whenever plan was
        // None), but a degenerate empty sweep beats a panic in a kernel.
        return Swept { touched: Vec::new(), accs: Vec::new() };
    };
    let (entries, bitmap_mode): (&[VertexId], bool) = match frontier.as_queue() {
        Some(q) => (q, false),
        None => (plan.entries().unwrap_or(&[]), true),
    };

    // Per task: on the caller up to `POOLED_TASKS` tasks — or, for
    // independent rows, below `POOLED_PULL_EDGES` edges or with no core
    // idle — else `POOLED_PARTS` parts. Independent rows leave the same
    // state in any schedule; other rows keep the task rule (push until its
    // atomics are exact, and a pull whose rows read cells other rows
    // lower), since pooling them makes the trace depend on the schedule.
    // Halving the list by count would be the wrong cut: hub rows sit in
    // tasks of their own at the tail, so the first half carries nearly all
    // the edges. Many small parts instead, which the pool's claim counter
    // hands to whichever thread is free; the accumulators still come back
    // in task order.
    let tasks = plan.tasks();
    let pooled = tasks.len() > POOLED_TASKS
        || (independent && plan.total_edges() >= POOLED_PULL_EDGES && gswitch_pool::idle());
    let per = if pooled { tasks.len().div_ceil(POOLED_PARTS) } else { tasks.len() };
    let run = |&t: &Task| {
        let slots = plan.task_slots(t);
        let mut acc = Acc::default();
        acc.touched.reserve(slots.len());
        for &s in slots {
            let v = entries[s as usize];
            let deg = process(v, &mut acc);
            acc.touched.push(deg);
        }
        acc
    };
    let parts: Vec<Vec<Acc>> =
        gswitch_pool::ranges(tasks.len(), per, |r| tasks[r].iter().map(run).collect());
    let mut accs = Vec::with_capacity(tasks.len());
    for part in parts {
        accs.extend(part);
    }

    // Scatter per-task results back to workload order: each task's
    // `touched` is aligned with its slot sublist.
    let slots_len = if bitmap_mode { g.num_vertices() } else { plan.slots() };
    let mut touched = vec![0u32; slots_len];
    for (t, acc) in plan.tasks().iter().zip(accs.iter()) {
        for (&s, &d) in plan.task_slots(*t).iter().zip(acc.touched.iter()) {
            let idx = if bitmap_mode { entries[s as usize] as usize } else { s as usize };
            touched[idx] = d;
        }
    }

    Swept { touched, accs }
}

fn expand_push<A: EdgeApp>(
    g: &Graph,
    app: &A,
    frontier: &Frontier,
    cfg: KernelConfig,
    spec: &DeviceSpec,
    plan: Option<&WorkPlan>,
) -> ExpandOutput {
    let out = g.out_csr();
    let weights = g.out_weights();
    let fused = cfg.fusion == Fusion::Fused;
    let activated = AtomicBitSet::new(g.num_vertices());
    // Fused duplicate model: real fused kernels mark a bitmap at enqueue,
    // so only lanes racing inside the visibility window enqueue copies —
    // multiplicity is a small constant, not one copy per parent. We admit
    // the first success plus the first tie (the racer) and mark the rest
    // away, capping each vertex at two queue entries per level.
    let tie_marked = fused.then(|| AtomicBitSet::new(g.num_vertices()));
    let refilter = frontier.may_have_duplicates();

    // One source vertex: emit over all out-edges.
    let process = |v: VertexId, acc: &mut Acc| -> u32 {
        if refilter {
            // Fused input: fold the filter predicate in (cheap, no dedup).
            if app.filter(v) != Status::Active {
                return 0;
            }
            app.prepare(v);
        }
        let r = out.edge_range(v);
        let deg = r.len() as u32;
        let targets = &out.targets()[r.clone()];
        for (i, &u) in targets.iter().enumerate() {
            // The random access of a push row is the destination's state
            // (activation word + app cell); hint the word a few edges out.
            if let Some(&ahead) = targets.get(i + PREFETCH_DIST) {
                activated.prefetch(ahead);
            }
            let w: Weight = match (A::NEEDS_WEIGHTS, weights) {
                (true, Some(ws)) => ws[r.start + i],
                _ => 1,
            };
            let msg = app.emit(v, w);
            if app.comp_atomic(u, msg) {
                acc.activations += 1;
                if activated.set(u) {
                    acc.distinct += 1;
                    acc.activated_edges += out.degree(u) as u64;
                }
                if fused {
                    acc.out_queue.push(u);
                }
            } else {
                acc.conflicts += 1;
                // On the device, a lane that lost a same-value race would
                // still have enqueued its destination (see
                // `EdgeApp::would_tie`) — the duplicates fusion tolerates.
                if app.would_tie(u, msg) {
                    acc.ties += 1;
                    if let Some(marked) = &tie_marked {
                        if marked.set(u) {
                            acc.out_queue.push(u);
                        }
                    }
                }
            }
        }
        acc.edges += deg as u64;
        deg
    };

    let swept = run_bucketed(g, frontier, Direction::Push, plan, false, process);
    finish::<A>(swept, frontier, cfg, spec, activated)
}

fn expand_pull<A: EdgeApp>(
    g: &Graph,
    app: &A,
    frontier: &Frontier,
    status: &[u8],
    cfg: KernelConfig,
    spec: &DeviceSpec,
    plan: Option<&WorkPlan>,
) -> ExpandOutput {
    let incoming = g.in_csr();
    let weights = g.in_weights();
    let activated = AtomicBitSet::new(g.num_vertices());

    // One receiver vertex (SpMV row) is one `gather`: the row's source ids
    // stream contiguously out of the blocked CSR range, the status probe
    // is a byte of an n-byte array that stays cached, and what the app
    // does with the messages of the Active sources is its own business —
    // one cell write per row for an app that folds in a register. The
    // counts are functions of the row (`touched`, `hits`, `wins`), so they
    // are added once per row, not bumped per edge.
    let process = |v: VertexId, acc: &mut Acc| -> u32 {
        let r = incoming.edge_range(v);
        let sources = &incoming.targets()[r.clone()];
        // Messages of the row's Active sources, made as the gather asks
        // for them: what an early exit leaves in `rest` was never read
        // (Fig. 2's edge skipping).
        let mut rest = sources.iter();
        let mut hits = 0u64;
        let msgs = std::iter::from_fn(|| {
            let &u = rest.by_ref().find(|&&u| status_of(status[u as usize]) == Status::Active)?;
            hits += 1;
            let w: Weight = match (A::NEEDS_WEIGHTS, weights) {
                (true, Some(ws)) => ws[r.end - rest.len() - 1],
                _ => 1,
            };
            Some(app.emit(u, w))
        });
        let wins = app.gather(v, msgs);
        let touched = (sources.len() - rest.len()) as u32;
        acc.hits += hits;
        acc.wins += wins;
        if wins > 0 {
            acc.activations += 1;
            acc.distinct += 1;
            acc.activated_edges += g.out_csr().degree(v) as u64;
            activated.set(v);
        }
        acc.edges += touched as u64;
        touched
    };

    let swept =
        run_bucketed(g, frontier, Direction::Pull, plan, A::pull_rows_independent(), process);
    finish::<A>(swept, frontier, cfg, spec, activated)
}

/// Merge the task accumulators and charge the counts through
/// [`expand_cost`]; a fused kernel adds its frontier writes.
fn finish<A: EdgeApp>(
    swept: Swept,
    frontier: &Frontier,
    cfg: KernelConfig,
    spec: &DeviceSpec,
    activated: AtomicBitSet,
) -> ExpandOutput {
    let Swept { touched, accs } = swept;
    let fused = cfg.direction == Direction::Push && cfg.fusion == Fusion::Fused;
    let mut next_queue =
        fused.then(|| Vec::with_capacity(accs.iter().map(|a| a.out_queue.len()).sum()));
    let mut counts = ExpandCounts::default();
    let mut activations = 0u64;
    let mut distinct = 0u64;
    let mut ties = 0u64;
    let mut activated_out_edges = 0u64;
    for a in accs {
        if let Some(q) = next_queue.as_mut() {
            q.extend_from_slice(&a.out_queue);
        }
        counts.edges += a.edges;
        counts.hits += a.hits;
        counts.wins += a.wins;
        counts.conflicts += a.conflicts;
        activations += a.activations;
        distinct += a.distinct;
        ties += a.ties;
        activated_out_edges += a.activated_edges;
    }
    let bitmap_mode = frontier.as_queue().is_none();
    let shape =
        ExpandShape { touched: &touched, bitmap: bitmap_mode, sorted: frontier.is_sorted() };
    let mut profile = expand_cost(spec, cfg.direction, cfg.lb, A::NEEDS_WEIGHTS, &shape, &counts);
    // Duplicate frontier entries: real (fused queue) or would-be
    // (standalone: same-value ties plus repeat improvements).
    profile.duplicates = match &next_queue {
        Some(q) => (q.len() as u64).saturating_sub(distinct),
        None => (activations - distinct) + ties,
    };
    if let Some(q) = &next_queue {
        // Fused frontier writes (duplicates included).
        profile.bytes_written += 4 * q.len() as u64;
        profile.atomics += (q.len() as u64).div_ceil(spec.warp_size as u64);
    }

    ExpandOutput {
        profile,
        activations,
        distinct_activated: distinct,
        activated,
        ties,
        activated_out_edges,
        edges_touched: counts.edges,
        next_queue,
        touched,
        bitmap_mode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomics::AtomicArray;
    use crate::pattern::{AsFormat, LoadBalance, SteppingDelta};
    use gswitch_graph::GraphBuilder;

    /// Test shorthand: classify + materialize in one call (the engine does
    /// these as separate passes).
    struct FilterRes {
        frontier: Frontier,
        status: Vec<u8>,
    }

    fn filter<A: EdgeApp>(
        g: &Graph,
        app: &A,
        d: Direction,
        f: AsFormat,
        spec: &DeviceSpec,
    ) -> FilterRes {
        let co = crate::filter::classify(g, app, spec);
        let (frontier, _) = crate::filter::materialize::<A>(g, &co.status, d, f, spec);
        FilterRes { frontier, status: co.status }
    }

    /// BFS-like level app.
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

    fn star_graph() -> Graph {
        GraphBuilder::new(5).edges([(0, 1), (0, 2), (0, 3), (3, 4)]).build()
    }

    fn cfg(direction: Direction, fusion: Fusion) -> KernelConfig {
        KernelConfig {
            direction,
            format: AsFormat::UnsortedQueue,
            lb: LoadBalance::Twc,
            stepping: SteppingDelta::Remain,
            fusion,
        }
    }

    #[test]
    fn push_expands_one_level() {
        let g = star_graph();
        let app = LevelApp::new(5, 0);
        let spec = DeviceSpec::k40m();
        let f = filter(&g, &app, Direction::Push, AsFormat::UnsortedQueue, &spec);
        let out = expand(
            &g,
            &app,
            &f.frontier,
            &f.status,
            cfg(Direction::Push, Fusion::Standalone),
            &spec,
        );
        assert_eq!(out.edges_touched, 3); // deg(0) = 3
        assert_eq!(out.distinct_activated, 3);
        assert_eq!(app.level.load(1), 1);
        assert_eq!(app.level.load(3), 1);
        assert_eq!(app.level.load(4), u32::MAX);
        assert!(out.next_queue.is_none());
        assert_eq!(out.touched, vec![3]);
    }

    #[test]
    fn pull_reaches_same_state_as_push() {
        let g = star_graph();
        let spec = DeviceSpec::p100();
        let push_app = LevelApp::new(5, 0);
        let pull_app = LevelApp::new(5, 0);
        let f = filter(&g, &push_app, Direction::Push, AsFormat::UnsortedQueue, &spec);
        expand(
            &g,
            &push_app,
            &f.frontier,
            &f.status,
            cfg(Direction::Push, Fusion::Standalone),
            &spec,
        );
        let f2 = filter(&g, &pull_app, Direction::Pull, AsFormat::SortedQueue, &spec);
        let out = expand(
            &g,
            &pull_app,
            &f2.frontier,
            &f2.status,
            KernelConfig { direction: Direction::Pull, ..cfg(Direction::Pull, Fusion::Standalone) },
            &spec,
        );
        assert_eq!(push_app.level.to_vec(), pull_app.level.to_vec());
        // Pull issues no atomics.
        assert_eq!(out.profile.atomics, 0);
    }

    #[test]
    fn pull_early_exit_skips_edges() {
        // Vertex 4 has in-neighbors {0, 3}; 0 and 3 both active.
        let g = GraphBuilder::new(5).edges([(0, 4), (3, 4), (0, 3)]).build();
        let app = LevelApp::new(5, 0);
        app.level.store(3, 0); // both 0 and 3 are sources at level 0
        let spec = DeviceSpec::k40m();
        let f = filter(&g, &app, Direction::Pull, AsFormat::SortedQueue, &spec);
        // receivers: {4} only (1, 2 have no edges... they are inactive with deg 0)
        let out = expand(
            &g,
            &app,
            &f.frontier,
            &f.status,
            cfg(Direction::Pull, Fusion::Standalone),
            &spec,
        );
        // Vertex 4 stops at its first active parent: 1 edge touched,
        // not 2 (its second parent is skipped).
        let idx = f.frontier.to_vec().iter().position(|&v| v == 4).unwrap();
        assert_eq!(out.touched[idx], 1);
    }

    #[test]
    fn fused_push_emits_queue_with_duplicates() {
        // Both 0 and 1 point at 2: fused push enqueues 2 twice.
        let g = GraphBuilder::new(3).edges([(0, 2), (1, 2)]).build();
        let app = LevelApp::new(3, 0);
        app.level.store(1, 0);
        let spec = DeviceSpec::k40m();
        let f = filter(&g, &app, Direction::Push, AsFormat::UnsortedQueue, &spec);
        let out =
            expand(&g, &app, &f.frontier, &f.status, cfg(Direction::Push, Fusion::Fused), &spec);
        let q = out.next_queue.unwrap();
        assert_eq!(q, vec![2, 2]);
        assert_eq!(out.activations, 1, "one atomic wins");
        assert_eq!(out.ties, 1, "the loser tied and enqueued anyway");
        assert_eq!(out.distinct_activated, 1);
        assert_eq!(out.profile.duplicates, 1);
    }

    #[test]
    fn fused_input_refilters_stale_entries() {
        let g = star_graph();
        let app = LevelApp::new(5, 0);
        let spec = DeviceSpec::k40m();
        // Pretend a fused expand produced a queue with a duplicate of 0
        // (already Fixed at the next level) and an active 3.
        app.level.store(3, 1);
        app.advance(1);
        let raw = Frontier::RawQueue(vec![0, 3, 3]);
        let status = vec![Status::Fixed as u8; 5];
        let out = expand(&g, &app, &raw, &status, cfg(Direction::Push, Fusion::Fused), &spec);
        // Vertex 0 is level 0 != current 1 -> skipped; 3 processed twice.
        assert_eq!(out.edges_touched, 4); // deg(3) = 2, twice
        assert_eq!(app.level.load(4), 2);
    }

    #[test]
    fn bitmap_and_queue_same_semantics() {
        let g = star_graph();
        let spec = DeviceSpec::k40m();
        let a1 = LevelApp::new(5, 0);
        let a2 = LevelApp::new(5, 0);
        let f1 = filter(&g, &a1, Direction::Push, AsFormat::Bitmap, &spec);
        let f2 = filter(&g, &a2, Direction::Push, AsFormat::SortedQueue, &spec);
        let o1 = expand(
            &g,
            &a1,
            &f1.frontier,
            &f1.status,
            cfg(Direction::Push, Fusion::Standalone),
            &spec,
        );
        let o2 = expand(
            &g,
            &a2,
            &f2.frontier,
            &f2.status,
            cfg(Direction::Push, Fusion::Standalone),
            &spec,
        );
        assert_eq!(a1.level.to_vec(), a2.level.to_vec());
        assert_eq!(o1.edges_touched, o2.edges_touched);
        assert!(o1.bitmap_mode && !o2.bitmap_mode);
        // Bitmap touched vector covers all slots.
        assert_eq!(o1.touched.len(), 5);
        assert_eq!(o2.touched.len(), 1);
    }

    #[test]
    fn conflicts_counted_on_failed_atomics() {
        // 0 and 1 both update 2; one of the two atomics loses.
        let g = GraphBuilder::new(3).edges([(0, 2), (1, 2)]).build();
        let app = LevelApp::new(3, 0);
        app.level.store(1, 0);
        let spec = DeviceSpec::k40m();
        let f = filter(&g, &app, Direction::Push, AsFormat::UnsortedQueue, &spec);
        let out = expand(
            &g,
            &app,
            &f.frontier,
            &f.status,
            cfg(Direction::Push, Fusion::Standalone),
            &spec,
        );
        // Edges: 0->2, 0->1? no. edges: (0,2),(1,2) symmetric adds 2->0, 2->1.
        // Active = {0, 1}: edges 0->2 and 1->2: one succeeds, one conflicts...
        // both may succeed if the second improves (same msg value 1): the
        // second is rejected by fetch_min (not strictly less).
        assert_eq!(out.activations, 1);
        assert_eq!(out.profile.atomic_conflicts, 1);
    }

    /// The counts and shape of a push run, read back off its output.
    fn push_counts(out: &ExpandOutput, frontier: &Frontier) -> (ExpandCounts, bool) {
        let counts = ExpandCounts {
            edges: out.edges_touched,
            conflicts: out.profile.atomic_conflicts,
            ..Default::default()
        };
        (counts, frontier.is_sorted())
    }

    #[test]
    fn reprice_is_the_profile_of_a_run_under_that_strategy() {
        let g = star_graph();
        let spec = DeviceSpec::k40m();
        for format in [AsFormat::Bitmap, AsFormat::UnsortedQueue] {
            let run = |lb: LoadBalance| {
                let app = LevelApp::new(5, 0);
                let f = filter(&g, &app, Direction::Push, format, &spec);
                let cfg = KernelConfig { format, lb, ..cfg(Direction::Push, Fusion::Standalone) };
                (expand(&g, &app, &f.frontier, &f.status, cfg, &spec), f.frontier)
            };
            let (base, frontier) = run(LoadBalance::Twc);
            let (counts, sorted) = push_counts(&base, &frontier);
            let shape = ExpandShape { touched: &base.touched, bitmap: base.bitmap_mode, sorted };
            for &lb in LoadBalance::ALL {
                let mut priced = expand_cost(&spec, Direction::Push, lb, false, &shape, &counts);
                priced.duplicates = base.profile.duplicates;
                assert_eq!(priced, run(lb).0.profile, "{format:?}/{lb:?}");
            }
        }
    }

    #[test]
    fn reprice_changes_only_lb_terms() {
        let g = star_graph();
        let app = LevelApp::new(5, 0);
        let spec = DeviceSpec::k40m();
        let f = filter(&g, &app, Direction::Push, AsFormat::UnsortedQueue, &spec);
        let out = expand(
            &g,
            &app,
            &f.frontier,
            &f.status,
            cfg(Direction::Push, Fusion::Standalone),
            &spec,
        );
        let (counts, sorted) = push_counts(&out, &f.frontier);
        let shape = ExpandShape { touched: &out.touched, bitmap: false, sorted };
        let strict =
            expand_cost(&spec, Direction::Push, LoadBalance::Strict, false, &shape, &counts);
        assert_eq!(strict.bytes_read, out.profile.bytes_read);
        assert_eq!(strict.atomics, out.profile.atomics);
        assert_ne!(strict.tasks, out.profile.tasks);
    }

    #[test]
    fn analyze_push_counts_active_degrees() {
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (1, 3)]).build();
        // status: 0 active, others inactive
        let status = vec![0u8, 1, 1, 1];
        let a = analyze::<LevelApp>(&g, &status, Direction::Push);
        assert_eq!(a.compact.len(), 1);
        assert_eq!(a.compact, vec![2]);
        assert_eq!(a.full, vec![2, 0, 0, 0]);
        assert_eq!(a.counts.edges, 2);
    }

    #[test]
    fn analyze_pull_respects_early_exit() {
        // 3 has in-neighbors {1, 0... }; make 0 and 1 active, 2,3 inactive.
        let g = GraphBuilder::new(4).edges([(0, 3), (1, 3), (0, 2)]).build();
        let status = vec![0u8, 0, 1, 1];
        let a = analyze::<LevelApp>(&g, &status, Direction::Pull);
        // Receivers: 2 (parents {0}: 1 touch) and 3 (parents {0,1}: stop at first).
        assert_eq!(a.compact.len(), 2);
        assert_eq!(a.counts.hits, 2);
        assert!(a.compact.iter().all(|&t| t == 1));
    }
}
