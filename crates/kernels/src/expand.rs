//! The Expand primitive — Patterns 1 (direction), 3 (load balance) and
//! 5 (fusion).
//!
//! Expand does the *real* semantic work of a super-step on the CPU —
//! `emit` + `comp`/`comp_atomic` over every workload edge — while counting
//! exactly the device-relevant operations. Per-slot touched-edge counts
//! are then priced by the chosen load-balancing strategy (see
//! [`crate::lb`]); because the semantics are strategy-independent, the
//! same traversal can also price *all* strategies for oracle labelling.

use crate::app::{EdgeApp, Status};
use crate::atomics::AtomicBitSet;
use crate::bucket::{Task, WorkPlan};
use crate::filter::status_of;
use crate::frontier::Frontier;
use crate::lb::{self, EdgeCosts};
use crate::pattern::{Direction, Fusion, KernelConfig};
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
    /// Per-slot touched-edge counts in workload order, reusable for
    /// pricing other load-balance strategies (oracle mode).
    pub touched: Vec<u32>,
    /// Whether the workload was a bitmap (slots = all vertices).
    pub bitmap_mode: bool,
    /// The edge-cost table used (direction + locality), for re-pricing.
    pub costs: EdgeCosts,
}

impl ExpandOutput {
    /// Re-price this expansion under a different load-balance strategy —
    /// the oracle's "run once, price all variants" trick (§4.4: labels
    /// come from brute force; the traversal is identical across P3
    /// candidates, only task formation differs).
    pub fn reprice(&self, spec: &DeviceSpec, lb: crate::pattern::LoadBalance) -> KernelProfile {
        let price = lb::price(spec, lb, &self.costs, &self.touched, self.bitmap_mode);
        let mut p = self.profile;
        p.tasks = price.tasks;
        p.syncs = price.syncs;
        p.scan_elems = price.scan_elems;
        p.launches = 1 + price.extra_launches;
        p
    }
}

/// Lookahead distance (in edges) of the push loop's software-prefetch
/// hint. Far enough that the line lands before the demand load, near
/// enough that it is not evicted again on typical frontier rows.
const PREFETCH_DIST: usize = 8;

/// Analytic (no-execution) profile of a push Expand over a workload whose
/// slot `i` touches `touched[i]` edges: the byte/atomic accounting the
/// semantic pass would produce, minus conflicts and duplicates (unknown
/// without running). Used by the brute-force oracle to price the
/// *unchosen* direction without mutating app state.
pub fn analytic_push_profile(touched: &[u32], needs_weights: bool) -> KernelProfile {
    let edges: u64 = touched.iter().map(|&t| t as u64).sum();
    let per_edge_read = 4 + if needs_weights { 4 } else { 0 } + 16;
    KernelProfile {
        launches: 1,
        atomics: edges,
        bytes_read: edges * per_edge_read + 4 * touched.len() as u64,
        bytes_written: edges * 16,
        edges_expanded: edges,
        ..Default::default()
    }
}

/// Analytic profile of a pull Expand; `hits` is the number of receivers
/// with at least one active in-neighbor (each pays one emit-side read).
pub fn analytic_pull_profile(touched: &[u32], needs_weights: bool, hits: u64) -> KernelProfile {
    let edges: u64 = touched.iter().map(|&t| t as u64).sum();
    KernelProfile {
        launches: 1,
        bytes_read: edges * 5
            + hits * (32 + if needs_weights { 4 } else { 0 })
            + 4 * touched.len() as u64,
        bytes_written: hits * 8,
        edges_expanded: edges,
        ..Default::default()
    }
}

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
/// Parts a pooled sweep is cut into: enough that the slowest part is a
/// few percent of the step whatever the bucket mix, few enough that the
/// claims (one relaxed `fetch_add` each) stay invisible.
const POOLED_PARTS: usize = 32;

/// Per-task accumulator for the semantic pass.
#[derive(Default)]
struct Acc {
    touched: Vec<u32>,
    out_queue: Vec<VertexId>,
    bytes_read: u64,
    bytes_written: u64,
    atomics: u64,
    conflicts: u64,
    activations: u64,
    distinct: u64,
    ties: u64,
    activated_edges: u64,
    edges: u64,
}

/// Output of the bucketed sweep, before pricing.
struct Swept {
    /// Per-slot touched-edge counts, back in workload order (queue: slot
    /// order; bitmap: one slot per vertex, zeros on unset bits).
    touched: Vec<u32>,
    /// Per-task accumulators in task order (small → warp → cta).
    accs: Vec<Acc>,
    /// Workload-read bytes charged once for the whole sweep: bitmap mode
    /// reads each backing `u64` word exactly once, so the charge is
    /// word-granular over the span — not per-chunk, which double-counted
    /// partially shared words at chunk boundaries.
    base_bytes_read: u64,
}

/// Run `process` over every workload slot, partitioned by degree buckets:
/// small/warp rows ride in edge-balanced blocks, cta rows (hubs) get
/// tasks of their own, so one hub never serializes its neighbours' work.
/// Bitmap workloads are first swept word-by-word (zero words skipped,
/// `trailing_zeros` iteration) into the plan's cached entry list.
fn run_bucketed<F>(
    g: &Graph,
    frontier: &Frontier,
    direction: Direction,
    plan: Option<&WorkPlan>,
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
        return Swept { touched: Vec::new(), accs: Vec::new(), base_bytes_read: 0 };
    };
    let (entries, bitmap_mode): (&[VertexId], bool) = match frontier.as_queue() {
        Some(q) => (q, false),
        None => (plan.entries().unwrap_or(&[]), true),
    };

    // Per task: on the caller up to `POOLED_TASKS` tasks, else
    // `POOLED_PARTS` parts. Halving the list by count would be the wrong
    // cut: hub rows sit in tasks of their own at the tail, so the first
    // half carries nearly all the edges. Many small parts instead, which
    // the pool's claim counter hands to whichever thread is free; the
    // accumulators still come back in task order.
    let tasks = plan.tasks();
    let per =
        if tasks.len() > POOLED_TASKS { tasks.len().div_ceil(POOLED_PARTS) } else { tasks.len() };
    let run = |&t: &Task| {
        let slots = plan.task_slots(t);
        let mut acc = Acc::default();
        acc.touched.reserve(slots.len());
        if !bitmap_mode {
            acc.bytes_read += 4 * slots.len() as u64; // queue entry reads
        }
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

    let base_bytes_read = if bitmap_mode { (g.num_vertices() as u64).div_ceil(64) * 8 } else { 0 };
    Swept { touched, accs, base_bytes_read }
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
            acc.atomics += 1;
            acc.bytes_read += 4 + if A::NEEDS_WEIGHTS { 4 } else { 0 } + 16;
            acc.bytes_written += 16;
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

    let swept = run_bucketed(g, frontier, Direction::Push, plan, process);
    finish(swept, frontier, cfg, spec, fused, activated)
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
    // simulated counters are functions of the row (`touched`, `hits`,
    // `wins`), so they are added once per row, not bumped per edge.
    let hit_bytes: u64 = 32 + if A::NEEDS_WEIGHTS { 4 } else { 0 };
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
        // Per edge: source id + frontier-bit probe; per hit: the source's
        // value (and the weight); per win: the receiver's cell.
        acc.bytes_read += 5 * touched as u64 + hit_bytes * hits;
        acc.bytes_written += 8 * wins;
        if wins > 0 {
            acc.activations += 1;
            acc.distinct += 1;
            acc.activated_edges += g.out_csr().degree(v) as u64;
            activated.set(v);
        }
        acc.edges += touched as u64;
        touched
    };

    let swept = run_bucketed(g, frontier, Direction::Pull, plan, process);
    finish(swept, frontier, cfg, spec, false, activated)
}

/// Merge task accumulators, price the load balance, assemble the profile.
fn finish(
    swept: Swept,
    frontier: &Frontier,
    cfg: KernelConfig,
    spec: &DeviceSpec,
    fused: bool,
    activated: AtomicBitSet,
) -> ExpandOutput {
    let Swept { touched, accs, base_bytes_read } = swept;
    let mut next_queue =
        fused.then(|| Vec::with_capacity(accs.iter().map(|a| a.out_queue.len()).sum()));
    let mut profile = KernelProfile::launch();
    profile.bytes_read += base_bytes_read;
    let mut activations = 0u64;
    let mut distinct = 0u64;
    let mut ties = 0u64;
    let mut activated_out_edges = 0u64;
    let mut edges = 0u64;
    for a in accs {
        if let Some(q) = next_queue.as_mut() {
            q.extend_from_slice(&a.out_queue);
        }
        profile.bytes_read += a.bytes_read;
        profile.bytes_written += a.bytes_written;
        profile.atomics += a.atomics;
        profile.atomic_conflicts += a.conflicts;
        activations += a.activations;
        distinct += a.distinct;
        ties += a.ties;
        activated_out_edges += a.activated_edges;
        edges += a.edges;
    }
    profile.edges_expanded = edges;
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

    let bitmap_mode = frontier.as_queue().is_none();
    if frontier.is_sorted() {
        // Coalescing: ascending vertex order moves fewer memory sectors.
        profile.bytes_read = (profile.bytes_read as f64 * (1.0 - lb::SORTED_BYTES_DISCOUNT)) as u64;
    }
    let costs = lb::edge_costs(spec, cfg.direction, frontier.is_sorted());
    let price = lb::price(spec, cfg.lb, &costs, &touched, bitmap_mode);
    profile.tasks = price.tasks;
    profile.syncs = price.syncs;
    profile.scan_elems += price.scan_elems;
    profile.launches += price.extra_launches;

    ExpandOutput {
        profile,
        activations,
        distinct_activated: distinct,
        activated,
        ties,
        activated_out_edges,
        edges_touched: edges,
        next_queue,
        touched,
        bitmap_mode,
        costs,
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

    #[test]
    fn reprice_is_the_profile_of_a_run_under_that_strategy() {
        let g = star_graph();
        let spec = DeviceSpec::k40m();
        for format in [AsFormat::Bitmap, AsFormat::UnsortedQueue] {
            let run = |lb: LoadBalance| {
                let app = LevelApp::new(5, 0);
                let f = filter(&g, &app, Direction::Push, format, &spec);
                let cfg = KernelConfig { format, lb, ..cfg(Direction::Push, Fusion::Standalone) };
                expand(&g, &app, &f.frontier, &f.status, cfg, &spec)
            };
            let base = run(LoadBalance::Twc);
            for lb in [LoadBalance::Twc, LoadBalance::Wm, LoadBalance::Cm, LoadBalance::Strict] {
                assert_eq!(base.reprice(&spec, lb), run(lb).profile, "{format:?}/{lb:?}");
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
        let strict = out.reprice(&spec, LoadBalance::Strict);
        assert_eq!(strict.bytes_read, out.profile.bytes_read);
        assert_eq!(strict.atomics, out.profile.atomics);
        assert_ne!(strict.tasks, out.profile.tasks);
    }
}
