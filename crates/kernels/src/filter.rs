//! The Filter primitive, split into its two device passes:
//!
//! 1. [`classify`] — evaluate the app's `filter` predicate over all
//!    vertices, run the folded-in "Apply/Update" (`prepare`) on actives,
//!    and accumulate the runtime characteristics of Table 1 for *both*
//!    directions' prospective workloads. Its outputs feed the Inspector.
//! 2. [`materialize`] — after the Selector has fixed direction (P1) and
//!    active-set format (P2), build the workload frontier in that format,
//!    paying that format's generation cost (Fig. 4).
//!
//! Together they are the paper's Filter step; the engine sums both
//! profiles into the iteration's `t_f`.
//!
//! The device runs both passes at full width every standalone step, and
//! that is what the profiles charge. The host does not have to: a lane
//! keeps its [`Classification`] resident and re-`filter`s only the
//! vertices that can have changed since the last step
//! ([`Classification::update`]), which leaves exactly what a sweep of all
//! vertices would; a push frontier is then its Active list.

use crate::app::{EdgeApp, Status};
use crate::atomics::{append_set_bits, AtomicBitSet};
use crate::frontier::Frontier;
use crate::pattern::{AsFormat, Direction};
use gswitch_graph::{Csr, Graph, VertexId};
use gswitch_simt::{DeviceSpec, KernelProfile, TaskStats};

/// Cycles a lane spends evaluating the filter predicate (a couple of
/// compares on already-loaded data).
const FILTER_PREDICATE_CYCLES: f64 = 6.0;

/// Vertices per chunk of a per-chunk sweep; a chunk is one accumulator.
const CHUNK: usize = 1 << 13;

/// Chunks from which [`Classification::sweep`] pools: a vertex there costs
/// a `filter` and, when Active, a `prepare` (several ns), so two chunks
/// outweigh a pool hand-off.
const SWEEP_POOLED_CHUNKS: usize = 2;

/// Degree statistics of one prospective workload (Table 1: `cd`, `r_cd`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkloadStats {
    /// Workload entries (push: active vertices; pull: receivers).
    pub vertices: u64,
    /// Edges the workload would touch at most (push: out-edges of
    /// actives; pull: in-edges of receivers).
    pub edges: u64,
    /// Largest workload degree.
    pub max_degree: u32,
    /// Smallest workload degree.
    pub min_degree: u32,
}

impl WorkloadStats {
    /// A workload nothing has been observed into yet ([`finish`](Self::finish)
    /// turns its sentinel minimum into 0).
    const NONE: WorkloadStats =
        WorkloadStats { vertices: 0, edges: 0, max_degree: 0, min_degree: u32::MAX };

    /// Average workload degree (`cd`).
    pub fn avg_degree(&self) -> f64 {
        if self.vertices == 0 {
            0.0
        } else {
            self.edges as f64 / self.vertices as f64
        }
    }

    /// Relative workload degree range (`r_cd`).
    pub fn rel_range(&self) -> f64 {
        let avg = self.avg_degree();
        if avg == 0.0 {
            0.0
        } else {
            self.max_degree.saturating_sub(self.min_degree) as f64 / avg
        }
    }

    fn observe(&mut self, deg: u32) {
        self.vertices += 1;
        self.edges += deg as u64;
        self.max_degree = self.max_degree.max(deg);
        self.min_degree = self.min_degree.min(deg);
    }

    fn merge(&mut self, o: &WorkloadStats) {
        self.vertices += o.vertices;
        self.edges += o.edges;
        self.max_degree = self.max_degree.max(o.max_degree);
        self.min_degree = self.min_degree.min(o.min_degree);
    }

    fn finish(&mut self) {
        if self.min_degree == u32::MAX {
            self.min_degree = 0;
        }
    }
}

/// Runtime characteristics of one iteration (Table 1, middle block).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterStats {
    /// Active vertices (V_a).
    pub v_active: u64,
    /// Inactive vertices (V_ia).
    pub v_inactive: u64,
    /// Fixed (converged) vertices.
    pub v_fixed: u64,
    /// Out-edges of active vertices (E_a).
    pub e_active: u64,
    /// Out-edges of inactive vertices (E_ia).
    pub e_inactive: u64,
    /// Push workload: active vertices with out-degrees.
    pub push: WorkloadStats,
    /// Pull workload: receiver vertices with in-degrees.
    pub pull: WorkloadStats,
}

impl IterStats {
    /// Total vertices classified.
    pub fn n(&self) -> u64 {
        self.v_active + self.v_inactive + self.v_fixed
    }

    /// The workload stats for a direction.
    pub fn workload(&self, d: Direction) -> &WorkloadStats {
        match d {
            Direction::Push => &self.push,
            Direction::Pull => &self.pull,
        }
    }
}

/// Result of [`classify`].
#[derive(Debug)]
pub struct ClassifyOutput {
    /// Per-vertex classification (`Status` as `u8`) — the snapshot pull
    /// kernels probe and `materialize` compacts.
    pub status: Vec<u8>,
    /// Runtime characteristics for the Inspector.
    pub stats: IterStats,
    /// Simulated cost of this pass.
    pub profile: KernelProfile,
}

/// Status byte decoding (`Status` is `repr(u8)`).
#[inline]
pub fn status_of(byte: u8) -> Status {
    match byte {
        0 => Status::Active,
        1 => Status::Inactive,
        _ => Status::Fixed,
    }
}

/// Stats no vertex has been folded into yet.
fn no_stats() -> IterStats {
    IterStats { push: WorkloadStats::NONE, pull: WorkloadStats::NONE, ..Default::default() }
}

/// Whether a vertex's pull-workload membership can change with its
/// status. SSSP and PR gather everywhere: their pull workload never moves.
fn pull_varies<A: EdgeApp>() -> bool {
    let r = A::pull_receives;
    r(Status::Active) != r(Status::Inactive) || r(Status::Inactive) != r(Status::Fixed)
}

/// The one per-vertex body of the classification pass: evaluate `filter`
/// once, run the folded-in `prepare` once if `v` is Active, store the
/// status byte and fold `v`'s contribution into `s`.
#[inline]
fn visit<A: EdgeApp>(
    (out, incoming): (&Csr, &Csr),
    app: &A,
    v: VertexId,
    slot: &mut u8,
    s: &mut IterStats,
) -> Status {
    let st = app.filter(v);
    *slot = st as u8;
    let out_deg = out.degree(v);
    match st {
        Status::Active => {
            app.prepare(v);
            s.v_active += 1;
            s.e_active += out_deg as u64;
            s.push.observe(out_deg);
        }
        Status::Inactive => {
            s.v_inactive += 1;
            s.e_inactive += out_deg as u64;
        }
        Status::Fixed => s.v_fixed += 1,
    }
    if A::pull_receives(st) {
        s.pull.observe(incoming.degree(v));
    }
    st
}

/// Which status bytes a workload takes, indexed by `Status as u8`; a byte
/// past `Fixed` counts as `Fixed`, as [`status_of`] decodes it.
type Members = [bool; 3];

/// The push workload: the Active vertices.
const ACTIVE: Members = [true, false, false];

/// The members of `direction`'s workload: push takes the Active vertices,
/// pull the app's receivers.
fn members<A: EdgeApp>(direction: Direction) -> Members {
    match direction {
        Direction::Push => ACTIVE,
        Direction::Pull => [Status::Active, Status::Inactive, Status::Fixed].map(A::pull_receives),
    }
}

/// Bit `i` set where status byte `bytes[i]` is a member: eight bytes per
/// `u64` operation, without a branch.
fn member_bits(bytes: &[u8; 64], members: Members) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7f * ONES;
    const HIGH: u64 = 0x80 * ONES;
    // 0x80 in each byte of `x` that is zero, 0 elsewhere: no sum carries
    // out of its byte.
    let zero = |x: u64| !(((x & LOW7) + LOW7) | x | LOW7);
    let [m_active, m_inactive, m_fixed] = members.map(|m| if m { HIGH } else { 0 });
    let mut word = 0;
    for (k, eight) in bytes.as_chunks::<8>().0.iter().enumerate() {
        let x = u64::from_le_bytes(*eight);
        let (active, inactive) = (zero(x), zero(x ^ ONES));
        let member =
            (active & m_active) | (inactive & m_inactive) | (!(active | inactive) & m_fixed);
        // Byte i's flag to bit i: every partial product of the multiply
        // lands on a bit of its own, and bits 56..64 are the eight flags.
        word |= ((member >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    word
}

/// The workload `members` picks out of `status` as bitmap words — bit `b`
/// of word `w` is vertex `64*w + b` — and its size: one plain store and
/// one popcount per 64 vertices. Per chunk of `CHUNK` vertices: on the
/// caller up to 256 chunks (2 Mi vertices), else
/// `min(threads, ⌈chunks / 256⌉)` parts of whole chunks.
fn workload_words(status: &[u8], members: Members) -> (Vec<u64>, u64) {
    let n = status.len();
    let mut words = vec![0u64; n.div_ceil(64)];
    let chunks = n.div_ceil(CHUNK);
    let chunks_per_part = chunks.div_ceil(gswitch_pool::threads().min(chunks.div_ceil(256)).max(1));
    let per = chunks_per_part * (CHUNK / 64);
    let counts = gswitch_pool::parts_mut(&mut words, per, |first, part| {
        let bytes = &status[64 * first..n.min(64 * (first + part.len()))];
        let (full, tail) = bytes.as_chunks::<64>();
        for (word, bytes) in part.iter_mut().zip(full) {
            *word = member_bits(bytes, members);
        }
        if !tail.is_empty() {
            let mut padded = [0; 64];
            padded[..tail.len()].copy_from_slice(tail);
            part[full.len()] = member_bits(&padded, members) & !(u64::MAX << tail.len());
        }
        part.iter().map(|w| u64::from(w.count_ones())).sum::<u64>()
    });
    (words, counts.into_iter().sum())
}

/// The set bits of `words`, `count` of them, as an ascending vertex list.
fn set_bits(words: Vec<u64>, count: u64) -> Vec<VertexId> {
    let mut list = Vec::with_capacity(count as usize);
    append_set_bits(words, &mut list);
    list
}

/// The classification of one lane, kept resident across super-steps: the
/// status snapshot pull kernels probe, the Table 1 runtime characteristics
/// and (once asked for) the ascending list of Active vertices. A [`sweep`](Self::sweep)
/// rebuilds it from every vertex; an [`update`](Self::update) brings it
/// up to date from the vertices that can have changed and leaves exactly
/// what a sweep would.
#[derive(Debug)]
pub struct Classification<'g> {
    g: &'g Graph,
    status: Vec<u8>,
    stats: IterStats,
    /// The Active vertices, ascending: compacted out of a sweep's status
    /// bytes when first needed, kept current by every update after.
    active: Option<Vec<VertexId>>,
    /// Pull receivers per in-degree — what keeps the pull workload's
    /// extreme degrees exact when an update removes a receiver. Filled by
    /// the first update after a sweep (`None` until then), and only for
    /// apps whose pull membership follows the status.
    receivers_by_in_degree: Option<Vec<u32>>,
    /// Simulated cost of one pass: a function of `(n, spec)` only, so it
    /// is priced once here, whichever vertices the host visits.
    profile: KernelProfile,
}

impl<'g> Classification<'g> {
    /// An unclassified snapshot of `g` on `spec`; [`sweep`](Self::sweep) first.
    pub fn new(g: &'g Graph, spec: &DeviceSpec) -> Self {
        let n = g.num_vertices();
        // Price: one coalesced scan of vertex data + degrees, status write.
        let mut profile = KernelProfile::launch();
        let mut tasks = TaskStats::default();
        let warp = spec.warp_size as u64;
        for _ in 0..(n as u64).div_ceil(warp) {
            tasks.add_task(FILTER_PREDICATE_CYCLES + 2.0 * spec.coalesced_cycles);
        }
        profile.tasks = tasks;
        profile.bytes_read = 8 * n as u64; // vertex value + degree offsets
        profile.bytes_written = n as u64; // status byte
        Classification {
            g,
            status: vec![0u8; n],
            stats: no_stats(),
            active: None,
            receivers_by_in_degree: None,
            profile,
        }
    }

    /// Per-vertex classification (`Status` as `u8`).
    pub fn status(&self) -> &[u8] {
        &self.status
    }

    /// Runtime characteristics for the Inspector.
    pub fn stats(&self) -> &IterStats {
        &self.stats
    }

    /// The Active vertices, ascending.
    pub fn active(&mut self) -> &[VertexId] {
        let (status, any) = (&self.status, self.stats.v_active > 0);
        self.active.get_or_insert_with(|| {
            if any {
                let (words, count) = workload_words(status, ACTIVE);
                set_bits(words, count)
            } else {
                Vec::new()
            }
        })
    }

    /// Simulated cost of one classification pass.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// Classify every vertex.
    pub fn sweep<A: EdgeApp>(&mut self, app: &A) {
        let csrs = (self.g.out_csr(), self.g.in_csr());
        // Per chunk: on the caller below `SWEEP_POOLED_CHUNKS` chunks (16 Ki
        // vertices) or with no core idle, else one claimed part per chunk.
        // Each vertex writes only its own status byte, and the partials
        // merge by integer sums, minima and maxima, so no cut can change
        // the result.
        let n = self.status.len();
        let pooled = n >= SWEEP_POOLED_CHUNKS * CHUNK && gswitch_pool::idle();
        let per = if pooled { CHUNK } else { n };
        let partials = gswitch_pool::parts_mut(&mut self.status, per, |offset, part| {
            let mut s = no_stats();
            for (i, slot) in part.iter_mut().enumerate() {
                visit(csrs, app, (offset + i) as VertexId, slot, &mut s);
            }
            s
        });

        let mut stats = no_stats();
        for p in &partials {
            stats.v_active += p.v_active;
            stats.v_inactive += p.v_inactive;
            stats.v_fixed += p.v_fixed;
            stats.e_active += p.e_active;
            stats.e_inactive += p.e_inactive;
            stats.push.merge(&p.push);
            stats.pull.merge(&p.pull);
        }
        stats.push.finish();
        stats.pull.finish();
        self.stats = stats;
        (self.active, self.receivers_by_in_degree) = (None, None);
    }

    /// Re-classify only `dirty` (duplicates and any order allowed; sorted
    /// and deduplicated in place) plus the vertices Active so far. The
    /// caller's promise: no other vertex's `filter` result differs from
    /// the stored one. Each visited vertex's old contribution is
    /// retracted and its new one added, so the snapshot ends bit-equal to
    /// a sweep's, with `filter` evaluated once per visited vertex and
    /// `prepare` once per Active one.
    pub fn update<A: EdgeApp>(&mut self, app: &A, dirty: &mut Vec<VertexId>) {
        dirty.extend_from_slice(self.active());
        dirty.sort_unstable();
        dirty.dedup();
        let (out, incoming) = (self.g.out_csr(), self.g.in_csr());
        let mut by_degree = pull_varies::<A>().then(|| {
            self.receivers_by_in_degree.take().unwrap_or_else(|| {
                let mut counts = Vec::new();
                for (v, &b) in self.status.iter().enumerate() {
                    if A::pull_receives(status_of(b)) {
                        bump(&mut counts, incoming.degree(v as VertexId));
                    }
                }
                counts
            })
        });

        // Every Active vertex is visited, so the push workload and the
        // active counts are refolded from nothing; the rest moves by the
        // difference.
        let s = &mut self.stats;
        (s.v_active, s.e_active, s.push) = (0, 0, WorkloadStats::NONE);
        if s.pull.vertices == 0 {
            // Stored finished (minimum 0): un-finish before observing into it.
            s.pull = WorkloadStats::NONE;
        }
        let mut active = self.active.take().unwrap_or_default();
        active.clear();
        for &v in dirty.iter() {
            let slot = &mut self.status[v as usize];
            let (old, in_deg) = (status_of(*slot), incoming.degree(v));
            match old {
                Status::Active => {}
                Status::Inactive => {
                    s.v_inactive -= 1;
                    s.e_inactive -= out.degree(v) as u64;
                }
                Status::Fixed => s.v_fixed -= 1,
            }
            if A::pull_receives(old) {
                s.pull.vertices -= 1;
                s.pull.edges -= in_deg as u64;
            }
            let new = visit((out, incoming), app, v, slot, s);
            if new == Status::Active {
                active.push(v);
            }
            if let Some(counts) = &mut by_degree {
                if A::pull_receives(old) {
                    counts[in_deg as usize] -= 1;
                }
                if A::pull_receives(new) {
                    bump(counts, in_deg);
                }
            }
        }
        if let Some(counts) = &by_degree {
            // No receiver lies beyond the stale extremes, so the nearest
            // occupied degree inwards of each is the exact one.
            let p = &mut s.pull;
            if p.vertices == 0 {
                *p = WorkloadStats::NONE;
            } else {
                while counts[p.max_degree as usize] == 0 {
                    p.max_degree -= 1;
                }
                while counts[p.min_degree as usize] == 0 {
                    p.min_degree += 1;
                }
            }
        }
        s.push.finish();
        s.pull.finish();
        (self.active, self.receivers_by_in_degree) = (Some(active), by_degree);
    }

    /// [`materialize`] from the snapshot: after an update a push workload
    /// is the Active list, built in O(|Active|); after a sweep, and for a
    /// pull workload (O(n) in size anyway), it is built a word at a time
    /// from the status bytes.
    pub fn materialize<A: EdgeApp>(
        &self,
        direction: Direction,
        format: AsFormat,
        spec: &DeviceSpec,
    ) -> (Frontier, KernelProfile) {
        let listed = self.active.as_deref().filter(|_| direction == Direction::Push);
        frontier_of::<A>(&self.status, listed, direction, format, spec)
    }
}

/// One more receiver of in-degree `deg`.
fn bump(counts: &mut Vec<u32>, deg: u32) {
    if counts.len() <= deg as usize {
        counts.resize(deg as usize + 1, 0);
    }
    counts[deg as usize] += 1;
}

/// Classification pass: statuses, prepare, Table 1 runtime features — a
/// fresh [`Classification`] swept once.
pub fn classify<A: EdgeApp>(g: &Graph, app: &A, spec: &DeviceSpec) -> ClassifyOutput {
    let mut c = Classification::new(g, spec);
    c.sweep(app);
    ClassifyOutput { status: c.status, stats: c.stats, profile: c.profile }
}

/// Analytic cost of materializing a `w`-entry workload over `n` vertices
/// in `format` — what [`materialize`] charges, without building anything.
/// Used by the oracle to price unchosen formats.
pub fn materialize_cost(format: AsFormat, n: usize, w: u64, spec: &DeviceSpec) -> KernelProfile {
    let mut profile = KernelProfile::launch();
    profile.bytes_read = n as u64;
    match format {
        AsFormat::Bitmap => {
            profile.bytes_written += (n as u64).div_ceil(8);
        }
        AsFormat::UnsortedQueue => {
            profile.bytes_written += 4 * w;
            profile.atomics += w.div_ceil(spec.warp_size as u64);
        }
        AsFormat::SortedQueue => {
            // A device-wide prefix scan is its own kernel with real
            // memory traffic: read the flags/offsets, write the
            // intermediate sums, scatter the entries.
            profile.launches += 1;
            profile.scan_elems += n as u64;
            profile.bytes_read += 4 * n as u64;
            profile.bytes_written += 4 * n as u64 + 4 * w;
        }
    }
    profile
}

/// Materialization pass: compact the chosen workload out of the status
/// snapshot into the chosen P2 format, paying its generation cost.
pub fn materialize<A: EdgeApp>(
    g: &Graph,
    status: &[u8],
    direction: Direction,
    format: AsFormat,
    spec: &DeviceSpec,
) -> (Frontier, KernelProfile) {
    debug_assert_eq!(status.len(), g.num_vertices());
    frontier_of::<A>(status, None, direction, format, spec)
}

/// The one place a status snapshot becomes a [`Frontier`]: from `listed`,
/// the workload's ascending entry list, when the caller holds one, else
/// from the workload's bitmap words ([`workload_words`]). A bitmap is the
/// words; a queue is their set bits, ascending either way (the sorted
/// queue's promise; the unsorted queue holds the same entries without the
/// promise). The simulated cost is that of the device's full-width
/// compaction whichever way the host builds it.
fn frontier_of<A: EdgeApp>(
    status: &[u8],
    listed: Option<&[VertexId]>,
    direction: Direction,
    format: AsFormat,
    spec: &DeviceSpec,
) -> (Frontier, KernelProfile) {
    let n = status.len();
    let bitmap = |words| Frontier::Bitmap(AtomicBitSet::from_words(words, n));
    let queue = |q| match format {
        AsFormat::SortedQueue => Frontier::SortedQueue(q),
        _ => Frontier::UnsortedQueue(q),
    };
    let (frontier, w) = match (listed, format) {
        (Some(entries), AsFormat::Bitmap) => {
            let mut words = vec![0u64; n.div_ceil(64)];
            for &v in entries {
                words[v as usize / 64] |= 1 << (v % 64);
            }
            (bitmap(words), entries.len() as u64)
        }
        (Some(entries), _) => (queue(entries.to_vec()), entries.len() as u64),
        (None, format) => {
            let (words, w) = workload_words(status, members::<A>(direction));
            let f =
                if format == AsFormat::Bitmap { bitmap(words) } else { queue(set_bits(words, w)) };
            (f, w)
        }
    };
    (frontier, materialize_cost(format, n, w, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomics::AtomicArray;
    use gswitch_graph::GraphBuilder;

    /// BFS-like test app over explicit levels.
    struct LevelApp {
        level: AtomicArray<u32>,
        current: u32,
    }

    impl EdgeApp for LevelApp {
        type Msg = u32;
        fn filter(&self, v: VertexId) -> Status {
            let l = self.level.load(v);
            if l == self.current {
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
    }

    fn setup() -> (Graph, LevelApp) {
        // Path 0-1-2-3 plus hub edges 1-{4,5}.
        let g = GraphBuilder::new(6).edges([(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)]).build();
        let app = LevelApp { level: AtomicArray::filled(6, u32::MAX), current: 1 };
        app.level.store(0, 0);
        app.level.store(1, 1);
        (g, app)
    }

    #[test]
    fn classification_counts_both_workloads() {
        let (g, app) = setup();
        let co = classify(&g, &app, &DeviceSpec::k40m());
        assert_eq!(co.stats.v_active, 1); // vertex 1
        assert_eq!(co.stats.v_fixed, 1); // vertex 0
        assert_eq!(co.stats.v_inactive, 4);
        assert_eq!(co.stats.e_active, 4); // deg(1) = 4
        assert_eq!(co.stats.n(), 6);
        // Push workload = {1}, 4 out-edges.
        assert_eq!(co.stats.push.vertices, 1);
        assert_eq!(co.stats.push.edges, 4);
        // Pull workload = inactive {2,3,4,5} with in-degrees 2,1,1,1.
        assert_eq!(co.stats.pull.vertices, 4);
        assert_eq!(co.stats.pull.edges, 5);
        assert_eq!(co.stats.pull.max_degree, 2);
        assert_eq!(co.stats.pull.min_degree, 1);
        assert_eq!(status_of(co.status[0]), Status::Fixed);
        assert_eq!(status_of(co.status[1]), Status::Active);
        assert_eq!(status_of(co.status[2]), Status::Inactive);
    }

    #[test]
    fn materialize_push_and_pull() {
        let (g, app) = setup();
        let spec = DeviceSpec::k40m();
        let co = classify(&g, &app, &spec);
        let (fp, _) =
            materialize::<LevelApp>(&g, &co.status, Direction::Push, AsFormat::SortedQueue, &spec);
        assert_eq!(fp.to_vec(), vec![1]);
        let (fq, _) =
            materialize::<LevelApp>(&g, &co.status, Direction::Pull, AsFormat::SortedQueue, &spec);
        assert_eq!(fq.to_vec(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn bitmap_matches_queue_contents() {
        let (g, app) = setup();
        let spec = DeviceSpec::k40m();
        let co = classify(&g, &app, &spec);
        let (fb, _) =
            materialize::<LevelApp>(&g, &co.status, Direction::Push, AsFormat::Bitmap, &spec);
        let (fq, _) = materialize::<LevelApp>(
            &g,
            &co.status,
            Direction::Push,
            AsFormat::UnsortedQueue,
            &spec,
        );
        assert_eq!(fb.to_vec(), fq.to_vec());
        assert_eq!(fb.format(), AsFormat::Bitmap);
    }

    #[test]
    fn generation_costs_differ_by_format() {
        let (g, app) = setup();
        let spec = DeviceSpec::k40m();
        let co = classify(&g, &app, &spec);
        let (_, pb) =
            materialize::<LevelApp>(&g, &co.status, Direction::Push, AsFormat::Bitmap, &spec);
        let (_, pu) = materialize::<LevelApp>(
            &g,
            &co.status,
            Direction::Push,
            AsFormat::UnsortedQueue,
            &spec,
        );
        let (_, ps) =
            materialize::<LevelApp>(&g, &co.status, Direction::Push, AsFormat::SortedQueue, &spec);
        assert_eq!(pb.scan_elems, 0);
        assert_eq!(pb.atomics, 0);
        assert!(pu.atomics > 0);
        assert_eq!(ps.scan_elems, g.num_vertices() as u64);
    }

    #[test]
    fn workload_stats_derived_metrics() {
        let w = WorkloadStats { vertices: 4, edges: 12, max_degree: 6, min_degree: 1 };
        assert_eq!(w.avg_degree(), 3.0);
        assert!((w.rel_range() - 5.0 / 3.0).abs() < 1e-12);
        let empty = WorkloadStats::default();
        assert_eq!(empty.avg_degree(), 0.0);
        assert_eq!(empty.rel_range(), 0.0);
    }

    /// `Classification::sweep` at every cut its rule takes — one part on
    /// the caller below two chunks, a part per chunk from there — equals
    /// the per-vertex `visit` loop: status bytes, `IterStats`, and one
    /// `prepare` per Active vertex and none elsewhere.
    #[test]
    fn sweep_equals_the_per_vertex_loop() {
        /// Pseudo-random statuses; counts its `prepare` calls per vertex.
        struct Counting {
            prepared: AtomicArray<u32>,
        }
        impl EdgeApp for Counting {
            type Msg = ();
            fn filter(&self, v: VertexId) -> Status {
                [Status::Active, Status::Inactive, Status::Fixed]
                    [(v.wrapping_mul(0x9e37_79b9) >> 30) as usize % 3]
            }
            fn prepare(&self, v: VertexId) {
                self.prepared.store(v, self.prepared.load(v) + 1);
            }
            fn emit(&self, _u: VertexId, _w: u32) {}
            fn comp_atomic(&self, _d: VertexId, _m: ()) -> bool {
                false
            }
            fn comp(&self, _d: VertexId, _m: ()) -> bool {
                false
            }
            fn pull_receives(status: Status) -> bool {
                status != Status::Fixed
            }
        }
        let spec = DeviceSpec::k40m();
        for n in [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, 3 * CHUNK + 17, 4 * CHUNK] {
            let g = gswitch_graph::gen::erdos_renyi(n, 3 * n, n as u64);
            let counting = || Counting { prepared: AtomicArray::filled(n, 0) };
            let (serial, mut status, mut stats) = (counting(), vec![0u8; n], no_stats());
            for (v, slot) in status.iter_mut().enumerate() {
                visit((g.out_csr(), g.in_csr()), &serial, v as VertexId, slot, &mut stats);
            }
            stats.push.finish();
            stats.pull.finish();

            let app = counting();
            let mut c = Classification::new(&g, &spec);
            c.sweep(&app);
            assert_eq!(c.status(), &status[..], "n = {n}");
            assert_eq!(c.stats(), &stats, "n = {n}");
            let once =
                status.iter().map(|&b| u32::from(b == Status::Active as u8)).collect::<Vec<_>>();
            assert_eq!(serial.prepared.to_vec(), once, "n = {n}: the loop");
            assert_eq!(app.prepared.to_vec(), once, "n = {n}: the sweep");
            assert!(stats.v_active > 0 && stats.v_inactive > 0 && stats.v_fixed > 0, "n = {n}");
        }
    }

    #[test]
    fn prepare_runs_once_per_active() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct CountApp {
            calls: AtomicU32,
        }
        impl EdgeApp for CountApp {
            type Msg = ();
            fn filter(&self, v: VertexId) -> Status {
                if v < 3 {
                    Status::Active
                } else {
                    Status::Inactive
                }
            }
            fn prepare(&self, _v: VertexId) {
                self.calls.fetch_add(1, Ordering::Relaxed);
            }
            fn emit(&self, _u: VertexId, _w: u32) {}
            fn comp_atomic(&self, _d: VertexId, _m: ()) -> bool {
                false
            }
            fn comp(&self, _d: VertexId, _m: ()) -> bool {
                false
            }
        }
        let g = GraphBuilder::new(8).edges([(0, 1)]).build();
        let app = CountApp { calls: AtomicU32::new(0) };
        classify(&g, &app, &DeviceSpec::p100());
        assert_eq!(app.calls.load(std::sync::atomic::Ordering::Relaxed), 3);
    }
}
