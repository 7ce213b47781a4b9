//! Degree-bucketed work partitioning — the SpMSpV/SpMV task former.
//!
//! A frontier's slots have wildly skewed degrees on scale-free graphs:
//! fixed-size chunking (the old `CHUNK` splitting) lets one hub vertex
//! serialize a whole chunk while its siblings idle. GraphBLAST-style
//! load balancing instead forms tasks from a **degree prefix sum** over
//! the workload:
//!
//! * **small** slots (degree < [`WARP_DEG`]) are grouped into
//!   edge-balanced blocks — many rows per task, contiguous CSR reads;
//! * **warp** slots ([`WARP_DEG`]`..`[`CTA_DEG`]) likewise, with fewer
//!   rows per block;
//! * **cta** slots (degree ≥ [`CTA_DEG`]) each become their own task, so
//!   a hub never rides along with anyone else's work.
//!
//! The resulting [`WorkPlan`] is pure workload geometry — slot lists,
//! prefix sums, task ranges — with no app state, so the engine can cache
//! it across super-steps: when the next iteration's workload fingerprint
//! matches (e.g. PageRank's all-active set, or a direction switch on a
//! symmetric graph where in-degrees equal out-degrees), the prefix sums
//! are reused instead of rescanned (Gunrock's frontier-centric trick).

use crate::atomics::AtomicBitSet;
use crate::frontier::Frontier;
use crate::pattern::Direction;
use gswitch_graph::{Csr, Graph, VertexId};

/// Degrees below this go to the small bucket (one warp handles many rows).
pub const WARP_DEG: u32 = 32;
/// Degrees in `WARP_DEG..CTA_DEG` go to the warp bucket; at or above,
/// the row is a cta-sized task of its own.
pub const CTA_DEG: u32 = 256;
/// Target edges per small/warp task — the blocked CSR row-range size.
pub const BLOCK_EDGES: u64 = 1 << 12;
/// Cap on slots per task, so floods of zero-degree slots still split.
pub const BLOCK_SLOTS: usize = 1 << 12;

/// Which bucket a task draws its slots from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    /// Rows with degree < [`WARP_DEG`].
    Small,
    /// Rows with degree in [`WARP_DEG`]`..`[`CTA_DEG`].
    Warp,
    /// Rows with degree ≥ [`CTA_DEG`] — one task per row.
    Cta,
}

/// One parallel task: a contiguous range of one bucket's slot list.
#[derive(Clone, Copy, Debug)]
pub struct Task {
    /// Bucket the slot indices live in.
    pub bucket: Bucket,
    /// Start index into that bucket's slot list.
    pub start: usize,
    /// End index (exclusive).
    pub end: usize,
}

/// Which CSR's degrees a plan was built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegreeSource {
    /// Out-degrees (push workloads).
    Out,
    /// In-degrees (pull workloads).
    In,
}

impl DegreeSource {
    /// The degree source an expand in direction `d` needs.
    pub fn of(d: Direction) -> Self {
        match d {
            Direction::Push => DegreeSource::Out,
            Direction::Pull => DegreeSource::In,
        }
    }
}

/// Degree prefix sums and bucketed task ranges over one workload.
#[derive(Debug)]
pub struct WorkPlan {
    /// Exclusive prefix sum of slot degrees; `prefix[slots] == total_edges`.
    prefix: Vec<u64>,
    /// Slot indices with degree < `WARP_DEG`, in slot order.
    small: Vec<u32>,
    /// Slot indices with degree in `WARP_DEG..CTA_DEG`, in slot order.
    warp: Vec<u32>,
    /// Slot indices with degree ≥ `CTA_DEG`, in slot order.
    cta: Vec<u32>,
    /// Edge-balanced task ranges (small tasks, then warp, then cta).
    tasks: Vec<Task>,
    /// Σ degrees over the workload.
    total_edges: u64,
    /// Whose degrees the prefix sums hold.
    source: DegreeSource,
    /// Fingerprint of the workload the plan was built for.
    fingerprint: u64,
    /// Number of workload slots.
    slots: usize,
    /// Bitmap workloads: the set bits in ascending order (the popcount
    /// sweep's output, cached so a reused plan skips the sweep too).
    /// `None` when the caller owns the entry list (queue workloads).
    entries: Option<Vec<VertexId>>,
}

impl WorkPlan {
    /// Build a plan over a queue workload; `entries[i]` is slot `i`'s
    /// vertex and degrees come from `csr`.
    pub fn for_queue(csr: &Csr, entries: &[VertexId], source: DegreeSource) -> WorkPlan {
        let fp = fingerprint_queue(entries);
        Self::build(|i| csr.degree(entries[i]), entries.len(), source, fp, None)
    }

    /// Build a plan over a bitmap workload: sweep the set bits (skipping
    /// zero words) into an ascending entry list, then bucket as usual.
    pub fn for_bitmap(csr: &Csr, bits: &AtomicBitSet, source: DegreeSource) -> WorkPlan {
        let fp = fingerprint_bitmap(bits);
        let entries = bits.to_sorted_vec();
        let n = entries.len();
        let mut plan = Self::build(|i| csr.degree(entries[i]), n, source, fp, None);
        plan.entries = Some(entries);
        plan
    }

    /// Build the plan an expand of `frontier` in direction `d` needs.
    pub fn for_frontier(g: &Graph, frontier: &Frontier, d: Direction) -> WorkPlan {
        let source = DegreeSource::of(d);
        let csr = match d {
            Direction::Push => g.out_csr(),
            Direction::Pull => g.in_csr(),
        };
        match frontier.as_queue() {
            Some(q) => Self::for_queue(csr, q, source),
            None => match frontier {
                Frontier::Bitmap(b) => Self::for_bitmap(csr, b, source),
                _ => unreachable!("queueless frontier is a bitmap"),
            },
        }
    }

    fn build(
        degree_of: impl Fn(usize) -> u32,
        slots: usize,
        source: DegreeSource,
        fingerprint: u64,
        entries: Option<Vec<VertexId>>,
    ) -> WorkPlan {
        let mut prefix = Vec::with_capacity(slots + 1);
        prefix.push(0u64);
        let (mut small, mut warp, mut cta) = (Vec::new(), Vec::new(), Vec::new());
        let mut total = 0u64;
        for i in 0..slots {
            let deg = degree_of(i);
            total += deg as u64;
            prefix.push(total);
            if deg < WARP_DEG {
                small.push(i as u32);
            } else if deg < CTA_DEG {
                warp.push(i as u32);
            } else {
                cta.push(i as u32);
            }
        }

        let mut tasks = Vec::new();
        for (bucket, list) in [(Bucket::Small, &small), (Bucket::Warp, &warp)] {
            let mut start = 0usize;
            let mut edges = 0u64;
            for (k, &slot) in list.iter().enumerate() {
                let s = slot as usize;
                edges += prefix[s + 1] - prefix[s];
                let full = edges >= BLOCK_EDGES || (k + 1 - start) >= BLOCK_SLOTS;
                if full {
                    tasks.push(Task { bucket, start, end: k + 1 });
                    start = k + 1;
                    edges = 0;
                }
            }
            if start < list.len() {
                tasks.push(Task { bucket, start, end: list.len() });
            }
        }
        for k in 0..cta.len() {
            tasks.push(Task { bucket: Bucket::Cta, start: k, end: k + 1 });
        }

        WorkPlan {
            prefix,
            small,
            warp,
            cta,
            tasks,
            total_edges: total,
            source,
            fingerprint,
            slots,
            entries,
        }
    }

    /// The parallel task ranges, small → warp → cta.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The slot indices a task covers.
    pub fn task_slots(&self, t: Task) -> &[u32] {
        let list = match t.bucket {
            Bucket::Small => &self.small,
            Bucket::Warp => &self.warp,
            Bucket::Cta => &self.cta,
        };
        &list[t.start..t.end]
    }

    /// Degree of workload slot `i` (from the prefix sums).
    pub fn degree(&self, i: usize) -> u32 {
        (self.prefix[i + 1] - self.prefix[i]) as u32
    }

    /// The exclusive degree prefix sums (`len == slots + 1`).
    pub fn prefix(&self) -> &[u64] {
        &self.prefix
    }

    /// Σ degrees over the workload.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Number of workload slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whose degrees the prefix sums hold.
    pub fn source(&self) -> DegreeSource {
        self.source
    }

    /// Slot counts per bucket `(small, warp, cta)`.
    pub fn bucket_sizes(&self) -> (usize, usize, usize) {
        (self.small.len(), self.warp.len(), self.cta.len())
    }

    /// Bitmap workloads: the cached ascending entry list.
    pub fn entries(&self) -> Option<&[VertexId]> {
        self.entries.as_deref()
    }

    /// Whether this plan can stand in for a fresh scan of `frontier`
    /// needing `need` degrees. A plan built from the other CSR still
    /// matches when the graph is symmetric — in-degrees equal out-degrees,
    /// so the prefix sums are identical (the direction-switch fast path).
    /// The slot count is compared first: counting entries is far cheaper
    /// than hashing them, so a frontier that changed size (every BFS
    /// level) costs no hash.
    pub fn matches(&self, frontier: &Frontier, need: DegreeSource, symmetric: bool) -> bool {
        (self.source == need || symmetric)
            && self.slots == frontier.len()
            && self.fingerprint == fingerprint_of(frontier)
    }
}

/// Fingerprint of a frontier's workload identity: queue entries for
/// queues, raw words for bitmaps. Only workloads of identical length are
/// ever compared, and the engine's plan cache is per-run, so a hash of one
/// multiply per `u64` is plenty.
fn fingerprint_of(frontier: &Frontier) -> u64 {
    match frontier.as_queue() {
        Some(q) => fingerprint_queue(q),
        None => match frontier {
            Frontier::Bitmap(b) => fingerprint_bitmap(b),
            _ => unreachable!("queueless frontier is a bitmap"),
        },
    }
}

/// Two entries per word; the length seeds the hash, so an odd tail needs
/// no padding of its own.
fn fingerprint_queue(entries: &[VertexId]) -> u64 {
    let (pairs, tail) = entries.as_chunks::<2>();
    let words = pairs.iter().map(|&[a, b]| u64::from(a) | u64::from(b) << 32);
    hash_words(entries.len() as u64, words.chain(tail.iter().map(|&v| u64::from(v))))
}

fn fingerprint_bitmap(bits: &AtomicBitSet) -> u64 {
    hash_words(bits.len() as u64 | (1 << 63), (0..bits.num_words()).map(|w| bits.word(w)))
}

/// One multiply per word, then the high half folded into the low one.
/// Without the fold, flipping the top bit of two consecutive words would
/// cancel: a multiply by an odd constant leaves a top-bit difference where
/// it is.
fn hash_words(seed: u64, words: impl Iterator<Item = u64>) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = seed.wrapping_mul(K);
    for w in words {
        h = (h ^ w).wrapping_mul(K);
        h ^= h >> 32;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_graph::GraphBuilder;

    fn hub_graph() -> Graph {
        // Vertex 0 is a hub pointing at 1..=300 (symmetric builder adds
        // the reverse edges, so deg(0) = 300, deg(i) = 1).
        let edges: Vec<(VertexId, VertexId)> = (1..=300).map(|i| (0, i)).collect();
        GraphBuilder::new(301).edges(edges).build()
    }

    #[test]
    fn prefix_sums_and_buckets() {
        let g = hub_graph();
        let q: Vec<VertexId> = (0..301).collect();
        let plan = WorkPlan::for_queue(g.out_csr(), &q, DegreeSource::Out);
        assert_eq!(plan.slots(), 301);
        assert_eq!(plan.total_edges(), 600); // 300 out + 300 mirrored
        assert_eq!(plan.prefix().len(), 302);
        assert_eq!(plan.degree(0), 300);
        assert_eq!(plan.degree(1), 1);
        let (small, warp, cta) = plan.bucket_sizes();
        assert_eq!(small, 300, "leaves are small");
        assert_eq!(warp, 0);
        assert_eq!(cta, 1, "the hub is isolated");
        // Every slot appears in exactly one task.
        let mut seen = vec![0u32; plan.slots()];
        for &t in plan.tasks() {
            for &s in plan.task_slots(t) {
                seen[s as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn cta_rows_get_their_own_tasks() {
        let g = hub_graph();
        let q: Vec<VertexId> = vec![0];
        let plan = WorkPlan::for_queue(g.out_csr(), &q, DegreeSource::Out);
        assert_eq!(plan.tasks().len(), 1);
        assert_eq!(plan.tasks()[0].bucket, Bucket::Cta);
    }

    #[test]
    fn small_tasks_are_edge_balanced() {
        // 3× BLOCK_EDGES worth of degree-1 slots must split into ≥ 3 tasks.
        let n = (3 * BLOCK_EDGES) as usize;
        let edges: Vec<(VertexId, VertexId)> =
            (0..n).map(|i| (i as VertexId, (i + n) as VertexId)).collect();
        let g = GraphBuilder::new(2 * n).edges(edges).build();
        let q: Vec<VertexId> = (0..n as VertexId).collect();
        let plan = WorkPlan::for_queue(g.out_csr(), &q, DegreeSource::Out);
        assert!(plan.tasks().len() >= 3, "got {} tasks", plan.tasks().len());
        for &t in plan.tasks() {
            let edges: u64 =
                plan.task_slots(t).iter().map(|&s| plan.degree(s as usize) as u64).sum();
            assert!(edges <= BLOCK_EDGES + WARP_DEG as u64);
        }
    }

    #[test]
    fn bitmap_plan_caches_sorted_entries() {
        let g = hub_graph();
        let bits = AtomicBitSet::new(301);
        bits.set(0);
        bits.set(64);
        bits.set(300);
        let plan = WorkPlan::for_bitmap(g.out_csr(), &bits, DegreeSource::Out);
        assert_eq!(plan.entries(), Some(&[0, 64, 300][..]));
        assert_eq!(plan.slots(), 3);
        assert_eq!(plan.total_edges(), 302); // 300 + 1 + 1
    }

    #[test]
    fn fingerprint_distinguishes_workloads_and_matches_reuse() {
        let g = hub_graph();
        let q1: Vec<VertexId> = vec![1, 2, 3];
        let q2: Vec<VertexId> = vec![1, 2, 4];
        let f1 = Frontier::UnsortedQueue(q1.clone());
        let f2 = Frontier::UnsortedQueue(q2);
        assert_ne!(fingerprint_of(&f1), fingerprint_of(&f2));
        let plan = WorkPlan::for_queue(g.out_csr(), &q1, DegreeSource::Out);
        assert!(plan.matches(&f1, DegreeSource::Out, false));
        assert!(!plan.matches(&f2, DegreeSource::Out, false));
        // A different length is rejected before any hashing.
        assert!(!plan.matches(&Frontier::UnsortedQueue(vec![1, 2]), DegreeSource::Out, false));
        // Cross-direction reuse only on symmetric graphs.
        assert!(!plan.matches(&f1, DegreeSource::In, false));
        assert!(plan.matches(&f1, DegreeSource::In, true));
    }

    #[test]
    fn queue_and_bitmap_fingerprints_never_mix() {
        let bits = AtomicBitSet::new(128);
        bits.set(1);
        bits.set(2);
        bits.set(3);
        let fb = fingerprint_of(&Frontier::Bitmap(bits));
        let fq = fingerprint_of(&Frontier::SortedQueue(vec![1, 2, 3]));
        assert_ne!(fb, fq);
    }

    #[test]
    fn one_vertex_moved_changes_the_word_hash() {
        // Same size, one vertex moved: from a word's top bit into the next
        // word (top bit or not), and within a packed queue pair.
        let bitmap = |v: VertexId| {
            let bits = AtomicBitSet::new(256);
            bits.set(v);
            fingerprint_of(&Frontier::Bitmap(bits))
        };
        let top = bitmap(63);
        for moved in [64, 68, 95, 127, 191] {
            assert_ne!(top, bitmap(moved), "{{63}} vs {{{moved}}}");
        }
        let queue = |q: Vec<VertexId>| fingerprint_of(&Frontier::UnsortedQueue(q));
        assert_ne!(queue(vec![1, 2, 3]), queue(vec![2, 1, 3]));
        assert_ne!(queue(vec![1, 2, 3]), queue(vec![1, 2, 4]));
    }
}
