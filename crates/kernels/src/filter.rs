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

use crate::app::{EdgeApp, Status};
use crate::atomics::AtomicBitSet;
use crate::frontier::Frontier;
use crate::pattern::{AsFormat, Direction};
use gswitch_graph::{Graph, VertexId};
use gswitch_simt::{DeviceSpec, KernelProfile, TaskStats};
use rayon::prelude::*;

/// Cycles a lane spends evaluating the filter predicate (a couple of
/// compares on already-loaded data).
const FILTER_PREDICATE_CYCLES: f64 = 6.0;

/// Parallel chunk size for classification.
const CHUNK: usize = 1 << 13;

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

/// Classification pass: statuses, prepare, Table 1 runtime features.
pub fn classify<A: EdgeApp>(g: &Graph, app: &A, spec: &DeviceSpec) -> ClassifyOutput {
    let n = g.num_vertices();
    let out = g.out_csr();
    let incoming = g.in_csr();
    let mut status = vec![0u8; n];

    let fresh = || IterStats {
        push: WorkloadStats { min_degree: u32::MAX, ..Default::default() },
        pull: WorkloadStats { min_degree: u32::MAX, ..Default::default() },
        ..Default::default()
    };

    let partials: Vec<IterStats> = status
        .par_chunks_mut(CHUNK)
        .enumerate()
        .map(|(ci, chunk)| {
            let base = (ci * CHUNK) as VertexId;
            let mut s = fresh();
            for (i, slot) in chunk.iter_mut().enumerate() {
                let v = base + i as VertexId;
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
            }
            s
        })
        .collect();

    let mut stats = fresh();
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
    ClassifyOutput { status, stats, profile }
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
    let n = g.num_vertices();
    let in_workload = |v: VertexId| -> bool {
        let st = status_of(status[v as usize]);
        match direction {
            Direction::Push => st == Status::Active,
            Direction::Pull => A::pull_receives(st),
        }
    };

    let (frontier, w) = match format {
        AsFormat::Bitmap => {
            let bits = AtomicBitSet::new(n);
            let count: u64 = (0..n)
                .into_par_iter()
                .filter(|&v| in_workload(v as VertexId))
                .map(|v| {
                    bits.set(v as VertexId);
                    1u64
                })
                .sum();
            (Frontier::Bitmap(bits), count)
        }
        fmt => {
            // Two-pass block compaction (the device's count → scan →
            // scatter): a parallel count per block, then one fill of a
            // single exactly-sized allocation, skipping empty blocks.
            // Block-order filling gives ascending vertex ids (the sorted
            // queue's promise; the unsorted queue holds the same entries
            // without the promise) with no per-block vector allocations.
            let block = |ci: usize| {
                let ids = ci * CHUNK..((ci + 1) * CHUNK).min(n);
                ids.map(|v| v as VertexId).filter(|&v| in_workload(v))
            };
            let counts: Vec<usize> =
                (0..n.div_ceil(CHUNK)).into_par_iter().map(|ci| block(ci).count()).collect();
            let w: u64 = counts.iter().map(|&c| c as u64).sum();
            let mut q = Vec::with_capacity(w as usize);
            for (ci, &c) in counts.iter().enumerate() {
                if c != 0 {
                    q.extend(block(ci));
                }
            }
            let f = match fmt {
                AsFormat::SortedQueue => Frontier::SortedQueue(q),
                _ => Frontier::UnsortedQueue(q),
            };
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
