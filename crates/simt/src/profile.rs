//! Work profiles: what a kernel did, counted exactly while doing it.

use serde::{Deserialize, Serialize};

/// Aggregate statistics over the warp tasks of one kernel.
///
/// A *warp task* is one warp's worth of work under the kernel's
/// load-balancing strategy: e.g. one TWC thread-bucket group of 32
/// vertices, one WM batch, one STRICT edge chunk. We keep only the
/// aggregates the makespan model needs — total, max, and count — so
/// profiles stay O(1) in memory on graphs with hundreds of millions of
/// edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskStats {
    /// Sum of task cycle estimates.
    pub total_cycles: f64,
    /// Longest single task (critical path under infinite parallelism).
    pub max_cycles: f64,
    /// Number of tasks.
    pub count: u64,
}

impl TaskStats {
    /// Record one warp task of `cycles` cycles.
    #[inline]
    pub fn add_task(&mut self, cycles: f64) {
        debug_assert!(cycles >= 0.0, "negative task cycles");
        self.total_cycles += cycles;
        if cycles > self.max_cycles {
            self.max_cycles = cycles;
        }
        self.count += 1;
    }

    /// Merge another set of tasks into this one (one part's fold into the
    /// next).
    #[inline]
    pub fn merge(&mut self, other: &TaskStats) {
        self.total_cycles += other.total_cycles;
        self.max_cycles = self.max_cycles.max(other.max_cycles);
        self.count += other.count;
    }

    /// Mean task length; 0 on the empty profile.
    pub fn mean_cycles(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_cycles / self.count as f64
        }
    }

    /// Imbalance ratio max/mean (1.0 = perfectly balanced, 0 when empty).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_cycles();
        if mean == 0.0 {
            0.0
        } else {
            self.max_cycles / mean
        }
    }
}

/// Everything one simulated kernel did.
///
/// Built incrementally by the kernel implementations in `gswitch-kernels`
/// (sequentially, or per pool part and joined with [`KernelProfile::merge`])
/// and priced by [`crate::DeviceSpec::kernel_time_ms`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Warp-task cycle statistics (compute side of the model).
    pub tasks: TaskStats,
    /// Bytes read from simulated global memory, after coalescing accounting
    /// (a random 4-byte access is charged a full 32-byte sector).
    pub bytes_read: u64,
    /// Bytes written to simulated global memory.
    pub bytes_written: u64,
    /// Atomic operations issued (push-mode `compAtomic`, queue append).
    pub atomics: u64,
    /// Atomics that hit an already-updated location this iteration —
    /// a proxy for same-cache-line contention.
    pub atomic_conflicts: u64,
    /// Kernel launches (fusion removes launches; that is its entire point).
    pub launches: u32,
    /// Elements pushed through prefix-scan (sorted-queue generation).
    pub scan_elems: u64,
    /// CTA-wide barriers executed (CM and STRICT).
    pub syncs: u64,
    /// Edges actually expanded (for feedback features, not for pricing).
    pub edges_expanded: u64,
    /// Duplicate active-set entries processed (fused mode tolerates these).
    pub duplicates: u64,
}

impl KernelProfile {
    /// A profile that did nothing but still counts as one launch.
    pub fn launch() -> Self {
        KernelProfile { launches: 1, ..Default::default() }
    }

    /// Warp-task imbalance of this kernel: max/mean task cycles (see
    /// [`TaskStats::imbalance`]) — the load-balance quality signal the
    /// decision trace reports per strategy.
    pub fn imbalance(&self) -> f64 {
        self.tasks.imbalance()
    }

    /// Merge another profile into this one (one part's fold into the
    /// next). Launches add — merging partial profiles of the *same* kernel
    /// should first zero one side's `launches`.
    pub fn merge(&mut self, other: &KernelProfile) {
        self.tasks.merge(&other.tasks);
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.atomics += other.atomics;
        self.atomic_conflicts += other.atomic_conflicts;
        self.launches += other.launches;
        self.scan_elems += other.scan_elems;
        self.syncs += other.syncs;
        self.edges_expanded += other.edges_expanded;
        self.duplicates += other.duplicates;
    }

    /// By-value [`merge`](Self::merge), as a fold operator.
    pub fn merged(mut self, other: KernelProfile) -> Self {
        self.merge(&other);
        self
    }

    /// Total bytes moved through the memory system.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_stats_track_total_max_count() {
        let mut t = TaskStats::default();
        t.add_task(10.0);
        t.add_task(30.0);
        t.add_task(20.0);
        assert_eq!(t.total_cycles, 60.0);
        assert_eq!(t.max_cycles, 30.0);
        assert_eq!(t.count, 3);
        assert_eq!(t.mean_cycles(), 20.0);
        assert_eq!(t.imbalance(), 1.5);
    }

    #[test]
    fn empty_stats_are_safe() {
        let t = TaskStats::default();
        assert_eq!(t.mean_cycles(), 0.0);
        assert_eq!(t.imbalance(), 0.0);
    }

    #[test]
    fn merge_is_commutative_on_aggregates() {
        let mut a = TaskStats::default();
        a.add_task(5.0);
        a.add_task(7.0);
        let mut b = TaskStats::default();
        b.add_task(100.0);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.max_cycles, 100.0);
        assert_eq!(ab.count, 3);
    }

    #[test]
    fn profile_merge_sums_everything() {
        let mut p = KernelProfile::launch();
        p.bytes_read = 100;
        p.atomics = 5;
        let q = KernelProfile {
            bytes_read: 50,
            bytes_written: 7,
            atomic_conflicts: 2,
            duplicates: 3,
            ..Default::default()
        };
        p.merge(&q);
        assert_eq!(p.bytes_read, 150);
        assert_eq!(p.bytes_moved(), 157);
        assert_eq!(p.launches, 1);
        assert_eq!(p.atomic_conflicts, 2);
        assert_eq!(p.duplicates, 3);
    }

    #[test]
    fn merged_is_reduce_friendly() {
        let profiles = [
            KernelProfile { bytes_read: 1, ..Default::default() },
            KernelProfile { bytes_read: 2, ..Default::default() },
            KernelProfile { bytes_read: 4, ..Default::default() },
        ];
        let total = profiles.into_iter().fold(KernelProfile::default(), KernelProfile::merged);
        assert_eq!(total.bytes_read, 7);
    }
}
