//! GPUCC-like baseline: Soman, Kishore & Narayanan's fast GPU connected
//! components (hooking + pointer jumping), the CC specialist of Table 3.
//!
//! Unlike the frontier-based label propagation the GSWITCH API expresses,
//! Soman's algorithm is *edge-centric*: every pass sweeps the full edge
//! list, hooking the larger root under the smaller, then compresses trees
//! by pointer jumping. The paper notes GSWITCH loses to GPUCC on some
//! inputs precisely because these "specific optimizations ... can not be
//! generalized" — reproducing that requires reproducing the algorithm,
//! so this module implements it directly on the simulator.

use gswitch_graph::{Graph, VertexId};
use gswitch_simt::{DeviceSpec, KernelProfile, SimMs, TaskStats};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};

/// Result of a GPUCC run.
#[derive(Debug)]
pub struct GpuccResult {
    /// Per-vertex component labels (minimum vertex id in the component).
    pub labels: Vec<u32>,
    /// Simulated time (ms).
    pub time_ms: SimMs,
    /// Hook+jump rounds executed.
    pub rounds: u32,
}

/// Price one edge-centric hooking pass: a perfectly coalescible sweep of
/// the edge list with two random parent reads per edge and an occasional
/// atomic hook.
fn hook_pass_profile(g: &Graph, spec: &DeviceSpec, hooks: u64) -> KernelProfile {
    let m = g.num_edges() as u64;
    let mut p = KernelProfile::launch();
    p.bytes_read = m * (8 + 16); // edge endpoints + two parent probes
    p.bytes_written = hooks * 8;
    p.atomics = hooks;
    let mut tasks = TaskStats::default();
    let lane = spec.coalesced_cycles * (1.0 + 0.5 * spec.random_penalty);
    for _ in 0..m.div_ceil(spec.warp_size as u64) {
        tasks.add_task(lane);
    }
    p.tasks = tasks;
    p
}

/// Price one pointer-jumping pass: n random parent-of-parent reads.
fn jump_pass_profile(g: &Graph, spec: &DeviceSpec) -> KernelProfile {
    let n = g.num_vertices() as u64;
    let mut p = KernelProfile::launch();
    p.bytes_read = n * 32;
    p.bytes_written = n * 4;
    let mut tasks = TaskStats::default();
    let lane = spec.coalesced_cycles * spec.random_penalty;
    for _ in 0..n.div_ceil(spec.warp_size as u64) {
        tasks.add_task(lane);
    }
    p.tasks = tasks;
    p
}

/// Run GPUCC on the simulated device.
pub fn cc_run(g: &Graph, spec: &DeviceSpec) -> GpuccResult {
    let n = g.num_vertices();
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let mut time_ms = 0.0;
    let mut rounds = 0;
    // Per vertex, hooking and jumping alike: on the caller up to 256
    // vertices, else `min(threads, ⌈n / 256⌉)` parts.
    let per = n.div_ceil(gswitch_pool::threads().min(n.div_ceil(256)).max(1));

    loop {
        rounds += 1;
        // Hooking: for each edge, attach the larger root under the
        // smaller. Min-hooking makes the final root the component minimum.
        let changed = AtomicBool::new(false);
        let hook = |u: VertexId| {
            let mut local_hooks = 0u64;
            for &v in g.out_csr().neighbors(u) {
                let pu = parent[u as usize].load(Relaxed);
                let pv = parent[v as usize].load(Relaxed);
                if pu == pv {
                    continue;
                }
                let (hi, lo) = if pu > pv { (pu, pv) } else { (pv, pu) };
                // Hook only roots to keep trees shallow (Soman's
                // star-hooking condition).
                if parent[hi as usize].compare_exchange(hi, lo, Relaxed, Relaxed).is_ok() {
                    changed.store(true, Relaxed);
                    local_hooks += 1;
                }
            }
            local_hooks
        };
        let hooks: u64 =
            gswitch_pool::ranges(n, per, |vs| vs.map(|u| hook(u as VertexId)).sum::<u64>())
                .into_iter()
                .sum();
        time_ms += spec.kernel_time_ms(&hook_pass_profile(g, spec, hooks));

        // Pointer jumping to full compression.
        loop {
            let jumped = AtomicBool::new(false);
            gswitch_pool::ranges(n, per, |vs| {
                for v in vs {
                    let p = parent[v].load(Relaxed);
                    let gp = parent[p as usize].load(Relaxed);
                    if p != gp {
                        parent[v].store(gp, Relaxed);
                        jumped.store(true, Relaxed);
                    }
                }
            });
            time_ms += spec.kernel_time_ms(&jump_pass_profile(g, spec));
            if !jumped.load(Relaxed) {
                break;
            }
        }

        if !changed.load(Relaxed) {
            break;
        }
    }

    GpuccResult { labels: parent.iter().map(|p| p.load(Relaxed)).collect(), time_ms, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_algos::reference;
    use gswitch_graph::{gen, GraphBuilder};

    #[test]
    fn labels_match_reference() {
        for seed in 0..4 {
            let g = gen::erdos_renyi(400, 500, seed);
            let r = cc_run(&g, &DeviceSpec::k40m());
            assert_eq!(r.labels, reference::cc(&g), "seed {seed}");
            assert!(r.time_ms > 0.0);
        }
    }

    #[test]
    fn two_components() {
        let g = GraphBuilder::new(6).edges([(0, 1), (1, 2), (4, 5)]).build();
        let r = cc_run(&g, &DeviceSpec::p100());
        assert_eq!(r.labels, vec![0, 0, 0, 3, 4, 4]);
    }

    #[test]
    fn converges_in_logarithmic_rounds() {
        // A path is the worst case for hooking; rounds should still stay
        // well below n thanks to pointer jumping.
        let g = GraphBuilder::new(512).edges((0..511u32).map(|i| (i, i + 1))).build();
        let r = cc_run(&g, &DeviceSpec::k40m());
        assert!(r.rounds <= 20, "rounds = {}", r.rounds);
        assert!(r.labels.iter().all(|&l| l == 0));
    }
}
