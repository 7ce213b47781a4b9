//! Frog-like baseline (Shi et al.: asynchronous graph processing with a
//! hybrid coloring model, PPoPP'15 poster / TPDS).
//!
//! Frog partitions vertices into color chunks and streams them through
//! the GPU *asynchronously*: updates made by an earlier chunk are
//! visible to later chunks within the same sweep — Gauss-Seidel instead
//! of Jacobi — so value-propagation algorithms converge in fewer sweeps
//! (the paper: "Frog performed well on some graphs because it used an
//! asynchronous algorithm that convergences more quickly"). We reproduce
//! that with a color-chunked SSSP sweep on the simulator.

use gswitch_graph::{Graph, VertexId};
use gswitch_simt::{DeviceSpec, KernelProfile, SimMs, TaskStats};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Result of a Frog-like SSSP run.
#[derive(Debug)]
pub struct FrogResult {
    /// Tentative distances at convergence.
    pub distances: Vec<u32>,
    /// Simulated time (ms).
    pub time_ms: SimMs,
    /// Full sweeps executed (each sweep = `colors` chunk kernels).
    pub sweeps: u32,
}

/// Price one chunk kernel relaxing `edges` edges.
fn chunk_profile(edges: u64, spec: &DeviceSpec) -> KernelProfile {
    let mut p = KernelProfile::launch();
    p.bytes_read = edges * 24;
    p.bytes_written = edges * 4;
    p.atomics = edges;
    let mut tasks = TaskStats::default();
    let lane = spec.coalesced_cycles * (1.0 + spec.random_penalty);
    for _ in 0..edges.div_ceil(spec.warp_size as u64) {
        tasks.add_task(lane);
    }
    p.tasks = tasks;
    p
}

/// Run Frog-like asynchronous SSSP from `src` with `colors` chunks.
pub fn sssp_run(g: &Graph, src: VertexId, colors: usize, spec: &DeviceSpec) -> FrogResult {
    assert!(colors >= 1);
    let n = g.num_vertices();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    dist[src as usize].store(0, Relaxed);
    let csr = g.out_csr();
    let ws = g.out_weights();
    let chunk = n.div_ceil(colors);
    let mut time_ms = 0.0;
    let mut sweeps = 0;

    loop {
        sweeps += 1;
        let mut any_change = false;
        // Chunks run *in sequence*; vertices within a chunk in parallel.
        // Later chunks see earlier chunks' relaxations — the asynchrony.
        for c in 0..colors {
            let lo = c * chunk;
            let hi = ((c + 1) * chunk).min(n);
            if lo >= hi {
                continue;
            }
            let relax = |u: usize| {
                let du = dist[u].load(Relaxed);
                if du == u32::MAX {
                    return (false, 0u64);
                }
                let r = csr.edge_range(u as VertexId);
                let mut changed = false;
                for (i, &v) in csr.neighbors(u as VertexId).iter().enumerate() {
                    let w = ws.map(|w| w[r.start + i]).unwrap_or(1);
                    let nd = du.saturating_add(w);
                    if dist[v as usize].fetch_min(nd, Relaxed) > nd {
                        changed = true;
                    }
                }
                (changed, r.len() as u64)
            };
            let join = |(a, e1): (bool, u64), (b, e2): (bool, u64)| (a || b, e1 + e2);
            // Per vertex of the chunk: on the caller up to 256 vertices,
            // else `min(threads, ⌈len / 256⌉)` parts.
            let len = hi - lo;
            let per = len.div_ceil(gswitch_pool::threads().min(len.div_ceil(256)).max(1));
            let parts = gswitch_pool::ranges(len, per, |vs| {
                vs.map(|i| relax(lo + i)).fold((false, 0), join)
            });
            let (changed, edges) = parts.into_iter().fold((false, 0), join);
            time_ms += spec.kernel_time_ms(&chunk_profile(edges, spec));
            any_change |= changed;
        }
        if !any_change {
            break;
        }
    }

    FrogResult { distances: dist.iter().map(|d| d.load(Relaxed)).collect(), time_ms, sweeps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_algos::reference;
    use gswitch_graph::gen;

    #[test]
    fn frog_sssp_matches_dijkstra() {
        for seed in 0..3 {
            let g = gen::with_random_weights(&gen::erdos_renyi(300, 1_200, seed), 32, seed);
            let r = sssp_run(&g, 0, 8, &DeviceSpec::k40m());
            assert_eq!(r.distances, reference::sssp(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn asynchrony_reduces_sweeps() {
        // On a long path, a synchronous sweep moves the wavefront one hop
        // per iteration; Gauss-Seidel chunks move it a whole chunk when
        // the ordering cooperates.
        let g = gswitch_graph::GraphBuilder::new(400)
            .weighted_edges((0..399u32).map(|i| (i, i + 1, 1)))
            .build();
        let colored = sssp_run(&g, 0, 4, &DeviceSpec::k40m());
        assert!(
            (colored.sweeps as usize) < 399,
            "sweeps = {} should beat the synchronous bound",
            colored.sweeps
        );
        assert_eq!(colored.distances, reference::sssp(&g, 0));
    }
}
