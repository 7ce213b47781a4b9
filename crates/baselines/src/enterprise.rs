//! Enterprise-like BFS baseline (Liu & Huang, SC'15).
//!
//! Enterprise is a hand-tuned direction-optimizing BFS with streamlined
//! GPU thread scheduling. Its direction switch is *static rule-based*
//! (fixed frontier-share thresholds baked into the code), which the
//! paper calls out as suboptimal on e.g. soc-orkut and
//! web-wikipedia-2009. We reproduce: fixed-rule switching + the
//! TWC-style scheduling Enterprise inherits from B40C, with bottom-up
//! iterations on a bitmap.

use gswitch_algos::bfs;
use gswitch_core::{
    AppCaps, AsFormat, DecisionContext, Direction, EngineOptions, Fusion, KernelConfig,
    LoadBalance, Policy, SteppingDelta,
};
use gswitch_graph::{Graph, VertexId};

/// Enterprise's frozen switching rule: go bottom-up while the frontier
/// holds more than 2% of the vertices (a fixed constant, not a user
/// parameter and not learned).
#[derive(Debug)]
pub struct EnterprisePolicy;

impl Policy for EnterprisePolicy {
    fn name(&self) -> &str {
        "enterprise"
    }

    fn decide(&self, ctx: &DecisionContext, _caps: &AppCaps) -> KernelConfig {
        let frontier_share = ctx.active_vertex_ratio();
        let direction = if frontier_share > 0.02 && ctx.stats.pull.vertices > 0 {
            Direction::Pull
        } else {
            Direction::Push
        };
        let format = match direction {
            Direction::Pull => AsFormat::Bitmap,
            Direction::Push => AsFormat::UnsortedQueue,
        };
        KernelConfig {
            direction,
            format,
            lb: LoadBalance::Twc,
            stepping: SteppingDelta::Remain,
            fusion: Fusion::Standalone,
        }
    }
}

/// Run Enterprise-like BFS.
pub fn bfs_run(g: &Graph, src: VertexId, opts: &EngineOptions) -> bfs::BfsResult {
    bfs::bfs(g, src, &EnterprisePolicy, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_algos::reference;
    use gswitch_graph::gen;

    #[test]
    fn enterprise_bfs_is_correct() {
        for seed in 0..3 {
            let g = gen::barabasi_albert(1_000, 4, seed);
            let r = bfs_run(&g, 0, &EngineOptions::default());
            assert_eq!(r.levels, reference::bfs(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn uses_twc_everywhere() {
        let g = gen::barabasi_albert(2_000, 6, 4);
        let r = bfs_run(&g, 0, &EngineOptions::default());
        assert!(r.report.iterations.iter().all(|t| t.config.lb == gswitch_core::LoadBalance::Twc));
    }
}
