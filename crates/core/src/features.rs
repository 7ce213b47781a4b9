//! The Inspector: feature assembly (Table 1).

use gswitch_graph::GraphStats;
use gswitch_kernels::{Direction, IterStats, SteppingDelta};
use gswitch_ml::FEATURE_COUNT;

/// Everything the Selector may look at when deciding one iteration's
/// configuration: dataset attributes (computed once at load), the runtime
/// characteristics of the most recent classification, and historical
/// timing. Plain `Copy` data — the engine snapshots it per iteration and
/// stores it in the trace.
#[derive(Clone, Copy, Debug)]
pub struct DecisionContext {
    /// Dataset attributes (Table 1, top block).
    pub graph: GraphStats,
    /// Runtime characteristics of the current workload (Table 1, middle
    /// block) — from this iteration's classification, or estimated from
    /// Expand feedback when running fused.
    pub stats: IterStats,
    /// Last Filter time, ms (t_f).
    pub t_f: f64,
    /// Last Expand time, ms (t_e).
    pub t_e: f64,
    /// Mean of previous Filter times, ms (T_f).
    pub t_f_avg: f64,
    /// Mean of previous Expand times, ms (T_e).
    pub t_e_avg: f64,
    /// Workload edges of the previous iteration (stepping trend input).
    pub prev_workload_edges: u64,
    /// Workload edges two iterations ago.
    pub prev_prev_workload_edges: u64,
    /// Super-step index (0-based).
    pub iteration: u32,
}

impl DecisionContext {
    /// A fresh context for iteration 0 (no history yet).
    pub fn initial(graph: GraphStats) -> Self {
        DecisionContext {
            graph,
            stats: IterStats::default(),
            t_f: 0.0,
            t_e: 0.0,
            t_f_avg: 0.0,
            t_e_avg: 0.0,
            prev_workload_edges: 0,
            prev_prev_workload_edges: 0,
            iteration: 0,
        }
    }

    /// Assemble the 21-entry feature vector in [`gswitch_ml::FEATURE_NAMES`]
    /// order. `cd`/`r_cd` describe the workload of `direction` — the paper
    /// fills them after P1 chooses which side (active or inactive
    /// elements) is the workload (§4.3).
    ///
    /// Unbounded count features (N, M, degrees, element counts) are
    /// carried as `ln(1 + x)`: axis-aligned trees cannot extrapolate raw
    /// counts beyond the training corpus, while log-scaled counts keep
    /// their split semantics across graph sizes ("more than ~10⁵ active
    /// edges" instead of an absolute cliff). Ratios, Gini, entropy, and
    /// times stay raw. Same 21 features as Table 1, one monotone
    /// transform.
    pub fn features(&self, direction: Direction) -> [f64; FEATURE_COUNT] {
        let g = &self.graph;
        let s = &self.stats;
        let n = s.n().max(1) as f64;
        let m = (s.e_active + s.e_inactive).max(1) as f64;
        let w = s.workload(direction);
        let ln = |x: f64| x.ln_1p();
        [
            ln(g.num_vertices as f64),
            ln(g.num_edges as f64),
            ln(g.avg_degree),
            ln(g.degree_stddev),
            ln(g.degree_rel_range),
            g.gini,
            g.entropy,
            ln(s.v_active as f64),
            ln(s.v_inactive as f64),
            ln(s.e_active as f64),
            ln(s.e_inactive as f64),
            s.v_active as f64 / n,
            s.v_inactive as f64 / n,
            s.e_active as f64 / m,
            s.e_inactive as f64 / m,
            ln(w.avg_degree()),
            w.rel_range(),
            self.t_f,
            self.t_e,
            self.t_f_avg,
            self.t_e_avg,
        ]
    }

    /// The paper's dynamic-stepping rule (§3, P4): compare the estimated
    /// edge workload against the previous iteration; beyond ±35%, move the
    /// priority threshold.
    pub fn stepping_by_rule(&self) -> SteppingDelta {
        let prev = self.prev_prev_workload_edges as f64;
        let cur = self.prev_workload_edges as f64;
        if prev == 0.0 {
            return SteppingDelta::Remain;
        }
        let ratio = cur / prev;
        if ratio > 1.35 {
            // Workload exploding: tighten the window for work efficiency.
            SteppingDelta::Decrease
        } else if ratio < 0.65 {
            // Workload collapsing: widen the window for parallelism.
            SteppingDelta::Increase
        } else {
            SteppingDelta::Remain
        }
    }

    /// Fraction of vertices active (V_ap), a heavily used decision input.
    pub fn active_vertex_ratio(&self) -> f64 {
        let n = self.stats.n();
        if n == 0 {
            0.0
        } else {
            self.stats.v_active as f64 / n as f64
        }
    }
}

/// A [`DecisionContext`] plus the running sums behind Table 1's
/// "historical information" block. Each lane of the engine's one
/// super-step loop owns one and calls [`History::fold`] once per executed
/// super-step, so the Selector — serving, the oracle that labels its
/// training data, the Fig. 14 search — sees the same history.
#[derive(Clone, Copy, Debug)]
pub(crate) struct History {
    /// What the Selector sees; set `iteration` and `stats` before deciding.
    pub(crate) ctx: DecisionContext,
    tf_sum: f64,
    te_sum: f64,
}

impl History {
    /// No history yet (iteration 0).
    pub(crate) fn new(graph: GraphStats) -> Self {
        History { ctx: DecisionContext::initial(graph), tf_sum: 0.0, te_sum: 0.0 }
    }

    /// Fold the super-step `ctx.iteration` just executed into the history
    /// the next Inspector reads: last and mean Filter/Expand times, and the
    /// two-step workload trend the P4 stepping rule compares.
    pub(crate) fn fold(&mut self, filter_ms: f64, expand_ms: f64, edges_touched: u64) {
        let ctx = &mut self.ctx;
        self.tf_sum += filter_ms;
        self.te_sum += expand_ms;
        let done = ctx.iteration as f64 + 1.0;
        ctx.prev_prev_workload_edges = ctx.prev_workload_edges;
        ctx.prev_workload_edges = edges_touched;
        ctx.t_f = filter_ms;
        ctx.t_e = expand_ms;
        ctx.t_f_avg = self.tf_sum / done;
        ctx.t_e_avg = self.te_sum / done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gswitch_kernels::WorkloadStats;

    fn ctx() -> DecisionContext {
        let graph = GraphStats {
            num_vertices: 100,
            num_edges: 400,
            avg_degree: 4.0,
            degree_stddev: 1.0,
            degree_rel_range: 2.0,
            max_degree: 9,
            min_degree: 1,
            gini: 0.25,
            entropy: 0.9,
        };
        let stats = IterStats {
            v_active: 10,
            v_inactive: 80,
            v_fixed: 10,
            e_active: 50,
            e_inactive: 300,
            push: WorkloadStats { vertices: 10, edges: 50, max_degree: 9, min_degree: 1 },
            pull: WorkloadStats { vertices: 80, edges: 320, max_degree: 9, min_degree: 1 },
        };
        DecisionContext {
            graph,
            stats,
            t_f: 0.5,
            t_e: 2.0,
            t_f_avg: 0.4,
            t_e_avg: 1.5,
            prev_workload_edges: 100,
            prev_prev_workload_edges: 100,
            iteration: 3,
        }
    }

    #[test]
    fn feature_vector_layout() {
        let c = ctx();
        let f = c.features(Direction::Push);
        assert_eq!(f.len(), 21);
        // Count features are carried as ln(1 + x).
        assert_eq!(f[0], 101f64.ln()); // N
        assert_eq!(f[1], 401f64.ln()); // M
        assert_eq!(f[7], 11f64.ln()); // v_a
        assert_eq!(f[10], 301f64.ln()); // e_ia
                                        // Ratios and times stay raw.
        assert!((f[11] - 0.1).abs() < 1e-12); // v_ap
        assert!((f[15] - 6f64.ln()).abs() < 1e-12); // push cd = 50/10 -> ln(6)
        assert_eq!(f[17], 0.5); // t_f
        assert_eq!(f[20], 1.5); // t_e_avg

        let fp = c.features(Direction::Pull);
        assert!((fp[15] - 5f64.ln()).abs() < 1e-12); // pull cd = 320/80 -> ln(5)
                                                     // Direction changes only cd/r_cd.
        for i in (0..21).filter(|&i| i != 15 && i != 16) {
            assert_eq!(f[i], fp[i], "feature {i} should not depend on direction");
        }
    }

    #[test]
    fn stepping_rule_thresholds() {
        let mut c = ctx();
        c.prev_prev_workload_edges = 100;
        c.prev_workload_edges = 140;
        assert_eq!(c.stepping_by_rule(), SteppingDelta::Decrease);
        c.prev_workload_edges = 60;
        assert_eq!(c.stepping_by_rule(), SteppingDelta::Increase);
        c.prev_workload_edges = 110;
        assert_eq!(c.stepping_by_rule(), SteppingDelta::Remain);
        c.prev_prev_workload_edges = 0;
        assert_eq!(c.stepping_by_rule(), SteppingDelta::Remain);
    }

    #[test]
    fn initial_context_is_inert() {
        let c = DecisionContext::initial(ctx().graph);
        assert_eq!(c.iteration, 0);
        assert_eq!(c.active_vertex_ratio(), 0.0);
        assert_eq!(c.stepping_by_rule(), SteppingDelta::Remain);
        let f = c.features(Direction::Push);
        assert!(f.iter().all(|x| x.is_finite()));
    }
}
