//! Figures 13/14 — the kernel-searching process: for each BFS iteration
//! on the soc-orkut twin, the runtime of every (direction ×
//! load-balance) strategy, the strategy GSWITCH's selector picks, and the
//! true optimum. Reproduces the Fig. 14 matrix (values are ms; each row
//! one iteration).

use super::{twin_graph, ExpConfig};
use crate::runners::source_of;
use crate::table::{ms, Table};
use gswitch_algos::Bfs;
use gswitch_core::{
    AppCaps, DecisionContext, Direction, EngineOptions, KernelConfig, LoadBalance, Lookahead,
    Policy,
};
use gswitch_obs::sync::Lock;
use gswitch_simt::DeviceSpec;
use std::fmt::Write;

/// A strategy's column name: `push/TWC`.
fn label(d: Direction, l: LoadBalance) -> String {
    format!("{}/{}", d.wire(), l.wire().to_uppercase())
}

/// The 8 (direction × load-balance) strategies in column order.
fn strategies() -> impl Iterator<Item = (Direction, LoadBalance)> {
    Direction::ALL.iter().flat_map(|&d| LoadBalance::ALL.iter().map(move |&l| (d, l)))
}

/// The search as a policy: each decided step prices every strategy at its
/// best format, asks `selector`, keeps the table row and whether the pick
/// was the best, and runs the pick — standalone and unstepped, so legal
/// for any app.
struct Search<'a> {
    selector: &'a dyn Policy,
    rows: Lock<Vec<(Vec<String>, bool)>>,
}

impl Policy for Search<'_> {
    fn name(&self) -> &str {
        "fig14-search"
    }

    fn decide(&self, ctx: &DecisionContext, caps: &AppCaps) -> KernelConfig {
        self.selector.decide(ctx, caps)
    }

    fn decide_priced(
        &self,
        ctx: &DecisionContext,
        caps: &AppCaps,
        look: &Lookahead,
    ) -> KernelConfig {
        let (push, pull) = (look.prices(Direction::Push), look.prices(Direction::Pull));
        let cells: Vec<(Direction, LoadBalance, f64)> = strategies()
            .map(|(d, lb)| {
                let prices = if d == Direction::Push { &push } else { &pull };
                let t = prices.iter().filter(|p| p.1 == lb).map(|p| p.2);
                (d, lb, t.fold(f64::INFINITY, f64::min))
            })
            .collect();
        // `total_cmp`, as the oracle ranks: a NaN price sorts last, never panics.
        let best = cells.iter().min_by(|a, b| a.2.total_cmp(&b.2)).expect("8 strategies");
        let best = (best.0, best.1);
        let picked = self.selector.decide(ctx, caps);
        let pick = (picked.direction, picked.lb);
        let mut row = vec![ctx.iteration.to_string()];
        row.extend(cells.iter().map(|&(d, l, t)| {
            let mut s = ms(t);
            if (d, l) == pick {
                s = format!("[{s}]");
            }
            if (d, l) == best {
                s = format!("{s}*");
            }
            s
        }));
        row.extend([label(pick.0, pick.1), label(best.0, best.1)]);
        self.rows.lock().push((row, pick == best));
        KernelConfig { direction: pick.0, lb: pick.1, ..KernelConfig::push_baseline() }
    }
}

/// Run the experiment.
pub fn run(cfg: &ExpConfig) -> String {
    let g = twin_graph(cfg, "soc-orkut");
    let src = source_of(&g);
    let app = Bfs::new(g.num_vertices(), src);
    let search = Search { selector: cfg.policy.as_ref(), rows: Lock::new(Vec::new()) };
    let device = DeviceSpec::k40m();
    let opts =
        EngineOptions { max_iterations: 64, stability_bypass: false, ..EngineOptions::on(device) };
    gswitch_core::run(&g, &app, &search, &opts);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 14 — BFS strategy-runtime matrix, soc-orkut twin (N={}, M={})\n",
        g.num_vertices(),
        g.num_edges()
    );
    let mut header = vec!["it".to_string()];
    header.extend(strategies().map(|(d, l)| label(d, l)));
    header.extend(["GSWITCH".to_string(), "Best".to_string()]);
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table =
        Table::new("expand time (ms) per strategy; [x] = GSWITCH pick, * = true best", &header);
    let rows = std::mem::take(&mut *search.rows.lock());
    let (total, hits) = (rows.len(), rows.iter().filter(|(_, hit)| *hit).count());
    for (row, _) in rows {
        table.row(row);
    }

    let _ = writeln!(out, "{}", table.render());
    let _ = writeln!(
        out,
        "selector hit the (direction × load-balance) optimum in {hits}/{total} iterations \
         (paper Fig. 14: GSWITCH chooses the optimal strategy in each iteration; its \
         selector uses the same searching order P1 -> P3 of Fig. 13)",
    );
    // Verify the traversal completed correctly while we are here.
    let want = gswitch_algos::reference::bfs(&g, src);
    assert_eq!(app.levels(), want, "fig14 trajectory must stay a correct BFS");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_picks_and_best_markers() {
        let out = run(&ExpConfig::quick_rules());
        assert!(out.contains("GSWITCH"));
        assert!(out.contains('*'));
        assert!(out.contains('['));
    }
}
