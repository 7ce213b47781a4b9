//! Figures 13/14 — the kernel-searching process: for each BFS iteration
//! on the soc-orkut twin, the runtime of every (direction ×
//! load-balance) strategy, the strategy GSWITCH's selector picks, and the
//! true optimum. Reproduces the Fig. 14 matrix (values are ms; each row
//! one iteration).

use super::{twin_graph, ExpConfig};
use crate::runners::source_of;
use crate::table::{ms, Table};
use gswitch_algos::Bfs;
use gswitch_core::oracle::{analyze_pull, analyze_push, price_direction};
use gswitch_core::{AppCaps, AsFormat, Direction, GraphApp, History, KernelConfig, LoadBalance};
use gswitch_kernels::{classify, expand, materialize};
use gswitch_simt::DeviceSpec;
use std::fmt::Write;

/// A strategy's column name: `push/TWC`.
fn label(d: Direction, l: LoadBalance) -> String {
    format!("{}/{}", d.wire(), l.wire().to_uppercase())
}

/// Run the experiment.
pub fn run(cfg: &ExpConfig) -> String {
    let spec = DeviceSpec::k40m();
    let g = twin_graph(cfg, "soc-orkut");
    let src = source_of(&g);
    let app = Bfs::new(g.num_vertices(), src);
    let caps = AppCaps::of::<Bfs>();
    let mut hist = History::new(*g.stats());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 14 — BFS strategy-runtime matrix, soc-orkut twin (N={}, M={})\n",
        g.num_vertices(),
        g.num_edges()
    );
    let strategies: Vec<(Direction, LoadBalance)> = Direction::ALL
        .iter()
        .flat_map(|&d| LoadBalance::ALL.iter().map(move |&l| (d, l)))
        .collect();
    let mut header = vec!["it".to_string()];
    header.extend(strategies.iter().map(|&(d, l)| label(d, l)));
    header.extend(["GSWITCH".to_string(), "Best".to_string()]);
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table =
        Table::new("expand time (ms) per strategy; [x] = GSWITCH pick, * = true best", &header);

    let mut hits = 0usize;
    let mut total = 0usize;
    for iteration in 0..64u32 {
        app.advance(iteration);
        hist.ctx.iteration = iteration;
        let co = classify(&g, &app, &spec);
        if co.stats.v_active == 0 {
            break;
        }
        hist.ctx.stats = co.stats;

        // Price all 8 (direction × lb) pairs at their best format.
        let push = analyze_push(&g, &co.status);
        let pull = analyze_pull::<Bfs>(&g, &co.status);
        let push_prices = price_direction::<Bfs>(&g, &spec, Direction::Push, &push);
        let pull_prices = price_direction::<Bfs>(&g, &spec, Direction::Pull, &pull);
        let cell = |prices: &[(AsFormat, LoadBalance, f64)], lb: LoadBalance| {
            prices
                .iter()
                .filter(|(_, l, _)| *l == lb)
                .map(|(_, _, t)| *t)
                .fold(f64::INFINITY, f64::min)
        };
        let cells: Vec<(Direction, LoadBalance, f64)> = strategies
            .iter()
            .map(|&(d, lb)| {
                let prices = if d == Direction::Push { &push_prices } else { &pull_prices };
                (d, lb, cell(prices, lb))
            })
            .collect();
        // `total_cmp`, as the oracle ranks: a NaN price sorts last, never panics.
        let best = cells.iter().copied().min_by(|a, b| a.2.total_cmp(&b.2)).expect("8 strategies");
        let picked = cfg.policy.decide(&hist.ctx, &caps);
        let row_cells: Vec<String> = cells
            .iter()
            .map(|&(d, l, t)| {
                let mut s = ms(t);
                if d == picked.direction && l == picked.lb {
                    s = format!("[{s}]");
                }
                if d == best.0 && l == best.1 {
                    s = format!("{s}*");
                }
                s
            })
            .collect();
        let mut row = vec![iteration.to_string()];
        row.extend(row_cells);
        row.push(label(picked.direction, picked.lb));
        row.push(label(best.0, best.1));
        table.row(row);
        total += 1;
        if picked.direction == best.0 && picked.lb == best.1 {
            hits += 1;
        }

        // Advance state along the selector's trajectory (standalone and
        // unstepped, so legal for any app).
        let exec = KernelConfig {
            direction: picked.direction,
            lb: picked.lb,
            ..KernelConfig::push_baseline()
        };
        let (frontier, mat) =
            materialize::<Bfs>(&g, &co.status, exec.direction, exec.format, &spec);
        let eo = expand(&g, &app, &frontier, &co.status, exec, &spec);
        let filter_ms = spec.kernel_time_ms(&co.profile) + spec.kernel_time_ms(&mat);
        let expand_ms = spec.kernel_time_ms(&eo.profile);
        hist.fold(filter_ms, expand_ms, eo.edges_touched);
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
