//! Figure 15 — performance normalized to Gunrock over the evaluation
//! set, on both simulated devices: average runtimes, % of positive
//! speedups, and a size-vs-speedup scatter (CSV in results/).

use super::ExpConfig;
use crate::runners::{prepare, run_gswitch, run_gunrock, Algo};
use crate::table::{ms, Table};
use gswitch_graph::corpus;
use gswitch_simt::DeviceSpec;
use std::fmt::Write;

struct Cell {
    nnz: usize,
    gswitch_ms: f64,
    gunrock_ms: f64,
}

/// Run the experiment.
pub fn run(cfg: &ExpConfig) -> String {
    let stride = if cfg.quick { 64 } else { 16 };
    let recipes: Vec<_> = corpus::evaluation_set().into_iter().step_by(stride).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 15 — speedup vs Gunrock over {} evaluation graphs (stride {stride} of 644); \
         selector: {}\n",
        recipes.len(),
        cfg.policy_desc
    );
    let mut csv = String::from("device,algo,graph,nnz,gswitch_ms,gunrock_ms,speedup\n");

    for dev in [DeviceSpec::k40m(), DeviceSpec::p100()] {
        let mut t = Table::new(
            format!("Nvidia {}-like", dev.name),
            &["algo", "Gunrock avg ms", "Gswitch avg ms", "avg speedup", "% positive"],
        );
        for algo in Algo::ALL {
            // Per graph: one part each.
            let cells = gswitch_pool::parts(recipes.len(), |i| {
                let g = prepare(&recipes[i].build(), algo);
                let gs = run_gswitch(&g, algo, cfg.policy.as_ref(), &dev);
                let gr = run_gunrock(&g, algo, &dev);
                Cell { nnz: g.num_edges(), gswitch_ms: gs.time_ms, gunrock_ms: gr.time_ms }
            });
            let n = cells.len() as f64;
            let g_avg = cells.iter().map(|c| c.gswitch_ms).sum::<f64>() / n;
            let r_avg = cells.iter().map(|c| c.gunrock_ms).sum::<f64>() / n;
            let positive =
                cells.iter().filter(|c| c.gswitch_ms <= c.gunrock_ms).count() as f64 / n * 100.0;
            let speedup =
                cells.iter().map(|c| c.gunrock_ms / c.gswitch_ms.max(1e-12)).sum::<f64>() / n;
            t.row(vec![
                algo.tag().to_uppercase(),
                ms(r_avg),
                ms(g_avg),
                format!("{speedup:.2}x"),
                format!("{positive:.1}%"),
            ]);
            for (c, r) in cells.iter().zip(&recipes) {
                let _ = writeln!(
                    csv,
                    "{},{},{:?},{},{:.4},{:.4},{:.3}",
                    dev.name,
                    algo.tag(),
                    r,
                    c.nnz,
                    c.gswitch_ms,
                    c.gunrock_ms,
                    c.gunrock_ms / c.gswitch_ms.max(1e-12)
                );
            }
        }
        let _ = writeln!(out, "{}", t.render());
    }
    let csv_path = crate::results_dir().join("fig15_scatter.csv");
    let _ = std::fs::write(&csv_path, csv);
    let _ = writeln!(out, "per-graph scatter written to {}", csv_path.display());
    let _ = writeln!(
        out,
        "paper shape: 2.5-4.6x (K40m) and 2-3.3x (P100) average speedups; 84-96% / \
         94-99% positive cases; GSWITCH wins 92.4% of all cases."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_both_devices_and_all_algos() {
        let out = run(&ExpConfig::quick_rules());
        assert!(out.contains("K40m"));
        assert!(out.contains("P100"));
        assert!(out.contains("BFS"));
        assert!(out.contains("% positive"));
    }
}
