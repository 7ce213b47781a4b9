//! Quickstart: load a graph, run autotuned BFS, inspect the decisions.
//!
//! ```text
//! cargo run --release --example quickstart [path/to/graph.mtx]
//! ```
//!
//! Without an argument a scale-free benchmark graph is generated.

use gswitch::core::{AutoPolicy, EngineOptions};
use gswitch::graph::{gen, io};
use gswitch::prelude::*;

fn main() {
    // 1. Get a graph: a file (MatrixMarket / edge list / DIMACS), or a
    //    generated scale-free one.
    let g: Graph = match std::env::args().nth(1) {
        Some(path) => io::load_path(&path, &Default::default()).expect("load graph").graph,
        None => gen::kronecker(14, 16, 7),
    };
    let s = g.stats();
    println!(
        "graph `{}`: {} vertices, {} edges, avg degree {:.1}, Gini {:.2}, entropy {:.2}",
        g.name(),
        s.num_vertices,
        s.num_edges,
        s.avg_degree,
        s.gini,
        s.entropy
    );

    // 2. Run BFS under the autotuner on a simulated P100.
    let src = g.max_degree_vertex().unwrap_or(0);
    let opts = EngineOptions::on(DeviceSpec::p100());
    let result = gswitch::algos::bfs::bfs(&g, src, &AutoPolicy, &opts);

    // 3. Results + how the autotuner got them.
    let reached = result.levels.iter().filter(|&&l| l != u32::MAX).count();
    println!(
        "\nBFS from {src}: reached {reached} vertices in {} super-steps, simulated {:.3} ms \
         (filter {:.3} + expand {:.3} + tuning overhead {:.4})",
        result.report.n_iterations(),
        result.report.total_ms(),
        result.report.filter_ms(),
        result.report.expand_ms(),
        result.report.overhead_ms(),
    );
    println!("\nper-iteration decisions:");
    println!("  it |    V_a |       E_a | config");
    for t in &result.report.iterations {
        println!(
            "  {:>2} | {:>6} | {:>9} | {}",
            t.iteration, t.stats.v_active, t.stats.e_active, t.config
        );
    }
}
