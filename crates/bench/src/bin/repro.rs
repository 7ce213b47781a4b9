//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation on the simulated devices.
//!
//! ```text
//! repro [--quick] [--only fig1,fig15,...] [--model path.json]
//! ```
//!
//! Each experiment prints its report and archives it under `results/`.

use gswitch_bench::experiments::{self, ExpConfig};
use gswitch_bench::{default_model_path, load_policy, results_dir};
use std::time::Instant;

type Exp = (&'static str, &'static str, fn(&ExpConfig) -> String);

const EXPERIMENTS: &[Exp] = &[
    ("fig1", "Fig. 1  — motivation: BFS input sensitivity", experiments::fig01_motivation::run),
    ("fig3", "Fig. 3  — P1 direction per iteration", experiments::fig03_direction::run),
    ("fig5", "Fig. 5  — P2 active-set formats per iteration", experiments::fig05_format::run),
    ("fig7", "Fig. 7  — P3 load balancing per iteration", experiments::fig07_load_balance::run),
    ("fig8", "Fig. 8  — P4 stepping variants", experiments::fig08_stepping::run),
    ("fig9", "Fig. 9  — P5 kernel fusion per iteration", experiments::fig09_fusion::run),
    ("fig12", "Fig. 12 — optimal-strategy feature distributions", experiments::fig12_features::run),
    ("fig14", "Fig. 14 — kernel-search strategy matrix", experiments::fig14_search::run),
    ("table3", "Table 3 — overall runtimes vs baselines", experiments::table3_overall::run),
    ("fig15", "Fig. 15 — speedup vs Gunrock, both devices", experiments::fig15_speedup::run),
    ("fig16", "Fig. 16 — incremental pattern ablation", experiments::fig16_incremental::run),
    ("fig17", "Fig. 17 — time breakdown and overhead", experiments::fig17_breakdown::run),
    ("accuracy", "§5.4    — classifier accuracy (10-fold CV)", experiments::accuracy::run),
    ("ablation", "extra   — engine design-choice ablations", experiments::ablation::run),
];

#[expect(clippy::disallowed_methods, reason = "an offline tool reporting its own wall time")]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: repro [--quick] [--only <ids>] [--model <path>] [--list]");
        println!("experiments:");
        for (id, desc, _) in EXPERIMENTS {
            println!("  {id:>8}  {desc}");
        }
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _, _) in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let model_path = args
        .iter()
        .position(|a| a == "--model")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_model_path);
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect());

    let (policy, desc) = load_policy(&model_path);
    let cfg = ExpConfig { quick, policy, policy_desc: desc.to_string() };
    println!(
        "GSWITCH reproduction harness — selector: {desc}; mode: {}\n",
        if quick { "quick" } else { "full" }
    );

    let outdir = results_dir();
    let mut ran = 0;
    for (id, banner, f) in EXPERIMENTS {
        if let Some(filter) = &only {
            if !filter.iter().any(|x| x == id) {
                continue;
            }
        }
        println!("==================================================================");
        println!("{banner}");
        println!("==================================================================");
        let t0 = Instant::now();
        let report = f(&cfg);
        println!("{report}");
        println!("[{id} completed in {:.1}s]\n", t0.elapsed().as_secs_f64());
        let _ = std::fs::write(outdir.join(format!("{id}.txt")), &report);
        ran += 1;
    }
    if ran == 0 {
        eprintln!("no experiment matched --only; use --list to see ids");
        std::process::exit(1);
    }
    println!("{ran} experiment(s) archived under {}", outdir.display());
}
