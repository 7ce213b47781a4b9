//! The perf ledger's one driver: measures the fixed workloads behind
//! `BENCH_kernels.json`, `BENCH_profile.json` and `BENCH_shard.json` and
//! either rewrites those files in the current directory (run from the
//! repo root to refresh the committed snapshots) or, with
//! `--check-regression`, compares the fresh measurement against them
//! and exits nonzero with one `FAIL` line per regressed row.
//!
//! ```text
//! cargo run --release -p gswitch-bench --bin perf-ledger                        # regenerate all three
//! cargo run --release -p gswitch-bench --bin perf-ledger -- shard               # regenerate one
//! cargo run --release -p gswitch-bench --bin perf-ledger -- --check-regression  # gate all three
//! ```
//!
//! What each field's class means and how it is compared is
//! [`gswitch_bench::ledger`]'s module doc.

use gswitch_bench::ledger::{self, Snapshot};
use std::path::PathBuf;

type Measure = fn() -> Snapshot;

const TOOLS: [(&str, Measure); 3] = [
    ("kernels", ledger::kernels::measure),
    ("profile", ledger::profile::measure),
    ("shard", ledger::shard::measure),
];

fn usage() -> ! {
    eprintln!(
        "usage: perf-ledger [kernels|profile|shard]... [--check-regression]\n\
         default: measure and (re)write BENCH_<tool>.json for the named tools (all if none)\n\
         --check-regression: measure and compare against the committed files instead"
    );
    std::process::exit(2);
}

fn main() {
    let mut check = false;
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check-regression" => check = true,
            tool if TOOLS.iter().any(|(name, _)| *name == tool) => selected.push(arg),
            _ => usage(),
        }
    }

    let mut failures = 0;
    for (tool, measure) in TOOLS {
        if !selected.is_empty() && !selected.iter().any(|s| s == tool) {
            continue;
        }
        let path = PathBuf::from(format!("BENCH_{tool}.json"));
        if !check {
            measure().write(&path).unwrap_or_else(|e| panic!("{e}"));
            eprintln!("wrote {}", path.display());
            continue;
        }
        // Load first: a missing or unreadable baseline fails before the
        // measurement spends its time.
        let found = match Snapshot::load(&path) {
            Ok(baseline) => measure().check(&baseline),
            Err(e) => {
                eprintln!("FAIL {e} (run perf-ledger {tool} once to create it)");
                failures += 1;
                continue;
            }
        };
        for f in &found {
            eprintln!("{f}");
        }
        eprintln!("perf-ledger {tool}: {} regression(s) against {}", found.len(), path.display());
        failures += found.len();
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
