//! `gswitch-analyze` — CLI for the repo's static analyzer.
//!
//! ```text
//! gswitch-analyze [--root DIR] [--json] [--deny-warnings]
//! ```
//!
//! Exit codes: `0` clean, `1` findings at or above the failing
//! severity, `2` usage error.

use gswitch_analyze::{run, Config};

fn usage() -> ! {
    eprintln!(
        "usage: gswitch-analyze [--root DIR] [--json] [--deny-warnings]\n\
         \n\
         Static analysis over the gswitch workspace: source lints clippy\n\
         cannot express, model-file soundness, and interprocedural dataflow over the\n\
         workspace call graph — cross-call lock order and cancellation\n\
         soundness (unpolled-hot-loop). See DESIGN.md §4.9 and §4.15.\n\
         \n\
         --root DIR        workspace root (default: nearest dir with Cargo.toml, else .)\n\
         --json            machine-readable report on stdout\n\
         --deny-warnings   warn findings also fail the build"
    );
    std::process::exit(2)
}

/// Walk upward from the cwd to the first directory holding a
/// `Cargo.toml` with a `[workspace]` table — so the tool runs
/// correctly from any subdirectory.
fn find_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return ".".into();
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root: Option<std::path::PathBuf> = None;
    let mut json = false;
    let mut deny_warnings = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    let report = run(&Config::for_root(root.unwrap_or_else(find_root)));

    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serializing report: {e}");
                std::process::exit(2)
            }
        }
    } else {
        for f in &report.findings {
            println!("{}", f.render());
        }
        if !report.findings.is_empty() {
            println!();
        }
        println!(
            "gswitch-analyze: {} file(s), {} fn(s), {} call edge(s), {} model(s) — \
             {} deny, {} warn",
            report.files_scanned,
            report.functions_indexed,
            report.call_edges,
            report.models_checked,
            report.deny,
            report.warn
        );
    }

    std::process::exit(report.exit_code(deny_warnings));
}
