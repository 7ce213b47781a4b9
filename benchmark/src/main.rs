//! `gswitch-benchmark`: the one instrument later performance and
//! simplicity changes to GSWITCH-RS are measured with. See `README.md`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run, result on the last line
//! run.sh [--seed N] [--workload NAME] [--quick] [--runs R]  every workload, timed then traced
//! run.sh --compare a.json b.json                            A/A or parent/change comparison
//! ```

mod drive;
mod engine;
mod inputs;
mod layers;
mod metrics;
mod probes;
mod record;
mod report;
mod serve;
mod shard;
mod stats;
mod trace;
mod verify;

use drive::{Config, Outcome};
use metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};

/// Leave without a result line: the run cannot be trusted.
pub fn die(why: &str) -> ! {
    eprintln!("gswitch-benchmark: {why}");
    std::process::exit(1)
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n       \
         run.sh [--seed N] [--workload NAME] [--quick] [--runs R] [--seconds S]\n       \
         run.sh --compare a.json b.json\n       \
         run.sh --manifest | --table\nworkloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2)
}

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    runs: Option<usize>,
    compare: Option<(String, String)>,
    manifest: bool,
    table: bool,
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(it.next()?.clone()),
            "--seed" => a.seed = Some(it.next()?.parse().ok()?),
            "--seconds" => a.seconds = Some(it.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?),
            "--trace" => {
                a.trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--quick" => a.quick = true,
            "--runs" => a.runs = Some(it.next()?.parse().ok().filter(|r| *r >= 1)?),
            "--compare" => a.compare = Some((it.next()?.clone(), it.next()?.clone())),
            "--manifest" => a.manifest = true,
            "--table" => a.table = true,
            _ => return None,
        }
    }
    if let Some(w) = &a.workload {
        WORKLOADS.iter().find(|(name, _)| name == w)?;
    }
    Some(a)
}

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 12;
/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
pub const RUN_SECONDS: u32 = 20;

fn config(args: &Args, workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.quick { 1.0 } else { f64::from(RUN_SECONDS) }),
        trace,
        size: if args.quick { 0.125 } else { 1.0 },
        setups: if args.quick { 1 } else { 3 },
        min_passes: if args.quick { 1 } else { 3 },
    }
}

fn run_workload(cfg: &Config) -> Outcome {
    match cfg.workload.as_str() {
        "engine-bulk" => drive::run(cfg, engine::setup_bulk),
        "engine-steps" => drive::run(cfg, engine::setup_steps),
        "serve-mixed" => drive::run(cfg, serve::setup),
        "shard-batch" => drive::run(cfg, shard::setup),
        other => die(&format!("unknown workload {other}")),
    }
}

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `defs`. A layer this
/// workload's path never touches reads 0; a value that is not a number
/// makes the run incorrect.
fn result_line(defs: &[Def], outcome: &Outcome) -> (String, bool) {
    let value = |d: &Def| outcome.values.get(d.name).unwrap_or(0.0);
    let correct = outcome.failed == 0 && defs.iter().all(|d| value(d).is_finite());
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = if value(d).is_finite() { value(d) } else { 0.0 };
            format!(r#""{}": {{"value": {v:?}, "unit": "{}"}}"#, d.name, d.unit)
        })
        .collect();
    let line = format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    (line, correct)
}

/// Print every metric by name with its unit, then the result object as
/// the last line of standard output.
fn print_result(cfg: &Config, outcome: &Outcome) -> bool {
    let defs: &[Def] = if cfg.trace { PER_LAYER } else { END_TO_END };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for d in defs {
        println!("{:<44} {:>16.6} {}", d.name, outcome.values.get(d.name).unwrap_or(0.0), d.unit);
    }
    let (line, correct) = result_line(defs, outcome);
    println!("{line}");
    correct
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv) else { usage() };
    if args.manifest {
        print!("{}", report::manifest());
        return;
    }
    if args.table {
        print!("{}", report::markdown_tables());
        return;
    }
    if let Some((a, b)) = &args.compare {
        std::process::exit(report::compare(a, b));
    }
    match (&args.workload, args.trace) {
        (Some(w), Some(trace)) => {
            let cfg = config(&args, w, trace);
            let outcome = run_workload(&cfg);
            let correct = print_result(&cfg, &outcome);
            // Quick and hand-started runs fail loudly; the last line
            // still carries the counts.
            std::process::exit(if correct { 0 } else { 1 });
        }
        (_, Some(_)) => usage(),
        (only, None) => {
            let runs = args.runs.unwrap_or(1);
            let base = config(&args, "", false);
            std::process::exit(report::run_all(only.as_deref(), &base, args.quick, runs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }

    /// The golden schema of the emitted document.
    #[test]
    fn result_line_has_the_contract_keys_and_every_metric() {
        let mut values = metrics::Values::default();
        values.set("wall_s", 1.2034);
        values.set("sim_ms", f64::NAN);
        let outcome = Outcome { attempted: 1000, failed: 0, values, notes: Vec::new() };
        for defs in [END_TO_END, PER_LAYER] {
            let (line, correct) = result_line(defs, &outcome);
            assert!(!line.contains('\n'));
            let doc = serde_json::parse(&line).expect("the result line is JSON");
            assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(1000));
            let metrics = doc.get("metrics").expect("metrics");
            assert_eq!(keys(metrics), defs.iter().map(|d| d.name).collect::<Vec<_>>());
            for d in defs {
                let m = metrics.get(d.name).expect("every metric is reported");
                assert_eq!(keys(m), ["value", "unit"]);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
            }
            // A NaN end-to-end value is reported as 0 and fails the run.
            assert_eq!(correct, defs.iter().all(|d| d.name != "sim_ms"));
        }
        let wall = result_line(END_TO_END, &outcome).0;
        assert!(wall.contains(r#""wall_s": {"value": 1.2034, "unit": "s"}"#), "{wall}");
    }

    #[test]
    fn command_lines_parse_and_unknown_workloads_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload serve-mixed --seed 7 --seconds 15 --trace 1"))
            .expect("driver form");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve-mixed"), Some(7), Some(15.0), Some(true))
        );
        assert!(parse_args(&argv("--workload nope --trace 0")).is_none());
        assert!(parse_args(&argv("--trace 2")).is_none());
        assert!(parse_args(&argv("--seconds 0")).is_none());
        assert!(parse_args(&argv("--quick --runs 3")).is_some_and(|a| a.quick && a.runs == Some(3)));
    }
}
