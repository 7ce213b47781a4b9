//! The human-facing side: run every workload in a process of its own
//! (timed, then traced), print and record what they measured, compare two
//! such records, and emit the `BENCHMARK.json` manifest.

use crate::drive::Config;
use crate::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, quartiles};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::process::{Command, Stdio};

/// Where `run.sh` without `--trace` records its runs.
const REPORT_PATH: &str = "benchmark/out/report.json";

fn json_list(defs: &[Def], with_bound: bool) -> String {
    defs.iter()
        .map(|d| {
            let bound =
                if with_bound { format!(r#", "bound": {:?}"#, d.bound) } else { String::new() };
            format!(
                r#"    {{"name": "{}", "unit": "{}", "better": "{}"{bound}}}"#,
                d.name, d.unit, d.better
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// `BENCHMARK.json`: the metric and workload tables in the schema the
/// driver reads.
pub fn manifest() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!(r#"    {{"name": "{name}", "why": "{why}"}}"#))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::RUN_SECONDS,
        json_list(END_TO_END, true),
        json_list(PER_LAYER, false),
    )
}

/// The metric tables as the markdown rows `README.md` carries.
pub fn markdown_tables() -> String {
    let clock = |d: &Def| match d.clock {
        crate::metrics::Clock::Host => "host",
        crate::metrics::Clock::Sim => "sim",
        crate::metrics::Clock::None => "-",
    };
    let mut out = String::from(
        "| name | unit | clock | better | bound | definition |\n|---|---|---|---|---|---|\n",
    );
    for d in END_TO_END {
        let sign = if d.better == "lower" { '+' } else { '-' };
        out += &format!(
            "| `{}` | {} | {} | {} | {sign}{:.0} % | {} |\n",
            d.name,
            d.unit,
            clock(d),
            d.better,
            100.0 * d.bound,
            d.note
        );
    }
    out += "\n| name | unit | clock | better | should move |\n|---|---|---|---|---|\n";
    for d in PER_LAYER {
        out +=
            &format!("| `{}` | {} | {} | {} | {} |\n", d.name, d.unit, clock(d), d.better, d.note);
    }
    out
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct MetricReport {
    name: String,
    unit: String,
    /// One value per run (each run on its own seed).
    values: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct WorkloadReport {
    name: String,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<MetricReport>,
    per_layer: Vec<MetricReport>,
    /// Within-run quartiles and sample counts, as the runs printed them.
    detail: Vec<String>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Environment {
    nproc: u64,
    rustc: String,
    commit: String,
    seed: u64,
    runs: u64,
    seconds: f64,
    quick: bool,
    cost_model_version: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Report {
    environment: Environment,
    workloads: Vec<WorkloadReport>,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child run: its printed lines and the parsed result object.
struct ChildRun {
    detail: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.stderr(Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().ok_or("the run printed nothing")?;
    let result = serde_json::parse(last)
        .map_err(|e| format!("no result line ({e}); exit {:?}", out.status.code()))?;
    let metrics = match result.get("metrics") {
        Some(Value::Object(pairs)) => {
            pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect()
        }
        _ => return Err("result line without metrics".to_string()),
    };
    Ok(ChildRun {
        detail: text.lines().filter_map(|l| l.strip_prefix("# ")).map(str::to_string).collect(),
        attempted: result.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: result.get("failed").and_then(Value::as_u64).unwrap_or(0),
        correct: result.get("correct").and_then(Value::as_bool).unwrap_or(false)
            && out.status.success(),
        metrics,
    })
}

fn summarize(defs: &[Def], runs: &[ChildRun]) -> Vec<MetricReport> {
    defs.iter()
        .map(|d| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == d.name).map(|(_, v)| *v))
                .collect();
            let [q1, median, q3] = quartiles(&values);
            MetricReport {
                name: d.name.to_string(),
                unit: d.unit.to_string(),
                values,
                median,
                q1,
                q3,
            }
        })
        .collect()
}

fn print_table(title: &str, rows: &[MetricReport]) {
    println!("  {title}");
    for m in rows {
        println!(
            "    {:<44} {:>16.6} {:<10} q1 {:.6} q3 {:.6} n {}",
            m.name,
            m.median,
            m.unit,
            m.q1,
            m.q3,
            m.values.len()
        );
    }
}

/// Run every workload (or `only`), each run in a process of its own so
/// that `peak_rss_mb` is per workload: `runs` timed runs on seeds
/// `seed..seed+runs`, then as many traced ones. Prints every metric by
/// name with its unit and writes the record to `benchmark/out/`.
pub fn run_all(only: Option<&str>, base: &Config, quick: bool, runs: usize) -> i32 {
    let mut report = Report {
        environment: Environment {
            nproc: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(0),
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            seed: base.seed,
            runs: runs as u64,
            seconds: base.seconds,
            quick,
            cost_model_version: u64::from(gswitch_simt::COST_MODEL_VERSION),
        },
        workloads: Vec::new(),
    };
    let mut bad = 0;
    for (name, why) in WORKLOADS.iter().filter(|(name, _)| only.is_none_or(|o| o == *name)) {
        println!("== {name}: {why}");
        let mut sets: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for (trace, set) in sets.iter_mut().enumerate() {
            for i in 0..runs as u64 {
                match child(name, base.seed + i, base.seconds, trace == 1, quick) {
                    Ok(run) => {
                        bad += i32::from(!run.correct);
                        set.push(run);
                    }
                    Err(why) => {
                        eprintln!("{name} seed {} trace {trace}: {why}", base.seed + i);
                        bad += 1;
                    }
                }
            }
        }
        let [timed, traced] = sets;
        let w = WorkloadReport {
            name: name.to_string(),
            attempted: timed.iter().chain(&traced).map(|r| r.attempted).sum(),
            failed: timed.iter().chain(&traced).map(|r| r.failed).sum(),
            end_to_end: summarize(END_TO_END, &timed),
            per_layer: summarize(PER_LAYER, &traced),
            detail: timed.iter().chain(&traced).flat_map(|r| r.detail.clone()).collect(),
        };
        println!(
            "  attempted {} failed {} (failed share {:.6})",
            w.attempted,
            w.failed,
            w.failed as f64 / w.attempted.max(1) as f64
        );
        print_table("end to end (timed run, all tracing off)", &w.end_to_end);
        print_table("per layer (traced run)", &w.per_layer);
        for line in &w.detail {
            println!("    # {line}");
        }
        report.workloads.push(w);
    }
    let text = serde_json::to_string_pretty(&report).expect("a report serializes");
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(REPORT_PATH, text + "\n"));
    match written {
        Ok(()) => println!("wrote {REPORT_PATH}"),
        Err(e) => {
            eprintln!("{REPORT_PATH}: {e}");
            bad += 1;
        }
    }
    i32::from(bad > 0)
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// `ok`, `worse` (b's median is worse than a's by more than the bound) or
/// `unresolved` (either side's run-to-run spread is wider than the bound,
/// so the comparison cannot tell).
fn verdict(def: &Def, a: &MetricReport, b: &MetricReport) -> &'static str {
    let loss = match def.better {
        "lower" => (b.median - a.median) / a.median.abs(),
        _ => (a.median - b.median) / a.median.abs(),
    };
    if iqr_share(&a.values).max(iqr_share(&b.values)) > def.bound {
        "unresolved"
    } else if loss > def.bound {
        "worse"
    } else {
        "ok"
    }
}

/// One row per (workload, end-to-end metric) of two records; non-zero
/// when any row is `worse` or `unresolved`.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<13} {:<24} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "bound"
    );
    let mut bad = 0;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<13} missing from {b_path}", wa.name);
            bad += 1;
            continue;
        };
        if wb.failed > wa.failed {
            println!(
                "{:<13} {:<24} {:>12} {:>25} {:>12} {:>25} {:>6}  worse",
                wa.name, "failed", wa.failed, "", wb.failed, "", "any"
            );
            bad += 1;
        }
        for def in END_TO_END {
            let find =
                |w: &WorkloadReport| w.end_to_end.iter().find(|m| m.name == def.name).cloned();
            let (Some(ma), Some(mb)) = (find(wa), find(wb)) else { continue };
            let v = verdict(def, &ma, &mb);
            bad += i32::from(v != "ok");
            println!(
                "{:<13} {:<24} {:>12.5} {:>12.5}..{:<11.5} {:>12.5} {:>12.5}..{:<11.5} {:>5.0}%  {v}",
                wa.name, def.name, ma.median, ma.q1, ma.q3, mb.median, mb.q1, mb.q3, 100.0 * def.bound
            );
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(values: &[f64]) -> MetricReport {
        let [q1, median, q3] = quartiles(values);
        MetricReport {
            name: "wall_s".into(),
            unit: "s".into(),
            values: values.to_vec(),
            median,
            q1,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let def = |better, bound| Def {
            name: "m",
            unit: "s",
            clock: crate::metrics::Clock::Host,
            better,
            bound,
            note: "",
        };
        let (wall, speed) = (&def("lower", 0.10), &def("higher", 0.05));
        let steady = |x: f64| metric(&[x, x * 1.001, x * 0.999, x * 1.002, x * 0.998]);
        assert_eq!(verdict(wall, &steady(1.0), &steady(1.05)), "ok");
        assert_eq!(verdict(wall, &steady(1.0), &steady(1.2)), "worse");
        assert_eq!(verdict(wall, &steady(1.0), &steady(0.5)), "ok");
        assert_eq!(verdict(speed, &steady(2.0), &steady(1.8)), "worse");
        assert_eq!(verdict(speed, &steady(2.0), &steady(2.5)), "ok");
        let noisy = metric(&[1.0, 1.3, 0.8, 1.2, 0.7]);
        assert_eq!(verdict(wall, &steady(1.0), &noisy), "unresolved");
    }

    /// The golden-schema test: the committed manifest is exactly what the
    /// metric tables emit, and it has the driver's keys and nothing else.
    #[test]
    fn committed_manifest_matches_the_tables() {
        let emitted = manifest();
        let doc = serde_json::parse(&emitted).expect("the manifest is JSON");
        let Value::Object(pairs) = &doc else { panic!("the manifest is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("workloads").len(), WORKLOADS.len());
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        for m in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
            let Value::Object(fields) = m else { panic!("a metric is an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
        assert!(emitted.len() < 64 * 1024);
        let committed =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the root of the repo");
        assert_eq!(
            committed, emitted,
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn readme_carries_the_full_metric_table() {
        let readme = include_str!("../README.md");
        for line in markdown_tables().lines() {
            assert!(
                readme.contains(line),
                "README.md lacks the row: {line} (regenerate with run.sh --table)"
            );
        }
    }
}
