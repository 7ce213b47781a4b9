//! Summarize a gswitch decision trace, or render span timelines and
//! self-time profiles.
//!
//! Usage: `gswitch-trace [--timeline OUT] [--profile] [--metrics]
//! [FILE|-]` — reads stdin when the file argument is `-` or absent.
//!
//! * Default mode: the input is a decision trace (JSONL, as written by
//!   the `trace` verb of `gswitch-serve` or `TraceRing::to_jsonl`);
//!   prints switch counts, prediction quality, regret and load-balance
//!   summaries. Exits nonzero if any line fails to parse, so CI can
//!   pipe a fresh trace through it as a schema check.
//! * `--timeline OUT`: the input is a *span* log (JSONL, as written by
//!   `gswitch-serve --spans` or `SpanRing::to_jsonl`); writes Chrome
//!   trace-event JSON to OUT, loadable in Perfetto or chrome://tracing
//!   with one track per worker/shard.
//! * `--profile`: the input is a span log; prints the flame-style
//!   self-time table (inclusive/exclusive ms, counts, p50/p95/p99 per
//!   span kind). Combines with `--timeline`.
//! * `--metrics`: the input is a single JSON document — a
//!   `gswitch-serve` `stats` response or a bare metrics-registry
//!   snapshot — and the output is the overload-resilience summary
//!   (shed/fast-fail counters, breaker transitions, sentinel skips).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::Read;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: gswitch-trace [--timeline OUT] [--profile] [--metrics] [FILE|-]   (default: stdin)\n\
         \n\
         default        summarize a decision trace (switches, prediction quality, regret)\n\
         --timeline OUT convert a span log to Chrome trace-event JSON (Perfetto-loadable)\n\
         --profile      print the span self-time profile table\n\
         --metrics      print the overload-resilience summary of a stats/metrics JSON"
    );
    std::process::exit(2)
}

fn read_input(arg: Option<&str>) -> Result<(String, String), String> {
    match arg {
        Some("-") | None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("reading stdin: {e}"))?;
            Ok(("<stdin>".to_string(), buf))
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(buf) => Ok((path.to_string(), buf)),
            Err(e) => Err(format!("{path}: {e}")),
        },
    }
}

fn report_bad_lines(source: &str, errors: &[(usize, String)], total: usize) {
    for (line, err) in errors.iter().take(5) {
        eprintln!("gswitch-trace: {source}:{line}: {err}");
    }
    if errors.len() > 5 {
        eprintln!("gswitch-trace: ... {} more bad lines", errors.len() - 5);
    }
    eprintln!("gswitch-trace: {} of {} lines failed to parse", errors.len(), total);
}

fn main() -> ExitCode {
    let mut timeline: Option<String> = None;
    let mut profile = false;
    let mut metrics = false;
    let mut file: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => usage(),
            "--profile" => profile = true,
            "--metrics" => metrics = true,
            "--timeline" => match it.next() {
                Some(out) => timeline = Some(out),
                None => usage(),
            },
            other => {
                if file.is_some() {
                    usage()
                }
                file = Some(other.to_string());
            }
        }
    }

    let (source, text) = match read_input(file.as_deref()) {
        Ok(st) => st,
        Err(e) => {
            eprintln!("gswitch-trace: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Metrics mode: the input is one JSON document, not a trace.
    if metrics {
        return match serde_json::parse(text.trim()) {
            Ok(doc) => {
                print!("{}", gswitch_obs::resilience_summary(&doc));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gswitch-trace: {source}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Span modes: the input is a span log, not a decision trace.
    if timeline.is_some() || profile {
        let (spans, errors) = gswitch_obs::parse_spans_jsonl(&text);
        if let Some(out) = &timeline {
            if let Err(e) = std::fs::write(out, gswitch_obs::timeline_json(&spans)) {
                eprintln!("gswitch-trace: writing {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("timeline: {} spans written to {out} (open in Perfetto)", spans.len());
        }
        if profile {
            print!("{}", gswitch_obs::profile(&spans).render());
        }
        if errors.is_empty() {
            return ExitCode::SUCCESS;
        }
        report_bad_lines(&source, &errors, errors.len() + spans.len());
        return ExitCode::FAILURE;
    }

    let parsed = gswitch_obs::parse_jsonl(&text);
    print!("{}", gswitch_obs::summarize(&parsed.events).render());

    if parsed.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        report_bad_lines(&source, &parsed.errors, parsed.errors.len() + parsed.events.len());
        ExitCode::FAILURE
    }
}
