//! Trace analytics: turn a JSONL decision trace into the numbers the
//! evaluation methodology cares about — per-pattern switch counts, the
//! direction-flip timeline, prediction quality and regret, and
//! load-balance imbalance per strategy.

use crate::trace::StampedEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Result of parsing a JSONL trace: the good lines and the bad ones.
#[derive(Debug, Default)]
pub struct ParsedTrace {
    /// Successfully decoded events, in file order.
    pub events: Vec<StampedEvent>,
    /// `(1-based line number, error)` for every undecodable line.
    pub errors: Vec<(usize, String)>,
}

/// Parse a whole JSONL document (blank lines are skipped).
pub fn parse_jsonl(text: &str) -> ParsedTrace {
    let mut out = ParsedTrace::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match StampedEvent::from_json_line(line) {
            Ok(ev) => out.events.push(ev),
            Err(e) => out.errors.push((i + 1, e)),
        }
    }
    out
}

/// One direction flip: where a run changed traversal direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirectionFlip {
    /// Job the flip happened in.
    pub job: u64,
    /// Iteration that ran the new direction.
    pub iteration: u32,
    /// Direction before.
    pub from: &'static str,
    /// Direction after.
    pub to: &'static str,
}

/// Per-load-balance-strategy imbalance accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LbStats {
    /// Iterations that ran this strategy.
    pub events: u64,
    /// Mean max/mean warp-task imbalance over those iterations.
    pub mean_imbalance: f64,
    /// Worst single-iteration imbalance.
    pub max_imbalance: f64,
}

/// Per-shard aggregate over a partitioned run's events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Iterations tagged with this shard.
    pub events: u64,
    /// Total simulated expand time on this shard.
    pub measured_ms: f64,
    /// Total simulated filter time on this shard.
    pub filter_ms: f64,
    /// Edges the shard's expands traversed.
    pub edges_touched: u64,
    /// Successful comp events on this shard.
    pub activations: u64,
}

/// Everything `gswitch-trace` reports about one trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Events analyzed.
    pub events: usize,
    /// Distinct job ids seen.
    pub jobs: usize,
    /// Per-pattern switch counts: iterations (within a job) whose value
    /// for that pattern differs from the previous iteration's.
    pub switches: BTreeMap<&'static str, u64>,
    /// Provenance counts (decided / bypass / warm / fused-chain).
    pub provenance: BTreeMap<&'static str, u64>,
    /// Direction flips in event order.
    pub flips: Vec<DirectionFlip>,
    /// Events with a real prediction (`predicted_ms > 0`).
    pub predicted_events: u64,
    /// Mean |measured − predicted| / measured over predicted events.
    pub mean_abs_rel_error: f64,
    /// Mean |measured − predicted| in milliseconds over predicted
    /// events — the absolute counterpart of [`Self::mean_abs_rel_error`],
    /// immune to tiny-denominator blowups on sub-µs iterations.
    pub mean_abs_miss_ms: f64,
    /// 95th-percentile per-event regret (positive miss, clamped at 0)
    /// over predicted events: the tail cost of mispredictions, which a
    /// mean hides when most iterations predict well.
    pub regret_p95_ms: f64,
    /// Freshly decided events (`Provenance::Decided`) that *changed*
    /// the configuration relative to the previous iteration of the
    /// same (job, shard) stream — actual switches the Selector chose.
    pub switch_decisions: u64,
    /// Switch decisions that paid off: the switched iteration measured
    /// no slower than the iteration before it. A crude but
    /// label-free accuracy proxy — frontier growth can mask a good
    /// switch, so read it as a trend line, not ground truth.
    pub switch_wins: u64,
    /// Predicted events missing by more than 50% either way.
    pub mispredicts: u64,
    /// Total positive miss (measured − predicted clamped at 0) — regret
    /// against the Inspector's own expectation, the reproducible proxy
    /// for oracle regret when no brute-force labels ride in the trace.
    pub regret_ms: f64,
    /// Total measured expand time, for scale.
    pub measured_ms: f64,
    /// Imbalance per load-balance strategy.
    pub lb: BTreeMap<&'static str, LbStats>,
    /// Per-shard aggregates for events tagged by the partitioned driver
    /// (empty for whole-graph traces).
    pub shards: BTreeMap<u32, ShardStats>,
}

/// Render the overload-resilience counters out of a metrics document:
/// either a `gswitch-serve` `stats` response (which carries a
/// `resilience` object and a `metrics` snapshot) or a bare registry
/// snapshot (`{"counters":{...}}`). Counters the document does not
/// carry print as 0, so the summary works on pre-overload traces too.
pub fn resilience_summary(doc: &serde_json::Value) -> String {
    // `breakers_open_now` only exists in stats.
    let counter = |name: &str| {
        [doc.get("resilience"), doc.get("metrics"), Some(doc)]
            .into_iter()
            .flatten()
            .flat_map(|scope| [scope.get("counters"), Some(scope)])
            .find_map(|inner| inner?.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    let mut out = String::from("overload resilience:\n");
    out.push_str(&format!(
        "  shed {} | breaker fast-fails {}\n",
        counter("jobs_shed"),
        counter("jobs_breaker_open"),
    ));
    out.push_str(&format!(
        "  breaker transitions: opened {} / half-open {} / closed {} (open now: {})\n",
        counter("breaker_opened"),
        counter("breaker_half_open"),
        counter("breaker_closed"),
        counter("breakers_open_now"),
    ));
    out.push_str(&format!("  sentinel skipped under pressure: {}\n", counter("sentinel_skipped")));
    out
}

/// Analyze events (grouping by job id; iterations are assumed ordered
/// within a job, which is how the engine emits them).
pub fn summarize(events: &[StampedEvent]) -> TraceSummary {
    let mut s = TraceSummary { events: events.len(), ..Default::default() };
    for key in ["direction", "format", "lb", "stepping", "fusion"] {
        s.switches.insert(key, 0);
    }
    for key in ["decided", "bypass", "warm", "fused-chain"] {
        s.provenance.insert(key, 0);
    }

    // Configuration streams are per (job, shard): in a partitioned run
    // each shard tunes independently, so comparing consecutive events
    // across shards would invent switches that never happened.
    let mut last_by_job: BTreeMap<(u64, Option<u32>), &StampedEvent> = BTreeMap::new();
    let mut jobs_seen: BTreeMap<u64, ()> = BTreeMap::new();
    let mut lb_sums: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    let mut err_sum = 0.0;
    let mut miss_sum_ms = 0.0;
    let mut regrets_ms: Vec<f64> = Vec::new();

    for ev in events {
        let e = &ev.event;
        *s.provenance.entry(e.provenance.as_str()).or_insert(0) += 1;
        jobs_seen.insert(ev.job, ());

        if let Some(prev) = last_by_job.get(&(ev.job, e.shard)) {
            let p = &prev.event.config;
            let c = &e.config;
            if p.direction != c.direction {
                *s.switches.entry("direction").or_insert(0) += 1;
                s.flips.push(DirectionFlip {
                    job: ev.job,
                    iteration: e.iteration,
                    from: p.direction.wire(),
                    to: c.direction.wire(),
                });
            }
            if p.format != c.format {
                *s.switches.entry("format").or_insert(0) += 1;
            }
            if p.lb != c.lb {
                *s.switches.entry("lb").or_insert(0) += 1;
            }
            if p.stepping != c.stepping {
                *s.switches.entry("stepping").or_insert(0) += 1;
            }
            if p.fusion != c.fusion {
                *s.switches.entry("fusion").or_insert(0) += 1;
            }
            if e.provenance == crate::trace::Provenance::Decided && *p != *c {
                s.switch_decisions += 1;
                if e.measured_ms <= prev.event.measured_ms {
                    s.switch_wins += 1;
                }
            }
        }
        last_by_job.insert((ev.job, e.shard), ev);

        if let Some(shard) = e.shard {
            let sh = s.shards.entry(shard).or_default();
            sh.events += 1;
            sh.measured_ms += e.measured_ms;
            sh.filter_ms += e.filter_ms;
            sh.edges_touched += e.edges_touched;
            sh.activations += e.activations;
        }

        s.measured_ms += e.measured_ms;
        if e.predicted_ms > 0.0 && e.measured_ms > 0.0 {
            s.predicted_events += 1;
            let rel = (e.measured_ms - e.predicted_ms).abs() / e.measured_ms;
            err_sum += rel;
            miss_sum_ms += (e.measured_ms - e.predicted_ms).abs();
            if rel > 0.5 {
                s.mispredicts += 1;
            }
            let regret = (e.measured_ms - e.predicted_ms).max(0.0);
            s.regret_ms += regret;
            regrets_ms.push(regret);
        }

        let entry = lb_sums.entry(e.config.lb.wire()).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        let imb = e.imbalance();
        entry.1 += imb;
        entry.2 = entry.2.max(imb);
    }

    s.jobs = jobs_seen.len();
    if s.predicted_events > 0 {
        s.mean_abs_rel_error = err_sum / s.predicted_events as f64;
        s.mean_abs_miss_ms = miss_sum_ms / s.predicted_events as f64;
        regrets_ms.sort_by(f64::total_cmp);
        // Nearest-rank p95 over the regret distribution (zeros included:
        // an event that predicted well is part of the distribution).
        let rank = ((regrets_ms.len() as f64) * 0.95).ceil().max(1.0) as usize;
        s.regret_p95_ms = regrets_ms[rank.min(regrets_ms.len()) - 1];
    }
    for (k, (n, sum, max)) in lb_sums {
        s.lb.insert(
            k,
            LbStats {
                events: n,
                mean_imbalance: if n == 0 { 0.0 } else { sum / n as f64 },
                max_imbalance: max,
            },
        );
    }
    s
}

impl TraceSummary {
    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events across {} jobs", self.events, self.jobs);

        let _ = write!(out, "switches:   ");
        for key in ["direction", "format", "lb", "stepping", "fusion"] {
            let _ = write!(out, "{key} {}  ", self.switches.get(key).copied().unwrap_or(0));
        }
        out.push('\n');

        let _ = write!(out, "provenance: ");
        for key in ["decided", "bypass", "warm", "fused-chain"] {
            let _ = write!(out, "{key} {}  ", self.provenance.get(key).copied().unwrap_or(0));
        }
        out.push('\n');

        if self.predicted_events > 0 {
            let _ = writeln!(
                out,
                "prediction: {} events  mean |err| {:.1}%  mispredicts(>50%) {}  regret {:.3} ms \
                 ({:.1}% of {:.3} ms measured)",
                self.predicted_events,
                self.mean_abs_rel_error * 100.0,
                self.mispredicts,
                self.regret_ms,
                if self.measured_ms > 0.0 {
                    self.regret_ms / self.measured_ms * 100.0
                } else {
                    0.0
                },
                self.measured_ms,
            );
            let _ = writeln!(
                out,
                "prediction quality: mean |miss| {:.3} ms  regret p95 {:.3} ms  \
                 switch decisions {} (wins {}, {:.0}%)",
                self.mean_abs_miss_ms,
                self.regret_p95_ms,
                self.switch_decisions,
                self.switch_wins,
                if self.switch_decisions > 0 {
                    self.switch_wins as f64 / self.switch_decisions as f64 * 100.0
                } else {
                    0.0
                },
            );
        } else {
            let _ = writeln!(out, "prediction: no events carried a prediction");
        }

        if self.lb.is_empty() {
            let _ = writeln!(out, "load balance: no events");
        } else {
            let _ = writeln!(out, "load balance (imbalance = max/mean warp-task cycles):");
            for (k, v) in &self.lb {
                let _ = writeln!(
                    out,
                    "  {k:<7} {:>6} iters  mean {:>6.2}  worst {:>6.2}",
                    v.events, v.mean_imbalance, v.max_imbalance
                );
            }
        }

        if !self.shards.is_empty() {
            let _ = writeln!(out, "shards ({} tagged):", self.shards.len());
            let busiest =
                self.shards.values().map(|v| v.measured_ms + v.filter_ms).fold(0.0, f64::max);
            for (id, v) in &self.shards {
                let busy = v.measured_ms + v.filter_ms;
                let _ = writeln!(
                    out,
                    "  shard {id:<3} {:>6} iters  expand {:>9.3} ms  filter {:>9.3} ms  \
                     edges {:>10}  load {:>5.1}%",
                    v.events,
                    v.measured_ms,
                    v.filter_ms,
                    v.edges_touched,
                    if busiest > 0.0 { busy / busiest * 100.0 } else { 0.0 },
                );
            }
        }

        if self.flips.is_empty() {
            let _ = writeln!(out, "direction flips: none");
        } else {
            let _ = writeln!(out, "direction flips ({}):", self.flips.len());
            for f in self.flips.iter().take(20) {
                let _ = writeln!(
                    out,
                    "  job {:<4} iter {:<5} {} -> {}",
                    f.job, f.iteration, f.from, f.to
                );
            }
            if self.flips.len() > 20 {
                let _ = writeln!(out, "  ... {} more", self.flips.len() - 20);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Provenance, TraceEvent, TraceRing};
    use gswitch_kernels::pattern::{Direction, Fusion, KernelConfig, LoadBalance};
    use gswitch_ml::FEATURE_COUNT;
    use std::sync::Arc;

    fn event(iteration: u32, config: KernelConfig, predicted: f64, measured: f64) -> TraceEvent {
        TraceEvent {
            iteration,
            config,
            provenance: if iteration == 0 {
                Provenance::Decided
            } else {
                Provenance::StabilityBypass
            },
            predicted_ms: predicted,
            measured_ms: measured,
            filter_ms: 0.1,
            overhead_ms: 0.01,
            v_active: 5,
            e_active: 40,
            edges_touched: 38,
            activations: 20,
            duplicates: 0,
            task_total_cycles: 400.0,
            task_max_cycles: 100.0,
            task_count: 8,
            features: [0.0; FEATURE_COUNT],
            shard: None,
        }
    }

    #[test]
    fn summary_counts_switches_flips_and_regret() {
        let push = KernelConfig::push_baseline();
        let pull = KernelConfig { direction: Direction::Pull, ..push };
        let fused = KernelConfig { fusion: Fusion::Fused, ..push };
        let ring = Arc::new(TraceRing::new(64));
        ring.push(1, "g", "bfs", &event(0, push, 0.0, 1.0));
        ring.push(1, "g", "bfs", &event(1, pull, 1.0, 3.0)); // flip, regret 2
        ring.push(1, "g", "bfs", &event(2, pull, 2.0, 1.0)); // no regret
        ring.push(2, "g", "cc", &event(0, push, 0.0, 1.0));
        ring.push(2, "g", "cc", &event(1, fused, 1.0, 1.2)); // fusion switch
        let events = ring.snapshot();

        let s = summarize(&events);
        assert_eq!(s.events, 5);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.switches["direction"], 1);
        assert_eq!(s.switches["fusion"], 1);
        assert_eq!(s.switches["format"], 0);
        assert_eq!(s.flips, vec![DirectionFlip { job: 1, iteration: 1, from: "push", to: "pull" }]);
        assert_eq!(s.predicted_events, 3);
        // regret: (3-1) + 0 + (1.2-1) = 2.2
        assert!((s.regret_ms - 2.2).abs() < 1e-9);
        // mispredicts: |3-1|/3 = 0.67 > 0.5; |1-2|/1 = 1.0 > 0.5 → 2
        assert_eq!(s.mispredicts, 2);
        // mean |miss|: (|3-1| + |1-2| + |1.2-1|)/3
        assert!((s.mean_abs_miss_ms - 3.2 / 3.0).abs() < 1e-9);
        // regret distribution [0, 0.2, 2.0], nearest-rank p95 → 2.0
        assert!((s.regret_p95_ms - 2.0).abs() < 1e-9);
        // non-first iterations are StabilityBypass → no switch decisions
        assert_eq!(s.switch_decisions, 0);
        assert_eq!(s.lb["twc"].events, 5);
        assert_eq!(s.lb["twc"].mean_imbalance, 2.0);
        let text = s.render();
        assert!(text.contains("direction 1"));
        assert!(text.contains("job 1    iter 1"));
    }

    #[test]
    fn switch_decisions_count_only_decided_config_changes() {
        let push = KernelConfig::push_baseline();
        let pull = KernelConfig { direction: Direction::Pull, ..push };
        let ring = Arc::new(TraceRing::new(64));
        let mut e0 = event(0, push, 1.0, 4.0);
        e0.provenance = Provenance::Decided;
        ring.push(1, "g", "bfs", &e0);
        // Decided + config change + faster → a winning switch.
        let mut e1 = event(1, pull, 1.0, 2.0);
        e1.provenance = Provenance::Decided;
        ring.push(1, "g", "bfs", &e1);
        // Decided + config change + slower → a losing switch.
        let mut e2 = event(2, push, 1.0, 3.0);
        e2.provenance = Provenance::Decided;
        ring.push(1, "g", "bfs", &e2);
        // Decided but same config → the Selector re-affirmed, not a switch.
        let mut e3 = event(3, push, 1.0, 3.0);
        e3.provenance = Provenance::Decided;
        ring.push(1, "g", "bfs", &e3);
        // Config change under bypass provenance → not a *decision*.
        let mut e4 = event(4, pull, 1.0, 1.0);
        e4.provenance = Provenance::StabilityBypass;
        ring.push(1, "g", "bfs", &e4);

        let s = summarize(&ring.snapshot());
        assert_eq!(s.switch_decisions, 2);
        assert_eq!(s.switch_wins, 1);
        let text = s.render();
        assert!(text.contains("switch decisions 2 (wins 1, 50%)"));
        assert!(text.contains("prediction quality:"));
    }

    #[test]
    fn jsonl_parse_reports_line_numbers_for_errors() {
        let ring = Arc::new(TraceRing::new(8));
        ring.push(1, "g", "bfs", &event(0, KernelConfig::push_baseline(), 0.0, 1.0));
        let mut text = ring.to_jsonl();
        text.push_str("this is not json\n");
        text.push('\n'); // blank lines are fine
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.errors.len(), 1);
        assert_eq!(parsed.errors[0].0, 2);
    }

    #[test]
    fn full_ring_to_summary_round_trip() {
        let ring = Arc::new(TraceRing::new(128));
        let push = KernelConfig::push_baseline();
        let strict = KernelConfig { lb: LoadBalance::Strict, ..push };
        for i in 0..10 {
            let cfg = if i % 2 == 0 { push } else { strict };
            ring.push(3, "kron", "pr", &event(i, cfg, 0.5, 1.0));
        }
        let parsed = parse_jsonl(&ring.to_jsonl());
        assert!(parsed.errors.is_empty());
        let s = summarize(&parsed.events);
        assert_eq!(s.events, 10);
        assert_eq!(s.switches["lb"], 9);
        assert_eq!(s.lb["twc"].events, 5);
        assert_eq!(s.lb["strict"].events, 5);
    }

    #[test]
    fn sharded_events_group_per_shard_without_phantom_switches() {
        let push = KernelConfig::push_baseline();
        let strict = KernelConfig { lb: LoadBalance::Strict, ..push };
        let ring = Arc::new(TraceRing::new(64));
        // One job, two shards, interleaved as the sharded driver emits
        // them. Each shard keeps its own config the whole run.
        for i in 0..3 {
            let mut a = event(i, push, 0.0, 1.0);
            a.shard = Some(0);
            ring.push(1, "g", "bfs", &a);
            let mut b = event(i, strict, 0.0, 2.0);
            b.shard = Some(1);
            ring.push(1, "g", "bfs", &b);
        }
        let s = summarize(&ring.snapshot());
        assert_eq!(s.jobs, 1);
        // Interleaving push/strict across shards must not count as
        // lb switches — each shard's stream is constant.
        assert_eq!(s.switches["lb"], 0);
        assert_eq!(s.shards.len(), 2);
        assert_eq!(s.shards[&0].events, 3);
        assert!((s.shards[&1].measured_ms - 6.0).abs() < 1e-12);
        let text = s.render();
        assert!(text.contains("shards (2 tagged):"));
        assert!(text.contains("shard 0"));
        // Shard 1 carries twice the expand time → 100% load, shard 0 less.
        assert!(text.contains("load 100.0%"));
    }

    #[test]
    fn empty_trace_summarizes_cleanly() {
        let s = summarize(&[]);
        assert_eq!(s.events, 0);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.predicted_events, 0);
        let text = s.render();
        assert!(text.contains("0 events"));
        assert!(text.contains("no events carried a prediction"));
    }

    #[test]
    fn resilience_summary_reads_stats_and_raw_snapshots() {
        // A gswitch-serve `stats` response: counters live under
        // `resilience`.
        let stats = serde_json::parse(
            r#"{"ok":"stats","resilience":{"jobs_shed":12,"jobs_breaker_open":7,
                "breaker_opened":2,"breaker_closed":1,"breakers_open_now":1,
                "sentinel_skipped":3},
                "metrics":{"counters":{"breaker_half_open":4}}}"#,
        )
        .unwrap();
        let text = resilience_summary(&stats);
        assert!(text.contains("shed 12"), "{text}");
        assert!(text.contains("breaker fast-fails 7"), "{text}");
        assert!(text.contains("opened 2 / half-open 4 / closed 1 (open now: 1)"), "{text}");
        assert!(text.contains("sentinel skipped under pressure: 3"), "{text}");

        // A bare registry snapshot: same counters flat under `counters`.
        let snap = serde_json::parse(r#"{"counters":{"jobs_shed":5,"breaker_opened":1}}"#).unwrap();
        let text = resilience_summary(&snap);
        assert!(text.contains("shed 5"), "{text}");
        assert!(text.contains("opened 1"), "{text}");
        assert!(text.contains("sentinel skipped under pressure: 0"), "{text}");
    }
}
