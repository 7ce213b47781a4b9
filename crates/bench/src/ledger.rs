//! The in-tree perf ledger: one [`Snapshot`] type behind the three
//! committed `BENCH_*.json` files, and the one comparison that gates
//! them (`perf-ledger --check-regression`).
//!
//! A snapshot is a set of named rows, and every field of a row belongs
//! to exactly one of three classes, each with one comparison rule:
//!
//! * **exact** — deterministic outputs of the simulation (workload
//!   sizes, edges touched, rounded sim-ms of a single kernel, exchange
//!   volume, supersteps). They must be `==`; a mismatch means kernel
//!   semantics or pricing changed and the baseline has to be regenerated
//!   deliberately (the diff review is the point).
//! * **near** — simulation-driven values that carry a
//!   scheduling-dependent term: span counts (delta-PR can gain or lose a
//!   super-step with the accumulation order of racing `fetch_add`s) and
//!   sharded sim-ms / imbalance (the cost model's atomic-contention
//!   term). Gated at ±[`NEAR_REL`], rounded up to the unit the value is
//!   stored at: 1 for a count, 0.01 for a simulated quantity.
//! * **timed** ([`Timed`]) — host wall time, machine-dependent: the
//!   fastest of N samples (the one a busy runner disturbs least) fails
//!   only beyond `baseline min × `[`TIMED_FACTOR`]` + abs`, generous
//!   against a slower CI runner and fatal for an order-of-magnitude
//!   regression (a lost parallelism threshold, an accidentally quadratic
//!   sweep, a frontier-proportional step gone O(n) again). It also fails
//!   below `baseline min × `[`STALE_BELOW`] wherever the baseline, not
//!   `abs`, sets that gate: a gain that large means the baseline is stale
//!   and must be regenerated, or the gate above it would pass a
//!   regression all the way back. The `median` and the repeat-run
//!   `spread` ride along as the stated noise; they are recorded, not
//!   gated.
//!
//! `benchmark/` is the instrument for claimed host-time gains; this
//! ledger is the trip-wire for structural drift.

pub mod kernels;
pub mod profile;
pub mod shard;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// Relative envelope of every near-class field.
pub const NEAR_REL: f64 = 0.10;
/// Multiplicative tolerance on every timed minimum.
pub const TIMED_FACTOR: f64 = 5.0;
/// A timed minimum below this share of its baseline's fails too: the
/// baseline is stale, and the `× TIMED_FACTOR` gate above it would pass a
/// regression all the way back to it. Only where the baseline sets the
/// gate: below `abs / TIMED_FACTOR` the additive term does, and a
/// sub-millisecond phase halves with the noise.
pub const STALE_BELOW: f64 = 0.5;
/// Additive tolerance on a kernel's fastest wall time, µs: about twice the
/// widest `spread` any kernel row has recorded (91 µs over 7 samples), so
/// a 55 µs `classify` may grow 8×, not the 80× that 5000 admitted.
pub const KERNEL_WALL_ABS_US: f64 = 200.0;
/// Additive tolerance on a phase's fastest self-time, ms.
pub const PHASE_SELF_ABS_MS: f64 = 10.0;
/// Additive tolerance on a sharded query's fastest wall time, ms.
pub const QUERY_WALL_ABS_MS: f64 = 2.0;

/// Middle element of the samples (upper middle for an even count).
pub fn median<T: Copy + PartialOrd>(samples: &mut [T]) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples[samples.len() / 2]
}

/// `x` rounded to `decimals` decimal places, the precision it is stored at.
pub fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

/// Whether near-class value `cur` lies within ±[`NEAR_REL`] of `base`,
/// the envelope rounded up to a whole number of stored units (never
/// below one, so a last-digit wobble of a small value passes). A count
/// is stored whole, a simulated quantity at two decimals.
fn near(cur: &Value, base: &Value) -> bool {
    let unit = match (cur, base) {
        (Value::UInt(_) | Value::Int(_), Value::UInt(_) | Value::Int(_)) => 1.0,
        (Value::Float(_), Value::Float(_)) => 0.01,
        _ => return false,
    };
    let (Some(cur), Some(base)) = (cur.as_f64(), base.as_f64()) else { return false };
    // Compare in whole units: stored values are multiples of `unit` up
    // to float error, which `round` and the epsilon absorb.
    let slack_units = (base.abs() * NEAR_REL / unit - 1e-9).ceil().max(1.0);
    ((cur - base) / unit).round().abs() <= slack_units
}

/// A timed-class value: the fastest of N wall samples with their median
/// and spread, in the unit the field name states.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Timed {
    /// Median sample.
    pub median: f64,
    /// Fastest sample — the gated value.
    pub min: f64,
    /// Slowest minus fastest sample.
    pub spread: f64,
    /// Additive tolerance of this field's gate. Stored so the file states
    /// its own gate; the check takes it from the fresh measurement, so an
    /// edited baseline cannot loosen it.
    pub abs: f64,
}

impl Timed {
    /// Summarize wall samples; `abs` is the field's additive tolerance.
    pub fn from_samples(mut samples: Vec<f64>, abs: f64) -> Self {
        let median = round_to(median(&mut samples), 3);
        // `median` sorted the samples.
        let (min, max) = (samples[0], samples[samples.len() - 1]);
        Timed { median, min: round_to(min, 3), spread: round_to(max - min, 3), abs }
    }
}

/// One measured row: its fields, by comparison class.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Fields that must match the baseline exactly.
    pub exact: BTreeMap<String, Value>,
    /// Fields gated at ±[`NEAR_REL`]: a count, or a simulated quantity
    /// rounded to two decimals.
    pub near: BTreeMap<String, Value>,
    /// Wall-clock fields gated at `baseline min × TIMED_FACTOR + abs`, and
    /// failed as stale below `baseline min × STALE_BELOW` (where
    /// `baseline min × TIMED_FACTOR > abs`).
    pub timed: BTreeMap<String, Timed>,
}

impl Row {
    /// Add an exact-class field.
    pub fn exact(mut self, field: &str, v: impl Serialize) -> Self {
        self.exact.insert(field.to_string(), v.to_value());
        self
    }

    /// Add a near-class field.
    pub fn near(mut self, field: &str, v: impl Serialize) -> Self {
        self.near.insert(field.to_string(), v.to_value());
        self
    }

    /// Add a timed-class field.
    pub fn timed(mut self, field: &str, v: Timed) -> Self {
        self.timed.insert(field.to_string(), v);
        self
    }

    /// Report through `fail` every field of this fresh row that regressed
    /// against `base`, class by class.
    fn check(&self, base: &Row, mut fail: impl FnMut(String)) {
        check_class(&self.exact, &base.exact, &mut fail, |c, b| {
            (c != b).then(|| {
                let (b, c) = (show(b), show(c));
                format!("changed {b} -> {c} (exact field; regenerate the baseline if intended)")
            })
        });
        check_class(&self.near, &base.near, &mut fail, |c, b| {
            (!near(c, b)).then(|| {
                let (b, c, pct) = (show(b), show(c), NEAR_REL * 100.0);
                format!("changed {b} -> {c} (near field; beyond ±{pct:.0} %)")
            })
        });
        check_class(&self.timed, &base.timed, &mut fail, |c, b| {
            let (cur, base, abs) = (c.min, b.min, c.abs);
            let limit = base * TIMED_FACTOR + abs;
            if cur > limit {
                Some(format!(
                    "min {cur} exceeds {limit:.3} (baseline min {base} × {TIMED_FACTOR} + {abs})"
                ))
            } else if cur < base * STALE_BELOW && base * TIMED_FACTOR > abs {
                Some(format!(
                    "min {cur} is below {STALE_BELOW} × baseline min {base} \
                     (stale baseline: regenerate)"
                ))
            } else {
                None
            }
        });
    }
}

/// One regression found by [`Snapshot::check`].
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    /// The row (empty for a header field).
    pub row: String,
    /// What differed and how.
    pub reason: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sep = if self.row.is_empty() { "" } else { ": " };
        write!(f, "FAIL {}{sep}{}", self.row, self.reason)
    }
}

/// One tool's measurement of its fixed workload: what a `BENCH_*.json`
/// file holds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Which measurement this is (`kernels`, `profile`, `shard`).
    pub tool: String,
    /// [`gswitch_simt::COST_MODEL_VERSION`] the numbers were priced under.
    pub cost_model_version: u32,
    /// Simulated device.
    pub device: String,
    /// Description of the fixed workload (compared exactly).
    pub workload: Value,
    /// The measured rows by name.
    pub rows: BTreeMap<String, Row>,
}

impl Snapshot {
    /// An empty snapshot of `tool`'s `workload`, priced under the current
    /// cost model.
    pub fn new(tool: &str, device: &str, workload: Value) -> Self {
        Snapshot {
            tool: tool.to_string(),
            cost_model_version: gswitch_simt::COST_MODEL_VERSION,
            device: device.to_string(),
            workload,
            rows: BTreeMap::new(),
        }
    }

    /// Write the snapshot as indented JSON.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Read a snapshot written by [`Snapshot::write`].
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Compare this fresh measurement against the committed `baseline`:
    /// header fields and exact-class fields by `==`, near and timed
    /// fields by their class rule, and the row and field sets both ways
    /// (something that disappeared fails like something that appeared).
    /// Empty means no regression.
    pub fn check(&self, baseline: &Snapshot) -> Vec<Failure> {
        let mut failures = Vec::new();
        let mut fail = |row: &str, reason: String| {
            failures.push(Failure { row: row.to_string(), reason });
        };
        let (cur, base) = (self.cost_model_version, baseline.cost_model_version);
        if cur != base {
            let hint = "regenerate the baseline after a pricing change";
            fail("", format!("cost_model_version: baseline {base} vs current {cur} ({hint})"));
            // Every number below was priced under another model.
            return failures;
        }
        let header =
            |s: &Snapshot| format!("{} on {}, workload {}", s.tool, s.device, show(&s.workload));
        if header(self) != header(baseline) {
            fail("", format!("header changed: {} -> {}", header(baseline), header(self)));
        }
        for (name, cur, base) in union(&self.rows, &baseline.rows) {
            match (cur, base) {
                (Some(cur), Some(base)) => cur.check(base, |reason| fail(name, reason)),
                _ => fail(name, one_sided("row", cur.is_some())),
            }
        }
        failures
    }
}

/// One class of one row: a field on one side only fails, a field on both
/// sides fails with the reason `differs` gives, if any.
fn check_class<T>(
    current: &BTreeMap<String, T>,
    baseline: &BTreeMap<String, T>,
    fail: &mut impl FnMut(String),
    differs: impl Fn(&T, &T) -> Option<String>,
) {
    for (field, cur, base) in union(current, baseline) {
        let reason = match (cur, base) {
            (Some(cur), Some(base)) => differs(cur, base),
            _ => Some(one_sided("field", cur.is_some())),
        };
        if let Some(reason) = reason {
            fail(format!("{field}: {reason}"));
        }
    }
}

/// Every key of either map, in order, with each side's value.
fn union<'a, T>(
    current: &'a BTreeMap<String, T>,
    baseline: &'a BTreeMap<String, T>,
) -> impl Iterator<Item = (&'a str, Option<&'a T>, Option<&'a T>)> {
    let names: BTreeSet<&String> = current.keys().chain(baseline.keys()).collect();
    names.into_iter().map(|name| (name.as_str(), current.get(name), baseline.get(name)))
}

/// Why a row or field found on one side only fails.
fn one_sided(what: &str, measured: bool) -> String {
    if measured {
        format!("new {what} not in baseline (regenerate the baseline)")
    } else {
        format!("{what} present in baseline but not measured")
    }
}

/// A value as the JSON text the file holds.
fn show(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn wall(min: f64) -> Timed {
        Timed { median: min * 1.2, min, spread: min, abs: KERNEL_WALL_ABS_US }
    }

    /// A snapshot with one row of each shape the three tools write.
    fn synthetic(tool: &str) -> Snapshot {
        let mut s = Snapshot::new(tool, "K40m", json!({ "graph": "kronecker(13,8,42)" }));
        let kernel = Row::default().exact("edges", 26868u64).exact("sim_ms", 0.042);
        s.rows.insert("expand/bitmap/push".into(), kernel.timed("wall_us", wall(200.0)));
        let phase = Row::default().near("count", 100u64).timed("excl_ms", wall(800.0));
        s.rows.insert("expand".into(), phase);
        let point = Row::default().exact("converged", true).near("sim_ms", 0.43);
        s.rows.insert("soc-orkut/bfs/k=4".into(), point);
        s
    }

    /// `synthetic("kernels")` with one row edited, checked against the
    /// unedited one.
    fn check_edited(row: &str, edit: impl FnOnce(&mut Row)) -> Vec<String> {
        let base = synthetic("kernels");
        let mut cur = base.clone();
        edit(cur.rows.get_mut(row).unwrap());
        cur.check(&base).iter().map(Failure::to_string).collect()
    }

    #[test]
    fn exact_field_change_fails() {
        assert!(check_edited("expand", |_| {}).is_empty(), "identical snapshots pass");
        let found = check_edited("expand/bitmap/push", |r| *r = r.clone().exact("edges", 26869u64));
        assert_eq!(
            found,
            ["FAIL expand/bitmap/push: edges: changed 26868 -> 26869 \
              (exact field; regenerate the baseline if intended)"]
        );
    }

    #[test]
    fn span_count_passes_at_nine_percent_and_fails_doubled() {
        for (count, ok) in [(109u64, true), (91, true), (110, true), (111, false), (200, false)] {
            let found = check_edited("expand", |r| *r = r.clone().near("count", count));
            assert_eq!(found.is_empty(), ok, "count {count} vs baseline 100: {found:?}");
        }
        // Small counts keep the old gate's ceil: ceil(65 × 0.10) = 7, ceil(4 × 0.10) = 1.
        let at = |c: u64| json!(c);
        assert!(near(&at(72), &at(65)) && !near(&at(73), &at(65)));
        assert!(near(&at(5), &at(4)) && !near(&at(6), &at(4)));
    }

    #[test]
    fn sharded_sim_ms_gets_ten_percent_and_at_least_its_last_digit() {
        let at = |x: f64| json!(x);
        // 0.43 × 10 % rounds up to 0.05.
        assert!(near(&at(0.48), &at(0.43)) && near(&at(0.38), &at(0.43)));
        assert!(!near(&at(0.49), &at(0.43)) && !near(&at(0.37), &at(0.43)));
        // A value that rounds to 0.00 still gets one stored unit.
        assert!(near(&at(0.01), &at(0.0)) && !near(&at(0.02), &at(0.0)));
        // A count is never near a float, nor a number near anything else.
        assert!(!near(&json!(1u64), &at(1.0)) && !near(&json!("1"), &json!("1")));
    }

    #[test]
    fn wall_gate_sits_at_five_times_baseline_min_plus_abs() {
        let limit = 200.0 * TIMED_FACTOR + KERNEL_WALL_ABS_US;
        for (min, ok) in [(limit - 0.001, true), (limit, true), (limit + 0.001, false)] {
            let found =
                check_edited("expand/bitmap/push", |r| *r = r.clone().timed("wall_us", wall(min)));
            assert_eq!(found.is_empty(), ok, "min {min}: {found:?}");
        }
        // Only the fastest sample is gated: a noisy median does not fail.
        let noisy = Timed { median: 1e6, ..wall(200.0) };
        let found = check_edited("expand/bitmap/push", |r| *r = r.clone().timed("wall_us", noisy));
        assert!(found.is_empty(), "{found:?}");
        // A faster run passes down to half the baseline's fastest sample.
        let found =
            check_edited("expand/bitmap/push", |r| *r = r.clone().timed("wall_us", wall(100.0)));
        assert!(found.is_empty(), "{found:?}");
        // The additive term comes from the fresh measurement: a baseline
        // edited to claim a wider one does not loosen the gate.
        let mut edited = synthetic("kernels");
        edited.rows.get_mut("expand").unwrap().timed.get_mut("excl_ms").unwrap().abs = 1e9;
        let mut cur = synthetic("kernels");
        cur.rows.get_mut("expand").unwrap().timed.insert("excl_ms".into(), wall(1e6));
        assert_eq!(cur.check(&edited).len(), 1);
    }

    #[test]
    fn a_min_below_half_the_baseline_min_fails_as_a_stale_baseline() {
        let found =
            check_edited("expand/bitmap/push", |r| *r = r.clone().timed("wall_us", wall(99.999)));
        assert_eq!(
            found,
            ["FAIL expand/bitmap/push: wall_us: min 99.999 is below 0.5 × baseline min 200 \
              (stale baseline: regenerate)"]
        );
        // Every timed field, whichever tool wrote it.
        let found = check_edited("expand", |r| *r = r.clone().timed("excl_ms", wall(399.0)));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].ends_with("(stale baseline: regenerate)"), "{}", found[0]);
        // Not where the additive term sets the gate: a 30 µs baseline
        // (× 5 = 150 < 200) may read 10 µs.
        let mut base = synthetic("kernels");
        base.rows.get_mut("expand").unwrap().timed.insert("excl_ms".into(), wall(30.0));
        let mut cur = base.clone();
        cur.rows.get_mut("expand").unwrap().timed.insert("excl_ms".into(), wall(10.0));
        assert!(cur.check(&base).is_empty(), "{:?}", cur.check(&base));
    }

    #[test]
    fn row_or_field_missing_from_either_side_fails() {
        let base = synthetic("shard");
        let mut fewer = base.clone();
        fewer.rows.remove("expand");
        let msg = |found: Vec<Failure>| found.iter().map(Failure::to_string).collect::<Vec<_>>();
        assert_eq!(
            msg(fewer.check(&base)),
            ["FAIL expand: row present in baseline but not measured"]
        );
        assert_eq!(
            msg(base.check(&fewer)),
            ["FAIL expand: new row not in baseline (regenerate the baseline)"]
        );
        let mut no_field = base.clone();
        no_field.rows.get_mut("expand/bitmap/push").unwrap().exact.remove("sim_ms");
        assert_eq!(
            msg(no_field.check(&base)),
            ["FAIL expand/bitmap/push: sim_ms: field present in baseline but not measured"]
        );
        assert_eq!(
            msg(base.check(&no_field)),
            ["FAIL expand/bitmap/push: sim_ms: new field not in baseline (regenerate the baseline)"]
        );
        no_field.rows.get_mut("expand").unwrap().timed.clear();
        no_field.rows.get_mut("expand").unwrap().near.clear();
        assert_eq!(no_field.check(&base).len(), 3);
    }

    #[test]
    fn cost_model_version_or_header_mismatch_fails_for_every_tool() {
        for tool in ["kernels", "profile", "shard"] {
            let base = synthetic(tool);
            let mut cur = base.clone();
            cur.device = "P100".into();
            assert_eq!(cur.check(&base).len(), 1, "{tool}");
            cur.cost_model_version += 1;
            let found = cur.check(&base);
            assert_eq!(found.len(), 1, "{tool}");
            assert!(found[0].to_string().starts_with("FAIL cost_model_version"), "{}", found[0]);
        }
        let mut other_workload = synthetic("kernels");
        other_workload.workload = json!({ "graph": "kronecker(14,8,42)" });
        assert_eq!(other_workload.check(&synthetic("kernels")).len(), 1);
        assert_eq!(synthetic("kernels").check(&synthetic("shard")).len(), 1);
    }

    #[test]
    fn write_then_load_round_trips() {
        let snap = synthetic("kernels");
        let path = std::env::temp_dir().join(format!("gswitch-ledger-{}.json", std::process::id()));
        snap.write(&path).unwrap();
        let back = Snapshot::load(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(back.unwrap(), snap);
        assert!(Snapshot::load(&path).is_err(), "a missing baseline is an error, not an empty one");
    }

    #[test]
    fn timed_records_median_and_noise_floor() {
        let t = Timed::from_samples(vec![9.0, 3.0004, 5.0, 4.0, 20.0], 10.0);
        assert_eq!(t, Timed { median: 5.0, min: 3.0, spread: 17.0, abs: 10.0 });
        assert_eq!(median(&mut [4u64, 1, 3]), 3);
    }
}
