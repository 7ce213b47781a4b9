//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed and
//! cheap to clone; the hot path is one or two relaxed atomic operations
//! with no lock. The registry itself is only locked at registration and
//! snapshot time. Snapshots are plain owned data that merge across
//! processes/shards and render to JSON for the serve protocol.

use crate::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (phase boundaries in benchmarks).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A value that goes up and down (queue depths, in-flight work).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Exponential default bucket bounds for millisecond latencies:
/// 10 µs … ~84 s in ×2.5 steps, plus the implicit overflow bucket.
pub const LATENCY_MS_BUCKETS: [f64; 16] = [
    0.01,
    0.025,
    0.0625,
    0.15625,
    0.390625,
    0.9765625,
    2.44140625,
    6.103515625,
    15.2587890625,
    38.146972656,
    95.367431641,
    238.418579102,
    596.046447754,
    1490.116119385,
    3725.290298462,
    9313.225746155,
];

/// Power-of-two default bounds for size-ish distributions (counts,
/// bytes): 1 … 2^20, plus the implicit overflow bucket.
pub const SIZE_BUCKETS: [f64; 11] =
    [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0];

struct HistogramInner {
    /// Sorted upper bounds; one extra implicit bucket catches overflow.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` bucket counts.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64` bit patterns updated by CAS (no f64 atomics on stable).
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

fn cas_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        if next == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A fixed-bucket distribution with exact sum/count/min/max.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Build with explicit bucket upper bounds (sorted ascending; values
    /// above the last bound land in an implicit overflow bucket).
    pub fn new(bounds: &[f64]) -> Self {
        let mut b: Vec<f64> = bounds.to_vec();
        b.sort_by(|x, y| x.total_cmp(y));
        b.dedup();
        let counts = (0..=b.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: b,
            counts,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    /// The default latency histogram (milliseconds).
    pub fn latency_ms() -> Self {
        Self::new(&LATENCY_MS_BUCKETS)
    }

    /// The default size histogram (counts/bytes).
    pub fn sizes() -> Self {
        Self::new(&SIZE_BUCKETS)
    }

    /// Record one observation. Non-finite values are dropped — a NaN in
    /// a latency stream must not poison the whole distribution.
    #[inline]
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let i = self.0.bounds.partition_point(|&b| b < v);
        self.0.counts[i].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&self.0.sum_bits, |s| s + v);
        cas_f64(&self.0.min_bits, |m| m.min(v));
        cas_f64(&self.0.max_bits, |m| m.max(v));
    }

    /// An owned, mergeable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        HistogramSnapshot {
            bounds: h.bounds.clone(),
            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: h.count.load(Ordering::Relaxed),
            sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(h.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(h.max_bits.load(Ordering::Relaxed)),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={:.3}, p99={:.3})",
            s.count,
            s.quantile(0.5),
            s.quantile(0.99)
        )
    }
}

/// Owned histogram state: merge across shards, query percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ascending).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; one more than `bounds` (overflow last).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`+inf` when empty).
    pub min: f64,
    /// Largest observation (`-inf` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean observation; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the q-th observation, clamped to the exact
    /// observed `[min, max]` range — so an empty snapshot answers 0, a
    /// single-sample snapshot answers that sample exactly, and the
    /// overflow bucket answers `max` instead of infinity.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = self.bounds.get(i).copied().unwrap_or(self.max);
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another snapshot in. Panics if bucket layouts differ —
    /// merging is only meaningful between histograms registered with the
    /// same bounds.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "histogram bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The registry: a process-wide namespace of metrics.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`. The returned handle stays
    /// valid (and shared) for the registry's lifetime.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters.write().entry(name.to_string()).or_default().clone()
    }

    /// Adopt an existing counter handle under `name` — how a subsystem
    /// that predates the registry (e.g. the tuned-config cache) migrates
    /// its counters in without changing its own accounting.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.counters.write().insert(name.to_string(), counter.clone());
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges.write().entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name` with `bounds` (bounds
    /// are only consulted on first registration).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Get or create a latency histogram (default ms buckets).
    pub fn latency(&self, name: &str) -> Histogram {
        self.histogram(name, &LATENCY_MS_BUCKETS)
    }

    /// An owned snapshot of every registered metric. Each map is read
    /// under its own lock, released before the next is taken.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self.counters.read().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let gauges = self.gauges.read().iter().map(|(k, v)| (k.clone(), v.get())).collect();
        let histograms =
            self.histograms.read().iter().map(|(k, v)| (k.clone(), v.snapshot())).collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// Owned registry state at one instant.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter value, 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge value, 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Fold another snapshot in (union of names; same-name histograms
    /// must share bucket layouts).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(v),
                None => {
                    self.histograms.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Render as one JSON object: counters and gauges verbatim,
    /// histograms as `{count, sum, mean, min, max, p50, p95, p99}`.
    pub fn to_json(&self) -> String {
        use serde_json::{json, Value};
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let summary = json!({
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean(),
                    "min": if h.count == 0 { 0.0 } else { h.min },
                    "max": if h.count == 0 { 0.0 } else { h.max },
                    "p50": h.quantile(0.50),
                    "p95": h.quantile(0.95),
                    "p99": h.quantile(0.99),
                });
                (name.clone(), summary)
            })
            .collect();
        crate::wire::encode(json!({
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": Value::Object(histograms),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("jobs");
        let b = reg.counter("jobs");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("jobs").get(), 3);

        let g = reg.gauge("depth");
        g.inc();
        assert_eq!(reg.gauge("depth").get(), 1);
        g.set(-5);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn adopt_counter_shares_state_with_owner() {
        let reg = MetricsRegistry::new();
        let mine = Counter::new();
        mine.add(7);
        reg.adopt_counter("cache.hits", &mine);
        mine.inc();
        assert_eq!(reg.snapshot().counter("cache.hits"), 8);
        // The registry handle writes back into the owner too.
        reg.counter("cache.hits").inc();
        assert_eq!(mine.get(), 9);
    }

    #[test]
    fn histogram_empty_and_single_sample_edge_cases() {
        let h = Histogram::latency_ms();
        let empty = h.snapshot();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(empty.mean(), 0.0);

        h.observe(3.7);
        let one = h.snapshot();
        assert_eq!(one.count, 1);
        // A single sample is reported exactly at every quantile.
        assert_eq!(one.quantile(0.0), 3.7);
        assert_eq!(one.quantile(0.5), 3.7);
        assert_eq!(one.quantile(1.0), 3.7);
        assert_eq!(one.min, 3.7);
        assert_eq!(one.max, 3.7);
    }

    #[test]
    fn histogram_bucketing_and_percentiles() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 0.9, 5.0, 5.0, 50.0, 50.0, 50.0, 50.0, 500.0, 700.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.counts, vec![2, 2, 4, 2]);
        // Rank 5 of 10 falls in the third bucket (cumulative 2, 4, 8),
        // whose upper bound is 100.
        assert_eq!(s.quantile(0.5), 100.0);
        // Rank 1 → first bucket, upper bound 1.
        assert_eq!(s.quantile(0.1), 1.0);
        // p99 → overflow bucket → observed max.
        assert_eq!(s.quantile(0.99), 700.0);
        assert!((s.mean() - 141.14).abs() < 0.01);
    }

    #[test]
    fn histogram_overflow_and_nonfinite() {
        let h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(1e9);
        let s = h.snapshot();
        assert_eq!(s.count, 1, "non-finite observations are dropped");
        assert_eq!(s.counts, vec![0, 1]);
        assert_eq!(s.quantile(0.5), 1e9);
    }

    #[test]
    fn snapshot_merge_adds_counts_and_unions_names() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("x").add(3);
        b.counter("x").add(4);
        b.counter("y").inc();
        let ha = a.histogram("lat", &[1.0, 10.0]);
        let hb = b.histogram("lat", &[1.0, 10.0]);
        ha.observe(0.5);
        hb.observe(5.0);
        hb.observe(50.0);

        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("x"), 7);
        assert_eq!(snap.counter("y"), 1);
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 3);
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 50.0);
    }

    #[test]
    #[should_panic(expected = "bucket layouts differ")]
    fn merge_rejects_mismatched_buckets() {
        let a = Histogram::new(&[1.0]).snapshot();
        let mut b = Histogram::new(&[2.0]).snapshot();
        b.merge(&a);
    }
}
