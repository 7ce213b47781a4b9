//! Histogram correctness under concurrency and on bucket boundaries.
//!
//! The unit tests in `metrics.rs` pin hand-picked distributions; these
//! tests attack the two places the implementation can silently lie:
//! relaxed-atomic writers racing each other (per-shard merge must equal
//! a single shared histogram), and values landing exactly on bucket
//! bounds (routing must match `partition_point(b < v)` — a bound is the
//! *inclusive* upper edge of its bucket).

use gswitch_obs::Histogram;
use proptest::prelude::*;

const BOUNDS: [f64; 4] = [1.0, 4.0, 16.0, 64.0];

/// Writers on 8 threads feed both one shared histogram and a
/// per-thread shard each; after joining, the merged shard snapshots
/// must equal the shared histogram exactly. Integer-valued samples keep
/// the f64 sum order-independent, so even `sum` compares with `==`.
#[test]
#[expect(clippy::disallowed_methods, reason = "the writers must be real racing threads")]
fn concurrent_writers_then_merge_is_exact() {
    const THREADS: usize = 8;
    const PER: usize = 5_000;
    let shared = Histogram::new(&BOUNDS);
    let shards: Vec<Histogram> = (0..THREADS).map(|_| Histogram::new(&BOUNDS)).collect();
    std::thread::scope(|s| {
        for (t, shard) in shards.iter().enumerate() {
            let shared = &shared;
            s.spawn(move || {
                for i in 0..PER {
                    let v = ((t * PER + i) % 100) as f64;
                    shared.observe(v);
                    shard.observe(v);
                }
            });
        }
    });

    let total = shared.snapshot();
    let mut merged = shards[0].snapshot();
    for sh in &shards[1..] {
        merged.merge(&sh.snapshot());
    }
    assert_eq!(total.count, (THREADS * PER) as u64);
    assert_eq!(total.counts.iter().sum::<u64>(), total.count, "no observation lost or doubled");
    assert_eq!(merged, total);
    assert_eq!(merged.quantile(0.5), total.quantile(0.5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket routing matches a reference `partition_point(b < v)` over
    /// the sorted/deduped bounds — including values exactly on a bound,
    /// which belong to the bucket they bound. Quantiles stay inside the
    /// observed range and are monotone in `q`.
    #[test]
    fn bucket_routing_matches_reference(
        raw_bounds in proptest::collection::vec(0u32..50, 1..8),
        raw_values in proptest::collection::vec(0u32..60, 1..200),
    ) {
        let bounds: Vec<f64> = raw_bounds.iter().map(|&b| b as f64).collect();
        let values: Vec<f64> = raw_values.iter().map(|&v| v as f64).collect();
        let h = Histogram::new(&bounds);
        for &v in &values {
            h.observe(v);
        }
        let s = h.snapshot();

        let mut sorted = bounds.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        let mut expect = vec![0u64; sorted.len() + 1];
        for &v in &values {
            expect[sorted.partition_point(|&b| b < v)] += 1;
        }
        prop_assert_eq!(s.counts.len(), sorted.len() + 1);
        prop_assert_eq!(&s.counts, &expect);
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.counts.iter().sum::<u64>(), s.count);

        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min, min);
        prop_assert_eq!(s.max, max);
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let x = s.quantile(q);
            prop_assert!(x >= min && x <= max, "quantile({}) = {} outside [{}, {}]", q, x, min, max);
            prop_assert!(x >= prev, "quantile not monotone at q = {}", q);
            prev = x;
        }
    }

    /// Splitting a sample stream across two histograms and merging their
    /// snapshots reproduces the single-histogram snapshot exactly.
    #[test]
    fn merge_of_split_equals_whole(
        raw_bounds in proptest::collection::vec(1u32..40, 1..6),
        raw_values in proptest::collection::vec(0u32..50, 2..160),
        cut in 1usize..159,
    ) {
        let bounds: Vec<f64> = raw_bounds.iter().map(|&b| b as f64).collect();
        let values: Vec<f64> = raw_values.iter().map(|&v| v as f64).collect();
        let cut = cut.min(values.len() - 1);

        let whole = Histogram::new(&bounds);
        let left = Histogram::new(&bounds);
        let right = Histogram::new(&bounds);
        for (i, &v) in values.iter().enumerate() {
            whole.observe(v);
            if i < cut { left.observe(v) } else { right.observe(v) }
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        prop_assert_eq!(merged, whole.snapshot());
    }
}
