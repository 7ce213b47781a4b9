//! Order statistics the benchmark reports: medians, quartiles, tail
//! percentiles and the rule that says when a tail percentile is
//! supported by its sample.

/// Samples that must lie beyond a reported percentile before it is
/// believed (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0..=1) of an unsorted sample;
/// NaN when the sample is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    (n as f64 * (1.0 - p)).floor() as usize
}

/// Whether a sample of `n` supports reporting its `p`-th percentile.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// First, second and third quartile by the exclusive method — the
/// numbers Python's `statistics.quantiles(values, n=4)` returns, which is
/// what the acceptance check computes. Needs two samples; a single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    match m {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a bound is compared against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(200, 0.95));
        assert_eq!(samples_beyond(220, 0.95), 11);
        assert!(!tail_supported(220, 0.99));
        assert!(tail_supported(1000, 0.99));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
