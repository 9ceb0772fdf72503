//! Percentile, median and spread arithmetic shared by the driver, the
//! probes and `compare`.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How many of `n` samples lie strictly beyond the `p` percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Sorts in place and returns the slice (all inputs are finite).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_unstable_by(|a, b| a.total_cmp(b));
    values
}

/// Median with the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default exclusive method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    let v = sorted(&mut v);
    let n = v.len();
    let at = |i: usize| {
        // j = i*(n+1)/4 clamped to [1, n-1]; interpolate between v[j-1], v[j].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median: the run-to-run (or
/// window-to-window) spread the bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples sits at rank 990: ten samples lie beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(!supports(1000, 0.999));
        assert!(supports(10_000, 0.999));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn window_median() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One disturbed window out of five does not move the median.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 250.0]), 100.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 5.0, 2.0, 4.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
