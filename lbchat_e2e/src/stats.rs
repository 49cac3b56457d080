//! Order statistics used by the report: medians, the quartile spread the
//! acceptance rule is stated in, and the percentile rule.

/// Sorted copy of `values` (NaN-free by construction: every input is a time
/// or a count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the benchmark's acceptance is stated in. `None`
/// below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median;
/// 0 when undefined (fewer than two values or a zero median).
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// `(max − min) / median`; 0 for fewer than two values.
pub fn range_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let med = median(&v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / med
}

/// The `p`-th percentile (nearest rank) of `samples`, reported only when at
/// least ten samples lie beyond it — otherwise the tail is an anecdote, not
/// a statistic, and the caller prints "unavailable" with the sample count.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    // The median has half the samples beyond it by definition; hold it to
    // the same ten-sample floor.
    (beyond >= 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn range_spread_is_max_minus_min_over_median() {
        assert!((range_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(range_spread(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.90),
            Some(90.0),
            "ten samples lie beyond p90 of 100"
        );
        assert_eq!(
            percentile(&v, 0.99),
            None,
            "one sample beyond p99 of 100 is an anecdote"
        );
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(1980.0));
        assert_eq!(
            percentile(&v[..15], 0.50),
            None,
            "seven beyond the median of 15"
        );
        assert_eq!(percentile(&[], 0.5), None);
    }
}
