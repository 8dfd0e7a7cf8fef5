//! Order statistics over a run's timed passes.

/// Sorted copy (total order, so a stray NaN cannot panic the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one timed pass.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// driver computes spreads with. One sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(value, percentile in 0..1)`: p83 at 60 samples, p72 at 36. With
/// eleven samples or fewer no percentile qualifies and the smallest sample
/// (p0) is returned, so the metric is always defined.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "tail of no samples");
    let idx = v.len().saturating_sub(11);
    (v[idx], idx as f64 / v.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..60).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 49.0, "ten samples (50..=59) lie beyond");
        assert!((pct - 49.0 / 60.0).abs() < 1e-12);
        let v: Vec<f64> = (0..36).map(f64::from).collect();
        assert_eq!(tail(&v).0, 25.0);
        // Exactly eleven: the minimum has ten beyond it.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&v), (0.0, 0.0));
        // Too few samples: still defined.
        assert_eq!(tail(&[2.0, 1.0]), (1.0, 0.0));
    }
}
