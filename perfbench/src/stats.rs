//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw samples and sorted; nothing is bucketed, so
//! a reported percentile is a value some request actually took.

/// Samples a tail value must have beyond it.
const TAIL_BEYOND: usize = 10;

/// The median of `sorted` (mean of the two middle values for even
/// counts); `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The highest percentile of `sorted` that has at least [`TAIL_BEYOND`]
/// samples beyond it: `(value, percentile, samples_beyond)`. With fewer
/// than `TAIL_BEYOND + 1` samples the maximum is returned with the count
/// of samples that actually lie beyond it (zero).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_BEYOND {
        return Some((sorted[n - 1], 100.0, 0));
    }
    let rank = n - TAIL_BEYOND - 1;
    Some((
        sorted[rank],
        100.0 * (rank + 1) as f64 / n as f64,
        TAIL_BEYOND,
    ))
}

/// Sorts a copy of `values` (total order; NaN never occurs in timings).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact_for_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        // A value between histogram bucket edges comes back unquantised.
        let s = sorted([1.4829, 1.0001, 1.2345]);
        assert_eq!(median(&s), Some(1.2345));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let s = sorted((1..=100).map(f64::from));
        let (value, pct, beyond) = tail(&s).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(beyond, 10);
        assert_eq!(s.iter().filter(|&&v| v > value).count(), 10);
        assert!((pct - 90.0).abs() < 1e-12);

        let s = sorted((1..=1000).map(f64::from));
        let (value, pct, _) = tail(&s).unwrap();
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum_with_nothing_beyond() {
        let s = sorted([3.0, 1.0, 2.0]);
        assert_eq!(tail(&s), Some((3.0, 100.0, 0)));
        assert_eq!(tail(&[]), None);
    }
}
