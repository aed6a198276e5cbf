//! The benchmark's own arithmetic: medians, quartiles, supported
//! percentiles and failure shares.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three cut points of `values` into quarters, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones an external checker
/// derives from the same numbers. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        cuts[slot] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(cuts)
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the benchmark's bounds are judged against. `None` when it is
/// undefined (fewer than two values, or a zero median).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// The percentiles the benchmark reports, in hundredths of a percent
/// (integers, so that the rank arithmetic below is exact).
const PERCENTILES_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest reported percentile that still has at least ten samples
/// beyond it among `samples` values: a tail estimate resting on fewer
/// would be one or two outliers. `None` below twenty samples, where
/// not even the median has ten samples above it.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    let n = samples as u64;
    PERCENTILES_BP
        .iter()
        .rev()
        .find(|&&bp| {
            // Nearest rank of the percentile; the samples above it lie
            // beyond it.
            let rank = (bp * n).div_ceil(10_000);
            n - rank >= 10
        })
        .map(|&bp| bp as f64 / 100.0)
}

/// The `p`-th percentile of `values` by the nearest-rank rule (the
/// smallest value with at least `p`% of the samples at or below it);
/// `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let data = sorted(values);
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Failed operations as a share of attempted ones (`0.0` when nothing
/// was attempted).
pub fn failed_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `numerator / denominator`, or `0.0` when the denominator is zero (a
/// layer the workload never exercised).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), Some(0.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&hundred, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn failed_share_and_ratio_guard_zero_denominators() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(200, 50), 0.25);
        assert_eq!(failed_share(10, 10), 1.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
