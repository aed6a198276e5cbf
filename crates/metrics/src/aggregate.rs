//! The three system metrics of Section 4.
//!
//! All functions operate on slices of raw `f64` values, which is how the
//! simulator extracts "a set `S` of `g` values" from its participants. Empty
//! sets are handled explicitly: the mean of an empty set is `0`, its
//! fairness is `1` (a vacuously fair allocation) and its balance is `1`.

/// The characteristic `g` being aggregated. Used by the experiment harness
/// to label measurement series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Adequation `δa` (Section 3.1.1 / 3.2.1).
    Adequation,
    /// Satisfaction `δs` (Section 3.1.2 / 3.2.2).
    Satisfaction,
    /// Allocation satisfaction `δas` (Section 3.1.3 / 3.2.3).
    AllocationSatisfaction,
    /// Utilization `Ut` (Section 2).
    Utilization,
}

impl MetricKind {
    /// Short label used in experiment output headers.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Adequation => "delta_a",
            MetricKind::Satisfaction => "delta_s",
            MetricKind::AllocationSatisfaction => "delta_as",
            MetricKind::Utilization => "Ut",
        }
    }
}

/// Default pre-fixed constant `c0` of the min–max ratio (Equation 5).
///
/// The paper only requires `c0 > 0`; a small constant keeps the metric
/// sensitive while avoiding division by zero when the maximum is zero.
pub const DEFAULT_MIN_MAX_C0: f64 = 0.1;

/// Arithmetic mean `µ(g, S)` (Equation 3). Returns `0` for an empty set.
///
/// "Because participants' characteristics are additive values and may take
/// zero values, we utilize the arithmetic mean to obtain this representative
/// number."
pub fn mean(values: &[f64]) -> f64 {
    Moments::of(values).mean()
}

/// Jain's fairness index `f(g, S)` (Equation 4). Returns `1` for an empty
/// set or when every value is zero.
///
/// The index lies in `[1/‖S‖, 1]` for non-negative inputs; the closer to 1,
/// the fairer the allocation of `g` values across `S`.
pub fn fairness(values: &[f64]) -> f64 {
    Moments::of(values).fairness()
}

/// Running folds behind [`mean`], [`fairness`] and [`spread`], for
/// callers that see their values one at a time: a sweep can fold several
/// sets in one pass and read bit-identical results, because the slice
/// functions are these same sequential folds.
#[derive(Debug, Clone, Copy)]
pub struct Moments {
    count: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// The empty set. The sums start from `-0.0`, the identity of float
    /// addition and the value `Iterator::sum` starts from.
    pub const EMPTY: Moments = Moments {
        count: 0,
        sum: -0.0,
        sum_sq: -0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// The folds over a whole set, in slice order.
    pub fn of(values: &[f64]) -> Moments {
        let mut moments = Moments::EMPTY;
        for &value in values {
            moments.push(value);
        }
        moments
    }

    /// Adds one value to the set.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of values pushed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// [`mean`] of the values pushed.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// [`fairness`] of the values pushed.
    pub fn fairness(&self) -> f64 {
        if self.count == 0 || self.sum_sq == 0.0 {
            // Empty, or all values exactly zero: every participant is
            // treated identically, which we report as perfectly fair.
            return 1.0;
        }
        (self.sum * self.sum) / (self.count as f64 * self.sum_sq)
    }

    /// [`spread`] of the values pushed.
    pub fn spread(&self) -> f64 {
        if self.min > self.max {
            0.0
        } else {
            self.max - self.min
        }
    }
}

/// Range `max(S) − min(S)` of a set of values. Returns `0` for an empty
/// set. Used by the shard router's rebalancing decision and the per-shard
/// imbalance series: the spread of per-shard utilizations is the quantity
/// cross-shard migration tries to shrink.
pub fn spread(values: &[f64]) -> f64 {
    Moments::of(values).spread()
}

/// Min–max balance ratio `σ(g, S)` (Equation 5) with the default constant
/// [`DEFAULT_MIN_MAX_C0`].
pub fn min_max_ratio(values: &[f64]) -> f64 {
    min_max_ratio_with(values, DEFAULT_MIN_MAX_C0)
}

/// Min–max balance ratio `σ(g, S)` with an explicit pre-fixed constant
/// `c0 > 0`:
///
/// ```text
/// σ(g, S) = (min g(s) + c0) / (max g(s) + c0)
/// ```
///
/// Returns `1` for an empty set. Panics if `c0` is not strictly positive,
/// mirroring the paper's requirement.
pub fn min_max_ratio_with(values: &[f64], c0: f64) -> f64 {
    assert!(
        c0 > 0.0,
        "the min-max constant c0 must be strictly positive"
    );
    if values.is_empty() {
        return 1.0;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    (min + c0) / (max + c0)
}

/// Population standard deviation of the values (zero for sets of size < 2).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_matches_hand_computation() {
        assert!((mean(&[0.2, 1.0, 0.6]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fairness_paper_example() {
        // Section 4 example: δs(p1)=0.2, δs(p2)=1, δs(p3)=0.6 → ≈0.77 and
        // δs(p'1)=1, δs(p'2)=0.7, δs(p'3)=0.9 → ≈0.97.
        let m = fairness(&[0.2, 1.0, 0.6]);
        let m_prime = fairness(&[1.0, 0.7, 0.9]);
        assert!((m - 0.7714).abs() < 1e-3, "got {m}");
        assert!((m_prime - 0.9797).abs() < 1e-3, "got {m_prime}");
        assert!(m_prime > m);
    }

    #[test]
    fn fairness_of_identical_values_is_one() {
        assert!((fairness(&[0.4, 0.4, 0.4, 0.4]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spread_is_range_and_zero_when_degenerate() {
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[0.7]), 0.0);
        assert!((spread(&[0.2, 1.0, 0.6]) - 0.8).abs() < 1e-12);
        assert!((spread(&[-0.5, 0.5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_edge_cases() {
        assert_eq!(fairness(&[]), 1.0);
        assert_eq!(fairness(&[0.0, 0.0]), 1.0);
        // Single non-zero value among n: fairness = 1/n.
        let f = fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((f - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_max_ratio_basics() {
        assert_eq!(min_max_ratio(&[]), 1.0);
        let r = min_max_ratio_with(&[0.5, 0.5], 0.1);
        assert!((r - 1.0).abs() < 1e-12);
        let r = min_max_ratio_with(&[0.0, 1.0], 1.0);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "c0 must be strictly positive")]
    fn min_max_ratio_rejects_zero_c0() {
        min_max_ratio_with(&[1.0], 0.0);
    }

    #[test]
    fn std_dev_basics() {
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[1.0, 1.0, 1.0]) - 0.0).abs() < 1e-12);
        assert!((std_dev(&[0.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metric_kind_labels_are_distinct() {
        let labels = [
            MetricKind::Adequation.label(),
            MetricKind::Satisfaction.label(),
            MetricKind::AllocationSatisfaction.label(),
            MetricKind::Utilization.label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    proptest! {
        #[test]
        fn prop_fairness_bounds(values in proptest::collection::vec(0.0f64..10.0, 1..50)) {
            let f = fairness(&values);
            let n = values.len() as f64;
            prop_assert!(f <= 1.0 + 1e-9, "fairness {f} exceeds 1");
            // The 1/n lower bound only holds when at least one value is
            // non-zero; the all-zero case is reported as 1.
            if values.iter().any(|v| *v > 0.0) {
                prop_assert!(f >= 1.0 / n - 1e-9, "fairness {f} below 1/n");
            }
        }

        #[test]
        fn prop_mean_between_min_and_max(values in proptest::collection::vec(-10.0f64..10.0, 1..50)) {
            let m = mean(&values);
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
        }

        #[test]
        fn prop_min_max_ratio_in_unit_interval_for_non_negative(
            values in proptest::collection::vec(0.0f64..10.0, 1..50),
            c0 in 0.01f64..5.0,
        ) {
            let r = min_max_ratio_with(&values, c0);
            prop_assert!(r > 0.0 && r <= 1.0 + 1e-9);
        }

        #[test]
        fn prop_fairness_scale_invariant(
            values in proptest::collection::vec(0.01f64..10.0, 2..30),
            k in 0.1f64..10.0,
        ) {
            let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
            prop_assert!((fairness(&values) - fairness(&scaled)).abs() < 1e-9);
        }
    }
}
