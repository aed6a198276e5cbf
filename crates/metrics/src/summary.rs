//! Summary statistics over a set of per-participant values.

use crate::aggregate::{fairness, mean, min_max_ratio_with, std_dev, DEFAULT_MIN_MAX_C0};

/// A summary of a set `S` of `g` values combining the paper's three metrics
/// (Section 4) with basic descriptive statistics. This is the unit of
/// measurement the experiment harness snapshots at every sampling instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values summarized.
    pub count: usize,
    /// Arithmetic mean `µ(g, S)` (Equation 3).
    pub mean: f64,
    /// Jain fairness index `f(g, S)` (Equation 4).
    pub fairness: f64,
    /// Min–max balance ratio `σ(g, S)` (Equation 5).
    pub balance: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Summarizes a set of values with the default `c0` constant.
    pub fn of(values: &[f64]) -> Self {
        Summary::with_c0(values, DEFAULT_MIN_MAX_C0)
    }

    /// Summarizes a set of values with an explicit min–max constant.
    pub fn with_c0(values: &[f64], c0: f64) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                fairness: 1.0,
                balance: 1.0,
                min: 0.0,
                max: 0.0,
                std_dev: 0.0,
            };
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            count: values.len(),
            mean: mean(values),
            fairness: fairness(values),
            balance: min_max_ratio_with(values, c0),
            min,
            max,
            std_dev: std_dev(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_neutral() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.fairness, 1.0);
        assert_eq!(s.balance, 1.0);
    }

    #[test]
    fn summary_matches_component_metrics() {
        let values = [0.2, 1.0, 0.6];
        let s = Summary::of(&values);
        assert_eq!(s.count, 3);
        assert!((s.mean - 0.6).abs() < 1e-12);
        assert!((s.fairness - fairness(&values)).abs() < 1e-12);
        assert_eq!(s.min, 0.2);
        assert_eq!(s.max, 1.0);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn balance_uses_custom_c0() {
        let values = [0.0, 1.0];
        let s = Summary::with_c0(&values, 1.0);
        assert!((s.balance - 0.5).abs() < 1e-12);
    }
}
