//! Capacity, work and utilization types.
//!
//! "Providers have a finite capacity that may denote e.g. the number of
//! computational units or physical resources they have. Thus, the
//! utilization of a provider `p` at time `t`, `Ut(p)`, denotes how much it is
//! loaded w.r.t. its capacity." (Section 2.)
//!
//! The simulator expresses query costs in abstract *work units* and provider
//! capacities in *work units per second*. With the paper's calibration a
//! high-capacity provider delivers 100 units/s, so the 130/150-unit query
//! classes take ≈1.3 s and ≈1.5 s on it (Section 6.1).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::error::SqlbError;
use crate::time::SimDuration;

/// An amount of work, in abstract treatment units (non-negative).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct WorkUnits(f64);

impl WorkUnits {
    /// Zero work.
    pub const ZERO: WorkUnits = WorkUnits(0.0);

    /// Creates an amount of work, clamping negative or non-finite values to
    /// zero.
    pub fn new(units: f64) -> Self {
        if units.is_finite() && units > 0.0 {
            WorkUnits(units)
        } else {
            WorkUnits(0.0)
        }
    }

    /// Returns the raw number of units.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` if there is no work.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for WorkUnits {
    type Output = WorkUnits;
    fn add(self, rhs: WorkUnits) -> WorkUnits {
        WorkUnits(self.0 + rhs.0)
    }
}

impl AddAssign for WorkUnits {
    fn add_assign(&mut self, rhs: WorkUnits) {
        self.0 += rhs.0;
    }
}

impl Sub for WorkUnits {
    type Output = WorkUnits;
    fn sub(self, rhs: WorkUnits) -> WorkUnits {
        WorkUnits((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for WorkUnits {
    type Output = WorkUnits;
    fn mul(self, rhs: f64) -> WorkUnits {
        WorkUnits::new(self.0 * rhs)
    }
}

impl Sum for WorkUnits {
    fn sum<I: Iterator<Item = WorkUnits>>(iter: I) -> Self {
        iter.fold(WorkUnits::ZERO, |acc, w| acc + w)
    }
}

impl fmt::Display for WorkUnits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}u", self.0)
    }
}

/// A provider's capacity, in work units per second (strictly positive).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Capacity(f64);

impl Capacity {
    /// Creates a capacity, returning an error unless it is finite and
    /// strictly positive.
    pub fn try_new(units_per_sec: f64) -> Result<Self, SqlbError> {
        if units_per_sec.is_finite() && units_per_sec > 0.0 {
            Ok(Capacity(units_per_sec))
        } else {
            Err(SqlbError::OutOfRange {
                what: "capacity (units/s)",
                value: units_per_sec,
                min: f64::MIN_POSITIVE,
                max: f64::INFINITY,
            })
        }
    }

    /// Creates a capacity, panicking on invalid input. Intended for
    /// constants and tests.
    pub fn new(units_per_sec: f64) -> Self {
        Capacity::try_new(units_per_sec).expect("capacity must be finite and > 0")
    }

    /// Returns the capacity in units per second.
    #[inline]
    pub fn units_per_sec(self) -> f64 {
        self.0
    }

    /// Time needed to process `work` at this capacity, assuming the provider
    /// dedicates itself fully to that work.
    pub fn processing_time(self, work: WorkUnits) -> SimDuration {
        SimDuration::from_secs(work.value() / self.0)
    }

    /// Amount of work this capacity can absorb during `window`.
    pub fn work_over(self, window: SimDuration) -> WorkUnits {
        WorkUnits::new(self.0 * window.as_secs())
    }
}

impl Add for Capacity {
    type Output = Capacity;
    fn add(self, rhs: Capacity) -> Capacity {
        Capacity(self.0 + rhs.0)
    }
}

impl Mul<f64> for Capacity {
    type Output = Capacity;
    fn mul(self, rhs: f64) -> Capacity {
        Capacity::new(self.0 * rhs)
    }
}

impl Div for Capacity {
    type Output = f64;
    fn div(self, rhs: Capacity) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}u/s", self.0)
    }
}

/// A utilization level `Ut(p) ∈ [0, ∞)`.
///
/// A value of `1.0` means the provider receives exactly as much work as it
/// can process; values above `1.0` indicate overload. The paper's Figure 2
/// plots provider intentions for utilizations up to `2.0`, and the departure
/// rule of Section 6.3.2 triggers at `2.2 ×` the optimal utilization.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Utilization(f64);

impl Utilization {
    /// An idle provider.
    pub const IDLE: Utilization = Utilization(0.0);
    /// A fully-utilized provider.
    pub const FULL: Utilization = Utilization(1.0);

    /// Creates a utilization, clamping negative or non-finite values to 0.
    pub fn new(value: f64) -> Self {
        if value.is_finite() && value > 0.0 {
            Utilization(value)
        } else {
            Utilization(0.0)
        }
    }

    /// Returns the raw utilization value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns `true` when the provider is at or above full utilization
    /// (`Ut(p) ≥ 1`), the condition under which Definition 8 switches to its
    /// negative branch.
    #[inline]
    pub fn is_overloaded(self) -> bool {
        self.0 >= 1.0
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<Utilization> for f64 {
    fn from(u: Utilization) -> Self {
        u.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn work_units_clamp_negative() {
        assert_eq!(WorkUnits::new(-5.0).value(), 0.0);
        assert_eq!(WorkUnits::new(f64::NAN).value(), 0.0);
        assert!(WorkUnits::new(0.0).is_zero());
    }

    #[test]
    fn work_units_arithmetic() {
        let a = WorkUnits::new(130.0);
        let b = WorkUnits::new(150.0);
        assert_eq!((a + b).value(), 280.0);
        assert_eq!((b - a).value(), 20.0);
        assert_eq!((a - b).value(), 0.0, "subtraction saturates at zero");
        assert_eq!((a * 2.0).value(), 260.0);
        let total: WorkUnits = [a, b, a].into_iter().sum();
        assert_eq!(total.value(), 410.0);
    }

    #[test]
    fn capacity_rejects_non_positive() {
        assert!(Capacity::try_new(0.0).is_err());
        assert!(Capacity::try_new(-1.0).is_err());
        assert!(Capacity::try_new(f64::NAN).is_err());
        assert!(Capacity::try_new(100.0).is_ok());
    }

    #[test]
    fn paper_processing_times() {
        // "High-capacity providers perform both classes of queries in almost
        // 1.3 and 1.5 seconds" with a 100 units/s calibration.
        let high = Capacity::new(100.0);
        assert!((high.processing_time(WorkUnits::new(130.0)).as_secs() - 1.3).abs() < 1e-12);
        assert!((high.processing_time(WorkUnits::new(150.0)).as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_work_over_window() {
        let c = Capacity::new(50.0);
        assert_eq!(c.work_over(SimDuration::from_secs(60.0)).value(), 3000.0);
    }

    #[test]
    fn capacity_ratio() {
        let high = Capacity::new(100.0);
        let medium = Capacity::new(100.0 / 3.0);
        assert!((high / medium - 3.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_flags_overload() {
        assert!(!Utilization::new(0.99).is_overloaded());
        assert!(Utilization::FULL.is_overloaded());
        assert!(Utilization::new(2.2).is_overloaded());
        assert_eq!(Utilization::new(-3.0).value(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_work_units_never_negative(x in proptest::num::f64::ANY, y in proptest::num::f64::ANY) {
            let a = WorkUnits::new(x);
            let b = WorkUnits::new(y);
            prop_assert!(a.value() >= 0.0);
            prop_assert!((a + b).value() >= 0.0);
            prop_assert!((a - b).value() >= 0.0);
        }

        #[test]
        fn prop_processing_time_scales_inverse_with_capacity(
            work in 1.0f64..10_000.0,
            cap in 1.0f64..1_000.0,
        ) {
            let t = Capacity::new(cap).processing_time(WorkUnits::new(work)).as_secs();
            prop_assert!((t - work / cap).abs() < 1e-9);
        }
    }
}
