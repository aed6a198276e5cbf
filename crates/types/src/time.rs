//! Virtual time for the discrete-event simulator.
//!
//! The paper's experiments run for 10 000 simulated seconds (Figure 4). The
//! simulator keeps time as `f64` seconds wrapped in [`SimTime`] /
//! [`SimDuration`] newtypes so arithmetic mistakes between instants and
//! durations are caught at compile time.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant of virtual time, in seconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

/// A span of virtual time, in seconds (always non-negative).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct SimDuration(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant from seconds. Negative or non-finite inputs are
    /// clamped to zero.
    pub fn from_secs(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimTime(secs)
        } else {
            SimTime(0.0)
        }
    }

    /// Returns the instant as seconds since the start of the simulation.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration elapsed since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - earlier.0)
    }

    /// Total ordering usable in priority queues (NaN never occurs by
    /// construction).
    pub fn total_cmp(&self, other: &SimTime) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds. Negative or non-finite inputs are
    /// clamped to zero.
    pub fn from_secs(secs: f64) -> Self {
        if secs.is_finite() && secs > 0.0 {
            SimDuration(secs)
        } else {
            SimDuration(0.0)
        }
    }

    /// Returns the duration in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns `true` when the duration is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_clamps_negative_and_nan() {
        assert_eq!(SimTime::from_secs(-1.0).as_secs(), 0.0);
        assert_eq!(SimTime::from_secs(f64::NAN).as_secs(), 0.0);
        assert_eq!(SimDuration::from_secs(-1.0).as_secs(), 0.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(2.5);
        assert_eq!(t.as_secs(), 12.5);
        assert_eq!((t - SimTime::from_secs(10.0)).as_secs(), 2.5);
        assert_eq!(
            (SimTime::from_secs(1.0) - SimTime::from_secs(5.0)).as_secs(),
            0.0,
            "time differences saturate at zero"
        );
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(3.0);
        assert_eq!((d + d).as_secs(), 6.0);
        assert_eq!((d - SimDuration::from_secs(1.0)).as_secs(), 2.0);
        assert_eq!((d * 2.0).as_secs(), 6.0);
        assert_eq!((d / 2.0).as_secs(), 1.5);
        assert_eq!(d / SimDuration::from_secs(1.5), 2.0);
        let sum: SimDuration = [d, d, d].into_iter().sum();
        assert_eq!(sum.as_secs(), 9.0);
    }

    #[test]
    fn since_matches_sub() {
        let a = SimTime::from_secs(7.0);
        let b = SimTime::from_secs(4.0);
        assert_eq!(a.since(b).as_secs(), 3.0);
        assert_eq!(b.since(a).as_secs(), 0.0);
    }

    #[test]
    fn total_cmp_orders_times() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.total_cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(b.total_cmp(&a), std::cmp::Ordering::Greater);
        assert_eq!(a.total_cmp(&a), std::cmp::Ordering::Equal);
    }

    proptest! {
        #[test]
        fn prop_time_plus_duration_monotone(t in 0.0f64..1e6, d in 0.0f64..1e6) {
            let t0 = SimTime::from_secs(t);
            let t1 = t0 + SimDuration::from_secs(d);
            prop_assert!(t1.as_secs() >= t0.as_secs());
        }

        #[test]
        fn prop_durations_never_negative(a in proptest::num::f64::ANY, b in proptest::num::f64::ANY) {
            let da = SimDuration::from_secs(a);
            let db = SimDuration::from_secs(b);
            prop_assert!(da.as_secs() >= 0.0);
            prop_assert!((da - db).as_secs() >= 0.0);
        }
    }
}
