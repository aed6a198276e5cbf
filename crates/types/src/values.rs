//! Bounded numeric domains used throughout the framework.
//!
//! The paper works with several bounded quantities:
//!
//! * **intentions** and **preferences** take values in `[-1, 1]`
//!   (Section 2): a positive value means a participant intends to
//!   allocate/perform a query, a negative one that it does not, and zero
//!   denotes indifference;
//! * **reputation** also lives in `[-1, 1]` (Definition 7);
//! * **adequation** and **satisfaction** live in `[0, 1]` (Section 3);
//! * **allocation satisfaction** lives in `[0, ∞)` and is represented by a
//!   plain `f64`.
//!
//! The newtypes in this module make those domains explicit at API
//! boundaries. Constructors either clamp (`new`) or validate (`try_new`).
//! Raw intention values produced by Definitions 7–9 with `ε = 1` can fall
//! below `-1` (the paper's own Figure 2 plots values down to ≈ `-2.5`); the
//! scoring code therefore works on raw `f64`s and only converts to
//! [`Intention`] (clamping) when feeding the Section 3 satisfaction model.

use std::fmt;

use crate::error::SqlbError;

/// A value in the closed unit interval `[0, 1]`.
///
/// Used for adequation, satisfaction, utilization fractions, fairness
/// indexes and every other quantity the paper constrains to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct UnitInterval(f64);

impl UnitInterval {
    /// The value `0`.
    pub const ZERO: UnitInterval = UnitInterval(0.0);
    /// The value `1`.
    pub const ONE: UnitInterval = UnitInterval(1.0);
    /// The value `0.5` (the paper's initial satisfaction, Table 2).
    pub const HALF: UnitInterval = UnitInterval(0.5);

    /// Creates a value, clamping the input into `[0, 1]`. Non-finite inputs
    /// are mapped to `0`.
    pub fn new(value: f64) -> Self {
        if value.is_finite() {
            UnitInterval(value.clamp(0.0, 1.0))
        } else {
            UnitInterval(0.0)
        }
    }

    /// Creates a value, returning an error when the input lies outside
    /// `[0, 1]` or is not finite.
    pub fn try_new(value: f64) -> Result<Self, SqlbError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(UnitInterval(value))
        } else {
            Err(SqlbError::OutOfRange {
                what: "unit-interval value",
                value,
                min: 0.0,
                max: 1.0,
            })
        }
    }

    /// Returns the inner `f64`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for UnitInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

impl From<UnitInterval> for f64 {
    fn from(v: UnitInterval) -> Self {
        v.0
    }
}

macro_rules! signed_unit_type {
    ($(#[$doc:meta])* $name:ident, $what:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The neutral value `0` (indifference).
            pub const NEUTRAL: $name = $name(0.0);
            /// The maximal value `1`.
            pub const MAX: $name = $name(1.0);
            /// The minimal value `-1`.
            pub const MIN: $name = $name(-1.0);

            /// Creates a value, clamping the input into `[-1, 1]`.
            /// Non-finite inputs are mapped to `0` (indifference).
            pub fn new(value: f64) -> Self {
                if value.is_finite() {
                    $name(value.clamp(-1.0, 1.0))
                } else {
                    $name(0.0)
                }
            }

            /// Creates a value, returning an error when the input lies
            /// outside `[-1, 1]` or is not finite.
            pub fn try_new(value: f64) -> Result<Self, SqlbError> {
                if value.is_finite() && (-1.0..=1.0).contains(&value) {
                    Ok($name(value))
                } else {
                    Err(SqlbError::OutOfRange {
                        what: $what,
                        value,
                        min: -1.0,
                        max: 1.0,
                    })
                }
            }

            /// Returns the inner `f64`.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Maps the value from `[-1, 1]` to `[0, 1]` via `(x + 1) / 2`,
            /// the transformation the satisfaction model applies before
            /// averaging (Equations 1–2, Definitions 4–5).
            #[inline]
            pub fn to_unit(self) -> UnitInterval {
                UnitInterval::new((self.0 + 1.0) / 2.0)
            }

            /// Returns `true` when the value is strictly positive, i.e. the
            /// participant intends to allocate/perform the query.
            #[inline]
            pub fn is_positive(self) -> bool {
                self.0 > 0.0
            }

            /// Returns `true` when the value is strictly negative.
            #[inline]
            pub fn is_negative(self) -> bool {
                self.0 < 0.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:+.4}", self.0)
            }
        }

        impl From<$name> for f64 {
            fn from(v: $name) -> Self {
                v.0
            }
        }
    };
}

signed_unit_type!(
    /// An intention value in `[-1, 1]` (Section 2).
    ///
    /// A consumer expresses its intention `ci_c(q, p)` for allocating query
    /// `q` to provider `p`; a provider expresses its intention `pi_p(q)` for
    /// performing `q`. A positive value means the participant wants the
    /// allocation, a negative one that it does not, zero is indifference.
    /// Note that expressing a negative intention does *not* allow a
    /// participant to refuse the query (footnote 2 of the paper).
    Intention,
    "intention"
);

signed_unit_type!(
    /// A preference value in `[-1, 1]`.
    ///
    /// Preferences are long-term, private inputs from which participants
    /// derive their (public) intentions: `prf_c(q, p)` for consumers and
    /// `prf_p(q)` for providers (Definitions 7 and 8).
    Preference,
    "preference"
);

signed_unit_type!(
    /// A reputation value in `[-1, 1]` as used by Definition 7 (`rep(p)`).
    Reputation,
    "reputation"
);

/// A satisfaction/adequation level in `[0, 1]` (Section 3).
///
/// This is a semantic alias distinguishing the Section 3 quantities from
/// arbitrary unit-interval values at API boundaries.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Satisfaction(UnitInterval);

impl Satisfaction {
    /// The paper's initial satisfaction (`iniSatisfaction = 0.5`, Table 2).
    pub const INITIAL: Satisfaction = Satisfaction(UnitInterval::HALF);

    /// Creates a satisfaction value, clamping into `[0, 1]`.
    pub fn new(value: f64) -> Self {
        Satisfaction(UnitInterval::new(value))
    }

    /// Creates a satisfaction value, validating the range.
    pub fn try_new(value: f64) -> Result<Self, SqlbError> {
        UnitInterval::try_new(value).map(Satisfaction)
    }

    /// Returns the inner `f64`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0.value()
    }
}

impl fmt::Display for Satisfaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Satisfaction> for f64 {
    fn from(v: Satisfaction) -> Self {
        v.value()
    }
}

impl From<UnitInterval> for Satisfaction {
    fn from(v: UnitInterval) -> Self {
        Satisfaction(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unit_interval_clamps() {
        assert_eq!(UnitInterval::new(-0.3).value(), 0.0);
        assert_eq!(UnitInterval::new(1.7).value(), 1.0);
        assert_eq!(UnitInterval::new(0.42).value(), 0.42);
        assert_eq!(UnitInterval::new(f64::NAN).value(), 0.0);
        assert_eq!(UnitInterval::new(f64::INFINITY).value(), 0.0);
    }

    #[test]
    fn unit_interval_try_new_rejects_out_of_range() {
        assert!(UnitInterval::try_new(0.0).is_ok());
        assert!(UnitInterval::try_new(1.0).is_ok());
        assert!(UnitInterval::try_new(-0.001).is_err());
        assert!(UnitInterval::try_new(1.001).is_err());
        assert!(UnitInterval::try_new(f64::NAN).is_err());
    }

    #[test]
    fn intention_clamps_and_validates() {
        assert_eq!(Intention::new(-3.0).value(), -1.0);
        assert_eq!(Intention::new(2.0).value(), 1.0);
        assert_eq!(Intention::new(0.25).value(), 0.25);
        assert!(Intention::try_new(-1.0).is_ok());
        assert!(Intention::try_new(1.0).is_ok());
        assert!(Intention::try_new(1.1).is_err());
        assert!(Intention::try_new(f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn intention_to_unit_maps_endpoints() {
        assert_eq!(Intention::MIN.to_unit().value(), 0.0);
        assert_eq!(Intention::MAX.to_unit().value(), 1.0);
        assert_eq!(Intention::NEUTRAL.to_unit().value(), 0.5);
    }

    #[test]
    fn intention_sign_predicates() {
        assert!(Intention::new(0.1).is_positive());
        assert!(!Intention::new(0.0).is_positive());
        assert!(Intention::new(-0.1).is_negative());
        assert!(!Intention::new(0.0).is_negative());
    }

    #[test]
    fn satisfaction_initial_is_half() {
        assert_eq!(Satisfaction::INITIAL.value(), 0.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(UnitInterval::new(0.5).to_string(), "0.5000");
        assert_eq!(Intention::new(-0.25).to_string(), "-0.2500");
        assert_eq!(Intention::new(0.25).to_string(), "+0.2500");
    }

    proptest! {
        #[test]
        fn prop_unit_interval_always_in_range(x in proptest::num::f64::ANY) {
            let v = UnitInterval::new(x).value();
            prop_assert!((0.0..=1.0).contains(&v));
        }

        #[test]
        fn prop_intention_always_in_range(x in proptest::num::f64::ANY) {
            let v = Intention::new(x).value();
            prop_assert!((-1.0..=1.0).contains(&v));
        }

        #[test]
        fn prop_to_unit_in_range(x in -1.0f64..=1.0) {
            let u = Intention::new(x).to_unit().value();
            prop_assert!((0.0..=1.0).contains(&u));
            prop_assert!((u - (x + 1.0) / 2.0).abs() < 1e-12);
        }

        #[test]
        fn prop_try_new_accepts_valid(x in -1.0f64..=1.0) {
            prop_assert!(Preference::try_new(x).is_ok());
            prop_assert!(Reputation::try_new(x).is_ok());
        }
    }
}
