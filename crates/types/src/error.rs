//! The error type shared by the SQLB crates.

use std::fmt;

use crate::ids::QueryId;

/// Convenient result alias using [`SqlbError`].
pub type SqlbResult<T> = Result<T, SqlbError>;

/// Errors produced by the SQLB framework crates.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlbError {
    /// A numeric value fell outside its documented domain.
    OutOfRange {
        /// Human-readable description of the value.
        what: &'static str,
        /// The offending value.
        value: f64,
        /// Lower bound of the accepted domain.
        min: f64,
        /// Upper bound of the accepted domain.
        max: f64,
    },
    /// A query was malformed (e.g. `q.n = 0`).
    InvalidQuery {
        /// The offending query.
        query: QueryId,
        /// Why the query was rejected.
        reason: &'static str,
    },
    /// A configuration value is inconsistent (e.g. class fractions that do
    /// not sum to one).
    InvalidConfig {
        /// Why the configuration was rejected.
        reason: String,
    },
}

impl fmt::Display for SqlbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlbError::OutOfRange {
                what,
                value,
                min,
                max,
            } => write!(f, "{what} out of range: {value} not in [{min}, {max}]"),
            SqlbError::InvalidQuery { query, reason } => {
                write!(f, "invalid query {query}: {reason}")
            }
            SqlbError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for SqlbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_meaningfully() {
        let e = SqlbError::OutOfRange {
            what: "intention",
            value: 2.0,
            min: -1.0,
            max: 1.0,
        };
        assert!(e.to_string().contains("intention"));
        assert!(e.to_string().contains("2"));

        let e = SqlbError::InvalidQuery {
            query: QueryId::new(7),
            reason: "q.n must be at least 1",
        };
        assert!(e.to_string().contains("q7"));
        assert!(e.to_string().contains("q.n"));

        let e = SqlbError::InvalidConfig {
            reason: "fractions must sum to 1".into(),
        };
        assert!(e.to_string().contains("sum to 1"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<SqlbError>();
    }
}
