//! # sqlb-metrics
//!
//! The system metrics of Section 4 of the SQLB paper, plus the measurement
//! infrastructure (time series, summaries) used by the experiment
//! harness.
//!
//! The paper evaluates the quality of a query allocation method over a set
//! `S` of per-participant values `g(s)` (where `g` is one of adequation
//! `δa`, satisfaction `δs`, allocation satisfaction `δas` or utilization
//! `Ut`) with three complementary metrics:
//!
//! * **efficiency** — the arithmetic mean `µ(g, S)` (Equation 3);
//! * **sensitivity / fairness** — Jain's fairness index `f(g, S)`
//!   (Equation 4, from Jain, Chiu & Hawe, DEC-TR-301);
//! * **balance** — the min–max ratio `σ(g, S)` (Equation 5).
//!
//! "These metrics are complementary to evaluate the global behavior of the
//! system, and the use of only one of them may cause the loss of some
//! important information."

#![warn(missing_docs)]

pub mod aggregate;
pub mod summary;
pub mod timeseries;

pub use aggregate::{
    fairness, mean, min_max_ratio, min_max_ratio_with, spread, MetricKind, Moments,
};
pub use summary::Summary;
pub use timeseries::{SeriesSet, TimePoint, TimeSeries};
