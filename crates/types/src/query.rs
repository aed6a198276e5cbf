//! The query model of Section 2.
//!
//! A query is a triple `q = <c, d, n>` where `q.c` identifies the consumer
//! that issued it, `q.d` describes the task to be done and `q.n ∈ N*` is
//! the number of providers to which the consumer wishes to allocate its
//! query.

use std::fmt;

use crate::capacity::WorkUnits;
use crate::error::SqlbError;
use crate::ids::{ConsumerId, QueryId};
use crate::time::SimTime;

/// The class of a query in the paper's workload model.
///
/// The evaluation generates "two classes of queries that consume,
/// respectively, 130 and 150 treatment units at the high-capacity providers"
/// (Section 6.1). The enum is open-ended through [`QueryClass::Custom`] so
/// that other workloads can be expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// The paper's light query class (130 treatment units).
    Light,
    /// The paper's heavy query class (150 treatment units).
    Heavy,
    /// A custom query class identified by an application-defined tag.
    Custom(u16),
}

impl QueryClass {
    /// Treatment cost of the paper's light class, in work units.
    pub const LIGHT_COST: f64 = 130.0;
    /// Treatment cost of the paper's heavy class, in work units.
    pub const HEAVY_COST: f64 = 150.0;

    /// Returns the default treatment cost of this class in work units.
    ///
    /// Custom classes default to the mean of the two paper classes; callers
    /// that use custom classes normally carry their own cost in the
    /// [`QueryDescription`].
    pub fn default_cost(self) -> WorkUnits {
        match self {
            QueryClass::Light => WorkUnits::new(Self::LIGHT_COST),
            QueryClass::Heavy => WorkUnits::new(Self::HEAVY_COST),
            QueryClass::Custom(_) => WorkUnits::new((Self::LIGHT_COST + Self::HEAVY_COST) / 2.0),
        }
    }

    /// Index used to address per-class tables (0 = light, 1 = heavy,
    /// 2 + tag for custom classes).
    pub fn index(self) -> usize {
        match self {
            QueryClass::Light => 0,
            QueryClass::Heavy => 1,
            QueryClass::Custom(tag) => 2 + tag as usize,
        }
    }
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryClass::Light => write!(f, "light"),
            QueryClass::Heavy => write!(f, "heavy"),
            QueryClass::Custom(tag) => write!(f, "custom({tag})"),
        }
    }
}

/// The description `q.d` of the task to be done.
///
/// The paper assumes a sound and complete matchmaker and, in its
/// evaluation, makes every provider a candidate for every query, so the
/// description carries only what the simulator reads: the query's
/// [`QueryClass`] and its treatment cost, which model processing times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryDescription {
    /// Workload class of the query.
    pub class: QueryClass,
    /// Treatment cost, in work units, on a reference (high-capacity)
    /// provider.
    pub cost: WorkUnits,
}

impl QueryDescription {
    /// Creates a description for one of the paper's workload classes with
    /// its default cost.
    pub fn for_class(class: QueryClass) -> Self {
        QueryDescription {
            class,
            cost: class.default_cost(),
        }
    }

    /// Overrides the treatment cost and returns the updated description.
    pub fn with_cost(mut self, cost: WorkUnits) -> Self {
        self.cost = cost;
        self
    }
}

impl Default for QueryDescription {
    fn default() -> Self {
        QueryDescription::for_class(QueryClass::Light)
    }
}

/// A query `q = <c, d, n>` (Section 2), extended with an identifier and the
/// virtual time at which it was issued (needed to measure response times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Unique identifier of this query.
    pub id: QueryId,
    /// `q.c`: the consumer that issued the query.
    pub consumer: ConsumerId,
    /// `q.d`: the description of the task to be done.
    pub description: QueryDescription,
    /// `q.n`: the number of providers to which the consumer wishes to
    /// allocate its query. Must be at least 1.
    pub n: u32,
    /// Virtual time at which the query entered the system.
    pub issued_at: SimTime,
}

impl Query {
    /// Builds a query, validating that `q.n ≥ 1`.
    pub fn new(
        id: QueryId,
        consumer: ConsumerId,
        description: QueryDescription,
        n: u32,
        issued_at: SimTime,
    ) -> Result<Self, SqlbError> {
        if n == 0 {
            return Err(SqlbError::InvalidQuery {
                query: id,
                reason: "q.n must be at least 1",
            });
        }
        Ok(Query {
            id,
            consumer,
            description,
            n,
            issued_at,
        })
    }

    /// Convenience constructor used pervasively by the simulator and tests:
    /// a single-result query (`q.n = 1`, the paper's evaluation setting) of
    /// the given class issued at `issued_at`.
    pub fn single(
        id: QueryId,
        consumer: ConsumerId,
        class: QueryClass,
        issued_at: SimTime,
    ) -> Self {
        Query {
            id,
            consumer,
            description: QueryDescription::for_class(class),
            n: 1,
            issued_at,
        }
    }

    /// Treatment cost of the query in work units (on a reference provider).
    pub fn cost(&self) -> WorkUnits {
        self.description.cost
    }

    /// Workload class of the query.
    pub fn class(&self) -> QueryClass {
        self.description.class
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}<{}, {}, n={}>",
            self.id, self.consumer, self.description.class, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_class_costs_match_paper() {
        assert_eq!(QueryClass::Light.default_cost().value(), 130.0);
        assert_eq!(QueryClass::Heavy.default_cost().value(), 150.0);
    }

    #[test]
    fn query_class_indexes_are_distinct() {
        assert_eq!(QueryClass::Light.index(), 0);
        assert_eq!(QueryClass::Heavy.index(), 1);
        assert_eq!(QueryClass::Custom(0).index(), 2);
        assert_eq!(QueryClass::Custom(5).index(), 7);
    }

    #[test]
    fn query_rejects_zero_n() {
        let err = Query::new(
            QueryId::new(1),
            ConsumerId::new(0),
            QueryDescription::default(),
            0,
            SimTime::ZERO,
        );
        assert!(err.is_err());
    }

    #[test]
    fn query_single_uses_n_of_one() {
        let q = Query::single(
            QueryId::new(1),
            ConsumerId::new(2),
            QueryClass::Heavy,
            SimTime::from_secs(3.0),
        );
        assert_eq!(q.n, 1);
        assert_eq!(q.class(), QueryClass::Heavy);
        assert_eq!(q.cost().value(), 150.0);
        assert_eq!(q.issued_at.as_secs(), 3.0);
    }

    #[test]
    fn description_builder() {
        let d = QueryDescription::for_class(QueryClass::Light).with_cost(WorkUnits::new(200.0));
        assert_eq!(d.class, QueryClass::Light);
        assert_eq!(d.cost.value(), 200.0);
    }

    #[test]
    fn query_display_contains_parts() {
        let q = Query::single(
            QueryId::new(9),
            ConsumerId::new(4),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let s = q.to_string();
        assert!(s.contains("q9"));
        assert!(s.contains("c4"));
        assert!(s.contains("light"));
    }
}
