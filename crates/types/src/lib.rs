//! # sqlb-types
//!
//! Shared vocabulary types for the SQLB query allocation framework, the
//! reproduction of *"SQLB: A Query Allocation Framework for Autonomous
//! Consumers and Providers"* (Quiané-Ruiz, Lamarre, Valduriez — VLDB 2007).
//!
//! This crate defines the identifiers, the query model `q = <c, d, n>`
//! (Section 2 of the paper), the bounded numeric domains used throughout the
//! framework (intentions, preferences, reputation, satisfaction), capacity
//! and utilization types, virtual time, and the crate-spanning error type.
//!
//! All heavier logic (satisfaction bookkeeping, intention functions, the
//! allocation algorithms themselves) lives in the dedicated crates that build
//! on top of these types.

#![deny(missing_docs)]

pub mod capacity;
pub mod error;
pub mod ids;
pub mod query;
pub mod strided;
pub mod table;
pub mod time;
pub mod values;

pub use capacity::{Capacity, Utilization, WorkUnits};
pub use error::{SqlbError, SqlbResult};
pub use ids::{ConsumerId, ParticipantId, ProviderId, QueryId};
pub use query::{Query, QueryClass, QueryDescription};
pub use strided::{StridedColumn, StridedTable};
pub use table::{ParticipantTable, SlotColumn, StableId};
pub use time::{SimDuration, SimTime};
pub use values::{Intention, Preference, Reputation, Satisfaction, UnitInterval};
