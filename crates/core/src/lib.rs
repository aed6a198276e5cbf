//! # sqlb-core
//!
//! The SQLB framework itself — the primary contribution of *"SQLB: A Query
//! Allocation Framework for Autonomous Consumers and Providers"*
//! (Quiané-Ruiz, Lamarre, Valduriez — VLDB 2007).
//!
//! SQLB (Satisfaction-based Query Load Balancing) balances queries across
//! providers while taking the *intentions* of both sides into account:
//!
//! * consumers derive their intention for allocating a query to a provider
//!   by trading their **preference** for that provider against the
//!   provider's **reputation** ([`intention::consumer_intention`],
//!   Definition 7);
//! * providers derive their intention for performing a query by trading
//!   their **preference** for the query against their **utilization**,
//!   weighted by their own (private, preference-based) satisfaction
//!   ([`intention::provider_intention`], Definition 8);
//! * the mediator scores every candidate provider by trading the
//!   consumer's intention against the provider's intention, weighted by
//!   their respective (public, intention-based) satisfactions
//!   ([`scoring::provider_score`], Definition 9 and Equation 6);
//! * the query is allocated to the `q.n` best-scored providers
//!   ([`allocation`], Algorithm 1).
//!
//! The crate also defines the [`AllocationMethod`] trait that the baseline
//! methods (crate `sqlb-baselines`) implement, and [`MediatorState`], the
//! mediator-side bookkeeping of intention-based participant satisfaction
//! that Equation 6 relies on.

#![deny(missing_docs)]

pub mod allocation;
pub mod intention;
pub mod mediator;
pub mod mediator_state;
pub mod scoring;
pub mod sqlb;

pub use allocation::{Allocation, AllocationMethod, CandidateInfo, MediatorView, SelectionSet};
pub use intention::{
    consumer_intention, powf_fast, provider_intention, IntentionParams, DEFAULT_EPSILON,
};
pub use mediator::Mediator;
pub use mediator_state::MediatorState;
pub use scoring::{omega, provider_score, rank_candidates, select_top_k, RankedProvider};
pub use sqlb::SqlbAllocator;
