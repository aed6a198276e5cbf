//! # sqlb-reputation
//!
//! The reputation substrate used by SQLB's consumer intention function.
//!
//! Definition 7 of the paper balances a consumer's *preference* for a
//! provider against the provider's *reputation* `rep(p) ∈ [-1, 1]`: a
//! consumer with little experience with a provider leans on reputation
//! (`υ < 0.5`), an experienced consumer leans on its own preference
//! (`υ > 0.5`). The paper notes that "reputation does not directly appear
//! [in the model], but it is clear that it has a major role to play in the
//! manner that participants work out their intentions" (Section 3.3).
//!
//! This crate provides the minimal substrate needed for that role:
//! [`ReputationStore`], a per-provider reputation value maintained from
//! consumer feedback with an exponential update rule and optional decay
//! towards a prior.

#![warn(missing_docs)]

use sqlb_types::{ProviderId, Reputation};
use std::collections::BTreeMap;

/// A feedback-driven reputation store.
///
/// Reputation values live in `[-1, 1]`. New providers start at a
/// configurable prior. Each piece of feedback moves the reputation towards
/// the feedback value by a learning-rate step; an optional decay pulls
/// reputations back towards the prior when providers are not observed for a
/// long time.
#[derive(Debug, Clone)]
pub struct ReputationStore {
    prior: f64,
    learning_rate: f64,
    values: BTreeMap<ProviderId, f64>,
    feedback_counts: BTreeMap<ProviderId, u64>,
}

impl ReputationStore {
    /// Creates a store with the given prior reputation and learning rate in
    /// `(0, 1]`. A learning rate of 1 makes the reputation equal to the most
    /// recent feedback.
    pub fn new(prior: Reputation, learning_rate: f64) -> Self {
        ReputationStore {
            prior: prior.value(),
            learning_rate: learning_rate.clamp(f64::MIN_POSITIVE, 1.0),
            values: BTreeMap::new(),
            feedback_counts: BTreeMap::new(),
        }
    }

    /// A store with a neutral prior (0) and a moderate learning rate (0.1).
    pub fn neutral() -> Self {
        ReputationStore::new(Reputation::NEUTRAL, 0.1)
    }

    /// Returns the reputation of a provider, or the prior if no feedback
    /// has been recorded for it.
    pub fn reputation(&self, provider: ProviderId) -> Reputation {
        Reputation::new(*self.values.get(&provider).unwrap_or(&self.prior))
    }

    /// Records consumer feedback about a provider. `feedback` is the
    /// consumer's assessment of the interaction in `[-1, 1]` (e.g. the
    /// preference it ended up having for the result).
    pub fn record_feedback(&mut self, provider: ProviderId, feedback: Reputation) {
        let current = *self.values.get(&provider).unwrap_or(&self.prior);
        let updated = current + self.learning_rate * (feedback.value() - current);
        self.values.insert(provider, updated.clamp(-1.0, 1.0));
        *self.feedback_counts.entry(provider).or_insert(0) += 1;
    }

    /// Number of feedback observations recorded for a provider.
    pub fn feedback_count(&self, provider: ProviderId) -> u64 {
        *self.feedback_counts.get(&provider).unwrap_or(&0)
    }

    /// Decays every reputation towards the prior by `factor ∈ [0, 1]`
    /// (0 = no decay, 1 = full reset to the prior). Models reputation
    /// becoming stale in systems where providers change behaviour.
    pub fn decay(&mut self, factor: f64) {
        let factor = factor.clamp(0.0, 1.0);
        for value in self.values.values_mut() {
            *value += factor * (self.prior - *value);
        }
    }

    /// Removes a provider from the store (e.g. on departure).
    pub fn remove(&mut self, provider: ProviderId) {
        self.values.remove(&provider);
        self.feedback_counts.remove(&provider);
    }

    /// Number of providers with recorded feedback.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store has no recorded feedback.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Default for ReputationStore {
    fn default() -> Self {
        ReputationStore::neutral()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unknown_provider_has_prior_reputation() {
        let store = ReputationStore::new(Reputation::new(0.3), 0.5);
        assert!((store.reputation(ProviderId::new(9)).value() - 0.3).abs() < 1e-12);
        assert_eq!(store.feedback_count(ProviderId::new(9)), 0);
        assert!(store.is_empty());
    }

    #[test]
    fn feedback_moves_reputation_towards_feedback() {
        let mut store = ReputationStore::new(Reputation::NEUTRAL, 0.5);
        let p = ProviderId::new(0);
        store.record_feedback(p, Reputation::new(1.0));
        assert!((store.reputation(p).value() - 0.5).abs() < 1e-12);
        store.record_feedback(p, Reputation::new(1.0));
        assert!((store.reputation(p).value() - 0.75).abs() < 1e-12);
        assert_eq!(store.feedback_count(p), 2);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn negative_feedback_lowers_reputation() {
        let mut store = ReputationStore::neutral();
        let p = ProviderId::new(0);
        for _ in 0..50 {
            store.record_feedback(p, Reputation::new(-1.0));
        }
        assert!(store.reputation(p).value() < -0.9);
    }

    #[test]
    fn decay_pulls_towards_prior() {
        let mut store = ReputationStore::new(Reputation::NEUTRAL, 1.0);
        let p = ProviderId::new(0);
        store.record_feedback(p, Reputation::new(1.0));
        store.decay(0.5);
        assert!((store.reputation(p).value() - 0.5).abs() < 1e-12);
        store.decay(1.0);
        assert!((store.reputation(p).value() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn remove_forgets_provider() {
        let mut store = ReputationStore::neutral();
        let p = ProviderId::new(0);
        store.record_feedback(p, Reputation::new(1.0));
        store.remove(p);
        assert_eq!(store.feedback_count(p), 0);
        assert!((store.reputation(p).value() - 0.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_reputation_stays_in_range(
            feedback in proptest::collection::vec(-1.0f64..=1.0, 0..100),
            rate in 0.01f64..=1.0,
            prior in -1.0f64..=1.0,
        ) {
            let mut store = ReputationStore::new(Reputation::new(prior), rate);
            let p = ProviderId::new(0);
            for &f in &feedback {
                store.record_feedback(p, Reputation::new(f));
            }
            let r = store.reputation(p).value();
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }
}
