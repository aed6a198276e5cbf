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
//!
//! * [`ReputationStore`] — a per-provider reputation value maintained from
//!   consumer feedback with an exponential update rule and optional decay
//!   towards a prior;
//! * [`ExperienceTracker`] — counts a consumer's past interactions with
//!   each provider, so consumers can derive a per-provider `υ` value
//!   ("if a consumer has enough experiences with a given provider p, it
//!   sets υ > 0.5, or else it sets υ < 0.5", Section 5.1).

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

/// Tracks how much first-hand experience a consumer has with each provider
/// and derives the preference/reputation balance `υ` of Definition 7.
#[derive(Debug, Clone, Default)]
pub struct ExperienceTracker {
    interactions: BTreeMap<ProviderId, u64>,
    /// Number of interactions after which the consumer fully trusts its own
    /// preferences (`υ = 1`).
    saturation: u64,
}

impl ExperienceTracker {
    /// Creates a tracker that saturates (full confidence in own
    /// preferences) after `saturation` interactions with a provider.
    pub fn new(saturation: u64) -> Self {
        ExperienceTracker {
            interactions: BTreeMap::new(),
            saturation: saturation.max(1),
        }
    }

    /// Records one interaction with a provider.
    pub fn record_interaction(&mut self, provider: ProviderId) {
        *self.interactions.entry(provider).or_insert(0) += 1;
    }

    /// Number of recorded interactions with a provider.
    pub fn interactions_with(&self, provider: ProviderId) -> u64 {
        *self.interactions.get(&provider).unwrap_or(&0)
    }

    /// The preference/reputation balance `υ ∈ [0, 1]` for a provider:
    /// `0.5` is reached at half the saturation count, `1` at saturation.
    /// With no experience the consumer relies entirely on reputation
    /// (`υ = 0`).
    pub fn upsilon(&self, provider: ProviderId) -> f64 {
        let n = self.interactions_with(provider) as f64;
        (n / self.saturation as f64).min(1.0)
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

    #[test]
    fn experience_tracker_upsilon_ramps_to_one() {
        let mut t = ExperienceTracker::new(4);
        let p = ProviderId::new(0);
        assert_eq!(t.upsilon(p), 0.0);
        t.record_interaction(p);
        assert!((t.upsilon(p) - 0.25).abs() < 1e-12);
        for _ in 0..10 {
            t.record_interaction(p);
        }
        assert_eq!(t.upsilon(p), 1.0);
        assert_eq!(t.interactions_with(p), 11);
    }

    #[test]
    fn experience_tracker_saturation_is_at_least_one() {
        let mut t = ExperienceTracker::new(0);
        let p = ProviderId::new(1);
        t.record_interaction(p);
        assert_eq!(t.upsilon(p), 1.0);
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

        #[test]
        fn prop_upsilon_in_unit_interval(n in 0u64..1000, saturation in 1u64..100) {
            let mut t = ExperienceTracker::new(saturation);
            let p = ProviderId::new(0);
            for _ in 0..n {
                t.record_interaction(p);
            }
            let u = t.upsilon(p);
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }
}
