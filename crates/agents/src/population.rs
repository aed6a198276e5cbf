//! Population generation (Table 2 and Section 6.1).
//!
//! The paper's evaluation populates the system with 200 consumers and 400
//! providers whose heterogeneity follows three independent class
//! dimensions:
//!
//! * **consumer interest** in a provider — high (60 % of providers,
//!   preferences drawn in `[0.34, 1]`), medium (30 %, `[-0.54, 0.34]`),
//!   low (10 %, `[-1, -0.54]`);
//! * **adaptation** of a provider to the incoming queries — high (35 %,
//!   preferences in `[-0.2, 1]`), medium (60 %, `[-0.6, 0.6]`), low (5 %,
//!   `[-1, 0.2]`);
//! * **capacity** — low (10 %), medium (60 %), high (30 %), with
//!   high-capacity providers 3× more powerful than medium and 7× more
//!   powerful than low (calibrated so a high-capacity provider delivers
//!   100 work units per second).
//!
//! Class labels are assigned in exact proportions and then shuffled
//! independently (seeded), so the three dimensions are uncorrelated as in
//! the paper.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sqlb_types::{
    Capacity, ConsumerId, ParticipantTable, Preference, ProviderId, QueryClass, SqlbError,
};

use crate::active::ActiveSet;
use crate::consumer::{ConsumerAgent, ConsumerConfig};
use crate::provider::{ProviderAgent, ProviderConfig};

/// How interesting a provider is to consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterestClass {
    /// Consumers have high interest in this provider.
    High,
    /// Consumers have medium interest in this provider.
    Medium,
    /// Consumers have low interest in this provider.
    Low,
}

impl InterestClass {
    /// The preference range consumers draw from for a provider of this
    /// class.
    pub fn preference_range(self) -> (f64, f64) {
        match self {
            InterestClass::High => (0.34, 1.0),
            InterestClass::Medium => (-0.54, 0.34),
            InterestClass::Low => (-1.0, -0.54),
        }
    }

    /// Short label used in experiment output (Table 3 columns).
    pub fn label(self) -> &'static str {
        match self {
            InterestClass::High => "high",
            InterestClass::Medium => "med",
            InterestClass::Low => "low",
        }
    }
}

/// How adapted a provider is to the incoming queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptationClass {
    /// The provider likes most incoming queries.
    High,
    /// The provider is indifferent to most incoming queries.
    Medium,
    /// The provider dislikes most incoming queries.
    Low,
}

impl AdaptationClass {
    /// The preference range providers of this class draw from for each
    /// query class.
    pub fn preference_range(self) -> (f64, f64) {
        match self {
            AdaptationClass::High => (-0.2, 1.0),
            AdaptationClass::Medium => (-0.6, 0.6),
            AdaptationClass::Low => (-1.0, 0.2),
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            AdaptationClass::High => "high",
            AdaptationClass::Medium => "med",
            AdaptationClass::Low => "low",
        }
    }
}

/// The capacity class of a provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CapacityClass {
    /// 30 % of providers; 100 units/s.
    High,
    /// 60 % of providers; a third of the high capacity.
    Medium,
    /// 10 % of providers; a seventh of the high capacity.
    Low,
}

impl CapacityClass {
    /// Reference capacity of a high-capacity provider, in units/s. With the
    /// paper's query costs (130/150 units) this yields the reported ≈1.3 s
    /// and ≈1.5 s processing times.
    pub const HIGH_UNITS_PER_SEC: f64 = 100.0;

    /// The capacity of a provider of this class.
    pub fn capacity(self) -> Capacity {
        match self {
            CapacityClass::High => Capacity::new(Self::HIGH_UNITS_PER_SEC),
            CapacityClass::Medium => Capacity::new(Self::HIGH_UNITS_PER_SEC / 3.0),
            CapacityClass::Low => Capacity::new(Self::HIGH_UNITS_PER_SEC / 7.0),
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            CapacityClass::High => "high",
            CapacityClass::Medium => "med",
            CapacityClass::Low => "low",
        }
    }
}

/// The class profile of one provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderProfile {
    /// How interesting the provider is to consumers.
    pub interest: InterestClass,
    /// How adapted the provider is to the incoming queries.
    pub adaptation: AdaptationClass,
    /// The provider's capacity class.
    pub capacity: CapacityClass,
}

/// Configuration of a generated population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of consumers (`nbConsumers`, Table 2: 200).
    pub consumers: u32,
    /// Number of providers (`nbProviders`, Table 2: 400).
    pub providers: u32,
    /// Seed for all random draws (class shuffling and preference values).
    pub seed: u64,
    /// Fractions of high/medium/low consumer-interest providers.
    pub interest_fractions: [f64; 3],
    /// Fractions of high/medium/low adaptation providers.
    pub adaptation_fractions: [f64; 3],
    /// Fractions of high/medium/low capacity providers.
    pub capacity_fractions: [f64; 3],
    /// Per-consumer agent configuration.
    pub consumer_config: ConsumerConfig,
    /// Per-provider agent configuration.
    pub provider_config: ProviderConfig,
    /// Derive consumer preferences on demand from a hash of
    /// `(seed, consumer, provider)` instead of materializing `C × P`
    /// values. Off by default (the paper-faithful dense form); required in
    /// practice beyond ~10^4 participants, where the dense table is the
    /// memory wall. The procedural draw uses a different stream than the
    /// dense one, so the two modes produce different (but each internally
    /// deterministic) populations for the same seed.
    pub procedural_preferences: bool,
}

impl PopulationConfig {
    /// The paper's Table 2 configuration (200 consumers, 400 providers).
    pub fn paper(seed: u64) -> Self {
        PopulationConfig {
            consumers: 200,
            providers: 400,
            seed,
            interest_fractions: [0.6, 0.3, 0.1],
            adaptation_fractions: [0.35, 0.6, 0.05],
            capacity_fractions: [0.3, 0.6, 0.1],
            consumer_config: ConsumerConfig::default(),
            provider_config: ProviderConfig::default(),
            procedural_preferences: false,
        }
    }

    /// A scaled-down configuration with the same class mix, for fast tests
    /// and default experiment runs.
    pub fn scaled(consumers: u32, providers: u32, seed: u64) -> Self {
        PopulationConfig {
            consumers,
            providers,
            ..PopulationConfig::paper(seed)
        }
    }

    /// Validates that the class fractions are sane.
    pub fn validate(&self) -> Result<(), SqlbError> {
        for (name, fractions) in [
            ("interest", &self.interest_fractions),
            ("adaptation", &self.adaptation_fractions),
            ("capacity", &self.capacity_fractions),
        ] {
            let sum: f64 = fractions.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || fractions.iter().any(|f| *f < 0.0) {
                return Err(SqlbError::InvalidConfig {
                    reason: format!("{name} class fractions must be non-negative and sum to 1"),
                });
            }
        }
        if self.consumers == 0 || self.providers == 0 {
            return Err(SqlbError::InvalidConfig {
                reason: "population needs at least one consumer and one provider".into(),
            });
        }
        Ok(())
    }
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig::paper(0)
    }
}

/// A generated population of consumer and provider agents.
///
/// Agents are stored in [`ParticipantTable`]s keyed by their stable
/// identifiers, so code that holds a [`ConsumerId`]/[`ProviderId`] can
/// never be redirected to another agent by a departure elsewhere in the
/// population.
///
/// The population also maintains incremental *active* indices (the
/// participants that have not departed), so per-arrival hot paths never
/// rescan the agent tables. Keep the agents' departed flags in sync by
/// departing participants through [`Population::depart_consumer`] /
/// [`Population::depart_provider`] rather than the agents directly.
#[derive(Debug, Clone)]
pub struct Population {
    /// The consumer agents, keyed by consumer id.
    pub consumers: ParticipantTable<ConsumerId, ConsumerAgent>,
    /// The provider agents, keyed by provider id.
    pub providers: ParticipantTable<ProviderId, ProviderAgent>,
    /// The class profile of each provider, keyed by provider id.
    pub profiles: ParticipantTable<ProviderId, ProviderProfile>,
    /// Consumers that have not departed, ascending id.
    active_consumers: ActiveSet<ConsumerId>,
    /// Providers that have not departed, ascending id.
    active_providers: ActiveSet<ProviderId>,
}

impl Population {
    /// Generates a population from a configuration.
    pub fn generate(config: &PopulationConfig) -> Result<Population, SqlbError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.providers as usize;

        let interest = assign_classes(
            n,
            &config.interest_fractions,
            [
                InterestClass::High,
                InterestClass::Medium,
                InterestClass::Low,
            ],
            &mut rng,
        );
        let adaptation = assign_classes(
            n,
            &config.adaptation_fractions,
            [
                AdaptationClass::High,
                AdaptationClass::Medium,
                AdaptationClass::Low,
            ],
            &mut rng,
        );
        let capacity = assign_classes(
            n,
            &config.capacity_fractions,
            [
                CapacityClass::High,
                CapacityClass::Medium,
                CapacityClass::Low,
            ],
            &mut rng,
        );

        let profiles: Vec<ProviderProfile> = (0..n)
            .map(|i| ProviderProfile {
                interest: interest[i],
                adaptation: adaptation[i],
                capacity: capacity[i],
            })
            .collect();

        let providers: Vec<ProviderAgent> = profiles
            .iter()
            .enumerate()
            .map(|(i, profile)| {
                let (lo, hi) = profile.adaptation.preference_range();
                let class_preferences = vec![
                    Preference::new(rng.random_range(lo..=hi)),
                    Preference::new(rng.random_range(lo..=hi)),
                ];
                ProviderAgent::new(
                    ProviderId::new(i as u32),
                    profile.capacity.capacity(),
                    class_preferences,
                    config.provider_config,
                )
            })
            .collect();

        let consumers: Vec<ConsumerAgent> = if config.procedural_preferences {
            // One shared range column for the whole population; every
            // consumer derives each preference on demand.
            let ranges: std::sync::Arc<[(f64, f64)]> = profiles
                .iter()
                .map(|profile| profile.interest.preference_range())
                .collect();
            (0..config.consumers)
                .map(|c| {
                    ConsumerAgent::procedural(
                        ConsumerId::new(c),
                        config.seed,
                        std::sync::Arc::clone(&ranges),
                        config.consumer_config,
                    )
                })
                .collect()
        } else {
            (0..config.consumers)
                .map(|c| {
                    let preferences: Vec<Preference> = profiles
                        .iter()
                        .map(|profile| {
                            let (lo, hi) = profile.interest.preference_range();
                            Preference::new(rng.random_range(lo..=hi))
                        })
                        .collect();
                    ConsumerAgent::new(ConsumerId::new(c), preferences, config.consumer_config)
                })
                .collect()
        };

        Ok(Population {
            active_consumers: (0..config.consumers).map(ConsumerId::new).collect(),
            active_providers: (0..config.providers).map(ProviderId::new).collect(),
            consumers: ParticipantTable::from_values(consumers),
            providers: ParticipantTable::from_values(providers),
            profiles: ParticipantTable::from_values(profiles),
        })
    }

    /// Identifiers of the consumers that have not departed, in ascending
    /// id order — exactly the sequence a filter over
    /// [`Population::consumers`] would produce, but maintained
    /// incrementally instead of rebuilt per read.
    pub fn active_consumer_ids(&self) -> &[ConsumerId] {
        self.active_consumers.ids()
    }

    /// Identifiers of the providers that have not departed, ascending.
    pub fn active_provider_ids(&self) -> &[ProviderId] {
        self.active_providers.ids()
    }

    /// Number of consumers that have not departed.
    pub fn active_consumer_count(&self) -> usize {
        self.active_consumers.len()
    }

    /// Number of providers that have not departed.
    pub fn active_provider_count(&self) -> usize {
        self.active_providers.len()
    }

    /// Marks a consumer as departed and drops it from the active index.
    /// Departed consumers stop issuing queries.
    pub fn depart_consumer(&mut self, consumer: ConsumerId) {
        if let Some(agent) = self.consumers.get_mut(consumer) {
            agent.depart();
        }
        self.active_consumers.remove(consumer);
    }

    /// Marks a provider as departed and drops it from the active index.
    pub fn depart_provider(&mut self, provider: ProviderId) {
        if let Some(agent) = self.providers.get_mut(provider) {
            agent.depart();
        }
        self.active_providers.remove(provider);
    }

    /// Re-admits a previously departed provider (scenario churn re-join):
    /// clears its departed flag and restores it to the active index at
    /// its ordered position. The agent's satisfaction history is kept —
    /// callers wanting the `Reset` re-join policy additionally call
    /// [`crate::ProviderAgent::reset_satisfaction_history`].
    pub fn rejoin_provider(&mut self, provider: ProviderId) {
        if let Some(agent) = self.providers.get_mut(provider) {
            agent.rejoin();
        }
        self.active_providers.insert(provider);
    }

    /// Debug-checks that the incremental active indices agree with a
    /// from-scratch rebuild over the agents' departed flags. The engine
    /// calls it after every departure assessment, but the O(n) rebuild
    /// only compiles in under the `strict-invariants` feature (and, as a
    /// `debug_assert`, only fires with debug assertions on): at 10^5+
    /// participants an unconditional per-assessment sweep dominates
    /// debug-profile test time.
    pub fn debug_assert_active_indices_consistent(&self) {
        #[cfg(feature = "strict-invariants")]
        self.assert_active_indices_consistent();
    }

    /// The unconditional form of the audit, used by the
    /// `strict-invariants` gate above and by tests that want the check
    /// regardless of features.
    #[cfg_attr(not(feature = "strict-invariants"), allow(dead_code))]
    fn assert_active_indices_consistent(&self) {
        debug_assert!(
            self.active_consumers.ids().iter().copied().eq(self
                .consumers
                .iter()
                .filter(|(_, c)| !c.has_departed())
                .map(|(id, _)| id)),
            "active-consumer index diverged from the departed flags"
        );
        debug_assert!(
            self.active_providers.ids().iter().copied().eq(self
                .providers
                .iter()
                .filter(|(_, p)| !p.has_departed())
                .map(|(id, _)| id)),
            "active-provider index diverged from the departed flags"
        );
    }

    /// Total system capacity: the aggregate capacity of all providers, in
    /// work units per second.
    pub fn total_capacity(&self) -> f64 {
        self.providers
            .values()
            .map(|p| p.capacity().units_per_sec())
            .sum()
    }

    /// Number of consumers.
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// Number of providers.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// The class profile of a provider.
    pub fn profile(&self, provider: ProviderId) -> Option<ProviderProfile> {
        self.profiles.get(provider).copied()
    }

    /// Mean treatment cost of the paper's query mix (used to convert a
    /// workload fraction into a query arrival rate).
    pub fn mean_query_cost() -> f64 {
        (QueryClass::Light.default_cost().value() + QueryClass::Heavy.default_cost().value()) / 2.0
    }
}

/// Assigns class labels in exact proportions (largest remainder on the last
/// class) and shuffles them.
fn assign_classes<T: Copy>(
    n: usize,
    fractions: &[f64; 3],
    classes: [T; 3],
    rng: &mut StdRng,
) -> Vec<T> {
    let mut labels = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for (i, &class) in classes.iter().enumerate() {
        let count = if i == classes.len() - 1 {
            n - assigned
        } else {
            ((fractions[i] * n as f64).round() as usize).min(n - assigned)
        };
        labels.extend(std::iter::repeat_n(class, count));
        assigned += count;
    }
    labels.shuffle(rng);
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_population_has_expected_sizes_and_mix() {
        let pop = Population::generate(&PopulationConfig::paper(42)).unwrap();
        assert_eq!(pop.consumer_count(), 200);
        assert_eq!(pop.provider_count(), 400);

        let high_interest = pop
            .profiles
            .values()
            .filter(|p| p.interest == InterestClass::High)
            .count();
        let high_capacity = pop
            .profiles
            .values()
            .filter(|p| p.capacity == CapacityClass::High)
            .count();
        let low_adaptation = pop
            .profiles
            .values()
            .filter(|p| p.adaptation == AdaptationClass::Low)
            .count();
        assert_eq!(high_interest, 240); // 60 % of 400
        assert_eq!(high_capacity, 120); // 30 % of 400
        assert_eq!(low_adaptation, 20); // 5 % of 400
    }

    #[test]
    fn capacity_ratios_match_paper() {
        assert!(
            (CapacityClass::High.capacity().units_per_sec()
                / CapacityClass::Medium.capacity().units_per_sec()
                - 3.0)
                .abs()
                < 1e-9
        );
        assert!(
            (CapacityClass::High.capacity().units_per_sec()
                / CapacityClass::Low.capacity().units_per_sec()
                - 7.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn total_capacity_matches_class_mix() {
        let pop = Population::generate(&PopulationConfig::paper(1)).unwrap();
        let expected = 120.0 * 100.0 + 240.0 * (100.0 / 3.0) + 40.0 * (100.0 / 7.0);
        assert!((pop.total_capacity() - expected).abs() < 1e-6);
    }

    #[test]
    fn preferences_fall_in_class_ranges() {
        let pop = Population::generate(&PopulationConfig::scaled(20, 50, 7)).unwrap();
        for consumer in pop.consumers.values() {
            for (id, profile) in pop.profiles.iter() {
                let pref = consumer.preference_for(id).value();
                let (lo, hi) = profile.interest.preference_range();
                assert!(
                    pref >= lo - 1e-9 && pref <= hi + 1e-9,
                    "consumer preference {pref} outside [{lo}, {hi}]"
                );
            }
        }
        for (id, provider) in pop.providers.iter() {
            let (lo, hi) = pop.profiles[id].adaptation.preference_range();
            for class in [QueryClass::Light, QueryClass::Heavy] {
                let pref = provider.preference_for(class).value();
                assert!(pref >= lo - 1e-9 && pref <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn procedural_preferences_respect_class_ranges_and_are_deterministic() {
        let mut config = PopulationConfig::scaled(20, 50, 7);
        config.procedural_preferences = true;
        let pop = Population::generate(&config).unwrap();
        for consumer in pop.consumers.values() {
            for (id, profile) in pop.profiles.iter() {
                let pref = consumer.preference_for(id).value();
                let (lo, hi) = profile.interest.preference_range();
                assert!(
                    pref >= lo && pref <= hi,
                    "procedural preference {pref} outside [{lo}, {hi}]"
                );
            }
        }
        // Same seed reproduces the same table, bit for bit; another seed
        // diverges.
        let again = Population::generate(&config).unwrap();
        let mut other = config;
        other.seed = 8;
        let other = Population::generate(&other).unwrap();
        let (c, p) = (ConsumerId::new(3), ProviderId::new(11));
        let read = |pop: &Population| pop.consumers[c].preference_for(p).value().to_bits();
        assert_eq!(read(&pop), read(&again));
        assert_ne!(read(&pop), read(&other));
        // Provider-side state is independent of the consumer preference
        // mode: both modes share the provider rng stream.
        let dense = Population::generate(&PopulationConfig::scaled(20, 50, 7)).unwrap();
        assert_eq!(pop.profiles, dense.profiles);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Population::generate(&PopulationConfig::scaled(10, 30, 99)).unwrap();
        let b = Population::generate(&PopulationConfig::scaled(10, 30, 99)).unwrap();
        assert_eq!(a.profiles, b.profiles);
        for (ca, cb) in a.consumers.values().zip(b.consumers.values()) {
            for p in 0..30 {
                assert_eq!(
                    ca.preference_for(ProviderId::new(p)).value(),
                    cb.preference_for(ProviderId::new(p)).value()
                );
            }
        }
        let c = Population::generate(&PopulationConfig::scaled(10, 30, 100)).unwrap();
        assert_ne!(a.profiles, c.profiles);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = PopulationConfig::paper(0);
        config.interest_fractions = [0.5, 0.2, 0.1];
        assert!(Population::generate(&config).is_err());

        let mut config = PopulationConfig::paper(0);
        config.consumers = 0;
        assert!(Population::generate(&config).is_err());

        let mut config = PopulationConfig::paper(0);
        config.capacity_fractions = [1.2, -0.1, -0.1];
        assert!(Population::generate(&config).is_err());
    }

    #[test]
    fn mean_query_cost_is_140() {
        assert!((Population::mean_query_cost() - 140.0).abs() < 1e-12);
    }

    #[test]
    fn profile_lookup() {
        let pop = Population::generate(&PopulationConfig::scaled(5, 10, 3)).unwrap();
        assert!(pop.profile(ProviderId::new(0)).is_some());
        assert!(pop.profile(ProviderId::new(100)).is_none());
    }

    proptest! {
        #[test]
        fn prop_class_assignment_counts_sum_to_n(
            n in 1usize..500,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let labels = assign_classes(
                n,
                &[0.35, 0.6, 0.05],
                [AdaptationClass::High, AdaptationClass::Medium, AdaptationClass::Low],
                &mut rng,
            );
            prop_assert_eq!(labels.len(), n);
        }

        #[test]
        fn prop_scaled_population_generates(consumers in 1u32..20, providers in 1u32..60, seed in 0u64..50) {
            let pop = Population::generate(&PopulationConfig::scaled(consumers, providers, seed)).unwrap();
            prop_assert_eq!(pop.consumer_count(), consumers as usize);
            prop_assert_eq!(pop.provider_count(), providers as usize);
            prop_assert!(pop.total_capacity() > 0.0);
        }
    }
}
