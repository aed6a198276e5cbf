//! The consumer agent.

use std::sync::Arc;

use sqlb_core::intention::{consumer_intention, IntentionParams};
use sqlb_reputation::ReputationStore;
use sqlb_satisfaction::{consumer_query_outcome, ConsumerTracker};
use sqlb_types::{ConsumerId, Preference, ProviderId, Query};

/// Configuration of a consumer agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerConfig {
    /// The preference/reputation balance `υ` of Definition 7. The paper's
    /// evaluation uses `υ = 1` ("the consumers' intentions denote their
    /// preferences", Section 6.1).
    pub upsilon: f64,
    /// The `ε` constant of Definition 7.
    pub params: IntentionParams,
    /// Window size `k` of the consumer's satisfaction memory
    /// (`conSatSize`, Table 2: 200).
    pub memory: usize,
    /// Initial satisfaction (Table 2: 0.5).
    pub initial_satisfaction: f64,
}

impl Default for ConsumerConfig {
    fn default() -> Self {
        ConsumerConfig {
            upsilon: 1.0,
            params: IntentionParams::default(),
            memory: 200,
            initial_satisfaction: 0.5,
        }
    }
}

/// How a consumer's per-provider preference table is stored.
///
/// The materialized form is the paper's model verbatim; the procedural
/// form exists for million-participant populations, where `C × P`
/// materialized values (hundreds of gigabytes) are the scaling wall. A
/// procedural preference is a pure function of `(seed, consumer,
/// provider)` hashed through splitmix64 into the provider's
/// interest-class range, so it is stable across reads and deterministic
/// per seed while costing O(1) memory per consumer.
#[derive(Debug, Clone)]
enum PreferenceTable {
    /// Materialized values, one per provider
    /// (`values[p.index()] = prf_c(·, p)`).
    Dense(Vec<f64>),
    /// Hash-derived values, uniform in the provider's interest-class
    /// preference range. The range column is shared by every consumer of
    /// the population (one `(lo, hi)` pair per provider, total O(P)).
    Procedural {
        seed: u64,
        ranges: Arc<[(f64, f64)]>,
    },
}

/// An autonomous consumer.
///
/// The agent owns its (private) preference table over providers, derives
/// its intentions from preferences and provider reputation (Definition 7),
/// and tracks its own adequation/satisfaction/allocation-satisfaction over
/// the `k` last queries it issued — the values on which its departure
/// decision is based.
#[derive(Debug, Clone)]
pub struct ConsumerAgent {
    id: ConsumerId,
    config: ConsumerConfig,
    /// Preference towards each provider, indexed by provider id.
    preferences: PreferenceTable,
    tracker: ConsumerTracker,
    departed: bool,
}

impl ConsumerAgent {
    /// Creates a consumer with the given per-provider preferences
    /// (`preferences[p.index()] = prf_c(·, p)`).
    pub fn new(id: ConsumerId, preferences: Vec<Preference>, config: ConsumerConfig) -> Self {
        ConsumerAgent {
            id,
            config,
            preferences: PreferenceTable::Dense(preferences.iter().map(|p| p.value()).collect()),
            tracker: ConsumerTracker::new(config.memory, config.initial_satisfaction),
            departed: false,
        }
    }

    /// Creates a consumer whose preferences are derived on demand from
    /// `seed` and the shared per-provider interest-class range column,
    /// instead of being materialized — O(1) memory per consumer at any
    /// provider count.
    pub fn procedural(
        id: ConsumerId,
        seed: u64,
        ranges: Arc<[(f64, f64)]>,
        config: ConsumerConfig,
    ) -> Self {
        ConsumerAgent {
            id,
            config,
            preferences: PreferenceTable::Procedural { seed, ranges },
            tracker: ConsumerTracker::new(config.memory, config.initial_satisfaction),
            departed: false,
        }
    }

    /// The consumer's identifier.
    pub fn id(&self) -> ConsumerId {
        self.id
    }

    /// The agent configuration.
    pub fn config(&self) -> ConsumerConfig {
        self.config
    }

    /// The consumer's preference for allocating queries to `provider`
    /// (`prf_c(q, p)`; the paper's evaluation uses per-provider rather than
    /// per-query preferences). Providers outside the table get a neutral
    /// preference.
    pub fn preference_for(&self, provider: ProviderId) -> Preference {
        let value = match &self.preferences {
            PreferenceTable::Dense(values) => values.get(provider.index()).copied().unwrap_or(0.0),
            PreferenceTable::Procedural { seed, ranges } => match ranges.get(provider.index()) {
                Some(&(lo, hi)) => lo + preference_unit(*seed, self.id, provider) * (hi - lo),
                None => 0.0,
            },
        };
        Preference::new(value)
    }

    /// The consumer's intention `ci_c(q, p)` for allocating `query` to
    /// `provider` (Definition 7), given the reputation store it consults.
    ///
    /// When `υ = 1` the intention is exactly the preference, matching the
    /// paper's experimental setting.
    pub fn intention_for(
        &self,
        _query: &Query,
        provider: ProviderId,
        reputation: &ReputationStore,
    ) -> f64 {
        let preference = self.preference_for(provider).value();
        if (self.config.upsilon - 1.0).abs() < f64::EPSILON {
            return preference;
        }
        consumer_intention(
            preference,
            reputation.reputation(provider).value(),
            self.config.upsilon,
            self.config.params,
        )
    }

    /// Records the outcome of one of this consumer's queries: the shown
    /// intentions over the whole candidate set and the subset that was
    /// selected. `n` is the number of results the consumer desired.
    pub fn record_allocation(&mut self, shown_intentions: &[f64], selected: &[usize], n: u32) {
        // Equations 1–2 in one allocation-free pass (bit-identical to the
        // Intention-slice variants; see `consumer_query_outcome`).
        if let Some((adequation, satisfaction)) =
            consumer_query_outcome(shown_intentions, selected, n)
        {
            self.tracker.record_values(adequation, satisfaction);
        }
    }

    /// Consumer adequation `δa(c)` (Definition 1).
    pub fn adequation(&self) -> f64 {
        self.tracker.adequation()
    }

    /// Consumer satisfaction `δs(c)` (Definition 2).
    pub fn satisfaction(&self) -> f64 {
        self.tracker.satisfaction()
    }

    /// Consumer allocation satisfaction `δas(c)` (Definition 3).
    pub fn allocation_satisfaction(&self) -> f64 {
        self.tracker.allocation_satisfaction()
    }

    /// Number of queries this consumer has issued (lifetime).
    pub fn issued_queries(&self) -> u64 {
        self.tracker.issued_queries()
    }

    /// Whether the consumer has left the system.
    pub fn has_departed(&self) -> bool {
        self.departed
    }

    /// Marks the consumer as departed. Departed consumers stop issuing
    /// queries.
    pub fn depart(&mut self) {
        self.departed = true;
    }
}

/// A uniform draw in `[0, 1)` that is a pure function of `(seed, consumer,
/// provider)`: the pair is packed into one word, stirred together with the
/// seed, and finalized with splitmix64. 53 mantissa bits of the output make
/// the float, so every representable step in `[0, 1)` is reachable.
fn preference_unit(seed: u64, consumer: ConsumerId, provider: ProviderId) -> f64 {
    let pair = ((consumer.raw() as u64) << 32) | provider.raw() as u64;
    let z = splitmix64(seed ^ pair.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The splitmix64 finalizer (Steele, Lea & Flood): a cheap, well-mixed
/// 64-bit permutation — adjacent inputs land far apart, which is exactly
/// what adjacent `(consumer, provider)` pairs need.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::{QueryClass, QueryId, SimTime};

    fn prefs(values: &[f64]) -> Vec<Preference> {
        values.iter().map(|&v| Preference::new(v)).collect()
    }

    fn query() -> Query {
        Query::single(
            QueryId::new(0),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    #[test]
    fn upsilon_one_makes_intention_equal_preference() {
        let c = ConsumerAgent::new(
            ConsumerId::new(0),
            prefs(&[0.7, -0.4]),
            ConsumerConfig::default(),
        );
        let reputation = ReputationStore::neutral();
        assert!((c.intention_for(&query(), ProviderId::new(0), &reputation) - 0.7).abs() < 1e-12);
        assert!(
            (c.intention_for(&query(), ProviderId::new(1), &reputation) - (-0.4)).abs() < 1e-12
        );
        // Unknown provider → neutral preference.
        assert_eq!(
            c.intention_for(&query(), ProviderId::new(9), &reputation),
            0.0
        );
    }

    #[test]
    fn upsilon_below_one_mixes_in_reputation() {
        let config = ConsumerConfig {
            upsilon: 0.5,
            ..ConsumerConfig::default()
        };
        let c = ConsumerAgent::new(ConsumerId::new(0), prefs(&[0.49]), config);
        let mut reputation = ReputationStore::new(sqlb_types::Reputation::NEUTRAL, 1.0);
        reputation.record_feedback(ProviderId::new(0), sqlb_types::Reputation::new(1.0));
        let i = c.intention_for(&query(), ProviderId::new(0), &reputation);
        assert!((i - 0.7).abs() < 1e-12, "geometric mean of 0.49 and 1.0");
        // A provider with (neutral) zero reputation drops the intention to
        // the negative branch.
        let c2 = ConsumerAgent::new(ConsumerId::new(1), prefs(&[0.49]), config);
        let i = c2.intention_for(&query(), ProviderId::new(0), &ReputationStore::neutral());
        assert!(i < 0.0);
    }

    #[test]
    fn satisfaction_tracks_allocations() {
        let mut c = ConsumerAgent::new(
            ConsumerId::new(0),
            prefs(&[0.9, -0.9]),
            ConsumerConfig::default(),
        );
        assert_eq!(c.satisfaction(), 0.5);
        // Always receives its preferred provider.
        for _ in 0..10 {
            c.record_allocation(&[0.9, -0.9], &[0], 1);
        }
        assert!(c.satisfaction() > c.adequation());
        assert!(c.allocation_satisfaction() > 1.0);
        assert_eq!(c.issued_queries(), 10);

        // Now always receives the provider it dislikes.
        let mut punished = ConsumerAgent::new(
            ConsumerId::new(1),
            prefs(&[0.9, -0.9]),
            ConsumerConfig::default(),
        );
        for _ in 0..10 {
            punished.record_allocation(&[0.9, -0.9], &[1], 1);
        }
        assert!(punished.satisfaction() < punished.adequation());
        assert!(punished.allocation_satisfaction() < 1.0);
    }

    #[test]
    fn departure_flag() {
        let mut c = ConsumerAgent::new(ConsumerId::new(0), prefs(&[]), ConsumerConfig::default());
        assert!(!c.has_departed());
        c.depart();
        assert!(c.has_departed());
    }

    #[test]
    fn procedural_preferences_are_stable_in_range_and_seeded() {
        let ranges: Arc<[(f64, f64)]> = vec![(0.34, 1.0), (-1.0, -0.54), (-0.54, 0.34)].into();
        let a = ConsumerAgent::procedural(
            ConsumerId::new(3),
            7,
            Arc::clone(&ranges),
            ConsumerConfig::default(),
        );
        for p in 0..3u32 {
            let (lo, hi) = ranges[p as usize];
            let v = a.preference_for(ProviderId::new(p)).value();
            assert!(v >= lo && v < hi, "preference {v} outside [{lo}, {hi})");
            // Pure function of (seed, consumer, provider): stable across
            // reads.
            assert_eq!(
                v.to_bits(),
                a.preference_for(ProviderId::new(p)).value().to_bits()
            );
        }
        // Out-of-table providers are neutral, like the dense form.
        assert_eq!(a.preference_for(ProviderId::new(99)).value(), 0.0);

        // Same seed → same table; different seed or consumer → different
        // draws (with overwhelming probability for this fixed case).
        let b = ConsumerAgent::procedural(
            ConsumerId::new(3),
            7,
            Arc::clone(&ranges),
            ConsumerConfig::default(),
        );
        let c = ConsumerAgent::procedural(
            ConsumerId::new(3),
            8,
            Arc::clone(&ranges),
            ConsumerConfig::default(),
        );
        let d = ConsumerAgent::procedural(ConsumerId::new(4), 7, ranges, ConsumerConfig::default());
        let p0 = ProviderId::new(0);
        assert_eq!(
            a.preference_for(p0).value().to_bits(),
            b.preference_for(p0).value().to_bits()
        );
        assert_ne!(
            a.preference_for(p0).value().to_bits(),
            c.preference_for(p0).value().to_bits()
        );
        assert_ne!(
            a.preference_for(p0).value().to_bits(),
            d.preference_for(p0).value().to_bits()
        );
    }
}
