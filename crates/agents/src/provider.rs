//! The provider agent.

use sqlb_core::allocation::Bid;
use sqlb_core::intention::{provider_intention, IntentionParams};
use sqlb_satisfaction::ProviderTracker;
use sqlb_types::{
    Capacity, Intention, Preference, ProviderId, Query, QueryClass, SimDuration, SimTime,
    Utilization, WorkUnits,
};

use crate::preference_history::PreferenceHistory;
use crate::utilization::UtilizationWindow;

/// Configuration of a provider agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderConfig {
    /// The `ε` constant of Definition 8.
    pub params: IntentionParams,
    /// Window size for the proposal memory.
    pub proposed_memory: usize,
    /// Window size for the performed-query memory (`proSatSize`,
    /// Table 2: 500).
    pub performed_memory: usize,
    /// Initial satisfaction (Table 2: 0.5).
    pub initial_satisfaction: f64,
    /// Length of the sliding utilization window, in seconds of virtual
    /// time.
    pub utilization_window_secs: f64,
    /// Base price per work unit used when bidding (Mariposa-like
    /// protocol).
    pub price_per_unit: f64,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        ProviderConfig {
            params: IntentionParams::default(),
            proposed_memory: 500,
            performed_memory: 500,
            initial_satisfaction: 0.5,
            utilization_window_secs: UtilizationWindow::DEFAULT_WINDOW_SECS,
            price_per_unit: 1.0,
        }
    }
}

/// A memoized Definition 8 evaluation: the intention value computed for
/// one query class at exact (bit-level) utilization and satisfaction
/// inputs. The class preference and `ε` never change after construction,
/// so these two inputs fully determine the intention.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IntentionMemo {
    utilization_bits: u64,
    satisfaction_bits: u64,
    intention: f64,
}

/// An autonomous provider.
///
/// The agent owns its capacity, its (private) preference per query class,
/// its utilization window, its outstanding backlog, and two satisfaction
/// histories:
///
/// * an **intention-based** [`ProviderTracker`] — the public
///   characterization that matches what the mediator can observe
///   (Figure 4(a)). It stores 8 bytes per proposal (the mapped intention,
///   performed flag in the sign bit) and 8 bytes per performed query;
/// * a **preference-based** history — the private characterization the
///   provider uses inside Definition 8 and that Figures 4(b)–(c) report.
///   The preference it records depends only on the query class, so it
///   stores a 2-byte class code per proposal (performed flag in the top
///   bit) and per performed query, and reads bit-identically to a
///   `ProviderTracker` fed the preferences.
///
/// Both allocate their windows lazily, as they fill.
#[derive(Debug, Clone)]
pub struct ProviderAgent {
    id: ProviderId,
    config: ProviderConfig,
    capacity: Capacity,
    /// Preference per query-class index (`prf_p(q)`).
    class_preferences: Vec<f64>,
    utilization: UtilizationWindow,
    /// Outstanding (queued but not yet completed) work.
    backlog: f64,
    intention_tracker: ProviderTracker,
    preference_history: PreferenceHistory,
    departed: bool,
    performed_count: u64,
    /// Per-class memo of the last Definition 8 evaluation. A provider's
    /// intention inputs only change when it is *selected* (satisfaction)
    /// or its utilization window content changes — for the overwhelming
    /// majority of (arrival, candidate) pairs they are identical to the
    /// previous arrival, so the `powf`-heavy trade-off is skipped
    /// entirely. Keyed on exact input bits, the memo is bit-identical to
    /// recomputation by construction.
    intention_memo: [Option<IntentionMemo>; 2],
}

impl ProviderAgent {
    /// Creates a provider with the given capacity and per-class
    /// preferences (`class_preferences[class.index()]`).
    ///
    /// # Panics
    ///
    /// If `class_preferences` holds more than 32 767 classes (the
    /// preference history's class codes are 15 bits wide).
    pub fn new(
        id: ProviderId,
        capacity: Capacity,
        class_preferences: Vec<Preference>,
        config: ProviderConfig,
    ) -> Self {
        assert!(
            class_preferences.len() <= PreferenceHistory::MAX_CLASSES,
            "a provider supports at most {} query classes",
            PreferenceHistory::MAX_CLASSES
        );
        ProviderAgent {
            id,
            config,
            capacity,
            class_preferences: class_preferences.into_iter().map(|p| p.value()).collect(),
            utilization: UtilizationWindow::new(
                capacity,
                SimDuration::from_secs(config.utilization_window_secs),
            ),
            backlog: 0.0,
            intention_tracker: ProviderTracker::new(
                config.proposed_memory,
                config.performed_memory,
                config.initial_satisfaction,
            ),
            preference_history: PreferenceHistory::new(
                config.proposed_memory,
                config.performed_memory,
            ),
            departed: false,
            performed_count: 0,
            intention_memo: [None; 2],
        }
    }

    /// The provider's identifier.
    pub fn id(&self) -> ProviderId {
        self.id
    }

    /// The provider's capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// The agent configuration.
    pub fn config(&self) -> ProviderConfig {
        self.config
    }

    /// The provider's preference for performing queries of the given class
    /// (`prf_p(q)`). Unknown classes are treated neutrally.
    pub fn preference_for(&self, class: QueryClass) -> Preference {
        Preference::new(
            self.class_preferences
                .get(class.index())
                .copied()
                .unwrap_or(0.0),
        )
    }

    /// Current utilization `Ut(p)`.
    pub fn utilization(&mut self, now: SimTime) -> Utilization {
        self.utilization.utilization(now)
    }

    /// The provider's intention `pi_p(q)` for performing `query` at `now`
    /// (Definition 8), balancing its preference against its utilization
    /// according to its private, preference-based satisfaction
    /// (Definition 5 reading: a provider that got nothing lately focuses
    /// entirely on its preferences to obtain the queries it wants).
    pub fn intention_for(&mut self, query: &Query, now: SimTime) -> f64 {
        self.intention_and_utilization(query, now).0
    }

    /// The provider's intention for `query` at `now` together with the
    /// utilization `Ut(p)` that intention was computed from.
    ///
    /// This is the hot-path entry point: the mediation layer needs both
    /// values per candidate, and computing them together expires the
    /// sliding utilization window once instead of twice. The Definition 8
    /// evaluation itself is memoized per query class on the exact bits of
    /// its (utilization, satisfaction) inputs — `provider_intention` is a
    /// pure function and the class preference is fixed at construction,
    /// so a memo hit returns exactly the bits recomputation would.
    pub fn intention_and_utilization(&mut self, query: &Query, now: SimTime) -> (f64, f64) {
        let utilization = self.utilization.utilization(now).value();
        let satisfaction = self.preference_satisfaction();
        let slot = query.class().index();
        if let Some(Some(memo)) = self.intention_memo.get(slot) {
            if memo.utilization_bits == utilization.to_bits()
                && memo.satisfaction_bits == satisfaction.to_bits()
            {
                return (memo.intention, utilization);
            }
        }
        let preference = self.preference_for(query.class()).value();
        let intention =
            provider_intention(preference, utilization, satisfaction, self.config.params);
        if let Some(entry) = self.intention_memo.get_mut(slot) {
            *entry = Some(IntentionMemo {
                utilization_bits: utilization.to_bits(),
                satisfaction_bits: satisfaction.to_bits(),
                intention,
            });
        }
        (intention, utilization)
    }

    /// The provider's bid for a query (Mariposa-like protocol): the price
    /// reflects how *adapted* the provider is to the query (adapted
    /// providers underbid), the delay reflects the current backlog and the
    /// provider's speed.
    pub fn bid_for(&self, query: &Query, _now: SimTime) -> Bid {
        let adaptation = self.preference_for(query.class()).to_unit().value();
        // Price factor in [0.2, 1.2]: a fully adapted provider asks ~1/6 of
        // what a completely unadapted one asks.
        let price_factor = 1.2 - adaptation;
        let price = query.cost().value() * self.config.price_per_unit * price_factor;
        let delay = (self.backlog + query.cost().value()) / self.capacity.units_per_sec();
        Bid::new(price, delay)
    }

    /// Records a query that was proposed to this provider, the intention it
    /// showed for it, and whether the query was allocated to it. Updates
    /// both the public (intention-based) and private (preference-based)
    /// characterizations.
    pub fn record_proposal(&mut self, query: &Query, shown_intention: f64, performed: bool) {
        self.intention_tracker
            .record_proposal(Intention::new(shown_intention), performed);
        self.preference_history
            .record(query.class().index(), performed, &self.class_preferences);
    }

    /// Accepts an allocated query at `now`: the work enters the backlog and
    /// the utilization window, and the processing time on this provider is
    /// returned (the simulator adds queueing delay on top).
    pub fn assign(&mut self, query: &Query, now: SimTime) -> SimDuration {
        let work = query.cost();
        self.utilization.record_assignment(now, work);
        self.backlog += work.value();
        self.performed_count += 1;
        self.capacity.processing_time(work)
    }

    /// Marks `work` units of backlog as completed.
    pub fn complete(&mut self, work: WorkUnits) {
        self.backlog = (self.backlog - work.value()).max(0.0);
    }

    /// Outstanding (assigned but not completed) work.
    pub fn backlog(&self) -> WorkUnits {
        WorkUnits::new(self.backlog)
    }

    /// Number of queries assigned to this provider over its lifetime.
    pub fn performed_queries(&self) -> u64 {
        self.performed_count
    }

    /// Public, intention-based adequation `δa(p)` (Definition 4).
    pub fn adequation(&self) -> f64 {
        self.intention_tracker.adequation()
    }

    /// Public, intention-based satisfaction `δs(p)` (Definition 5) — what
    /// Figure 4(a) reports and "what a query allocation method can see". A
    /// provider that performed none of the queries recently proposed to it
    /// reports 0; this is also the value the dissatisfaction departure rule
    /// inspects.
    pub fn satisfaction(&self) -> f64 {
        self.intention_tracker.satisfaction_strict()
    }

    /// Public, intention-based allocation satisfaction `δas(p)`
    /// (Definition 6).
    pub fn allocation_satisfaction(&self) -> f64 {
        sqlb_satisfaction::allocation_satisfaction(
            self.intention_tracker.satisfaction_strict(),
            self.intention_tracker.adequation(),
        )
    }

    /// Alias of [`ProviderAgent::satisfaction`], kept for call sites that
    /// want to be explicit about using the strict Definition 5 reading.
    pub fn strict_satisfaction(&self) -> f64 {
        self.intention_tracker.satisfaction_strict()
    }

    /// Public, intention-based satisfaction smoothed over the last
    /// `performed_memory` treated queries (Table 2's `proSatSize` reading)
    /// instead of the instantaneous Definition 5 value.
    pub fn smoothed_satisfaction(&self) -> f64 {
        self.intention_tracker.satisfaction()
    }

    /// Number of queries proposed to this provider over its lifetime.
    pub fn proposed_queries(&self) -> u64 {
        self.intention_tracker.proposed_queries()
    }

    /// Private, preference-based adequation.
    pub fn preference_adequation(&self) -> f64 {
        self.preference_history
            .adequation(self.config.initial_satisfaction)
    }

    /// Private, preference-based satisfaction — the input to Definition 8
    /// and the quantity of Figure 4(b). This is the provider's *long-run*
    /// feeling about the queries it performs ("what is more important for a
    /// provider is to be globally satisfied with the queries it performs",
    /// Section 3.2.2), so it uses the smoothed Table 2 reading over the
    /// last `proSatSize` treated queries.
    pub fn preference_satisfaction(&self) -> f64 {
        self.preference_history
            .satisfaction(self.config.initial_satisfaction)
    }

    /// Private, preference-based satisfaction computed strictly as
    /// Definition 5 over the proposal window.
    pub fn strict_preference_satisfaction(&self) -> f64 {
        self.preference_history
            .satisfaction_strict(&self.class_preferences, self.config.initial_satisfaction)
    }

    /// Private, preference-based allocation satisfaction — the quantity of
    /// Figure 4(c).
    pub fn preference_allocation_satisfaction(&self) -> f64 {
        sqlb_satisfaction::allocation_satisfaction(
            self.preference_satisfaction(),
            self.preference_adequation(),
        )
    }

    /// Whether the provider has left the system.
    pub fn has_departed(&self) -> bool {
        self.departed
    }

    /// Marks the provider as departed.
    pub fn depart(&mut self) {
        self.departed = true;
    }

    /// Re-admits a churned-out provider (scenario churn groups bring
    /// providers back). The agent keeps its satisfaction trackers, its
    /// utilization window and any outstanding backlog — under the default
    /// `Resume` re-join policy the provider's history simply continues.
    pub fn rejoin(&mut self) {
        self.departed = false;
    }

    /// Discards the provider's satisfaction history, rebuilding both
    /// histories at the configured initial satisfaction and clearing the
    /// Definition 8 memo (the `Reset` re-join policy). The utilization
    /// window and backlog are *physical* state — work already accepted
    /// does not vanish when bookkeeping resets — so they are kept.
    pub fn reset_satisfaction_history(&mut self) {
        self.intention_tracker = ProviderTracker::new(
            self.config.proposed_memory,
            self.config.performed_memory,
            self.config.initial_satisfaction,
        );
        self.preference_history =
            PreferenceHistory::new(self.config.proposed_memory, self.config.performed_memory);
        self.intention_memo = [None; 2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::{ConsumerId, QueryId};

    fn prefs(light: f64, heavy: f64) -> Vec<Preference> {
        vec![Preference::new(light), Preference::new(heavy)]
    }

    fn query(id: u32, class: QueryClass) -> Query {
        Query::single(QueryId::new(id), ConsumerId::new(0), class, SimTime::ZERO)
    }

    fn provider(capacity: f64, light: f64, heavy: f64) -> ProviderAgent {
        ProviderAgent::new(
            ProviderId::new(0),
            Capacity::new(capacity),
            prefs(light, heavy),
            ProviderConfig::default(),
        )
    }

    #[test]
    fn idle_interested_provider_shows_positive_intention() {
        let mut p = provider(100.0, 0.8, -0.5);
        let i = p.intention_for(&query(0, QueryClass::Light), SimTime::ZERO);
        assert!(i > 0.0);
        let i = p.intention_for(&query(0, QueryClass::Heavy), SimTime::ZERO);
        assert!(i < 0.0, "disliked class yields negative intention");
    }

    #[test]
    fn overloaded_provider_shows_negative_intention() {
        let mut p = provider(10.0, 1.0, 1.0);
        // Assign far more work than one window's worth of capacity.
        for _ in 0..20 {
            p.assign(&query(0, QueryClass::Heavy), SimTime::from_secs(1.0));
        }
        assert!(p.utilization(SimTime::from_secs(1.0)).is_overloaded());
        let i = p.intention_for(&query(0, QueryClass::Light), SimTime::from_secs(1.0));
        assert!(i < 0.0);
    }

    #[test]
    fn assignment_updates_backlog_and_processing_time() {
        let mut p = provider(100.0, 0.5, 0.5);
        let d = p.assign(&query(0, QueryClass::Light), SimTime::ZERO);
        assert!((d.as_secs() - 1.3).abs() < 1e-9);
        assert!((p.backlog().value() - 130.0).abs() < 1e-9);
        p.complete(WorkUnits::new(130.0));
        assert_eq!(p.backlog().value(), 0.0);
        assert_eq!(p.performed_queries(), 1);
    }

    #[test]
    fn slower_provider_takes_proportionally_longer() {
        let mut fast = provider(100.0, 0.5, 0.5);
        let mut slow = provider(100.0 / 7.0, 0.5, 0.5);
        let q = query(0, QueryClass::Heavy);
        let tf = fast.assign(&q, SimTime::ZERO).as_secs();
        let ts = slow.assign(&q, SimTime::ZERO).as_secs();
        assert!((ts / tf - 7.0).abs() < 1e-9);
    }

    #[test]
    fn adapted_providers_bid_lower() {
        let adapted = provider(100.0, 1.0, 1.0);
        let unadapted = provider(100.0, -1.0, -1.0);
        let q = query(0, QueryClass::Light);
        let cheap = adapted.bid_for(&q, SimTime::ZERO);
        let expensive = unadapted.bid_for(&q, SimTime::ZERO);
        assert!(cheap.price < expensive.price);
        assert!((cheap.price - 130.0 * 0.2).abs() < 1e-9);
        assert!((expensive.price - 130.0 * 1.2).abs() < 1e-9);
    }

    #[test]
    fn bid_delay_grows_with_backlog() {
        let mut p = provider(100.0, 0.5, 0.5);
        let q = query(0, QueryClass::Light);
        let before = p.bid_for(&q, SimTime::ZERO).delay;
        for _ in 0..5 {
            p.assign(&q, SimTime::ZERO);
        }
        let after = p.bid_for(&q, SimTime::ZERO).delay;
        assert!(after > before);
        assert!((before - 1.3).abs() < 1e-9);
    }

    #[test]
    fn public_and_private_satisfaction_can_diverge() {
        let mut p = provider(100.0, 0.9, -0.9);
        let q_liked = query(0, QueryClass::Light);
        // The provider keeps performing liked queries but — because it is
        // loaded — shows small intentions for them: its intention-based
        // satisfaction is mediocre while its preference-based satisfaction
        // is high.
        for _ in 0..20 {
            p.record_proposal(&q_liked, 0.05, true);
        }
        assert!(p.preference_satisfaction() > 0.9);
        assert!(p.satisfaction() < 0.6);
        assert!(p.preference_allocation_satisfaction() > 0.0);
    }

    #[test]
    fn departure_flag() {
        let mut p = provider(100.0, 0.0, 0.0);
        assert!(!p.has_departed());
        p.depart();
        assert!(p.has_departed());
    }

    #[test]
    fn memoized_intention_is_bit_identical_to_fresh_computation() {
        // Drive one provider through assignments, completions and
        // proposal records; at every step its (memoized) intention must
        // equal the intention of a freshly built agent in the same state,
        // bit for bit, for both classes.
        let mut memoized = provider(50.0, 0.7, -0.3);
        for step in 0..200u32 {
            let now = SimTime::from_secs(step as f64 * 0.5);
            let class = if step % 3 == 0 {
                QueryClass::Heavy
            } else {
                QueryClass::Light
            };
            let q = query(step, class);
            if step % 7 == 0 {
                memoized.assign(&q, now);
            }
            if step % 11 == 0 {
                memoized.complete(WorkUnits::new(130.0));
            }
            if step % 5 == 0 {
                memoized.record_proposal(&q, 0.4, step % 2 == 0);
            }
            let (pi, ut) = memoized.intention_and_utilization(&q, now);
            // A clone has the same state but we clear its memo by
            // rebuilding the inputs manually through the public formula.
            let expected = sqlb_core::intention::provider_intention(
                memoized.preference_for(class).value(),
                ut,
                memoized.preference_satisfaction(),
                memoized.config().params,
            );
            assert_eq!(
                pi.to_bits(),
                expected.to_bits(),
                "memoized intention diverged at step {step}"
            );
            assert_eq!(
                memoized.intention_for(&q, now).to_bits(),
                expected.to_bits()
            );
            assert_eq!(ut.to_bits(), memoized.utilization(now).value().to_bits());
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_private_view_reads_like_a_preference_fed_tracker(
            k_proposed in 1usize..=64,
            k_performed in 1usize..=64,
            preferences in proptest::collection::vec(-1.0f64..=1.0, 0..6),
            steps in proptest::collection::vec((0u16..6, proptest::bool::ANY, 0u8..40), 0..300),
        ) {
            let config = ProviderConfig {
                proposed_memory: k_proposed,
                performed_memory: k_performed,
                ..ProviderConfig::default()
            };
            let mut p = ProviderAgent::new(
                ProviderId::new(0),
                Capacity::new(100.0),
                preferences.iter().map(|&v| Preference::new(v)).collect(),
                config,
            );
            let fresh = || ProviderTracker::new(k_proposed, k_performed, config.initial_satisfaction);
            let mut tracker = fresh();
            for (i, &(class, performed, action)) in steps.iter().enumerate() {
                if action == 0 {
                    p.reset_satisfaction_history();
                    tracker = fresh();
                }
                // Class indices 0–3 and 1 002 / 2 002: with a preference
                // table of 0 to 5 entries, some land past its end and must
                // read as preference 0.
                let class = match class {
                    0 => QueryClass::Light,
                    1 => QueryClass::Heavy,
                    2 => QueryClass::Custom(0),
                    3 => QueryClass::Custom(1),
                    tag => QueryClass::Custom(tag * 1000 - 3000),
                };
                p.record_proposal(&query(i as u32, class), 0.3, performed);
                let preference = preferences.get(class.index()).copied().unwrap_or(0.0);
                tracker.record_proposal(Intention::new(preference), performed);
                let pairs = [
                    (p.preference_adequation(), tracker.adequation()),
                    (p.preference_satisfaction(), tracker.satisfaction()),
                    (p.strict_preference_satisfaction(), tracker.satisfaction_strict()),
                    (
                        p.preference_allocation_satisfaction(),
                        tracker.allocation_satisfaction(),
                    ),
                ];
                for (agent, expected) in pairs {
                    proptest::prop_assert_eq!(agent.to_bits(), expected.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 32767 query classes")]
    fn oversized_preference_tables_are_rejected() {
        ProviderAgent::new(
            ProviderId::new(0),
            Capacity::new(1.0),
            vec![Preference::new(0.0); 1 << 15],
            ProviderConfig::default(),
        );
    }

    #[test]
    fn adequation_follows_proposals() {
        let mut p = provider(100.0, 0.6, 0.6);
        for i in 0..10 {
            p.record_proposal(&query(i, QueryClass::Light), 0.6, false);
        }
        assert!((p.adequation() - 0.8).abs() < 1e-9);
        assert!((p.preference_adequation() - 0.8).abs() < 1e-9);
        // Nothing performed among the proposals: the strict Definition 5
        // satisfaction collapses to 0 (the smoothed reading keeps the
        // initial value) and allocation satisfaction dips below 1.
        assert_eq!(p.satisfaction(), 0.0);
        assert_eq!(p.smoothed_satisfaction(), 0.5);
        assert!(p.allocation_satisfaction() < 1.0);
    }
}
