//! Mediator-side satisfaction bookkeeping.
//!
//! The query allocation module cannot see private preferences, so the
//! satisfaction values it uses in Equation 6 "have to be based on the
//! intentions" (Section 5.3). [`MediatorState`] keeps exactly the two
//! readings Equation 6 takes, and nothing else:
//!
//! * `δs(c)`: per consumer, a window of the Equation 2 satisfactions of
//!   its last `consumer_window` queries;
//! * `δs(p)`: per provider, a window of the mapped intentions of its last
//!   `provider_performed_window` performed queries (Table 2's
//!   `proSatSize`), created on the provider's first performed query.
//!
//! A candidate that is not selected moves neither reading, so recording an
//! allocation writes for the issuing consumer and the `q.n` selected
//! providers only. The proposal windows (adequation, Definition 5's
//! strict reading) live with the provider agents alone.

// Re-exported so layers that carry a provider's performed window across
// mediators (the shard router's migration and churn parking paths) can
// name the type without a direct dependency on the satisfaction crate.
use sqlb_satisfaction::consumer::satisfaction_from_sum;
use sqlb_satisfaction::unit_value;
pub use sqlb_satisfaction::InteractionMemory;
use sqlb_types::{ConsumerId, Intention, ProviderId, Query, StridedColumn, StridedTable};

use crate::allocation::{Allocation, CandidateInfo, MediatorView, SelectionSet};

/// Reusable buffers for [`MediatorState::record_allocation`], so recording
/// an allocation performs no heap allocation in steady state. Scratch
/// state is transient (rebuilt from scratch on every call).
#[derive(Debug, Clone, Default)]
struct RecordScratch {
    selected_indices: Vec<usize>,
    selection: SelectionSet,
}

/// Configuration of the mediator-side windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediatorStateConfig {
    /// Window size for consumer satisfactions (`conSatSize`, Table 2: 200).
    pub consumer_window: usize,
    /// Proposal-window size of a provider tracker. The mediator keeps no
    /// proposal window and does not read it.
    pub provider_proposed_window: usize,
    /// Performed-window size for providers (`proSatSize`, Table 2: 500).
    pub provider_performed_window: usize,
    /// Initial satisfaction reported before any observation
    /// (`iniSatisfaction`, Table 2: 0.5).
    pub initial_satisfaction: f64,
}

impl Default for MediatorStateConfig {
    fn default() -> Self {
        MediatorStateConfig {
            consumer_window: 200,
            provider_proposed_window: 500,
            provider_performed_window: 500,
            initial_satisfaction: 0.5,
        }
    }
}

/// The mediator's view of every participant's intention-based
/// satisfaction.
#[derive(Debug, Clone)]
pub struct MediatorState {
    config: MediatorStateConfig,
    /// Equation 2 satisfactions of each consumer's last queries.
    consumers: StridedTable<ConsumerId, InteractionMemory>,
    /// Mapped intentions of each provider's last performed queries; a
    /// provider has no window until its first performed query.
    performed: StridedTable<ProviderId, InteractionMemory>,
    allocations: u64,
    /// Dense satisfaction column (struct-of-arrays). Invariant:
    /// `provider_satisfactions[p]` holds the exact bits of
    /// `performed[p].mean_or(initial_satisfaction)` for every provider
    /// with a window, and the initial satisfaction (the column's fill
    /// value) for every other slot — so the Equation 6 hot path streams
    /// contiguous `f64`s instead of chasing windows through the table.
    /// Refreshed wherever a window changes: a performed query, removal,
    /// and migration export/absorb.
    provider_satisfactions: StridedColumn<ProviderId, f64>,
    /// Transient buffers, rebuilt on every recorded allocation (not part
    /// of the mediator's logical state).
    scratch: RecordScratch,
}

impl MediatorState {
    /// Creates a state with the given window configuration.
    pub fn new(config: MediatorStateConfig) -> Self {
        MediatorState::with_slot_stride(config, 0, 1)
    }

    /// Creates a state whose participant tables are compacted for the
    /// residue class `raw id ≡ offset (mod stride)`.
    ///
    /// The shard router partitions providers *and* routes consumers
    /// round-robin by raw id, so shard `i` of `K` only ever registers
    /// participants with `id ≡ i (mod K)` through its own allocations.
    /// Passing `(i, K)` here keeps every per-shard table `O(P / K)`
    /// instead of `O(P)` — the difference between linear and quadratic
    /// total state as the shard count grows with the population.
    /// Participants outside the class (migrated-in providers, consumers
    /// routed here by a load-aware policy) spill to a small sorted
    /// overflow, so behavior is identical at any stride; `(0, 1)` is the
    /// dense mono-mediator layout.
    pub fn with_slot_stride(config: MediatorStateConfig, offset: usize, stride: usize) -> Self {
        MediatorState {
            config,
            consumers: StridedTable::with_stride(offset, stride),
            performed: StridedTable::with_stride(offset, stride),
            allocations: 0,
            provider_satisfactions: StridedColumn::with_stride(
                config.initial_satisfaction,
                offset,
                stride,
            ),
            scratch: RecordScratch::default(),
        }
    }

    /// Creates a state with the paper's Table 2 configuration.
    pub fn paper_default() -> Self {
        MediatorState::new(MediatorStateConfig::default())
    }

    /// Registers a consumer on its first allocation and returns its
    /// satisfaction window.
    fn register_consumer(&mut self, consumer: ConsumerId) -> &mut InteractionMemory {
        let window = self.config.consumer_window;
        self.consumers
            .or_insert_with(consumer, || InteractionMemory::new(window))
    }

    /// Forgets a consumer (e.g. after it departs from the system).
    pub fn remove_consumer(&mut self, consumer: ConsumerId) {
        self.consumers.remove(consumer);
    }

    /// Forgets a provider.
    pub fn remove_provider(&mut self, provider: ProviderId) {
        self.performed.remove(provider);
        self.provider_satisfactions.reset(provider);
    }

    /// Extracts a provider's performed window so it can migrate to another
    /// mediator shard. Returns `None` when the provider never performed a
    /// query here (the receiving shard then reads the initial
    /// satisfaction, as this one did).
    ///
    /// Unlike [`MediatorState::remove_provider`], which is for departures,
    /// this is the donor half of cross-shard migration: pair it with
    /// [`MediatorState::absorb_provider`] on the receiving state and no
    /// observation is lost in transit.
    pub fn export_provider(&mut self, provider: ProviderId) -> Option<InteractionMemory> {
        self.provider_satisfactions.reset(provider);
        self.performed.remove(provider)
    }

    /// Installs a provider's performed window exported from another
    /// mediator shard (the receiving half of cross-shard migration). Any
    /// existing local window for the provider is replaced — the exported
    /// history is authoritative, because a provider is owned by exactly
    /// one shard at a time.
    pub fn absorb_provider(&mut self, provider: ProviderId, window: InteractionMemory) {
        self.provider_satisfactions
            .set(provider, window.mean_or(self.config.initial_satisfaction));
        self.performed.insert(provider, window);
    }

    /// Records the outcome of one query allocation: pushes the issuing
    /// consumer's Equation 2 satisfaction over the selected subset, and
    /// each selected provider's mapped intention into its performed
    /// window. A candidate that was not selected costs no write. Nothing
    /// is recorded for an empty candidate set.
    ///
    /// Raw intention values are clamped into `[-1, 1]` before entering the
    /// Section 3 model.
    pub fn record_allocation(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        allocation: &Allocation,
    ) {
        self.allocations += 1;
        if candidates.is_empty() {
            self.register_consumer(query.consumer);
            return;
        }
        let scratch = &mut self.scratch;
        scratch.selection.rebuild(allocation);
        scratch.selected_indices.clear();
        scratch.selected_indices.extend(
            candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| scratch.selection.contains(c.provider))
                .map(|(i, _)| i),
        );
        // Candidate-index order, as the consumer agent sums it.
        let selected_sum = scratch
            .selected_indices
            .iter()
            .map(|&i| Intention::new(candidates[i].consumer_intention).value())
            .sum();
        self.register_consumer(query.consumer)
            .push(satisfaction_from_sum(selected_sum, query.n));

        let (window, initial) = (
            self.config.provider_performed_window,
            self.config.initial_satisfaction,
        );
        for &i in &self.scratch.selected_indices {
            let candidate = &candidates[i];
            let performed = self
                .performed
                .or_insert_with(candidate.provider, || InteractionMemory::new(window));
            performed.push(unit_value(Intention::new(candidate.provider_intention)));
            self.provider_satisfactions
                .set(candidate.provider, performed.mean_or(initial));
        }
    }

    /// Number of performed queries in a provider's window (0 when it has
    /// none here).
    pub fn performed_window_len(&self, provider: ProviderId) -> usize {
        self.performed
            .get(provider)
            .map_or(0, InteractionMemory::len)
    }

    /// This mediator's own consumer readings, as a synchronization round
    /// publishes them to its peers: `(consumer, satisfaction, weight)` for
    /// every consumer with at least one local observation, where the
    /// weight is the number of observations backing the reading.
    pub fn consumer_readings(&self) -> impl Iterator<Item = (ConsumerId, f64, u64)> + '_ {
        let initial = self.config.initial_satisfaction;
        self.consumers.iter().filter_map(move |(consumer, window)| {
            let weight = window.len() as u64;
            let satisfaction = window.mean_or(initial);
            (weight > 0 && satisfaction.is_finite()).then_some((consumer, satisfaction, weight))
        })
    }

    /// Intention-based satisfaction `δs(c)` of a consumer, blending this
    /// mediator's own reading with `peers`: the `(mean satisfaction,
    /// weight)` that the other mediators reported at the last
    /// synchronization round. Each side is weighted by its number of
    /// observations. Without a peer reading (the mono-mediator case) this
    /// is exactly the local window's reading.
    pub fn blended_consumer_satisfaction(
        &self,
        consumer: ConsumerId,
        peers: Option<(f64, u64)>,
    ) -> f64 {
        let initial = self.config.initial_satisfaction;
        match (self.consumers.get(consumer), peers) {
            (Some(local), Some((remote_sat, remote_weight))) => {
                if local.is_empty() {
                    remote_sat
                } else {
                    let (lw, rw) = (local.len() as f64, remote_weight as f64);
                    (local.mean_or(initial) * lw + remote_sat * rw) / (lw + rw)
                }
            }
            (Some(local), None) => local.mean_or(initial),
            (None, Some((remote_sat, _))) => remote_sat,
            (None, None) => initial,
        }
    }

    /// Total number of allocations recorded.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// The window configuration in use.
    pub fn config(&self) -> MediatorStateConfig {
        self.config
    }
}

impl Default for MediatorState {
    fn default() -> Self {
        MediatorState::paper_default()
    }
}

impl MediatorView for MediatorState {
    fn consumer_satisfaction(&self, consumer: ConsumerId) -> f64 {
        // The local reading alone; an allocation blends in its peers'
        // readings through `Mediator::allocate`.
        self.blended_consumer_satisfaction(consumer, None)
    }

    fn provider_satisfaction(&self, provider: ProviderId) -> f64 {
        // Equation 6 uses the smoothed (Table 2 / `proSatSize`) reading of
        // the provider's intention-based satisfaction: it reacts to a
        // provider being under-served over its recent history without
        // letting a single empty sampling window swing `ω` to an extreme
        // that would override the consumer's intentions entirely.
        // Providers are owned by exactly one mediator shard, so no remote
        // blending is needed on this side. Served from the dense column
        // (bit-identical to the window's mean by invariant) so the
        // scoring hot path does one indexed load per candidate.
        self.provider_satisfactions.get(provider)
    }

    fn provider_satisfactions_into(&self, candidates: &[CandidateInfo], out: &mut Vec<f64>) {
        // Columnar gather: one bounds-checked load per candidate, no
        // table probe. Slots past the column (providers never observed
        // here) read the fill — the initial satisfaction.
        out.extend(
            candidates
                .iter()
                .map(|c| self.provider_satisfactions.get(c.provider)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::{QueryClass, QueryId, SimTime};

    fn query() -> Query {
        Query::single(
            QueryId::new(1),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    fn candidates(values: &[(u32, f64, f64)]) -> Vec<CandidateInfo> {
        values
            .iter()
            .map(|&(id, ci, pi)| {
                CandidateInfo::new(ProviderId::new(id))
                    .with_consumer_intention(ci)
                    .with_provider_intention(pi)
            })
            .collect()
    }

    fn allocation_to(query: QueryId, provider: u32) -> Allocation {
        Allocation {
            query,
            selected: vec![ProviderId::new(provider)],
        }
    }

    #[test]
    fn unknown_participants_report_initial_values() {
        let state = MediatorState::paper_default();
        assert_eq!(state.consumer_satisfaction(ConsumerId::new(7)), 0.5);
        assert_eq!(state.provider_satisfaction(ProviderId::new(7)), 0.5);
        assert_eq!(state.consumer_readings().count(), 0);
        assert_eq!(state.performed_window_len(ProviderId::new(7)), 0);
        assert_eq!(state.allocations(), 0);
    }

    #[test]
    fn record_allocation_updates_both_sides() {
        let mut state = MediatorState::paper_default();
        let q = query();
        let cands = candidates(&[(0, 0.8, 0.9), (1, -0.5, 0.2)]);
        state.record_allocation(&q, &cands, &allocation_to(q.id, 0));

        assert_eq!(state.allocations(), 1);
        // Equation 2 over the selected provider: (0.8 + 1) / 2.
        assert_eq!(state.consumer_satisfaction(q.consumer), 0.9);
        assert_eq!(
            state.consumer_readings().collect::<Vec<_>>(),
            vec![(q.consumer, 0.9, 1)]
        );
        // The selected provider's window holds its mapped intention.
        assert_eq!(state.provider_satisfaction(ProviderId::new(0)), 0.95);
        assert_eq!(state.performed_window_len(ProviderId::new(0)), 1);
        // The rejected one got no window and reads the initial value.
        assert_eq!(state.provider_satisfaction(ProviderId::new(1)), 0.5);
        assert_eq!(state.performed_window_len(ProviderId::new(1)), 0);
    }

    #[test]
    fn an_empty_candidate_set_records_nothing() {
        let mut state = MediatorState::paper_default();
        let q = query();
        let nothing = Allocation {
            query: q.id,
            selected: vec![],
        };
        state.record_allocation(&q, &[], &nothing);
        assert_eq!(state.allocations(), 1);
        assert_eq!(state.consumer_readings().count(), 0);
        assert_eq!(state.consumer_satisfaction(q.consumer), 0.5);
    }

    #[test]
    fn raw_intentions_are_clamped_before_recording() {
        let mut state = MediatorState::paper_default();
        let q = query();
        // A raw provider intention of -2.5 (possible under Definition 8
        // with ε = 1) must not push satisfaction below 0.
        let cands = candidates(&[(0, 1.0, -2.5)]);
        let alloc = allocation_to(q.id, 0);
        state.record_allocation(&q, &cands, &alloc);
        assert!(state.provider_satisfaction(ProviderId::new(0)) >= 0.0);
        assert_eq!(state.provider_satisfaction(ProviderId::new(0)), 0.0);
    }

    #[test]
    fn remove_participants_resets_their_view() {
        let mut state = MediatorState::paper_default();
        let q = query();
        let cands = candidates(&[(0, 0.8, 0.9)]);
        let alloc = allocation_to(q.id, 0);
        state.record_allocation(&q, &cands, &alloc);
        state.remove_provider(ProviderId::new(0));
        state.remove_consumer(q.consumer);
        assert_eq!(state.provider_satisfaction(ProviderId::new(0)), 0.5);
        assert_eq!(state.consumer_satisfaction(q.consumer), 0.5);
        assert_eq!(state.performed_window_len(ProviderId::new(0)), 0);
        assert_eq!(state.consumer_readings().count(), 0);
    }

    #[test]
    fn peer_readings_blend_by_observation_weight() {
        let mut state = MediatorState::paper_default();
        let q = query();
        let cands = candidates(&[(0, 1.0, 1.0)]);
        for _ in 0..3 {
            state.record_allocation(&q, &cands, &allocation_to(q.id, 0));
        }
        // A registered consumer with no observation publishes no reading.
        state.register_consumer(ConsumerId::new(9));
        let local = state.consumer_satisfaction(q.consumer);
        assert_eq!(
            state.consumer_readings().collect::<Vec<_>>(),
            vec![(q.consumer, local, 3)]
        );
        assert_eq!(state.blended_consumer_satisfaction(q.consumer, None), local);
        assert_eq!(
            state.blended_consumer_satisfaction(q.consumer, Some((0.2, 9))),
            (local * 3.0 + 0.2 * 9.0) / 12.0
        );
        // A consumer only the peers observed reads the peers' reading.
        assert_eq!(
            state.blended_consumer_satisfaction(ConsumerId::new(5), Some((0.3, 4))),
            0.3
        );
        assert_eq!(
            state.blended_consumer_satisfaction(ConsumerId::new(9), Some((0.3, 4))),
            0.3
        );
    }

    #[test]
    fn satisfaction_column_tracks_migration_export_and_absorb() {
        let mut donor = MediatorState::paper_default();
        let mut receiver = MediatorState::paper_default();
        let q = query();
        let cands = candidates(&[(0, 0.8, 0.9), (1, -0.5, 0.2)]);
        donor.record_allocation(&q, &cands, &allocation_to(q.id, 0));

        // Never selected: nothing to carry.
        assert!(donor.export_provider(ProviderId::new(1)).is_none());
        let window = donor.export_provider(ProviderId::new(0)).unwrap();
        assert_eq!(donor.provider_satisfaction(ProviderId::new(0)), 0.5);
        assert_eq!(donor.performed_window_len(ProviderId::new(0)), 0);
        receiver.absorb_provider(ProviderId::new(0), window);
        assert_eq!(receiver.provider_satisfaction(ProviderId::new(0)), 0.95);
        assert_eq!(receiver.performed_window_len(ProviderId::new(0)), 1);
    }

    mod reference {
        //! A reference mediator: a full `ProviderTracker` per proposed
        //! provider and a full `ConsumerTracker` per consumer, fed every
        //! candidate, as the agents keep them. [`MediatorState`] must
        //! read the same bits.
        use std::collections::BTreeMap;

        use sqlb_satisfaction::{ConsumerTracker, ProviderTracker};

        use super::*;

        #[derive(Default)]
        pub struct Reference {
            pub consumers: BTreeMap<ConsumerId, ConsumerTracker>,
            pub providers: BTreeMap<ProviderId, ProviderTracker>,
        }

        impl Reference {
            pub fn record(
                &mut self,
                query: &Query,
                candidates: &[CandidateInfo],
                selected: &[ProviderId],
            ) {
                let shown: Vec<Intention> = candidates
                    .iter()
                    .map(|c| Intention::new(c.consumer_intention))
                    .collect();
                let indices: Vec<usize> = (0..candidates.len())
                    .filter(|&i| selected.contains(&candidates[i].provider))
                    .collect();
                self.consumers
                    .entry(query.consumer)
                    .or_insert_with(|| ConsumerTracker::new(200, 0.5))
                    .record_allocation(&shown, &indices, query.n);
                for c in candidates {
                    self.providers
                        .entry(c.provider)
                        .or_insert_with(|| ProviderTracker::new(500, 500, 0.5))
                        .record_proposal(
                            Intention::new(c.provider_intention),
                            selected.contains(&c.provider),
                        );
                }
            }

            pub fn provider_satisfaction(&self, provider: ProviderId) -> f64 {
                self.providers
                    .get(&provider)
                    .map_or(0.5, ProviderTracker::satisfaction)
            }

            pub fn consumer_readings(&self) -> Vec<(ConsumerId, f64, u64)> {
                self.consumers
                    .iter()
                    .filter(|(_, t)| t.window_len() > 0)
                    .map(|(&c, t)| (c, t.satisfaction(), t.window_len() as u64))
                    .collect()
            }
        }
    }

    /// A shown value: in range, out of range, a signed zero, or not finite.
    fn shown_value() -> impl proptest::Strategy<Value = f64> {
        use proptest::Strategy;
        (0u8..10, -3.0f64..=3.0).prop_map(|(kind, v)| match kind {
            0 => -0.0,
            1 => 0.0,
            2 => -1.0,
            3 => f64::NAN,
            4 => f64::INFINITY,
            _ => v,
        })
    }

    /// Asserts that `state` reads, bit for bit, like `reference`.
    fn assert_reads_alike(
        state: &MediatorState,
        reference: &reference::Reference,
    ) -> Result<(), proptest::TestCaseError> {
        for slot in 0..12u32 {
            let p = ProviderId::new(slot);
            proptest::prop_assert_eq!(
                state.provider_satisfaction(p).to_bits(),
                reference.provider_satisfaction(p).to_bits(),
                "provider {}",
                slot
            );
        }
        let readings: Vec<_> = state
            .consumer_readings()
            .map(|(c, s, w)| (c, s.to_bits(), w))
            .collect();
        let expected: Vec<_> = reference
            .consumer_readings()
            .into_iter()
            .map(|(c, s, w)| (c, s.to_bits(), w))
            .collect();
        proptest::prop_assert_eq!(readings, expected);
        for c in 0..3u32 {
            let c = ConsumerId::new(c);
            let want = reference
                .consumers
                .get(&c)
                .map_or(0.5, |t| t.satisfaction());
            proptest::prop_assert_eq!(state.consumer_satisfaction(c).to_bits(), want.to_bits());
        }
        Ok(())
    }

    proptest::proptest! {
        /// Recording only the selected candidates reads, bit for bit, like
        /// full per-candidate trackers, over two mediators after any
        /// sequence of allocations (q.n ∈ {1, 2, 3}, any selection, empty
        /// candidate sets included), departures and migrations. As under
        /// the shard router, each provider is a candidate only on the
        /// mediator that owns it.
        #[test]
        fn prop_satisfaction_column_matches_recompute_after_any_sequence(
            ops in proptest::collection::vec(
                (
                    0u8..6,
                    0usize..2,
                    (0u32..3, 1u32..=3),
                    proptest::collection::vec((0u32..12, shown_value(), shown_value()), 0..6),
                    proptest::collection::vec(0usize..6, 0..4),
                ),
                1..60,
            )
        ) {
            let mut states = [MediatorState::paper_default(), MediatorState::paper_default()];
            let mut references = [reference::Reference::default(), reference::Reference::default()];
            let mut owner = [0usize; 12];
            for (round, (op, at, (consumer, n), shown, picks)) in ops.into_iter().enumerate() {
                // Distinct providers, in id order.
                let shown: std::collections::BTreeMap<u32, (f64, f64)> =
                    shown.into_iter().map(|(id, ci, pi)| (id, (ci, pi))).collect();
                let cands: Vec<CandidateInfo> = shown
                    .iter()
                    .filter(|(&id, _)| owner[id as usize] == at)
                    .map(|(&id, &(ci, pi))| {
                        CandidateInfo::new(ProviderId::new(id))
                            .with_consumer_intention(ci)
                            .with_provider_intention(pi)
                    })
                    .collect();
                let target = *shown.keys().next().unwrap_or(&(round as u32 % 12));
                let p = ProviderId::new(target);
                let from = owner[target as usize];
                match op {
                    0 => {
                        states[from].remove_provider(p);
                        references[from].providers.remove(&p);
                    }
                    1 => {
                        let to = 1 - from;
                        owner[target as usize] = to;
                        if let Some(window) = states[from].export_provider(p) {
                            states[to].absorb_provider(p, window);
                        }
                        if let Some(tracker) = references[from].providers.remove(&p) {
                            references[to].providers.insert(p, tracker);
                        }
                    }
                    _ => {
                        let mut q = Query::single(
                            QueryId::new(round as u32),
                            ConsumerId::new(consumer),
                            QueryClass::Light,
                            SimTime::ZERO,
                        );
                        q.n = n;
                        // Selection is in rank order, not candidate order.
                        let mut selected: Vec<ProviderId> = Vec::new();
                        for c in picks.iter().filter_map(|&pick| cands.get(pick)) {
                            if !selected.contains(&c.provider) && selected.len() < n as usize {
                                selected.push(c.provider);
                            }
                        }
                        let allocation = Allocation { query: q.id, selected };
                        states[at].record_allocation(&q, &cands, &allocation);
                        references[at].record(&q, &cands, &allocation.selected);
                    }
                }
                for (state, reference) in states.iter().zip(&references) {
                    assert_reads_alike(state, reference)?;
                }
            }
        }
    }

    #[test]
    fn explicit_registration_is_idempotent() {
        let mut state = MediatorState::paper_default();
        state.register_consumer(ConsumerId::new(2)).push(0.25);
        state.register_consumer(ConsumerId::new(2));
        assert_eq!(
            state.consumer_readings().collect::<Vec<_>>(),
            vec![(ConsumerId::new(2), 0.25, 1)]
        );
        assert_eq!(state.config().consumer_window, 200);
    }
}
