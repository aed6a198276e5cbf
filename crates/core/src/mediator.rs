//! The mediator abstraction.
//!
//! The paper evaluates a *mono-mediator* system, but its model explicitly
//! allows several mediators (Section 2). [`Mediator`] packages what one
//! mediation point owns — an allocation method instance and
//! the intention-based satisfaction bookkeeping ([`MediatorState`]) that
//! Equation 6 needs — behind one interface, so upper layers (the
//! simulator's shard router) can run one or many without caring which.
//!
//! When several mediators partition the providers, each only observes the
//! allocations it performed itself, so its view of a *consumer*'s
//! satisfaction is partial (consumers may reach several shards; providers
//! belong to exactly one). [`Mediator::allocate`] therefore takes the
//! other mediators' reading of the query's consumer, which the caller
//! collects at periodic synchronization rounds (the simulator's shard
//! router keeps them on one sync board), and blends it with the local one
//! ([`MediatorState::blended_consumer_satisfaction`]).

use sqlb_types::{ConsumerId, ProviderId, Query};

use crate::allocation::{Allocation, AllocationMethod, CandidateInfo, MediatorView};
use crate::mediator_state::{MediatorState, MediatorStateConfig};

/// One mediation point: an allocation method plus the mediator-side
/// satisfaction state it scores with.
pub struct Mediator {
    method: Box<dyn AllocationMethod>,
    state: MediatorState,
}

/// What an allocation scores with: the mediator's state, with the peers'
/// reading of the query's consumer blended into that consumer's
/// satisfaction.
struct BlendedView<'a> {
    state: &'a MediatorState,
    consumer: ConsumerId,
    peers: Option<(f64, u64)>,
}

impl MediatorView for BlendedView<'_> {
    fn consumer_satisfaction(&self, consumer: ConsumerId) -> f64 {
        let peers = self.peers.filter(|_| consumer == self.consumer);
        self.state.blended_consumer_satisfaction(consumer, peers)
    }

    fn provider_satisfaction(&self, provider: ProviderId) -> f64 {
        self.state.provider_satisfaction(provider)
    }

    fn provider_satisfactions_into(&self, candidates: &[CandidateInfo], out: &mut Vec<f64>) {
        self.state.provider_satisfactions_into(candidates, out);
    }
}

impl Mediator {
    /// Creates a mediator with the given method and tracker configuration.
    pub fn new(method: Box<dyn AllocationMethod>, config: MediatorStateConfig) -> Self {
        Mediator::with_slot_stride(method, config, 0, 1)
    }

    /// Creates a mediator whose satisfaction tables are compacted for the
    /// residue class `raw id ≡ offset (mod stride)` (see
    /// [`MediatorState::with_slot_stride`]). The shard router passes its
    /// round-robin partition parameters here so shard `i` of `K` stores
    /// `O(P / K)` state instead of growing dense tables over the whole id
    /// space.
    pub fn with_slot_stride(
        method: Box<dyn AllocationMethod>,
        config: MediatorStateConfig,
        offset: usize,
        stride: usize,
    ) -> Self {
        Mediator {
            method,
            state: MediatorState::with_slot_stride(config, offset, stride),
        }
    }

    /// The mediator's satisfaction state.
    pub fn state(&self) -> &MediatorState {
        &self.state
    }

    /// Mutable access to the mediator's satisfaction state.
    pub fn state_mut(&mut self) -> &mut MediatorState {
        &mut self.state
    }

    /// Sets the scoring-kernel thread count of the underlying method (see
    /// [`AllocationMethod::set_scoring_threads`]). A no-op for methods
    /// without a batch kernel.
    pub fn set_scoring_threads(&mut self, threads: usize) {
        self.method.set_scoring_threads(threads);
    }

    /// Runs the allocation decision of Algorithm 1 (lines 6–9) for one
    /// query over the gathered candidate information, and records the
    /// outcome in the mediator's satisfaction state. `peers` is the other
    /// mediators' `(mean satisfaction, weight)` reading of
    /// `query.consumer`, if any; the method sees it blended with the
    /// local reading.
    ///
    /// This is the one place that decides and records an allocation:
    /// the engine's shards and every round over the mediation reactor
    /// come through here. The returned [`Allocation`] is the selection
    /// `P̂_q`, best first.
    pub fn allocate(
        &mut self,
        query: &Query,
        candidates: &[CandidateInfo],
        peers: Option<(f64, u64)>,
    ) -> Allocation {
        let view = BlendedView {
            state: &self.state,
            consumer: query.consumer,
            peers,
        };
        let allocation = self.method.allocate(query, candidates, &view);
        self.state.record_allocation(query, candidates, &allocation);
        allocation
    }
}

impl std::fmt::Debug for Mediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mediator")
            .field("method", &self.method.name())
            .field("allocations", &self.state.allocations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sqlb::SqlbAllocator;
    use sqlb_types::{ProviderId, QueryClass, QueryId, SimTime};

    fn mediator() -> Mediator {
        Mediator::new(
            Box::new(SqlbAllocator::new()),
            MediatorStateConfig::default(),
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

    fn query(id: u32, consumer: u32) -> Query {
        Query::single(
            QueryId::new(id),
            ConsumerId::new(consumer),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    #[test]
    fn allocate_records_into_state() {
        let mut m = mediator();
        let q = query(1, 0);
        let allocation = m.allocate(&q, &candidates(&[(0, 0.9, 0.9), (1, -0.9, -0.9)]), None);
        assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
        assert_eq!(m.state().allocations(), 1);
    }

    #[test]
    fn a_silent_provider_read_as_indifferent_outranks_an_unwilling_one() {
        // Provider 1 never answered, so its intention was read as 0. Both
        // candidates fall in the negative-intention branch, but p1's
        // magnitude is smaller, so it still ranks first.
        let mut m = mediator();
        let allocation = m.allocate(
            &query(2, 0),
            &candidates(&[(0, 0.9, -0.9), (1, 0.9, 0.0)]),
            None,
        );
        assert_eq!(allocation.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn state_accumulates_over_multiple_allocations() {
        // Both providers want the query and the consumer is indifferent
        // between them: the first allocation goes to p0 (deterministic
        // tie-break), after which Equation 6 favours the less satisfied
        // provider, so queries alternate instead of starving p1.
        let mut m = mediator();
        let infos = candidates(&[(0, 0.5, 0.7), (1, 0.5, 0.7)]);
        let first = m.allocate(&query(0, 0), &infos, None);
        assert_eq!(first.selected, vec![ProviderId::new(0)]);
        let mut wins = [0u32, 0u32];
        for i in 1..200 {
            let allocation = m.allocate(&query(i, 0), &infos, None);
            wins[allocation.selected[0].index()] += 1;
        }
        assert_eq!(m.state().allocations(), 200);
        assert!(
            wins[0] > 0 && wins[1] > 0,
            "satisfaction balancing should spread queries across both providers, got {wins:?}"
        );
    }

    #[test]
    fn provider_history_survives_export_absorb_round_trip() {
        let mut donor = mediator();
        let mut receiver = mediator();
        let provider = ProviderId::new(0);
        for i in 0..25 {
            donor.allocate(&query(i, 2), &candidates(&[(0, 0.6, 0.8)]), None);
        }
        let before = donor.state().provider_satisfaction(provider);
        assert!(before > 0.5, "the donor observed the provider");
        assert_eq!(donor.state().performed_window_len(provider), 25);

        let window = donor.state_mut().export_provider(provider).unwrap();
        receiver.state_mut().absorb_provider(provider, window);

        assert_eq!(donor.state().performed_window_len(provider), 0);
        assert_eq!(receiver.state().performed_window_len(provider), 25);
        assert_eq!(receiver.state().provider_satisfaction(provider), before);
        // Exporting an unknown provider yields nothing.
        assert!(donor
            .state_mut()
            .export_provider(ProviderId::new(42))
            .is_none());
    }
}
