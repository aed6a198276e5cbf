//! The mediator abstraction.
//!
//! The paper evaluates a *mono-mediator* system, but its model explicitly
//! allows several mediators (Section 2). [`Mediator`] packages what one
//! mediation point owns — an identity, an allocation method instance, and
//! the intention-based satisfaction bookkeeping ([`MediatorState`]) that
//! Equation 6 needs — behind one interface, so upper layers (the
//! simulator's shard router, the concurrent runtime) can run one or many
//! without caring which.
//!
//! When several mediators partition the providers, each only observes the
//! allocations it performed itself, so its view of a *consumer*'s
//! satisfaction is partial (consumers reach every shard; providers belong
//! to exactly one). [`Mediator::export_digest`] and
//! [`Mediator::absorb_digests`] implement the periodic satisfaction-view
//! synchronization that repairs this: each mediator publishes its local
//! consumer readings with their observation weights, and every peer blends
//! them into its own view.

use sqlb_obs::{Counter, Obs};
use sqlb_types::{ConsumerId, MediatorId, Query};

use crate::allocation::{Allocation, AllocationMethod, CandidateInfo};
use crate::mediator_state::{MediatorState, MediatorStateConfig};

/// Pre-resolved observability instruments of a [`Mediator`]. No-op
/// handles (one predictable branch per update) until
/// [`Mediator::set_obs`] installs an enabled [`sqlb_obs::Obs`], so the
/// allocation hot path is unchanged when observability is off.
#[derive(Debug, Default)]
struct MediatorMetrics {
    /// Allocation decisions taken (Algorithm 1 runs).
    allocations: Counter,
    /// Satisfaction digests published to peers.
    digests_exported: Counter,
    /// Peer digests blended into the local view.
    digests_absorbed: Counter,
}

/// One consumer's satisfaction reading inside a [`SatisfactionDigest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsumerDigestEntry {
    /// The consumer the reading is about.
    pub consumer: ConsumerId,
    /// The mediator's local, intention-based satisfaction reading.
    pub satisfaction: f64,
    /// Number of local observations backing the reading (the tracker's
    /// window fill). Peers use it to weight the blend.
    pub weight: u64,
}

/// A mediator's shareable view of consumer satisfaction, exchanged during
/// periodic synchronization.
#[derive(Debug, Clone, PartialEq)]
pub struct SatisfactionDigest {
    /// The mediator that produced the digest.
    pub mediator: MediatorId,
    /// One entry per consumer the mediator has observed.
    pub consumers: Vec<ConsumerDigestEntry>,
}

/// One mediation point: an allocation method plus the mediator-side
/// satisfaction state it scores with.
pub struct Mediator {
    id: MediatorId,
    method: Box<dyn AllocationMethod>,
    state: MediatorState,
    metrics: MediatorMetrics,
}

impl Mediator {
    /// Creates a mediator with the given method and tracker configuration.
    pub fn new(
        id: MediatorId,
        method: Box<dyn AllocationMethod>,
        config: MediatorStateConfig,
    ) -> Self {
        Mediator::with_slot_stride(id, method, config, 0, 1)
    }

    /// Creates a mediator whose satisfaction tables are compacted for the
    /// residue class `raw id ≡ offset (mod stride)` (see
    /// [`MediatorState::with_slot_stride`]). The shard router passes its
    /// round-robin partition parameters here so shard `i` of `K` stores
    /// `O(P / K)` state instead of growing dense tables over the whole id
    /// space.
    pub fn with_slot_stride(
        id: MediatorId,
        method: Box<dyn AllocationMethod>,
        config: MediatorStateConfig,
        offset: usize,
        stride: usize,
    ) -> Self {
        Mediator {
            id,
            method,
            state: MediatorState::with_slot_stride(config, offset, stride),
            metrics: MediatorMetrics::default(),
        }
    }

    /// Installs an observability sink: allocation and synchronization
    /// counters become live-readable through the sink's registry,
    /// prefixed with this mediator's raw id so sharded deployments can
    /// tell their mediators apart. With a disabled sink every handle
    /// stays a no-op.
    pub fn set_obs(&mut self, obs: &Obs) {
        let id = self.id.raw();
        self.metrics = MediatorMetrics {
            allocations: obs.counter(&format!("mediator_{id}_allocations")),
            digests_exported: obs.counter(&format!("mediator_{id}_digests_exported")),
            digests_absorbed: obs.counter(&format!("mediator_{id}_digests_absorbed")),
        };
    }

    /// The mediator's identity.
    pub fn id(&self) -> MediatorId {
        self.id
    }

    /// Name of the allocation method this mediator runs.
    pub fn method_name(&self) -> &'static str {
        self.method.name()
    }

    /// The mediator's satisfaction state.
    pub fn state(&self) -> &MediatorState {
        &self.state
    }

    /// Mutable access to the mediator's satisfaction state.
    pub fn state_mut(&mut self) -> &mut MediatorState {
        &mut self.state
    }

    /// Enables or disables the per-allocation ranking diagnostic of the
    /// underlying method (see [`AllocationMethod::set_record_ranking`]).
    pub fn set_record_ranking(&mut self, record: bool) {
        self.method.set_record_ranking(record);
    }

    /// Sets the scoring-kernel thread count of the underlying method (see
    /// [`AllocationMethod::set_scoring_threads`]). A no-op for methods
    /// without a batch kernel.
    pub fn set_scoring_threads(&mut self, threads: usize) {
        self.method.set_scoring_threads(threads);
    }

    /// Runs the allocation decision of Algorithm 1 (lines 6–9) for one
    /// query over the gathered candidate information, and records the
    /// outcome in the mediator's satisfaction state.
    pub fn allocate(&mut self, query: &Query, candidates: &[CandidateInfo]) -> Allocation {
        let allocation = self.method.allocate(query, candidates, &self.state);
        self.state.record_allocation(query, candidates, &allocation);
        self.metrics.allocations.inc();
        allocation
    }

    /// Publishes this mediator's local consumer-satisfaction readings.
    pub fn export_digest(&self) -> SatisfactionDigest {
        let consumers = self
            .state
            .consumers()
            .filter_map(|consumer| {
                let weight = self.state.consumer_observation_weight(consumer);
                if weight == 0 {
                    return None;
                }
                let tracker = self.state.consumer_tracker(consumer)?;
                Some(ConsumerDigestEntry {
                    consumer,
                    satisfaction: tracker.satisfaction(),
                    weight,
                })
            })
            .collect();
        self.metrics.digests_exported.inc();
        SatisfactionDigest {
            mediator: self.id,
            consumers,
        }
    }

    /// Replaces this mediator's remote consumer views with the aggregate
    /// of the given peer digests. The mediator's own digest is skipped, so
    /// an all-to-all exchange can pass the same slice to everyone.
    pub fn absorb_digests(&mut self, digests: &[SatisfactionDigest]) {
        self.state.clear_remote_consumer_views();
        for digest in digests {
            if digest.mediator == self.id {
                continue;
            }
            self.metrics.digests_absorbed.inc();
            for entry in &digest.consumers {
                self.state.add_remote_consumer_view(
                    entry.consumer,
                    entry.satisfaction,
                    entry.weight,
                );
            }
        }
    }
}

impl std::fmt::Debug for Mediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mediator")
            .field("id", &self.id)
            .field("method", &self.method.name())
            .field("allocations", &self.state.allocations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::MediatorView;
    use crate::sqlb::SqlbAllocator;
    use sqlb_types::{ProviderId, QueryClass, QueryId, SimTime};

    fn mediator(raw: u32) -> Mediator {
        Mediator::new(
            MediatorId::new(raw),
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
        let mut m = mediator(0);
        let q = query(1, 0);
        let allocation = m.allocate(&q, &candidates(&[(0, 0.9, 0.9), (1, -0.9, -0.9)]));
        assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
        assert_eq!(m.state().allocations(), 1);
        assert_eq!(m.method_name(), "SQLB");
        assert_eq!(m.id(), MediatorId::new(0));
    }

    #[test]
    fn a_silent_provider_read_as_indifferent_outranks_an_unwilling_one() {
        // Provider 1 never answered, so its intention was read as 0. Both
        // candidates fall in the negative-intention branch, but p1's
        // magnitude is smaller, so it still ranks first.
        let mut m = mediator(0);
        let allocation = m.allocate(&query(2, 0), &candidates(&[(0, 0.9, -0.9), (1, 0.9, 0.0)]));
        assert_eq!(allocation.selected, vec![ProviderId::new(1)]);
    }

    #[test]
    fn state_accumulates_over_multiple_allocations() {
        // Both providers want the query and the consumer is indifferent
        // between them: the first allocation goes to p0 (deterministic
        // tie-break), after which Equation 6 favours the less satisfied
        // provider, so queries alternate instead of starving p1.
        let mut m = mediator(0);
        let infos = candidates(&[(0, 0.5, 0.7), (1, 0.5, 0.7)]);
        let first = m.allocate(&query(0, 0), &infos);
        assert_eq!(first.selected, vec![ProviderId::new(0)]);
        let mut wins = [0u32, 0u32];
        for i in 1..200 {
            let allocation = m.allocate(&query(i, 0), &infos);
            wins[allocation.selected[0].index()] += 1;
        }
        assert_eq!(m.state().allocations(), 200);
        assert!(
            wins[0] > 0 && wins[1] > 0,
            "satisfaction balancing should spread queries across both providers, got {wins:?}"
        );
    }

    #[test]
    fn digest_round_trip_blends_consumer_views() {
        let mut a = mediator(0);
        let mut b = mediator(1);

        // Mediator A sees consumer 0 get exactly what it wanted; mediator B
        // never sees consumer 0 at all.
        for i in 0..10 {
            a.allocate(&query(i, 0), &candidates(&[(0, 1.0, 1.0)]));
        }
        let before = b.state().consumer_satisfaction(ConsumerId::new(0));
        assert_eq!(before, 0.5, "B starts from the initial value");

        let digests = vec![a.export_digest(), b.export_digest()];
        a.absorb_digests(&digests);
        b.absorb_digests(&digests);

        let after = b.state().consumer_satisfaction(ConsumerId::new(0));
        assert!(
            after > 0.9,
            "B should adopt A's highly satisfied view, got {after}"
        );
        // A ignores its own digest, so its local view is unchanged.
        let a_view = a.state().consumer_satisfaction(ConsumerId::new(0));
        assert!(a_view > 0.9);
    }

    #[test]
    fn absorb_is_idempotent_per_round() {
        let mut a = mediator(0);
        let mut b = mediator(1);
        for i in 0..5 {
            a.allocate(&query(i, 3), &candidates(&[(0, 0.8, 0.5)]));
        }
        let digests = vec![a.export_digest()];
        b.absorb_digests(&digests);
        let first = b.state().consumer_satisfaction(ConsumerId::new(3));
        // A second synchronization round with the same digest must not
        // double-count the observations.
        b.absorb_digests(&digests);
        let second = b.state().consumer_satisfaction(ConsumerId::new(3));
        assert_eq!(first, second);
        assert_eq!(
            b.state()
                .remote_consumer_view(ConsumerId::new(3))
                .unwrap()
                .1,
            5
        );
    }

    #[test]
    fn empty_trackers_are_not_exported() {
        let mut m = mediator(0);
        m.state_mut().register_consumer(ConsumerId::new(9));
        assert!(m.export_digest().consumers.is_empty());
    }

    #[test]
    fn stale_digests_cannot_resurrect_departed_consumers() {
        let mut a = mediator(0);
        let mut b = mediator(1);
        for i in 0..10 {
            a.allocate(&query(i, 0), &candidates(&[(0, 1.0, 1.0)]));
        }
        // A exports a digest mentioning consumer 0; the consumer then
        // departs the whole system (every shard removes it) before the
        // digest is absorbed — exactly the race a slow synchronization
        // round can produce.
        let stale = vec![a.export_digest()];
        let consumer = ConsumerId::new(0);
        a.state_mut().remove_consumer(consumer);
        b.state_mut().remove_consumer(consumer);
        b.absorb_digests(&stale);
        assert_eq!(
            b.state().remote_consumer_view(consumer),
            None,
            "a stale digest must not resurrect a departed consumer"
        );
        assert_eq!(b.state().consumer_satisfaction(consumer), 0.5);
        // A consumer that genuinely comes back (re-registers locally) is
        // trackable again, including through digests.
        b.state_mut().register_consumer(consumer);
        b.absorb_digests(&stale);
        assert!(b.state().remote_consumer_view(consumer).is_some());
    }

    #[test]
    fn provider_history_survives_export_absorb_round_trip() {
        let mut donor = mediator(0);
        let mut receiver = mediator(1);
        let provider = ProviderId::new(0);
        for i in 0..25 {
            donor.allocate(&query(i, 2), &candidates(&[(0, 0.6, 0.8)]));
        }
        let before = donor.state().provider_satisfaction(provider);
        let proposed = donor
            .state()
            .provider_tracker(provider)
            .unwrap()
            .proposed_queries();
        assert!(before > 0.5, "the donor observed the provider");

        let tracker = donor.state_mut().export_provider(provider).unwrap();
        receiver.state_mut().absorb_provider(provider, tracker);

        assert!(donor.state().provider_tracker(provider).is_none());
        let migrated = receiver.state().provider_tracker(provider).unwrap();
        assert_eq!(migrated.proposed_queries(), proposed);
        assert_eq!(receiver.state().provider_satisfaction(provider), before);
        // Exporting an unknown provider yields nothing.
        assert!(donor
            .state_mut()
            .export_provider(ProviderId::new(42))
            .is_none());
    }
}
