//! The participant side of a mediation run: the endpoint traits consumers
//! and providers implement, and the timeout/bid configuration a mediation
//! runs under. [`crate::AsyncMediator`] drives registered endpoints through
//! Algorithm 1 on the reactor; the tests below pin that contract from the
//! endpoints' side.

use std::time::Duration;

use sqlb_core::allocation::Bid;
use sqlb_types::{ProviderId, Query, QueryId};

use crate::reactor::Latency;

/// Behaviour of a consumer participant reachable through the mediator.
pub trait ConsumerEndpoint: Send + 'static {
    /// The consumer's intentions towards the candidate providers of its
    /// query (the vector `CI_q`).
    fn intentions(&mut self, query: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)>;

    /// Batched form of [`ConsumerEndpoint::intentions`]: one request
    /// covering several of the consumer's queries, answered in one reply.
    /// The default implementation loops over the single-query method;
    /// endpoints can override it to amortize per-request work.
    fn intentions_batch(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<(QueryId, Vec<(ProviderId, f64)>)> {
        requests
            .iter()
            .map(|(query, candidates)| (query.id, self.intentions(query, candidates)))
            .collect()
    }

    /// Notification of the final allocation of one of the consumer's
    /// queries.
    fn allocation_result(&mut self, _query: QueryId, _providers: &[ProviderId]) {}

    /// When this endpoint's replies become available. The reactor
    /// ([`crate::reactor`]) parks the endpoint's state machine on its
    /// timer heap for that long instead of sleeping; a reply later than
    /// the timeout reads as indifference. Queried once per wave the
    /// endpoint takes part in.
    fn latency(&mut self) -> Latency {
        Latency::Immediate
    }
}

/// Behaviour of a provider participant reachable through the mediator.
pub trait ProviderEndpoint: Send + 'static {
    /// The provider's intention `pi_p(q)` for performing the query.
    fn intention(&mut self, query: &Query) -> f64;

    /// The provider's bid, when the allocation method runs an economic
    /// protocol.
    fn bid(&mut self, _query: &Query) -> Option<Bid> {
        None
    }

    /// Batched form of [`ProviderEndpoint::intention`]: one request
    /// covering every query of a mediation batch that lists this provider
    /// as a candidate, answered in one reply (with bids when the protocol
    /// asks for them). The default implementation loops over the
    /// single-query methods.
    fn intention_batch(
        &mut self,
        queries: &[Query],
        request_bids: bool,
    ) -> Vec<(QueryId, f64, Option<Bid>)> {
        queries
            .iter()
            .map(|query| {
                let intention = self.intention(query);
                let bid = if request_bids { self.bid(query) } else { None };
                (query.id, intention, bid)
            })
            .collect()
    }

    /// Notification of the mediation result (selected or not).
    fn allocation_notice(&mut self, _query: QueryId, _selected: bool) {}

    /// When this endpoint's replies become available (see
    /// [`ConsumerEndpoint::latency`]).
    fn latency(&mut self) -> Latency {
        Latency::Immediate
    }

    /// The provider's current utilization `Ut(p)`, shown to the mediator
    /// alongside its intentions. Methods that do not read utilization
    /// (SQLB proper) ignore it, but the Capacity-based baseline ranks by
    /// it — endpoints serving such a method should override the `0.0`
    /// (idle) default. Queried once per wave.
    fn utilization(&mut self) -> f64 {
        0.0
    }
}

/// Mediation configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// How long the mediator waits for intention replies before falling
    /// back to indifference (Algorithm 1, line 5).
    pub timeout: Duration,
    /// Whether provider intention requests also ask for a bid.
    pub request_bids: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            timeout: Duration::from_millis(200),
            request_bids: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsyncMediator;
    use sqlb_baselines::MariposaLike;
    use sqlb_core::mediator_state::MediatorStateConfig;
    use sqlb_core::{Allocation, AllocationMethod, Mediator, MediatorView, SqlbAllocator};
    use sqlb_types::{ConsumerId, QueryClass, SimTime};
    use std::sync::{Arc, Mutex};

    /// What the endpoints were told after mediation, shared with the test
    /// (the mediator owns the endpoints themselves).
    type Notices = Arc<Mutex<Vec<(QueryId, bool)>>>;
    type Results = Arc<Mutex<Vec<Vec<ProviderId>>>>;

    struct CannedConsumer {
        values: Vec<f64>,
        results: Results,
    }

    impl ConsumerEndpoint for CannedConsumer {
        fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
            candidates
                .iter()
                .map(|&p| (p, self.values.get(p.index()).copied().unwrap_or(0.0)))
                .collect()
        }
        fn allocation_result(&mut self, _query: QueryId, providers: &[ProviderId]) {
            self.results.lock().unwrap().push(providers.to_vec());
        }
    }

    struct CannedProvider {
        value: f64,
        latency: Latency,
        bid: Option<Bid>,
        notices: Notices,
    }

    impl ProviderEndpoint for CannedProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn bid(&mut self, _q: &Query) -> Option<Bid> {
            self.bid
        }
        fn latency(&mut self) -> Latency {
            self.latency
        }
        fn allocation_notice(&mut self, query: QueryId, selected: bool) {
            self.notices.lock().unwrap().push((query, selected));
        }
    }

    fn query(id: u32) -> Query {
        Query::single(
            QueryId::new(id),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    fn build_mediator(
        provider_values: &[f64],
        consumer_values: Vec<f64>,
        config: RuntimeConfig,
    ) -> (AsyncMediator, Notices, Results) {
        let notices = Notices::default();
        let results = Results::default();
        let mut mediator = AsyncMediator::new(config);
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: consumer_values,
                results: results.clone(),
            },
        );
        for (i, &value) in provider_values.iter().enumerate() {
            mediator.register_provider(
                ProviderId::new(i as u32),
                CannedProvider {
                    value,
                    latency: Latency::Immediate,
                    bid: Some(Bid::new(100.0 * (i as f64 + 1.0), 1.0)),
                    notices: notices.clone(),
                },
            );
        }
        (mediator, notices, results)
    }

    fn core_mediator(method: impl AllocationMethod + 'static) -> Mediator {
        Mediator::new(Box::new(method), MediatorStateConfig::default())
    }

    /// One round of Algorithm 1 over a batch: one gather wave, then per
    /// query the core mediator's allocation and the notifications.
    fn allocate_round(
        mediator: &mut AsyncMediator,
        core: &mut Mediator,
        batch: &[(Query, Vec<ProviderId>)],
    ) -> Vec<Allocation> {
        let infos = mediator.gather_batch(batch);
        batch
            .iter()
            .zip(&infos)
            .map(|((query, candidates), query_infos)| {
                let allocation = core.allocate(query, query_infos, None);
                mediator.notify(query, candidates, &allocation);
                allocation
            })
            .collect()
    }

    #[test]
    fn gather_collects_all_intentions() {
        let (mut mediator, _, _) = build_mediator(
            &[0.8, -0.2, 0.4],
            vec![0.5, 0.9, -0.1],
            RuntimeConfig::default(),
        );
        let candidates: Vec<ProviderId> = (0..3).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[0].provider_intention, 0.8);
        assert_eq!(infos[1].provider_intention, -0.2);
        assert_eq!(infos[0].consumer_intention, 0.5);
        assert_eq!(infos[2].consumer_intention, -0.1);
        assert!(infos[0].bid.is_none(), "bids are not requested by default");
    }

    #[test]
    fn slow_provider_times_out_to_indifference() {
        let config = RuntimeConfig {
            timeout: Duration::from_millis(50),
            request_bids: false,
        };
        let mut mediator = AsyncMediator::new(config);
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.9, 0.9],
                results: Results::default(),
            },
        );
        for (raw, value, latency) in [
            (0, 0.7, Latency::Immediate),
            (1, 1.0, Latency::After(Duration::from_millis(500))),
        ] {
            mediator.register_provider(
                ProviderId::new(raw),
                CannedProvider {
                    value,
                    latency,
                    bid: None,
                    notices: Notices::default(),
                },
            );
        }
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.7);
        assert_eq!(
            infos[1].provider_intention, 0.0,
            "the slow provider's answer missed the deadline"
        );
    }

    #[test]
    fn mediate_allocates_and_notifies_everyone() {
        let (mut mediator, notices, results) =
            build_mediator(&[0.9, 0.4], vec![0.8, 0.8], RuntimeConfig::default());
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let mut sqlb = core_mediator(SqlbAllocator::new());
        let allocations = allocate_round(&mut mediator, &mut sqlb, &[(query(7), candidates)]);
        assert_eq!(allocations[0].selected, vec![ProviderId::new(0)]);
        assert_eq!(sqlb.state().allocations(), 1);
        // Both candidates learn the outcome, in candidate order, and the
        // consumer its allocation — all before `notify` returns.
        assert_eq!(
            *notices.lock().unwrap(),
            vec![(QueryId::new(7), true), (QueryId::new(7), false)]
        );
        assert_eq!(*results.lock().unwrap(), vec![vec![ProviderId::new(0)]]);
    }

    #[test]
    fn bids_are_gathered_when_requested() {
        let (mut mediator, _, _) = build_mediator(
            &[0.5, 0.5],
            vec![0.5, 0.5],
            RuntimeConfig {
                timeout: Duration::from_millis(500),
                request_bids: true,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].bid.unwrap().price, 100.0);
        assert_eq!(infos[1].bid.unwrap().price, 200.0);

        // And the Mariposa-like broker can consume them directly.
        let mut broker = core_mediator(MariposaLike::new());
        let allocations = allocate_round(&mut mediator, &mut broker, &[(query(2), candidates)]);
        assert_eq!(allocations[0].selected, vec![ProviderId::new(0)]);
    }

    #[test]
    fn unknown_participants_default_to_indifference() {
        let (mut mediator, _, _) = build_mediator(&[0.5], vec![0.5], RuntimeConfig::default());
        // Candidate 9 is not registered with the mediator at all.
        let candidates = vec![ProviderId::new(0), ProviderId::new(9)];
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.5);
        assert_eq!(infos[0].consumer_intention, 0.5);
        assert_eq!(infos[1].provider_intention, 0.0);
        assert_eq!(
            infos[1].consumer_intention, 0.0,
            "the consumer has no opinion on a provider it does not know"
        );
    }

    /// A provider endpoint that counts how many requests (not queries) it
    /// receives, to pin down the one-round-trip-per-participant property.
    struct CountingProvider {
        value: f64,
        requests: Arc<Mutex<u32>>,
    }

    impl ProviderEndpoint for CountingProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn intention_batch(
            &mut self,
            queries: &[Query],
            request_bids: bool,
        ) -> Vec<(QueryId, f64, Option<Bid>)> {
            *self.requests.lock().unwrap() += 1;
            queries
                .iter()
                .map(|q| {
                    (
                        q.id,
                        self.value,
                        if request_bids { self.bid(q) } else { None },
                    )
                })
                .collect()
        }
    }

    #[test]
    fn gather_batch_serves_many_queries_with_one_request_per_participant() {
        let requests_seen = Arc::new(Mutex::new(0u32));
        let mut mediator = AsyncMediator::new(RuntimeConfig::default());
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.5, -0.25],
                results: Results::default(),
            },
        );
        for (i, value) in [0.8, -0.2].into_iter().enumerate() {
            mediator.register_provider(
                ProviderId::new(i as u32),
                CountingProvider {
                    value,
                    requests: requests_seen.clone(),
                },
            );
        }

        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..5).map(|i| (query(i), candidates.clone())).collect();
        let infos = mediator.gather_batch(&batch);

        assert_eq!(infos.len(), 5);
        for per_query in &infos {
            assert_eq!(per_query.len(), 2);
            assert_eq!(per_query[0].provider_intention, 0.8);
            assert_eq!(per_query[1].provider_intention, -0.2);
            assert_eq!(per_query[0].consumer_intention, 0.5);
            assert_eq!(per_query[1].consumer_intention, -0.25);
        }
        assert_eq!(
            *requests_seen.lock().unwrap(),
            2,
            "five queries must cost each provider exactly one round-trip"
        );
    }

    #[test]
    fn gather_batch_of_nothing_is_empty() {
        let (mut mediator, _, _) = build_mediator(&[0.5], vec![0.5], RuntimeConfig::default());
        assert!(mediator.gather_batch(&[]).is_empty());
    }

    #[test]
    fn a_batch_round_allocates_and_notifies_per_query() {
        let (mut mediator, notices, results) =
            build_mediator(&[0.9, 0.4], vec![0.8, 0.8], RuntimeConfig::default());
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..3).map(|i| (query(i), candidates.clone())).collect();
        let mut sqlb = core_mediator(SqlbAllocator::new());
        let allocations = allocate_round(&mut mediator, &mut sqlb, &batch);
        assert_eq!(allocations.len(), 3);
        for allocation in &allocations {
            assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
        }
        assert_eq!(sqlb.state().allocations(), 3);
        assert_eq!(notices.lock().unwrap().len(), 6, "2 candidates × 3 queries");
        assert_eq!(results.lock().unwrap().len(), 3);
    }

    #[test]
    fn deregistering_a_provider_silences_it() {
        let (mut mediator, _, _) =
            build_mediator(&[0.5, 0.6], vec![0.5, 0.5], RuntimeConfig::default());
        assert_eq!(mediator.provider_count(), 2);
        assert_eq!(mediator.consumer_count(), 1);
        mediator.deregister_provider(ProviderId::new(1));
        assert_eq!(mediator.provider_count(), 1);
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[1].provider_intention, 0.0);
    }

    #[test]
    fn algorithm_1_runs_end_to_end_into_a_core_mediator() {
        // Gather from the endpoints, allocate with SQLB, record the
        // outcome in the mediator's satisfaction state.
        let (mut mediator, _, results) = build_mediator(
            &[0.8, 0.9, -0.3],
            vec![0.9, -0.5, 0.4],
            RuntimeConfig::default(),
        );
        let mut sqlb = core_mediator(SqlbAllocator::new());
        let candidates: Vec<ProviderId> = (0..3).map(ProviderId::new).collect();
        let allocations = allocate_round(&mut mediator, &mut sqlb, &[(query(1), candidates)]);
        assert_eq!(allocations[0].selected, vec![ProviderId::new(0)]);
        assert_eq!(sqlb.state().allocations(), 1);
        assert_eq!(*results.lock().unwrap(), vec![vec![ProviderId::new(0)]]);
        // The consumer got a provider it likes → satisfaction above 0.5.
        assert!(sqlb.state().consumer_satisfaction(ConsumerId::new(0)) > 0.5);
    }
}
