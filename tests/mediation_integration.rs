//! Integration test wiring real agent logic (crate `sqlb-agents`) to the
//! mediation reactor's owned-endpoint facade (crate `sqlb-mediation`):
//! consumers and providers computing Definition 7/8 intentions as
//! endpoints, Algorithm 1 running as reactor waves with a timeout.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sqlb::core::mediator_state::MediatorStateConfig;
use sqlb::core::Mediator;
use sqlb::mediation::{AsyncMediator, ConsumerEndpoint, Latency, ProviderEndpoint, RuntimeConfig};
use sqlb::prelude::*;

/// The core mediator that decides and records each allocation; the
/// reactor facade only gathers intentions and delivers the result.
fn core_mediator(method: impl AllocationMethod + 'static) -> Mediator {
    Mediator::new(Box::new(method), MediatorStateConfig::default())
}

/// A consumer endpoint backed by a real [`ConsumerAgent`].
struct AgentConsumer {
    agent: ConsumerAgent,
    reputation: ReputationStore,
}

impl ConsumerEndpoint for AgentConsumer {
    fn intentions(&mut self, query: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates
            .iter()
            .map(|&p| (p, self.agent.intention_for(query, p, &self.reputation)))
            .collect()
    }
}

/// A provider endpoint backed by a real [`ProviderAgent`], sharing the
/// agent with the test through a mutex so satisfaction updates are visible.
struct AgentProvider {
    agent: Arc<Mutex<ProviderAgent>>,
}

impl ProviderEndpoint for AgentProvider {
    fn intention(&mut self, query: &Query) -> f64 {
        self.agent
            .lock()
            .unwrap()
            .intention_for(query, SimTime::ZERO)
    }

    fn bid(&mut self, query: &Query) -> Option<Bid> {
        Some(self.agent.lock().unwrap().bid_for(query, SimTime::ZERO))
    }

    fn allocation_notice(&mut self, _query: QueryId, selected: bool) {
        // Record the proposal on the provider's own trackers; the shown
        // intention is re-derived from its preference (idle provider).
        let mut agent = self.agent.lock().unwrap();
        let query = Query::single(
            QueryId::new(0),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let intention = agent.intention_for(&query, SimTime::ZERO);
        agent.record_proposal(&query, intention, selected);
    }
}

/// A provider endpoint wrapping a real agent but answering only after a
/// fixed (virtual) delay — a stand-in for an overloaded or partitioned
/// participant.
struct SlowAgentProvider {
    agent: ProviderAgent,
    delay: Duration,
}

impl ProviderEndpoint for SlowAgentProvider {
    fn intention(&mut self, query: &Query) -> f64 {
        self.agent.intention_for(query, SimTime::ZERO)
    }

    fn latency(&mut self) -> Latency {
        Latency::After(self.delay)
    }
}

fn population() -> Population {
    Population::generate(&PopulationConfig::scaled(4, 8, 123)).unwrap()
}

#[test]
fn agents_mediate_over_threads_and_update_their_satisfaction() {
    let population = population();
    let providers: Vec<Arc<Mutex<ProviderAgent>>> = population
        .providers
        .values()
        .map(|p| Arc::new(Mutex::new(p.clone())))
        .collect();

    let mut mediator = AsyncMediator::new(RuntimeConfig {
        timeout: Duration::from_millis(500),
        request_bids: false,
    });
    let consumer_agent = population.consumers[ConsumerId::new(0)].clone();
    mediator.register_consumer(
        consumer_agent.id(),
        AgentConsumer {
            agent: consumer_agent.clone(),
            reputation: ReputationStore::neutral(),
        },
    );
    for provider in &providers {
        let id = provider.lock().unwrap().id();
        mediator.register_provider(
            id,
            AgentProvider {
                agent: provider.clone(),
            },
        );
    }

    let candidates: Vec<ProviderId> = providers.iter().map(|p| p.lock().unwrap().id()).collect();
    let mut sqlb = core_mediator(SqlbAllocator::new());

    let mut selected_counts = vec![0u32; candidates.len()];
    for i in 0..30u32 {
        let query = Query::single(
            QueryId::new(i),
            consumer_agent.id(),
            if i.is_multiple_of(2) {
                QueryClass::Light
            } else {
                QueryClass::Heavy
            },
            SimTime::ZERO,
        );
        let infos = mediator.gather(&query, &candidates);
        let allocation = sqlb.allocate(&query, &infos, None);
        mediator.notify(&query, &candidates, &allocation);
        assert_eq!(allocation.selected.len(), 1);
        selected_counts[allocation.selected[0].index()] += 1;
    }
    assert_eq!(sqlb.state().allocations(), 30);

    // The winner must be a provider the consumer likes: its preference for
    // the most-selected provider should not be negative while some other
    // candidate has a strictly higher preference and was never selected
    // with positive provider intention... keep the check simple: the most
    // selected provider has a non-negative consumer preference unless every
    // candidate is disliked.
    let (best_idx, _) = selected_counts
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| **c)
        .unwrap();
    let best_pref = consumer_agent.preference_for(candidates[best_idx]).value();
    let max_pref = candidates
        .iter()
        .map(|&p| consumer_agent.preference_for(p).value())
        .fold(f64::NEG_INFINITY, f64::max);
    if max_pref > 0.0 {
        assert!(
            best_pref > -0.54,
            "the mediation should not concentrate queries on a low-interest provider \
             (best preference {max_pref}, selected provider preference {best_pref})"
        );
    }

    // Allocation notices are delivered before `notify` returns: the
    // providers' own trackers have recorded the proposals.
    let any_updated = providers
        .iter()
        .any(|p| p.lock().unwrap().proposed_queries() > 0);
    assert!(
        any_updated,
        "allocation notices should reach the provider agents"
    );
}

#[test]
fn mariposa_over_the_runtime_uses_real_bids() {
    let population = population();
    let mut mediator = AsyncMediator::new(RuntimeConfig {
        timeout: Duration::from_millis(500),
        request_bids: true,
    });
    let consumer_agent = population.consumers[ConsumerId::new(0)].clone();
    mediator.register_consumer(
        consumer_agent.id(),
        AgentConsumer {
            agent: consumer_agent.clone(),
            reputation: ReputationStore::neutral(),
        },
    );
    for provider in population.providers.values() {
        mediator.register_provider(
            provider.id(),
            AgentProvider {
                agent: Arc::new(Mutex::new(provider.clone())),
            },
        );
    }
    let candidates: Vec<ProviderId> = population.providers.values().map(|p| p.id()).collect();
    let infos = mediator.gather(
        &Query::single(
            QueryId::new(0),
            consumer_agent.id(),
            QueryClass::Light,
            SimTime::ZERO,
        ),
        &candidates,
    );
    assert!(infos.iter().all(|i| i.bid.is_some()), "every provider bids");

    let mut broker = core_mediator(MariposaLike::new());
    let query = Query::single(
        QueryId::new(1),
        consumer_agent.id(),
        QueryClass::Light,
        SimTime::ZERO,
    );
    let infos = mediator.gather(&query, &candidates);
    let allocation = broker.allocate(&query, &infos, None);
    mediator.notify(&query, &candidates, &allocation);
    assert_eq!(allocation.selected.len(), 1);
}

/// Builds a mediator over real agents where provider 0 is fast and
/// provider 1 is slower than the configured timeout.
fn mediator_with_slow_provider(
    timeout: Duration,
    slow_delay: Duration,
) -> (AsyncMediator, ConsumerAgent, Vec<ProviderId>) {
    let population = population();
    let mut mediator = AsyncMediator::new(RuntimeConfig {
        timeout,
        request_bids: false,
    });
    let consumer_agent = population.consumers[ConsumerId::new(0)].clone();
    mediator.register_consumer(
        consumer_agent.id(),
        AgentConsumer {
            agent: consumer_agent.clone(),
            reputation: ReputationStore::neutral(),
        },
    );
    let candidates: Vec<ProviderId> = population.providers.keys().take(2).collect();
    let fast = population.providers[candidates[0]].clone();
    let slow = population.providers[candidates[1]].clone();
    mediator.register_provider(
        candidates[0],
        AgentProvider {
            agent: Arc::new(Mutex::new(fast)),
        },
    );
    mediator.register_provider(
        candidates[1],
        SlowAgentProvider {
            agent: slow,
            delay: slow_delay,
        },
    );
    (mediator, consumer_agent, candidates)
}

#[test]
fn slow_provider_falls_back_to_indifference_on_the_single_query_path() {
    // Algorithm 1, line 5: answers missing at the timeout are treated as
    // indifference (intention 0). The fast provider's real intention and
    // the consumer's intentions must still come through.
    let (mut mediator, consumer_agent, candidates) =
        mediator_with_slow_provider(Duration::from_millis(80), Duration::from_millis(600));
    let query = Query::single(
        QueryId::new(1),
        consumer_agent.id(),
        QueryClass::Light,
        SimTime::ZERO,
    );
    let infos = mediator.gather(&query, &candidates);
    assert_eq!(infos.len(), 2);
    let expected_fast = {
        let population = population();
        population.providers[candidates[0]]
            .clone()
            .intention_for(&query, SimTime::ZERO)
    };
    assert_eq!(
        infos[0].provider_intention, expected_fast,
        "the fast provider's answer arrives in time"
    );
    assert_eq!(
        infos[1].provider_intention, 0.0,
        "the slow provider's answer missed the deadline and defaults to 0"
    );
    // The consumer answered for both candidates regardless.
    let expected_ci =
        consumer_agent.intention_for(&query, candidates[1], &ReputationStore::neutral());
    assert_eq!(infos[1].consumer_intention, expected_ci);
}

#[test]
fn slow_provider_falls_back_to_indifference_on_the_batched_path() {
    // Same fallback on the batched entry point: one round-trip per
    // participant serves the whole batch, and the slow provider's missing
    // batch reply zeroes its intention for every query of the batch.
    let (mut mediator, consumer_agent, candidates) =
        mediator_with_slow_provider(Duration::from_millis(80), Duration::from_millis(600));
    let batch: Vec<(Query, Vec<ProviderId>)> = (0..4)
        .map(|i| {
            (
                Query::single(
                    QueryId::new(i),
                    consumer_agent.id(),
                    if i.is_multiple_of(2) {
                        QueryClass::Light
                    } else {
                        QueryClass::Heavy
                    },
                    SimTime::ZERO,
                ),
                candidates.clone(),
            )
        })
        .collect();
    let infos = mediator.gather_batch(&batch);
    assert_eq!(infos.len(), 4);
    for (i, per_query) in infos.iter().enumerate() {
        assert!(
            per_query[0].provider_intention != 0.0,
            "query {i}: the fast provider should answer with a real intention"
        );
        assert_eq!(
            per_query[1].provider_intention, 0.0,
            "query {i}: the slow provider must default to indifference"
        );
        assert!(
            per_query[1].consumer_intention != 0.0,
            "query {i}: the consumer's view of the slow provider still arrives"
        );
    }

    // The whole mediation still goes through and allocates every query.
    let mut sqlb = core_mediator(SqlbAllocator::new());
    for ((query, candidates), query_infos) in batch.iter().zip(&infos) {
        let allocation = sqlb.allocate(query, query_infos, None);
        mediator.notify(query, candidates, &allocation);
        assert_eq!(allocation.selected.len(), 1);
    }
    assert_eq!(sqlb.state().allocations(), 4);
}
