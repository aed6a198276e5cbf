//! Live mediation: Algorithm 1 over the asynchronous mediation reactor.
//!
//! The simulator drives agents synchronously for reproducibility, but the
//! framework also ships a mediator for independently-running participants
//! (`sqlb-mediation`): consumers and providers are endpoints, the mediator
//! *forks* intention requests, *waits until* the answers arrive *or a
//! timeout* elapses — exactly the structure of Algorithm 1 — and reads
//! missing answers as indifference. The reactor drives the endpoints as
//! polled state machines on one event loop over a virtual clock: endpoints
//! declare their reply latency instead of sleeping, so a round costs
//! microseconds of wall time no matter the timeout, and one host scales to
//! tens of thousands of endpoints.
//!
//! Run with: `cargo run --example live_mediation`

use std::time::Duration;

use sqlb::core::mediator_state::MediatorStateConfig;
use sqlb::core::Mediator;
use sqlb::mediation::{AsyncMediator, ConsumerEndpoint, Latency, ProviderEndpoint, RuntimeConfig};
use sqlb::prelude::*;

/// A consumer that likes providers with an even identifier.
struct ParityConsumer;

impl ConsumerEndpoint for ParityConsumer {
    fn intentions(&mut self, _query: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates
            .iter()
            .map(|&p| (p, if p.raw().is_multiple_of(2) { 0.8 } else { -0.4 }))
            .collect()
    }

    fn allocation_result(&mut self, query: QueryId, providers: &[ProviderId]) {
        let names: Vec<String> = providers.iter().map(|p| p.to_string()).collect();
        println!(
            "  consumer: query {query} allocated to [{}]",
            names.join(", ")
        );
    }
}

/// A provider whose eagerness decreases with its identifier and whose
/// reply arrives after a modelled latency.
struct SlowProvider {
    id: u32,
    latency: Latency,
}

impl ProviderEndpoint for SlowProvider {
    fn intention(&mut self, _query: &Query) -> f64 {
        1.0 - self.id as f64 * 0.2
    }

    fn latency(&mut self) -> Latency {
        self.latency
    }

    fn allocation_notice(&mut self, query: QueryId, selected: bool) {
        if selected {
            println!("  provider p{}: I will perform query {query}", self.id);
        }
    }
}

fn main() {
    let mut mediator = AsyncMediator::new(RuntimeConfig {
        timeout: Duration::from_millis(100),
        request_bids: false,
    });

    mediator.register_consumer(ConsumerId::new(0), ParityConsumer);
    for id in 0..5u32 {
        mediator.register_provider(
            ProviderId::new(id),
            SlowProvider {
                id,
                // Provider p4 is too slow and will miss the deadline: its
                // intention is read as indifference.
                latency: Latency::After(Duration::from_millis(if id == 4 { 500 } else { 5 })),
            },
        );
    }

    // The allocation decision and its bookkeeping belong to a core
    // mediator; the reactor only gathers intentions and delivers results.
    let mut sqlb = Mediator::new(
        Box::new(SqlbAllocator::new()),
        MediatorStateConfig::default(),
    );
    let candidates: Vec<ProviderId> = (0..5).map(ProviderId::new).collect();

    println!(
        "== Live mediation over {} provider endpoints (virtual time) ==",
        candidates.len()
    );
    for i in 0..3u32 {
        let query = Query::single(
            QueryId::new(i),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let infos = mediator.gather(&query, &candidates);
        let round = mediator.reactor().last_round();
        let allocation = sqlb.allocate(&query, &infos, None);
        let chosen = infos
            .iter()
            .find(|info| allocation.is_selected(info.provider))
            .expect("a non-empty candidate set gets a provider");
        println!(
            "mediator: query {} -> {} (CI {:+.2}, PI {:+.2}; {} answered, {} timed out, \
             virtual round {:?})",
            query.id,
            chosen.provider,
            chosen.consumer_intention,
            chosen.provider_intention,
            round.answered,
            round.timed_out,
            round.virtual_elapsed,
        );
        mediator.notify(&query, &candidates, &allocation);
    }

    println!("\np4's answers miss the 100 ms deadline, so the mediator reads its intention");
    println!("as indifference (0) — Algorithm 1's timeout at work. The timeout fires at");
    println!("exactly the virtual deadline, without any thread ever sleeping.");
}
