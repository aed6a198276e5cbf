//! Cross-backend contract of the mediation layer.
//!
//! Two properties are pinned here:
//!
//! 1. **Timeout-to-indifference is exact.** A participant endpoint that
//!    never answers degrades to indifference at *exactly* the configured
//!    deadline on the reactor (whose clock is virtual, so "exactly" is
//!    bit-for-bit), and before a generous real deadline on the threaded
//!    backend.
//! 2. **Backends are interchangeable.** Same-seed simulation runs produce
//!    identical migration logs and bit-identical report digests whether
//!    the engine gathers intentions inline, over scoped threads (one per
//!    participant request), or through the asynchronous reactor. (The `report_digest --backends` binary checks the same
//!    property over the full 15-configuration matrix.)

use std::time::Duration;

use sqlb::mediation::{AsyncMediator, ConsumerEndpoint, Latency, ProviderEndpoint, RuntimeConfig};
use sqlb::sim::engine::run_simulation;
use sqlb::sim::{MediationMode, Method, RoutingPolicyKind, SimulationConfig, WorkloadPattern};
use sqlb::types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

struct FlatConsumer(f64);

impl ConsumerEndpoint for FlatConsumer {
    fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
        candidates.iter().map(|&p| (p, self.0)).collect()
    }
}

struct LaggyProvider {
    value: f64,
    latency: Latency,
}

impl ProviderEndpoint for LaggyProvider {
    fn intention(&mut self, _q: &Query) -> f64 {
        self.value
    }
    fn latency(&mut self) -> Latency {
        self.latency
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

#[test]
fn a_silent_endpoint_degrades_to_indifference_at_exactly_the_deadline() {
    let timeout = Duration::from_millis(120);
    let mut mediator = AsyncMediator::new(RuntimeConfig {
        timeout,
        request_bids: false,
    });
    mediator.register_consumer(ConsumerId::new(0), FlatConsumer(0.9));
    mediator.register_provider(
        ProviderId::new(0),
        LaggyProvider {
            value: 0.7,
            latency: Latency::Immediate,
        },
    );
    mediator.register_provider(
        ProviderId::new(1),
        LaggyProvider {
            value: 1.0,
            latency: Latency::Never,
        },
    );

    let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
    let infos = mediator.gather(&query(1), &candidates);
    assert_eq!(infos[0].provider_intention, 0.7);
    assert_eq!(infos[0].consumer_intention, 0.9);
    assert_eq!(
        infos[1].provider_intention, 0.0,
        "the silent provider is read as indifferent"
    );
    assert_eq!(
        infos[1].consumer_intention, 0.9,
        "the consumer's view of the silent provider still arrives"
    );

    let round = mediator.reactor().last_round();
    assert_eq!(round.timed_out, 1);
    assert!(round.hit_deadline);
    assert_eq!(
        round.virtual_elapsed, timeout,
        "degradation happens at exactly the configured deadline, \
         not a poll interval later"
    );

    // A latency one nanosecond past the deadline also degrades; one at
    // the deadline does not — the boundary is exact.
    let mut late = AsyncMediator::new(RuntimeConfig {
        timeout,
        request_bids: false,
    });
    late.register_consumer(ConsumerId::new(0), FlatConsumer(0.5));
    late.register_provider(
        ProviderId::new(0),
        LaggyProvider {
            value: 0.8,
            latency: Latency::After(timeout + Duration::from_nanos(1)),
        },
    );
    late.register_provider(
        ProviderId::new(1),
        LaggyProvider {
            value: 0.6,
            latency: Latency::After(timeout),
        },
    );
    let infos = late.gather(&query(2), &[ProviderId::new(0), ProviderId::new(1)]);
    assert_eq!(infos[0].provider_intention, 0.0, "1 ns past the deadline");
    assert_eq!(infos[1].provider_intention, 0.6, "exactly at the deadline");
}

/// 14 consumers on 4 shards (deliberately not a multiple, so static
/// routing is skewed) with migration on: the scenario where the mediation
/// layer feeds routing, rebalancing and the migration log.
fn migration_config(seed: u64) -> SimulationConfig {
    SimulationConfig::scaled(14, 24, 400.0, seed)
        .with_workload(WorkloadPattern::Fixed(0.7))
        .with_mediator_shards(4)
        .with_routing(RoutingPolicyKind::LeastLoaded)
        .with_migration(true)
}

#[test]
fn backends_agree_on_migration_logs_and_digests() {
    let inline = run_simulation(migration_config(11), Method::Sqlb).unwrap();
    let threaded = run_simulation(
        migration_config(11).with_mediation(MediationMode::Threaded),
        Method::Sqlb,
    )
    .unwrap();
    let reactor = run_simulation(
        migration_config(11).with_mediation(MediationMode::Reactor),
        Method::Sqlb,
    )
    .unwrap();

    // The run must be interesting enough to discriminate: queries were
    // mediated on every shard and providers actually migrated.
    assert!(inline.issued_queries > 300);
    assert!(inline.rebalance_rounds > 0);
    assert!(
        !inline.migrations.is_empty(),
        "the skew must trigger at least one migration"
    );

    // Identical migration logs, entry for entry…
    assert_eq!(inline.migrations, threaded.migrations);
    assert_eq!(inline.migrations, reactor.migrations);
    assert_eq!(inline.shard_allocations, threaded.shard_allocations);
    assert_eq!(inline.shard_allocations, reactor.shard_allocations);

    // …and bit-identical reports.
    assert_eq!(inline.digest(), threaded.digest());
    assert_eq!(inline.digest(), reactor.digest());
}

#[test]
fn scoring_thread_count_never_changes_the_digest_on_any_backend() {
    // Deterministic intra-shard parallelism: the batch Definition 7/8
    // scoring kernel chunks candidates over a fixed partition, so its
    // result must be bit-identical at any thread count — on every
    // mediation backend. 80 providers over K=2 shards gives 40-candidate
    // sets per query, comfortably past the parallel kernel's engagement
    // threshold, so the parallel code path genuinely runs.
    let base = SimulationConfig::scaled(16, 80, 300.0, 29)
        .with_workload(WorkloadPattern::Fixed(0.6))
        .with_mediator_shards(2);
    let reference = run_simulation(base, Method::Sqlb).unwrap();
    assert!(
        reference.issued_queries > 200,
        "the run must be interesting enough to discriminate"
    );
    let reference_digest = reference.digest();
    for mode in [
        MediationMode::Inline,
        MediationMode::Threaded,
        MediationMode::Reactor,
        MediationMode::Socket,
    ] {
        for threads in [1usize, 2, 8] {
            let report = run_simulation(
                base.with_mediation(mode).with_scoring_threads(threads),
                Method::Sqlb,
            )
            .unwrap();
            assert_eq!(
                report.digest(),
                reference_digest,
                "digest diverged on backend {mode:?} with {threads} scoring threads"
            );
        }
    }
}

#[test]
fn reactor_runs_departures_deterministically() {
    // Provider departures deregister endpoints from the reactor
    // mid-run; the run must stay bit-identical to the inline engine and
    // to a second reactor run.
    use sqlb::prelude::{EnabledReasons, ProviderDepartureRule};
    let config = SimulationConfig::scaled(16, 32, 400.0, 17)
        .with_workload(WorkloadPattern::Fixed(0.8))
        .with_provider_departures(ProviderDepartureRule::with_enabled(EnabledReasons::ALL));
    let inline = run_simulation(config, Method::MariposaLike).unwrap();
    let reactor_a = run_simulation(
        config.with_mediation(MediationMode::Reactor),
        Method::MariposaLike,
    )
    .unwrap();
    let reactor_b = run_simulation(
        config.with_mediation(MediationMode::Reactor),
        Method::MariposaLike,
    )
    .unwrap();
    assert!(
        !inline.provider_departures.is_empty(),
        "the scenario needs departures to be meaningful"
    );
    assert_eq!(inline.digest(), reactor_a.digest());
    assert_eq!(reactor_a.digest(), reactor_b.digest());
    assert_eq!(
        inline.provider_departures.len(),
        reactor_a.provider_departures.len()
    );
}
