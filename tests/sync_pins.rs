//! Exact digests of sharded runs with the satisfaction-view sync on.
//!
//! Shards exchange their consumer readings every `sync_interval_secs`,
//! and an allocation blends its shard's own reading of the consumer with
//! the other shards' readings from the last round (Equation 6's `δs(c)`).
//! These pins fix that blend bit for bit: a change to how readings are
//! collected, stored or summed must leave every digest below unchanged.
//!
//! Under least-loaded routing a consumer reaches several shards, so the
//! blend changes decisions; each pin there also asserts that a run
//! without sync rounds digests differently, so the pin is not vacuous.
//! Under static routing a consumer reaches one shard only, no shard ever
//! holds another shard's reading of it, and sync never changes a digest.

use sqlb::sim::engine::run_simulation;
use sqlb::sim::{
    MediationMode, Method, RoutingPolicyKind, SimulationConfig, SimulationReport, WorkloadPattern,
};

/// 32 consumers × 64 providers over `shards` mediator shards, migration
/// on, inline mediation, seed 1; 400 virtual seconds with the default
/// sync interval (every 4 s).
fn config(shards: usize, routing: RoutingPolicyKind) -> SimulationConfig {
    SimulationConfig::scaled(32, 64, 400.0, 1)
        .with_workload(WorkloadPattern::Fixed(0.6))
        .with_mediator_shards(shards)
        .with_routing(routing)
        .with_migration(true)
        .with_mediation(MediationMode::Inline)
}

fn run(config: SimulationConfig) -> SimulationReport {
    run_simulation(config, Method::Sqlb).expect("valid config")
}

/// The same run with no sync round inside the horizon.
fn without_sync(config: SimulationConfig) -> SimulationConfig {
    config.with_sync_interval(config.duration_secs * 2.0)
}

fn assert_pinned(shards: usize, routing: RoutingPolicyKind, pin: u64) -> SimulationReport {
    let report = run(config(shards, routing));
    assert!(report.sync_rounds > 0, "K={shards}: sync must run");
    assert_eq!(
        report.digest(),
        pin,
        "K={shards}: digest {:#018x}",
        report.digest()
    );
    report
}

#[test]
fn least_loaded_k2_sync_digest_is_pinned() {
    let report = assert_pinned(2, RoutingPolicyKind::LeastLoaded, 0x9a5f_ab6a_c991_38ab);
    let plain = run(without_sync(config(2, RoutingPolicyKind::LeastLoaded)));
    assert_ne!(
        report.digest(),
        plain.digest(),
        "sync must change decisions"
    );
}

#[test]
fn least_loaded_k4_sync_digest_is_pinned() {
    let report = assert_pinned(4, RoutingPolicyKind::LeastLoaded, 0x4744_a9b4_2190_481a);
    let plain = run(without_sync(config(4, RoutingPolicyKind::LeastLoaded)));
    assert_ne!(
        report.digest(),
        plain.digest(),
        "sync must change decisions"
    );
}

#[test]
fn least_loaded_k8_sync_digest_is_pinned() {
    let report = assert_pinned(8, RoutingPolicyKind::LeastLoaded, 0x19f6_f5f3_4100_0347);
    let plain = run(without_sync(config(8, RoutingPolicyKind::LeastLoaded)));
    assert_ne!(
        report.digest(),
        plain.digest(),
        "sync must change decisions"
    );
}

#[test]
fn static_k4_sync_digest_is_pinned_and_equals_the_unsynced_run() {
    let report = assert_pinned(4, RoutingPolicyKind::Static, 0xf535_16da_3c4b_4afe);
    let plain = run(without_sync(config(4, RoutingPolicyKind::Static)));
    assert_eq!(
        report.digest(),
        plain.digest(),
        "static routing never reads a peer reading"
    );
}
