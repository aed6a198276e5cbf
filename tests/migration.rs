//! Integration tests for cross-shard load migration and consumer-routing
//! policies: determinism, history preservation, and the acceptance bar
//! that rebalancing strictly shrinks shard imbalance under a skewed
//! workload.
//!
//! The skew: 14 consumers over K=4 shards route `consumer % 4` under the
//! static policy, so shards 0 and 1 mediate for four consumers each while
//! shards 2 and 3 get three — a third more demand on the low shards, with
//! providers split evenly round-robin.

use sqlb::sim::engine::run_simulation;
use sqlb::sim::experiments::{migration_skew, ExperimentScale};
use sqlb::sim::{Method, RoutingPolicyKind, SimulationConfig, WorkloadPattern};

/// 14 consumers on 4 shards: deliberately not a multiple, so static
/// routing is skewed.
fn skewed_config(seed: u64) -> SimulationConfig {
    SimulationConfig::scaled(14, 24, 600.0, seed)
        .with_workload(WorkloadPattern::Fixed(0.7))
        .with_mediator_shards(4)
}

#[test]
fn k4_migration_smoke() {
    // The CI smoke test: a K=4 run with migration and least-loaded routing
    // completes, keeps its query accounting, actually rebalances, and
    // records the per-shard series that make the rebalancing observable.
    let report = run_simulation(
        skewed_config(11)
            .with_routing(RoutingPolicyKind::LeastLoaded)
            .with_migration(true),
        Method::Sqlb,
    )
    .unwrap();
    assert_eq!(report.mediator_shards, 4);
    assert_eq!(report.routing_policy, "least-loaded");
    assert!(report.issued_queries > 500);
    assert_eq!(report.unallocated_queries, 0);
    assert!(report.completion_rate() > 0.5);
    assert_eq!(
        report.shard_allocations.iter().sum::<u64>(),
        report.issued_queries
    );
    assert!(report.rebalance_rounds > 0, "rebalancing must have run");
    assert!(!report.migrations.is_empty(), "the skew must trigger moves");
    assert_eq!(report.series.shard_utilization.len(), 4);
    assert_eq!(report.series.shard_satisfaction.len(), 4);
    assert_eq!(report.series.shard_allocation_counts.len(), 4);
    assert!(!report.series.shard_utilization_spread.is_empty());
    for migration in &report.migrations {
        assert!(migration.from_shard < 4 && migration.to_shard < 4);
        assert_ne!(migration.from_shard, migration.to_shard);
        assert!(migration.spread_before > 0.0);
    }
}

#[test]
fn migration_log_and_report_are_deterministic_per_seed() {
    let config = skewed_config(23)
        .with_routing(RoutingPolicyKind::LeastLoaded)
        .with_migration(true);
    let a = run_simulation(config, Method::Sqlb).unwrap();
    let b = run_simulation(config, Method::Sqlb).unwrap();
    assert_eq!(a.migrations, b.migrations, "identical migration logs");
    assert!(
        !a.migrations.is_empty(),
        "the comparison must not be vacuous"
    );
    assert_eq!(a.issued_queries, b.issued_queries);
    assert_eq!(a.shard_allocations, b.shard_allocations);
    assert_eq!(a.rebalance_rounds, b.rebalance_rounds);
    // Bit-exact series equality, the strongest determinism statement the
    // report offers.
    assert_eq!(
        a.series.consumer_satisfaction_mean.values(),
        b.series.consumer_satisfaction_mean.values()
    );
    assert_eq!(
        a.series.shard_utilization_spread.values(),
        b.series.shard_utilization_spread.values()
    );
    for shard in 0..4 {
        assert_eq!(
            a.series.shard_utilization[shard].values(),
            b.series.shard_utilization[shard].values()
        );
        assert_eq!(
            a.series.shard_allocation_counts[shard].values(),
            b.series.shard_allocation_counts[shard].values()
        );
    }
    // A different seed produces a different run (the comparison above is
    // not vacuous either).
    let c = run_simulation(
        skewed_config(24)
            .with_routing(RoutingPolicyKind::LeastLoaded)
            .with_migration(true),
        Method::Sqlb,
    )
    .unwrap();
    assert_ne!(a.issued_queries, c.issued_queries);
}

#[test]
fn provider_migration_shrinks_utilization_spread_under_static_routing() {
    // Satellite acceptance: with routing held fixed (static, skewed), the
    // per-shard utilization spread with migration on is strictly below the
    // spread with migration off — capacity followed demand.
    let baseline = run_simulation(skewed_config(31), Method::Sqlb).unwrap();
    let migrated = run_simulation(skewed_config(31).with_migration(true), Method::Sqlb).unwrap();
    assert!(baseline.migrations.is_empty());
    assert!(
        !migrated.migrations.is_empty(),
        "the skew must actually trigger migrations"
    );
    let tail = 200.0;
    let spread_off = baseline.mean_shard_utilization_spread_after(tail);
    let spread_on = migrated.mean_shard_utilization_spread_after(tail);
    assert!(
        spread_on < spread_off,
        "migration must shrink the utilization spread: on={spread_on} off={spread_off}"
    );
    // Static routing is untouched by migration: the same shards mediate
    // the same queries.
    assert_eq!(baseline.shard_allocations, migrated.shard_allocations);
}

#[test]
fn migration_lowers_allocation_imbalance_under_a_skewed_workload() {
    // PR acceptance: at K=4 under a skewed workload, the max/min per-shard
    // allocation ratio with migration enabled is strictly lower than with
    // migration disabled — both against the same least-loaded routing
    // (isolating migration's contribution) and against the untreated
    // static baseline.
    let result = migration_skew(ExperimentScale::quick(), 4, 0.7).unwrap();
    assert!(
        result.adaptive.allocation_imbalance < result.routed.allocation_imbalance,
        "migration on ({}) must beat migration off ({}) under least-loaded routing",
        result.adaptive.allocation_imbalance,
        result.routed.allocation_imbalance
    );
    assert!(
        result.adaptive.allocation_imbalance < result.baseline.allocation_imbalance,
        "adaptive ({}) must beat the static baseline ({})",
        result.adaptive.allocation_imbalance,
        result.baseline.allocation_imbalance
    );
    assert!(
        result.adaptive.migrations > 0,
        "the improvement must come from actual migrations"
    );
    // And the static-routing pair shows migration shrinking the
    // utilization spread without touching mediation counts.
    assert!(
        result.migrated.utilization_spread < result.baseline.utilization_spread,
        "migrated spread {} must beat baseline {}",
        result.migrated.utilization_spread,
        result.baseline.utilization_spread
    );
    assert_eq!(
        result.migrated.shard_allocations,
        result.baseline.shard_allocations
    );
}

#[test]
fn satisfaction_aware_donor_choice_keeps_the_skew_experiment_converging() {
    // Regression pin for the satisfaction-aware donor rule: folding the
    // donor shard's satisfaction reading into the load-adaptive donor
    // score must not cost the committed skew experiment its convergence,
    // and the reading that drove each pick must be recorded in the
    // migration log (in the satisfaction domain, so the preference for
    // under-served donors is observable after the fact).
    let report = run_simulation(
        skewed_config(31)
            .with_routing(RoutingPolicyKind::LeastLoaded)
            .with_migration(true),
        Method::Sqlb,
    )
    .unwrap();
    assert!(
        !report.migrations.is_empty(),
        "the skew must trigger load-adaptive migrations"
    );
    for migration in &report.migrations {
        assert!(
            (0.0..=1.0).contains(&migration.donor_satisfaction),
            "donor satisfaction {} of provider {} is outside the satisfaction domain",
            migration.donor_satisfaction,
            migration.provider
        );
    }
    // The committed skew experiment itself: migration (now satisfaction
    // aware) still strictly beats both no-migration baselines.
    let result = migration_skew(ExperimentScale::quick(), 4, 0.7).unwrap();
    assert!(result.adaptive.allocation_imbalance < result.routed.allocation_imbalance);
    assert!(result.adaptive.allocation_imbalance < result.baseline.allocation_imbalance);
    assert!(result.adaptive.migrations > 0);
}

#[test]
fn k1_ignores_migration_and_routing_knobs() {
    // The bit-identity contract: at K=1 neither knob can change anything.
    let plain = run_simulation(
        SimulationConfig::scaled(16, 32, 300.0, 9).with_workload(WorkloadPattern::Fixed(0.5)),
        Method::Sqlb,
    )
    .unwrap();
    let tuned = run_simulation(
        SimulationConfig::scaled(16, 32, 300.0, 9)
            .with_workload(WorkloadPattern::Fixed(0.5))
            .with_routing(RoutingPolicyKind::LeastLoaded)
            .with_migration(true)
            .with_rebalance_interval(7.0),
        Method::Sqlb,
    )
    .unwrap();
    assert_eq!(plain.issued_queries, tuned.issued_queries);
    assert_eq!(plain.rebalance_rounds, 0);
    assert_eq!(tuned.rebalance_rounds, 0, "K=1 never schedules Rebalance");
    assert!(tuned.migrations.is_empty());
    assert_eq!(
        plain.series.utilization_mean.values(),
        tuned.series.utilization_mean.values()
    );
    assert_eq!(
        plain.series.consumer_satisfaction_mean.values(),
        tuned.series.consumer_satisfaction_mean.values()
    );
    assert_eq!(plain.mean_response_time(), tuned.mean_response_time());
}
