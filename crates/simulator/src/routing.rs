//! Consumer-routing policies: which mediator shard mediates a query.
//!
//! The paper's mono-mediator system has no routing decision at all; with
//! `K > 1` shards the engine must pick the shard that mediates each
//! arriving query. [`RoutingPolicy`] abstracts that choice:
//!
//! * [`StaticRouting`] — `consumer % K`, the original policy. A pure
//!   function of the consumer id: never consumes randomness, never reacts
//!   to load, and pins every consumer's history to one shard (good for
//!   satisfaction-view locality, blind to skew).
//! * [`LeastLoadedRouting`] — routes to the shard with the lowest recent
//!   utilization, measured as outstanding work per unit of shard
//!   capacity. This reacts to skewed workloads (e.g. a consumer
//!   population that does not divide evenly across shards) at the cost of
//!   spreading a consumer's allocations over several shards, whose
//!   readings the periodic sync board (see [`ShardRouter::sync_views`])
//!   then blends.
//!
//! Both policies are deterministic: ties break toward the lowest shard
//! index, so a run's routing sequence is a pure function of observed state
//! and the seed, never of map iteration order.

use sqlb_types::{ConsumerId, StableId};

use crate::shard::ShardRouter;

/// Per-shard load observations the engine maintains for routing: both
/// slices are indexed by shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardLoadView<'a> {
    /// Outstanding work (in work units) currently enqueued at providers of
    /// each shard. Floating-point residue can leave a value fractionally
    /// negative, which is harmless for an ordering signal; readers clamp
    /// at zero.
    pub backlog: &'a [f64],
    /// Total provider capacity of each shard, in work units per second.
    /// `backlog / capacity` is therefore the shard's backlog in seconds —
    /// its recent utilization.
    pub capacity: &'a [f64],
}

/// A consumer-routing decision procedure.
///
/// `route` picks the *preferred* shard for a query of `consumer` given the
/// current shard topology and the engine's per-shard load observations.
/// The engine still falls over to the next non-empty shard when the
/// preferred one has no providers left.
pub trait RoutingPolicy: std::fmt::Debug + Send {
    /// Preferred shard for the given consumer. Must be deterministic in
    /// `(consumer, router, loads)` and must return a value below
    /// `router.shard_count()`.
    fn route(&self, consumer: ConsumerId, router: &ShardRouter, loads: ShardLoadView<'_>) -> usize;

    /// Whether routed demand follows shard capacity. When true, moving a
    /// provider between shards also moves future mediation load, so the
    /// rebalancer may migrate providers to equalize per-shard *allocation*
    /// counts; under a load-blind policy such moves would change nothing
    /// (and the rebalancer skips them).
    fn reacts_to_load(&self) -> bool {
        false
    }

    /// Display name (used in experiment output).
    fn name(&self) -> &'static str;
}

/// `consumer % K`: the original, load-blind policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticRouting;

impl RoutingPolicy for StaticRouting {
    fn route(
        &self,
        consumer: ConsumerId,
        router: &ShardRouter,
        _loads: ShardLoadView<'_>,
    ) -> usize {
        consumer.slot() % router.shard_count()
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Routes to the shard with the lowest outstanding work per unit of
/// capacity — the shard whose backlog would drain soonest, i.e. the one
/// with the lowest recent utilization. Normalizing by capacity rather
/// than provider count matters because provider capacities span 7×
/// (Table 2's class mix): a shard of few large providers drains far more
/// load than a shard of many small ones.
///
/// Ties break toward the consumer's static home shard (`consumer % K`),
/// continuing in wrap-around order: when the system is idle — backlogs
/// are frequently all zero at moderate workloads — the policy therefore
/// degrades to [`StaticRouting`]'s uniform spread instead of dog-piling
/// every tied arrival onto shard 0.
///
/// Shards that currently own no providers (or no capacity) are skipped (a
/// query routed there could not be mediated anyway); if every shard is
/// empty the policy falls back to the static shard and the engine's
/// fall-over logic reports the query unallocated.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoadedRouting;

impl RoutingPolicy for LeastLoadedRouting {
    fn route(&self, consumer: ConsumerId, router: &ShardRouter, loads: ShardLoadView<'_>) -> usize {
        let shard_count = router.shard_count();
        let home = consumer.slot() % shard_count;
        let mut best = home;
        let mut best_load = f64::INFINITY;
        for offset in 0..shard_count {
            let shard = (home + offset) % shard_count;
            if router.providers_of_shard(shard).is_empty() {
                continue;
            }
            let capacity = loads.capacity.get(shard).copied().unwrap_or(0.0);
            if capacity <= 0.0 {
                continue;
            }
            // Clamp at zero: incremental add/subtract bookkeeping can
            // leave floating-point residue fractionally below it.
            let backlog = loads.backlog.get(shard).copied().unwrap_or(0.0).max(0.0);
            let load = backlog / capacity;
            if load < best_load {
                best_load = load;
                best = shard;
            }
        }
        best
    }

    fn reacts_to_load(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Configuration-level selector for the routing policy (a plain `Copy`
/// value, unlike the trait objects themselves).
///
/// Select a policy on the simulation configuration and the engine builds
/// it for the run:
///
/// ```
/// use sqlb_sim::engine::run_simulation;
/// use sqlb_sim::{Method, RoutingPolicyKind, SimulationConfig};
///
/// let config = SimulationConfig::scaled(8, 16, 60.0, 7)
///     .with_mediator_shards(2)
///     .with_routing(RoutingPolicyKind::LeastLoaded);
/// let report = run_simulation(config, Method::Sqlb).unwrap();
/// assert_eq!(report.routing_policy, "least-loaded");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RoutingPolicyKind {
    /// [`StaticRouting`]: `consumer % K`.
    #[default]
    Static,
    /// [`LeastLoadedRouting`]: lowest outstanding work per unit of
    /// capacity.
    LeastLoaded,
}

impl RoutingPolicyKind {
    /// Builds the policy instance.
    pub fn build(self) -> Box<dyn RoutingPolicy> {
        match self {
            RoutingPolicyKind::Static => Box::new(StaticRouting),
            RoutingPolicyKind::LeastLoaded => Box::new(LeastLoadedRouting),
        }
    }

    /// Display name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            RoutingPolicyKind::Static => "static",
            RoutingPolicyKind::LeastLoaded => "least-loaded",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Method;
    use sqlb_core::mediator_state::MediatorStateConfig;
    use sqlb_types::ProviderId;

    fn router(k: usize, providers: u32) -> ShardRouter {
        ShardRouter::new(
            k,
            Method::Sqlb,
            42,
            MediatorStateConfig::default(),
            (0..providers).map(ProviderId::new),
        )
    }

    fn loads<'a>(backlog: &'a [f64], capacity: &'a [f64]) -> ShardLoadView<'a> {
        ShardLoadView { backlog, capacity }
    }

    #[test]
    fn static_routing_is_consumer_mod_k() {
        let r = router(4, 8);
        let policy = StaticRouting;
        for c in 0..12u32 {
            assert_eq!(
                policy.route(
                    ConsumerId::new(c),
                    &r,
                    loads(&[0.0, 0.0, 0.0, 0.0], &[1.0, 1.0, 1.0, 1.0])
                ),
                c as usize % 4
            );
        }
        assert_eq!(policy.name(), "static");
        assert!(!policy.reacts_to_load());
    }

    #[test]
    fn least_loaded_picks_lowest_backlog_per_capacity() {
        let r = router(4, 8); // 2 providers per shard
        let policy = LeastLoadedRouting;
        let c = ConsumerId::new(0);
        let capacity = [100.0, 100.0, 100.0, 100.0];
        // Shard 2 has the least outstanding work per unit of capacity.
        assert_eq!(
            policy.route(c, &r, loads(&[400.0, 300.0, 100.0, 500.0], &capacity)),
            2
        );
        // Capacity matters: the same backlog on a much larger shard means
        // a lighter relative load.
        assert_eq!(
            policy.route(
                c,
                &r,
                loads(&[400.0, 300.0, 100.0, 500.0], &[800.0, 100.0, 100.0, 100.0])
            ),
            0
        );
        // Negative backlogs (post-migration drift) clamp to zero; among
        // the tied shards 1 and 2, the first in wrap-around order from the
        // consumer's home shard wins.
        assert_eq!(
            policy.route(c, &r, loads(&[100.0, -300.0, 0.0, 100.0], &capacity)),
            1
        );
        assert_eq!(policy.name(), "least-loaded");
        assert!(policy.reacts_to_load());
    }

    #[test]
    fn least_loaded_ties_degrade_to_static_routing() {
        // All shards equally loaded: each consumer keeps its static home
        // shard, so an idle system spreads arrivals uniformly instead of
        // piling them on shard 0.
        let r = router(4, 8);
        let policy = LeastLoadedRouting;
        for c in 0..12u32 {
            assert_eq!(
                policy.route(
                    ConsumerId::new(c),
                    &r,
                    loads(&[200.0, 200.0, 200.0, 200.0], &[50.0, 50.0, 50.0, 50.0])
                ),
                c as usize % 4
            );
        }
    }

    #[test]
    fn least_loaded_skips_empty_shards() {
        let mut r = router(2, 4);
        r.remove_provider(ProviderId::new(0));
        r.remove_provider(ProviderId::new(2));
        // Shard 0 is empty: even with zero load it must not be preferred.
        assert_eq!(
            LeastLoadedRouting.route(ConsumerId::new(0), &r, loads(&[0.0, 1000.0], &[0.0, 100.0])),
            1
        );
    }

    #[test]
    fn kind_builds_matching_policy() {
        assert_eq!(RoutingPolicyKind::Static.build().name(), "static");
        assert_eq!(
            RoutingPolicyKind::LeastLoaded.build().name(),
            "least-loaded"
        );
        assert_eq!(RoutingPolicyKind::default(), RoutingPolicyKind::Static);
        assert_eq!(RoutingPolicyKind::Static.name(), "static");
        assert_eq!(RoutingPolicyKind::LeastLoaded.name(), "least-loaded");
    }
}
