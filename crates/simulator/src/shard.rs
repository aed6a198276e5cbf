//! The sharding router: mediator-count-agnostic mediation.
//!
//! The paper evaluates a mono-mediator system, but its model allows many
//! mediators (Section 2). [`ShardRouter`] partitions the providers across
//! `K` [`Mediator`] shards (round-robin by provider id, so the partition
//! is stable and seed-independent) and routes each query to the shard
//! responsible for it. With `K = 1` every provider lands in shard 0 and
//! every query routes there, reproducing the mono-mediator pipeline
//! bit-for-bit under the same seed.
//!
//! Each shard only observes the allocations it performs, so its reading
//! of a consumer's satisfaction is partial whenever the routing policy
//! sends that consumer to several shards. [`ShardRouter::sync_views`]
//! runs the periodic synchronization round that repairs this: it collects
//! every shard's local consumer readings once, grouped by consumer, on one
//! sync board the router owns. An allocation on shard `s` for consumer `c`
//! blends `s`'s live local reading with the sum of `c`'s readings from
//! every other shard at the last round, walked in shard order
//! ([`sqlb_core::mediator_state::MediatorState::blended_consumer_satisfaction`]).
//! A departed consumer's readings leave the board at once, and each round
//! rebuilds it from the live windows only.

use std::collections::BTreeMap;
use std::ops::Range;

use sqlb_core::mediator_state::{InteractionMemory, MediatorStateConfig};
use sqlb_core::{Allocation, CandidateInfo, Mediator};
use sqlb_obs::{Counter, Obs};
use sqlb_types::ProviderId;
use sqlb_types::{ConsumerId, ParticipantTable, Query, StableId};

use crate::config::Method;

/// Routes queries to mediator shards and owns the shard set.
#[derive(Debug)]
pub struct ShardRouter {
    shards: Vec<Mediator>,
    /// Which shard owns each (still-present) provider.
    assignment: ParticipantTable<ProviderId, usize>,
    /// Per-shard provider lists in ascending id order, maintained on
    /// removal. The arrival hot path borrows these directly — resolving a
    /// shard's candidate set is O(1) instead of a filter over the whole
    /// assignment table (which is O(P) per arrival, not O(P/K)).
    shard_providers: Vec<Vec<ProviderId>>,
    /// Mediator-side performed windows of providers that churned out of
    /// the system but may re-join ([`ShardRouter::churn_depart`]). Under
    /// the `Resume` re-join policy [`ShardRouter::readmit_provider`]
    /// absorbs the parked window back, so the mediator's view of a
    /// re-joining provider continues where it left off.
    parked: BTreeMap<ProviderId, InteractionMemory>,
    /// Every shard's consumer readings at the last synchronization round.
    board: SyncBoard,
    /// Completed synchronization rounds.
    sync_rounds: u64,
    /// Allocation decisions taken across all shards (a no-op handle until
    /// [`ShardRouter::set_obs`] installs an enabled sink).
    allocations: Counter,
}

/// One shard's reading of one consumer on the [`SyncBoard`].
#[derive(Debug, Clone, Copy, Default)]
struct Reading {
    shard: usize,
    satisfaction: f64,
    /// Local observations backing the reading; 0 once the consumer
    /// departed.
    weight: u64,
}

/// The consumer readings of the last synchronization round, grouped by
/// consumer in compressed-sparse-row form: the readings of the consumer
/// in slot `c` are `readings[offsets[c]..offsets[c + 1]]`, in shard
/// order. Both buffers keep their capacity across rounds.
#[derive(Debug, Default)]
struct SyncBoard {
    offsets: Vec<usize>,
    readings: Vec<Reading>,
}

impl SyncBoard {
    /// Replaces the board with every shard's current local readings
    /// (a counting sort by consumer slot, stable in shard order).
    fn rebuild(&mut self, shards: &[Mediator]) {
        self.offsets.clear();
        for shard in shards {
            for (consumer, _, _) in shard.state().consumer_readings() {
                let slot = consumer.slot();
                if self.offsets.len() < slot + 2 {
                    self.offsets.resize(slot + 2, 0);
                }
                self.offsets[slot + 1] += 1;
            }
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        let total = self.offsets.last().copied().unwrap_or(0);
        self.readings.clear();
        self.readings.resize(total, Reading::default());
        // `offsets[c]` serves as consumer `c`'s write cursor and ends at
        // the start of consumer `c + 1`; shifting by one restores it.
        for (index, shard) in shards.iter().enumerate() {
            for (consumer, satisfaction, weight) in shard.state().consumer_readings() {
                let cursor = &mut self.offsets[consumer.slot()];
                self.readings[*cursor] = Reading {
                    shard: index,
                    satisfaction,
                    weight,
                };
                *cursor += 1;
            }
        }
        self.offsets.rotate_right(1);
        if let Some(first) = self.offsets.first_mut() {
            *first = 0;
        }
    }

    /// Where the readings of `consumer` sit in `readings`.
    fn range(&self, consumer: ConsumerId) -> Option<Range<usize>> {
        let slot = consumer.slot();
        Some(*self.offsets.get(slot)?..*self.offsets.get(slot + 1)?)
    }

    /// What the shards other than `shard` read of `consumer`:
    /// `(mean satisfaction, total weight)`, or `None` when none of them
    /// observed it.
    fn peer_reading(&self, consumer: ConsumerId, shard: usize) -> Option<(f64, u64)> {
        let mut weighted = 0.0;
        let mut weight = 0;
        for reading in &self.readings[self.range(consumer)?] {
            if reading.shard != shard {
                weighted += reading.satisfaction * reading.weight as f64;
                weight += reading.weight;
            }
        }
        (weight > 0).then(|| (weighted / weight as f64, weight))
    }

    /// Drops a departed consumer's readings: all of them weigh 0 from now
    /// on, so no shard reads a peer reading of it until the next round,
    /// which no longer finds it.
    fn remove(&mut self, consumer: ConsumerId) {
        let range = self.range(consumer).unwrap_or_default();
        self.readings[range].iter_mut().for_each(|r| r.weight = 0);
    }
}

/// Derives the method seed of shard `i` from the run seed.
///
/// Shard 0 keeps the raw seed so a mono-mediator router consumes exactly
/// the random stream of the pre-sharding engine (the bit-identity pin).
/// Higher shards mix the seed through splitmix64's finalizer instead of
/// the old `seed + i`: plain addition collides with every other component
/// seeded at `seed + constant` (the engine's arrival RNG, repetition `i`
/// of an experiment at `seed + i`, ...), correlating streams that must be
/// independent.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        return seed;
    }
    // splitmix64: advance the state by `shard` golden-gamma steps, then
    // apply the output mix.
    let mut z = seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One provider re-assignment performed by [`ShardRouter::migrate_provider`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The provider that moved.
    pub provider: ProviderId,
    /// The shard that owned it.
    pub from: usize,
    /// The shard that owns it now.
    pub to: usize,
}

impl ShardRouter {
    /// Builds `shard_count` mediators running `method` and partitions the
    /// given providers across them round-robin by id. Each shard's method
    /// instance is seeded via [`shard_seed`], so shard 0 of a
    /// mono-mediator router behaves exactly like the pre-sharding engine.
    pub fn new(
        shard_count: usize,
        method: Method,
        seed: u64,
        state_config: MediatorStateConfig,
        providers: impl IntoIterator<Item = ProviderId>,
    ) -> Self {
        let shard_count = shard_count.max(1);
        let assignment: ParticipantTable<ProviderId, usize> = providers
            .into_iter()
            .map(|p| (p, p.slot() % shard_count))
            .collect();
        let shards = (0..shard_count)
            .map(|i| {
                // Shard `i` owns providers (and serves consumers) with
                // `id ≡ i (mod K)`, so its satisfaction tables are
                // stride-compacted to that residue class: per-shard state
                // stays O(P/K) no matter how many shards exist. At K = 1
                // the class is (0, 1), the identity mapping.
                Mediator::with_slot_stride(
                    method.build(shard_seed(seed, i)),
                    state_config,
                    i,
                    shard_count,
                )
            })
            .collect();
        let mut shard_providers = vec![Vec::new(); shard_count];
        for (p, &shard) in assignment.iter() {
            // `ParticipantTable::iter` is ascending by id, so each
            // per-shard list starts sorted.
            shard_providers[shard].push(p);
        }
        ShardRouter {
            shards,
            assignment,
            shard_providers,
            parked: BTreeMap::new(),
            board: SyncBoard::default(),
            sync_rounds: 0,
            allocations: Counter::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Propagates the scoring-kernel thread count to every shard's
    /// method. Deterministic at any value, so this is a performance knob,
    /// not a semantics knob.
    pub fn set_scoring_threads(&mut self, threads: usize) {
        for shard in &mut self.shards {
            shard.set_scoring_threads(threads);
        }
    }

    /// The shard that owns a provider, if the provider is still present.
    pub fn shard_of_provider(&self, provider: ProviderId) -> Option<usize> {
        self.assignment.get(provider).copied()
    }

    /// The providers a shard owns, in ascending id order. Borrows the
    /// incrementally maintained per-shard list — no per-call scan or
    /// allocation.
    pub fn providers_of_shard(&self, shard: usize) -> &[ProviderId] {
        &self.shard_providers[shard]
    }

    /// The mediator of a shard.
    pub fn mediator(&self, shard: usize) -> &Mediator {
        &self.shards[shard]
    }

    /// Installs an observability sink: every shard's allocation decisions
    /// count on one shared `mediator_allocations` counter (the per-shard
    /// totals are [`ShardRouter::allocations_per_shard`]).
    pub fn set_obs(&mut self, obs: &Obs) {
        self.allocations = obs.counter("mediator_allocations");
    }

    /// Runs the allocation decision on the given shard and records it in
    /// that shard's satisfaction state. The shard scores with its own
    /// reading of the query's consumer blended with the other shards'
    /// readings from the last synchronization round.
    pub fn allocate(
        &mut self,
        shard: usize,
        query: &Query,
        candidates: &[CandidateInfo],
    ) -> Allocation {
        let peers = self.board.peer_reading(query.consumer, shard);
        self.allocations.inc();
        self.shards[shard].allocate(query, candidates, peers)
    }

    /// Removes a departed provider from its shard's assignment, provider
    /// list and satisfaction state.
    pub fn remove_provider(&mut self, provider: ProviderId) {
        if let Some(shard) = self.assignment.remove(provider) {
            let list = &mut self.shard_providers[shard];
            if let Ok(pos) = list.binary_search(&provider) {
                list.remove(pos);
            }
            self.shards[shard].state_mut().remove_provider(provider);
        }
    }

    /// Removes a churning-out provider like [`ShardRouter::remove_provider`],
    /// but parks its mediator-side performed window so a later
    /// [`ShardRouter::readmit_provider`] can resume it. A provider that
    /// never performed a query on the shard has no window to park; it
    /// re-joins reading the initial satisfaction, as it left.
    pub fn churn_depart(&mut self, provider: ProviderId) {
        if let Some(shard) = self.assignment.remove(provider) {
            let list = &mut self.shard_providers[shard];
            if let Ok(pos) = list.binary_search(&provider) {
                list.remove(pos);
            }
            if let Some(window) = self.shards[shard].state_mut().export_provider(provider) {
                self.parked.insert(provider, window);
            }
        }
    }

    /// Re-admits a churned-out provider on its home residue shard
    /// (`slot % K` — always compatible with the stride-compacted state
    /// layout, whichever shard it had migrated to before departing).
    /// `resume` absorbs the window parked by
    /// [`ShardRouter::churn_depart`] (the `Resume` re-join policy);
    /// otherwise — `Reset`, or nothing was parked — the provider starts
    /// fresh, with no window. Returns the shard it now lives on, or `None`
    /// when the provider is already present.
    pub fn readmit_provider(&mut self, provider: ProviderId, resume: bool) -> Option<usize> {
        if self.assignment.get(provider).is_some() {
            return None;
        }
        let shard = provider.slot() % self.shards.len();
        self.assignment.insert(provider, shard);
        let list = &mut self.shard_providers[shard];
        if let Err(pos) = list.binary_search(&provider) {
            list.insert(pos, provider);
        }
        if let Some(window) = self.parked.remove(&provider).filter(|_| resume) {
            self.shards[shard]
                .state_mut()
                .absorb_provider(provider, window);
        }
        Some(shard)
    }

    /// Removes a departed consumer from every shard's satisfaction state
    /// and from the sync board.
    pub fn remove_consumer(&mut self, consumer: ConsumerId) {
        for shard in &mut self.shards {
            shard.state_mut().remove_consumer(consumer);
        }
        self.board.remove(consumer);
    }

    /// Re-assigns a provider to the shard `to`, carrying its full
    /// satisfaction history across via
    /// [`sqlb_core::mediator_state::MediatorState::export_provider`] /
    /// [`absorb_provider`](sqlb_core::mediator_state::MediatorState::absorb_provider),
    /// so the move loses no observations. Returns the performed
    /// [`Migration`], or `None` when the provider has departed, `to` is
    /// out of range, or the provider already lives on `to`.
    pub fn migrate_provider(&mut self, provider: ProviderId, to: usize) -> Option<Migration> {
        let from = *self.assignment.get(provider)?;
        if to >= self.shards.len() || from == to {
            return None;
        }
        let source = &mut self.shard_providers[from];
        if let Ok(pos) = source.binary_search(&provider) {
            source.remove(pos);
        }
        let destination = &mut self.shard_providers[to];
        if let Err(pos) = destination.binary_search(&provider) {
            destination.insert(pos, provider);
        }
        *self.assignment.get_mut(provider)? = to;
        // A provider that never performed on the donor shard carries no
        // window: it reads the initial satisfaction on the receiver too.
        if let Some(window) = self.shards[from].state_mut().export_provider(provider) {
            self.shards[to]
                .state_mut()
                .absorb_provider(provider, window);
        }
        Some(Migration { provider, from, to })
    }

    /// One satisfaction-view synchronization round: rebuilds the sync
    /// board from every shard's live consumer readings. A no-op with one
    /// shard, which has no peers.
    pub fn sync_views(&mut self) {
        if self.shards.len() < 2 {
            return;
        }
        self.board.rebuild(&self.shards);
        self.sync_rounds += 1;
    }

    /// Completed synchronization rounds.
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds
    }

    /// Allocations performed per shard, in shard order.
    pub fn allocations_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|m| m.state().allocations())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{LeastLoadedRouting, RoutingPolicy, ShardLoadView};
    use sqlb_core::allocation::MediatorView;
    use sqlb_types::{QueryClass, QueryId, SimTime};

    fn router(k: usize, providers: u32) -> ShardRouter {
        ShardRouter::new(
            k,
            Method::Sqlb,
            42,
            MediatorStateConfig::default(),
            (0..providers).map(ProviderId::new),
        )
    }

    #[test]
    fn k1_owns_everything_in_shard_zero() {
        let r = router(1, 5);
        assert_eq!(r.shard_count(), 1);
        for p in 0..5 {
            assert_eq!(r.shard_of_provider(ProviderId::new(p)), Some(0));
        }
        assert_eq!(
            r.providers_of_shard(0).len(),
            5,
            "shard 0 sees every provider"
        );
    }

    #[test]
    fn partition_is_round_robin_and_total() {
        let r = router(4, 10);
        for p in 0..10u32 {
            assert_eq!(
                r.shard_of_provider(ProviderId::new(p)),
                Some(p as usize % 4)
            );
        }
        let total: usize = (0..4).map(|s| r.providers_of_shard(s).len()).sum();
        assert_eq!(total, 10);
        // Each per-shard list is ascending by id.
        for s in 0..4 {
            let list = r.providers_of_shard(s);
            assert!(list.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn removal_forgets_the_provider_everywhere() {
        let mut r = router(2, 4);
        r.remove_provider(ProviderId::new(2));
        assert_eq!(r.shard_of_provider(ProviderId::new(2)), None);
        assert!(r
            .providers_of_shard(0)
            .iter()
            .all(|&p| p != ProviderId::new(2)));
        // Removing again is a no-op.
        r.remove_provider(ProviderId::new(2));
        assert_eq!(r.providers_of_shard(0).len(), 1);
    }

    /// The consumer satisfaction shard `shard` scores `consumer`'s
    /// queries with: its live local reading blended with the board.
    fn view(r: &ShardRouter, shard: usize, consumer: ConsumerId) -> f64 {
        r.mediator(shard)
            .state()
            .blended_consumer_satisfaction(consumer, r.board.peer_reading(consumer, shard))
    }

    /// Serves `consumer` perfectly `queries` times on `shard`.
    fn serve(r: &mut ShardRouter, shard: usize, consumer: ConsumerId, queries: u32) {
        for i in 0..queries {
            let q = Query::single(QueryId::new(i), consumer, QueryClass::Light, SimTime::ZERO);
            let infos = vec![CandidateInfo::new(r.providers_of_shard(shard)[0])
                .with_consumer_intention(1.0)
                .with_provider_intention(1.0)];
            r.allocate(shard, &q, &infos);
        }
    }

    /// `queries` queries of consumers `0..consumers`, each routed by
    /// least-loaded routing over equal shard capacities and adding its
    /// work to its shard's backlog, so consumers reach several shards.
    /// Consumer intentions vary by query, so shards read a consumer
    /// differently.
    fn least_loaded_traffic(r: &mut ShardRouter, queries: u32, consumers: u32) {
        let capacity = vec![1.0; r.shard_count()];
        let mut backlog = vec![0.0; r.shard_count()];
        for i in 0..queries {
            let consumer = ConsumerId::new(i % consumers);
            let loads = ShardLoadView {
                backlog: &backlog,
                capacity: &capacity,
            };
            let shard = LeastLoadedRouting.route(consumer, r, loads);
            let infos: Vec<_> = r
                .providers_of_shard(shard)
                .iter()
                .map(|&p| {
                    CandidateInfo::new(p)
                        .with_consumer_intention(f64::from((i * 7 + p.raw()) % 11) / 5.0 - 1.0)
                        .with_provider_intention(0.5)
                })
                .collect();
            let q = Query::single(QueryId::new(i), consumer, QueryClass::Light, SimTime::ZERO);
            r.allocate(shard, &q, &infos);
            backlog[shard] += f64::from(1 + i % 3);
        }
    }

    /// Bit patterns of a board reading, so equality is exact.
    fn bits(reading: Option<(f64, u64)>) -> Option<(u64, u64)> {
        reading.map(|(satisfaction, weight)| (satisfaction.to_bits(), weight))
    }

    #[test]
    fn sync_propagates_consumer_views_across_shards() {
        let mut r = router(2, 4);
        let consumer = ConsumerId::new(0);
        // Shard 0 repeatedly sees the consumer perfectly served.
        serve(&mut r, 0, consumer, 10);
        assert_eq!(view(&r, 1, consumer), 0.5);
        r.sync_views();
        let after = view(&r, 1, consumer);
        assert!(after > 0.9, "sync should carry the view over, got {after}");
        // The board lives in the router: shard 1's own state still has
        // no reading of the consumer.
        assert_eq!(r.mediator(1).state().consumer_satisfaction(consumer), 0.5);
        assert_eq!(r.sync_rounds(), 1);
    }

    #[test]
    fn board_readings_are_the_other_shards_readings_summed_in_shard_order() {
        let mut r = router(4, 16);
        least_loaded_traffic(&mut r, 240, 6);
        // A second round over unchanged windows rebuilds the same board:
        // nothing is counted twice.
        r.sync_views();
        r.sync_views();
        let mut spread = 0;
        for c in 0..6 {
            let consumer = ConsumerId::new(c);
            let local = |shard: usize| {
                r.mediator(shard)
                    .state()
                    .consumer_readings()
                    .find(|&(c, _, _)| c == consumer)
                    .map(|(_, satisfaction, weight)| (satisfaction, weight))
            };
            if (0..4).filter(|&s| local(s).is_some()).count() > 1 {
                spread += 1;
            }
            for shard in 0..4 {
                let mut weighted = 0.0;
                let mut weight = 0;
                for (satisfaction, w) in (0..4).filter(|&o| o != shard).filter_map(local) {
                    weighted += satisfaction * w as f64;
                    weight += w;
                }
                let expected = (weight > 0).then(|| (weighted / weight as f64, weight));
                assert_eq!(
                    bits(r.board.peer_reading(consumer, shard)),
                    bits(expected),
                    "consumer {c}, shard {shard}"
                );
            }
        }
        assert!(spread > 0, "least-loaded routing must spread consumers");
    }

    #[test]
    fn a_shard_never_counts_its_own_reading() {
        let mut r = router(2, 4);
        let consumer = ConsumerId::new(0);
        serve(&mut r, 0, consumer, 10);
        r.sync_views();
        assert_eq!(r.board.peer_reading(consumer, 0), None);
        assert!(r.board.peer_reading(consumer, 1).is_some());
        // Shard 0 keeps scoring with its live local reading, which moves
        // after the round, not with its own published copy.
        let q = Query::single(QueryId::new(99), consumer, QueryClass::Light, SimTime::ZERO);
        let infos = vec![CandidateInfo::new(ProviderId::new(0))
            .with_consumer_intention(-1.0)
            .with_provider_intention(1.0)];
        r.allocate(0, &q, &infos);
        let live = r.mediator(0).state().consumer_satisfaction(consumer);
        assert_eq!(view(&r, 0, consumer).to_bits(), live.to_bits());
    }

    #[test]
    fn a_departed_consumer_leaves_the_board_at_once_and_for_good() {
        let mut r = router(4, 16);
        least_loaded_traffic(&mut r, 240, 6);
        r.sync_views();
        let departed = ConsumerId::new(2);
        let stays = ConsumerId::new(3);
        let kept: Vec<_> = (0..4)
            .map(|s| bits(r.board.peer_reading(stays, s)))
            .collect();
        assert!((0..4).any(|s| r.board.peer_reading(departed, s).is_some()));
        r.remove_consumer(departed);
        for _ in 0..2 {
            for shard in 0..4 {
                assert_eq!(r.board.peer_reading(departed, shard), None);
                assert_eq!(view(&r, shard, departed), 0.5);
            }
            r.sync_views();
        }
        let after: Vec<_> = (0..4)
            .map(|s| bits(r.board.peer_reading(stays, s)))
            .collect();
        assert_eq!(kept, after, "other consumers keep their readings");
    }

    #[test]
    fn k1_sync_is_a_no_op() {
        let mut r = router(1, 2);
        r.sync_views();
        assert_eq!(r.sync_rounds(), 0);
    }

    #[test]
    fn shard_zero_keeps_the_raw_seed() {
        // The K=1 bit-identity contract: shard 0's method must consume
        // exactly the stream the pre-sharding engine did.
        assert_eq!(shard_seed(42, 0), 42);
        assert_eq!(shard_seed(u64::MAX, 0), u64::MAX);
    }

    #[test]
    fn shard_seeds_do_not_collide_with_additive_seeding() {
        // The old scheme was `seed + i`, which collided with any component
        // seeded at `seed + constant` (e.g. experiment repetition `i`).
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            for i in 1..16usize {
                let mixed = shard_seed(seed, i);
                assert_ne!(mixed, seed.wrapping_add(i as u64), "seed {seed}, shard {i}");
                // And distinct shards get distinct seeds.
                for j in 1..i {
                    assert_ne!(mixed, shard_seed(seed, j));
                }
            }
        }
    }

    #[test]
    fn migration_moves_ownership_and_history() {
        let mut r = router(2, 4);
        let provider = ProviderId::new(0); // shard 0
        let q = Query::single(
            QueryId::new(0),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        for _ in 0..8 {
            let infos = vec![CandidateInfo::new(provider)
                .with_consumer_intention(1.0)
                .with_provider_intention(1.0)];
            r.allocate(0, &q, &infos);
        }
        let history = r.mediator(0).state().provider_satisfaction(provider);
        assert!(history > 0.9);

        let migration = r.migrate_provider(provider, 1).unwrap();
        assert_eq!(
            migration,
            Migration {
                provider,
                from: 0,
                to: 1
            }
        );
        assert_eq!(r.shard_of_provider(provider), Some(1));
        assert!(r.providers_of_shard(0).binary_search(&provider).is_err());
        assert!(r.providers_of_shard(1).binary_search(&provider).is_ok());
        // The per-shard lists stay sorted after the insertion.
        assert!(r.providers_of_shard(1).windows(2).all(|w| w[0] < w[1]));
        // The satisfaction history moved with the provider.
        assert_eq!(
            r.mediator(1).state().provider_satisfaction(provider),
            history
        );
        assert_eq!(r.mediator(0).state().performed_window_len(provider), 0);

        // Degenerate moves are rejected.
        assert_eq!(r.migrate_provider(provider, 1), None, "already there");
        assert_eq!(r.migrate_provider(provider, 9), None, "out of range");
        r.remove_provider(provider);
        assert_eq!(r.migrate_provider(provider, 0), None, "departed");
    }

    #[test]
    fn migrating_an_unobserved_provider_registers_it_fresh() {
        let mut r = router(2, 4);
        let provider = ProviderId::new(2); // shard 0, never allocated to
        r.migrate_provider(provider, 1).unwrap();
        assert_eq!(r.shard_of_provider(provider), Some(1));
        assert_eq!(r.mediator(1).state().performed_window_len(provider), 0);
        assert_eq!(r.mediator(1).state().provider_satisfaction(provider), 0.5);
    }

    #[test]
    fn churn_parks_history_and_resume_restores_it() {
        let mut r = router(2, 4);
        let provider = ProviderId::new(0); // shard 0
        let q = Query::single(
            QueryId::new(0),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        for _ in 0..8 {
            let infos = vec![CandidateInfo::new(provider)
                .with_consumer_intention(1.0)
                .with_provider_intention(1.0)];
            r.allocate(0, &q, &infos);
        }
        let history = r.mediator(0).state().provider_satisfaction(provider);
        assert!(history > 0.9);

        r.churn_depart(provider);
        assert_eq!(r.shard_of_provider(provider), None);
        assert_eq!(r.mediator(0).state().performed_window_len(provider), 0);

        // Resume: the mediator's view continues where it left off, on the
        // home residue shard.
        assert_eq!(r.readmit_provider(provider, true), Some(0));
        assert_eq!(r.shard_of_provider(provider), Some(0));
        assert!(r.providers_of_shard(0).binary_search(&provider).is_ok());
        assert!(r.providers_of_shard(0).windows(2).all(|w| w[0] < w[1]));
        assert_eq!(
            r.mediator(0).state().provider_satisfaction(provider),
            history
        );
        // Re-admitting a present provider is rejected.
        assert_eq!(r.readmit_provider(provider, true), None);
    }

    #[test]
    fn churn_reset_registers_the_provider_fresh() {
        let mut r = router(2, 4);
        let provider = ProviderId::new(1); // shard 1
        let q = Query::single(
            QueryId::new(0),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        for _ in 0..8 {
            let infos = vec![CandidateInfo::new(provider)
                .with_consumer_intention(1.0)
                .with_provider_intention(1.0)];
            r.allocate(1, &q, &infos);
        }
        assert!(r.mediator(1).state().provider_satisfaction(provider) > 0.9);
        r.churn_depart(provider);
        assert_eq!(r.readmit_provider(provider, false), Some(1));
        // Reset: back to the initial satisfaction.
        assert_eq!(r.mediator(1).state().provider_satisfaction(provider), 0.5);
        // The parked window was discarded, so a later resume cannot
        // resurrect it either.
        r.churn_depart(provider);
        assert_eq!(r.readmit_provider(provider, true), Some(1));
        assert_eq!(r.mediator(1).state().provider_satisfaction(provider), 0.5);
    }

    #[test]
    fn churn_of_an_unobserved_provider_readmits_fresh() {
        let mut r = router(2, 4);
        let provider = ProviderId::new(3); // shard 1, never allocated to
        r.churn_depart(provider);
        assert_eq!(r.readmit_provider(provider, true), Some(1));
        assert_eq!(r.mediator(1).state().provider_satisfaction(provider), 0.5);
    }

    #[test]
    fn allocation_counters_aggregate() {
        let mut r = router(2, 2);
        let q = Query::single(
            QueryId::new(0),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let infos = vec![CandidateInfo::new(ProviderId::new(0))
            .with_consumer_intention(0.5)
            .with_provider_intention(0.5)];
        r.allocate(0, &q, &infos);
        r.allocate(1, &q, &infos);
        r.allocate(1, &q, &infos);
        assert_eq!(r.allocations_per_shard(), vec![1, 2]);
    }
}
