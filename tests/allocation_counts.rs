//! Exact heap-allocation pins.
//!
//! Wall-clock gates cannot catch a 10 % regression on a noisy host;
//! allocation counts do not drift. This binary installs a counting global
//! allocator (per thread, so concurrently running tests do not see each
//! other's allocations) and pins:
//!
//! * what building a provider's satisfaction state costs — the windows
//!   must stay lazily allocated, or setup at 10⁵–10⁶ participants pays for
//!   every empty window up front;
//! * what a fixed number of steady-state inline arrivals costs at a fixed
//!   seed, after a warm-up that fills every proposal window;
//! * what building and running one small simulation costs end to end on
//!   the inline and on the reactor backend — the engine's own arrival
//!   path (`Simulator::handle_arrival`), not a hand-written copy of it;
//! * what the 32 × 64 shard-throughput run costs at K = 1, 2, 4 and 8
//!   mediator shards, so shard routing and the satisfaction-view sync
//!   exchange are pinned too.
//!
//! An "allocation" is one call to `alloc`, `alloc_zeroed` or `realloc`.
//! A change to a pinned count is a behaviour change: update the pin only
//! with a measured reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sqlb::agents::{ConsumerConfig, Population, PopulationConfig, ProviderAgent, ProviderConfig};
use sqlb::core::mediator_state::MediatorStateConfig;
use sqlb::core::{CandidateInfo, SelectionSet};
use sqlb::reputation::ReputationStore;
use sqlb::satisfaction::ProviderTracker;
use sqlb::sim::{MediationMode, Method, ShardRouter, SimulationConfig, Simulator, WorkloadPattern};
use sqlb::types::{Capacity, Preference, ProviderId, Query, QueryClass, QueryId, SimTime};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialized thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the number of allocations it made
/// on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn building_provider_satisfaction_state_allocates_only_the_preference_table() {
    let (_, tracker) = counted(|| ProviderTracker::new(500, 500, 0.5));
    assert_eq!(
        tracker, 0,
        "ProviderTracker::new allocates its windows lazily"
    );

    let preferences = vec![Preference::new(0.4), Preference::new(-0.2)];
    let (_, agent) = counted(|| {
        ProviderAgent::new(
            ProviderId::new(0),
            Capacity::new(100.0),
            preferences,
            ProviderConfig::default(),
        )
    });
    assert_eq!(
        agent, 1,
        "ProviderAgent::new allocates its preference table and nothing else"
    );
}

/// A mono-mediator SQLB system driven one inline arrival at a time
/// through the same public layer calls the engine's inline backend makes:
/// gather both sides' intentions, allocate, record every candidate's
/// proposal, assign and complete the selected providers.
struct InlineSystem {
    population: Population,
    router: ShardRouter,
    reputation: ReputationStore,
    infos: Vec<CandidateInfo>,
    shown: Vec<f64>,
    selected: Vec<usize>,
    selection: SelectionSet,
    arrivals: u32,
    /// Allocations made inside `ShardRouter::allocate` so far.
    allocator_allocations: u64,
}

impl InlineSystem {
    fn new(seed: u64) -> Self {
        // Short windows, so a short warm-up fills every one of them.
        let paper = PopulationConfig::paper(seed);
        let config = PopulationConfig {
            consumers: 16,
            providers: 48,
            consumer_config: ConsumerConfig {
                memory: 20,
                ..paper.consumer_config
            },
            provider_config: ProviderConfig {
                proposed_memory: 50,
                performed_memory: 50,
                ..paper.provider_config
            },
            ..paper
        };
        let population = Population::generate(&config).expect("valid population");
        let provider_config = config.provider_config;
        let router = ShardRouter::new(
            1,
            Method::Sqlb,
            seed,
            MediatorStateConfig {
                consumer_window: config.consumer_config.memory,
                provider_proposed_window: provider_config.proposed_memory,
                provider_performed_window: provider_config.performed_memory,
                initial_satisfaction: provider_config.initial_satisfaction,
            },
            population.providers.keys(),
        );
        InlineSystem {
            population,
            router,
            reputation: ReputationStore::neutral(),
            infos: Vec::new(),
            shown: Vec::new(),
            selected: Vec::new(),
            selection: SelectionSet::default(),
            arrivals: 0,
            allocator_allocations: 0,
        }
    }

    fn arrive(&mut self) {
        let i = self.arrivals;
        self.arrivals += 1;
        let consumers = self.population.active_consumer_ids();
        let consumer = consumers[(i as usize * 7) % consumers.len()];
        let class = if i.is_multiple_of(3) {
            QueryClass::Heavy
        } else {
            QueryClass::Light
        };
        let now = SimTime::from_secs(f64::from(i) * 0.05);
        let query = Query::single(QueryId::new(i), consumer, class, now);

        self.infos.clear();
        let consumer_agent = &self.population.consumers[consumer];
        for &p in self.router.providers_of_shard(0) {
            let ci = consumer_agent.intention_for(&query, p, &self.reputation);
            let (pi, utilization) =
                self.population.providers[p].intention_and_utilization(&query, now);
            self.infos.push(
                CandidateInfo::new(p)
                    .with_consumer_intention(ci)
                    .with_provider_intention(pi)
                    .with_utilization(utilization),
            );
        }
        let (allocation, allocations) = counted(|| self.router.allocate(0, &query, &self.infos));
        self.allocator_allocations += allocations;

        self.selection.rebuild(&allocation);
        let selection = &self.selection;
        self.shown.clear();
        self.shown
            .extend(self.infos.iter().map(|info| info.consumer_intention));
        self.selected.clear();
        self.selected.extend(
            self.infos
                .iter()
                .enumerate()
                .filter(|(_, info)| selection.contains(info.provider))
                .map(|(idx, _)| idx),
        );
        self.population.consumers[consumer].record_allocation(&self.shown, &self.selected, query.n);
        for info in &self.infos {
            self.population.providers[info.provider].record_proposal(
                &query,
                info.provider_intention,
                selection.contains(info.provider),
            );
        }
        for &p in &allocation.selected {
            let provider = &mut self.population.providers[p];
            provider.assign(&query, now);
            provider.complete(query.cost());
        }
    }
}

#[test]
fn steady_state_inline_arrivals_allocate_a_pinned_count() {
    const WARM_UP: u32 = 20_000;
    const MEASURED: u32 = 500;
    let mut system = InlineSystem::new(7);
    for _ in 0..WARM_UP {
        system.arrive();
    }
    let in_allocate_before = system.allocator_allocations;
    let (_, allocations) = counted(|| {
        for _ in 0..MEASURED {
            system.arrive();
        }
    });
    // One per arrival, all inside the allocation call: the `selected`
    // vector of the returned `Allocation`. Gathering, scoring state and
    // every satisfaction window allocate nothing once warm.
    assert_eq!(
        allocations,
        u64::from(MEASURED),
        "{MEASURED} steady-state inline arrivals after {WARM_UP} warm-up arrivals"
    );
    assert_eq!(
        system.allocator_allocations - in_allocate_before,
        u64::from(MEASURED)
    );
}

/// Allocations of [`engine_run_allocations`] on the inline backend.
const INLINE_RUN_PIN: u64 = 2050;
/// Allocations of [`engine_run_allocations`] on the reactor backend: the
/// inline count plus each wave's boxed jobs and reply vectors.
const REACTOR_RUN_PIN: u64 = 9587;

/// Allocations made by `Simulator::new` plus `run` for one small fixed
/// run on `mediation`: population build, backend set-up, every arrival,
/// completion and periodic sweep, and the report.
fn engine_run_allocations(mediation: MediationMode) -> u64 {
    let config = SimulationConfig::scaled(8, 16, 60.0, 7)
        .with_workload(WorkloadPattern::Fixed(0.5))
        .with_mediation(mediation)
        .with_scoring_threads(1)
        .with_observability(false);
    let (report, allocations) = counted(|| {
        Simulator::new(config, Method::Sqlb)
            .expect("valid config")
            .run()
    });
    assert!(report.completed_queries > 0);
    allocations
}

#[test]
fn an_inline_engine_run_allocates_a_pinned_count() {
    assert_eq!(
        engine_run_allocations(MediationMode::Inline),
        INLINE_RUN_PIN
    );
}

#[test]
fn a_reactor_engine_run_allocates_a_pinned_count() {
    assert_eq!(
        engine_run_allocations(MediationMode::Reactor),
        REACTOR_RUN_PIN
    );
}

/// Allocations of [`sharded_run_allocations`] at K = 1, 2, 4 and 8
/// mediator shards. Past K = 1 they cover `ShardRouter` routing and the
/// periodic `SyncViews` exchange of satisfaction digests between shards.
const SHARDED_RUN_PINS: [(usize, u64); 4] = [(1, 12_540), (2, 13_336), (4, 13_672), (8, 13_850)];

/// Allocations made by `Simulator::new` plus `run` for the 32 × 64
/// shard-throughput configuration of the `allocation` bench
/// (`sqlb_bench::perf::bench_config`, inlined here: the facade does not
/// depend on the bench crate), inline, on one scoring thread.
fn sharded_run_allocations(shards: usize) -> u64 {
    let config = SimulationConfig::scaled(32, 64, 400.0, 7)
        .with_workload(WorkloadPattern::Fixed(0.6))
        .with_mediator_shards(shards)
        .with_scoring_threads(1)
        .with_observability(false);
    let (report, allocations) = counted(|| {
        Simulator::new(config, Method::Sqlb)
            .expect("valid config")
            .run()
    });
    assert_eq!(report.issued_queries, 5753, "K={shards}");
    allocations
}

#[test]
fn sharded_engine_runs_allocate_pinned_counts() {
    for (shards, pin) in SHARDED_RUN_PINS {
        assert_eq!(sharded_run_allocations(shards), pin, "K={shards}");
    }
}
