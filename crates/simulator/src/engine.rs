//! The discrete-event simulation engine.
//!
//! The engine reproduces the system of Section 6.1, generalized to be
//! mediator-count-agnostic: queries arrive following a Poisson process
//! whose intensity is a fraction of the total system capacity, the
//! responsible mediator shard gathers intentions (and bids, for the
//! economic method) from the issuing consumer and every candidate provider
//! it owns, the allocation method under test picks the providers, and the
//! selected providers treat the query on a FIFO queue bounded only by
//! their capacity. Metrics are sampled periodically; in autonomous
//! experiments a periodic assessment lets dissatisfied, starved or
//! overutilized participants leave the system.
//!
//! With `mediator_shards = 1` (the default, and the paper's setup) a
//! single shard owns every provider and the engine is exactly the
//! mono-mediator pipeline. With `K > 1`, providers are partitioned across
//! `K` [`sqlb_core::Mediator`]s by the [`crate::shard::ShardRouter`],
//! queries route to the shard of their consumer, and a periodic
//! [`Event::SyncViews`] rebuilds the router's sync board of every shard's
//! consumer readings.
//!
//! All per-participant engine state (queue drain times, departure strikes)
//! lives in [`ParticipantTable`]s keyed by stable ids, never in vectors
//! indexed by a participant's initial position: a departure can therefore
//! never redirect state updates to the wrong survivor.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sqlb_agents::{Population, ProviderAgent};
use sqlb_core::allocation::{CandidateInfo, MediatorView, SelectionSet};
use sqlb_core::mediator_state::MediatorStateConfig;
use sqlb_mediation::{
    candidate_info, run_wave_threaded, IntentionWave, Latency, ProviderAnswer, Reactor,
    RuntimeConfig,
};
use sqlb_metrics::{Moments, Summary, TimeSeries};
use sqlb_obs::{Counter as ObsCounter, EventKind, Histogram as ObsHistogram, Obs};
use sqlb_reputation::ReputationStore;
use sqlb_transport::{HostFault, ServerConfig, SocketMediator, WaveJobs};
use sqlb_types::{
    ConsumerId, ParticipantTable, ProviderId, Query, QueryClass, QueryId, SimTime, SlotColumn,
    SqlbError,
};

use crate::config::{MediationMode, Method, SimulationConfig};
use crate::events::{Event, EventQueue};
use crate::routing::{RoutingPolicy, ShardLoadView};
use crate::scenario::{CompiledChurnGroup, RejoinPolicy, Scenario, TransportFault};
use crate::shard::ShardRouter;
use crate::stats::{
    ConsumerDepartureRecord, DepartureRecord, MetricSeries, MigrationRecord, SimulationReport,
};
use crate::workload::{arrival_rate, sample_interarrival};

/// Reusable per-simulator buffers for the arrival hot path. Every arrival
/// used to allocate ~5 fresh vectors before computing a single intention;
/// with the arena, steady-state arrivals gather intentions, run the
/// allocation decision and record the outcome without touching the heap
/// (buffers grow to the candidate-set high-water mark and stay there).
#[derive(Debug, Default)]
struct ArrivalScratch {
    /// Candidate information gathered for the current query (`P_q`).
    infos: Vec<CandidateInfo>,
    /// Consumer intentions shown over `P_q`, in candidate order.
    shown_cis: Vec<f64>,
    /// Indices into `infos` of the selected providers.
    selected_indices: Vec<usize>,
    /// Id-sorted index over the allocation's selected providers.
    selection: SelectionSet,
}

/// Pre-resolved engine-level observability instruments (`sqlb-obs`).
/// Resolved once at build time; when the run's [`Obs`] handle is
/// disabled every handle is a no-op, so each hot-path site pays a
/// single predictable branch and nothing else.
#[derive(Debug, Default)]
struct EngineMetrics {
    /// Queries issued by consumers (mirrors the report counter).
    queries_issued: ObsCounter,
    /// Queries whose results were delivered.
    queries_completed: ObsCounter,
    /// Queries no provider-bearing shard could take.
    queries_unallocated: ObsCounter,
    /// Replies degraded to indifference, unified across backends: wire
    /// timeouts and dead connections on the socket transport, the
    /// fabricated indifference of scenario-faulted endpoints on the
    /// in-process backends. One counter, whatever the backend — the
    /// per-backend split stays visible through the transport's own
    /// `replies_timed_out` and the scenario accounting.
    indifferent_replies: ObsCounter,
    /// Mediation waves that completed with at least one degraded reply.
    degraded_waves: ObsCounter,
    /// Providers taken down by scenario churn groups.
    churn_departures: ObsCounter,
    /// Providers brought back by scenario churn groups.
    churn_rejoins: ObsCounter,
    /// Cross-shard provider migrations performed by rebalancing.
    migrations: ObsCounter,
    /// Response-time distribution of completed queries (virtual
    /// seconds).
    response_time_seconds: ObsHistogram,
}

impl EngineMetrics {
    fn resolve(obs: &Obs) -> Self {
        EngineMetrics {
            queries_issued: obs.counter("queries_issued"),
            queries_completed: obs.counter("queries_completed"),
            queries_unallocated: obs.counter("queries_unallocated"),
            indifferent_replies: obs.counter("indifferent_replies"),
            degraded_waves: obs.counter("degraded_waves"),
            churn_departures: obs.counter("churn_departures"),
            churn_rejoins: obs.counter("churn_rejoins"),
            migrations: obs.counter("provider_migrations"),
            response_time_seconds: obs.histogram("response_time_seconds"),
        }
    }
}

/// Run state of an attached [`Scenario`]: the declarative description
/// (arrival modifiers are evaluated from it directly), the compiled
/// churn groups, the fault list, and the accounting the report carries.
struct ScenarioState {
    description: Scenario,
    groups: Vec<CompiledChurnGroup>,
    /// Per churn group: the members this run actually took down (a
    /// member that had already departed behaviorally is skipped and
    /// must not re-join).
    departed_members: Vec<Vec<ProviderId>>,
    faults: Vec<TransportFault>,
    churn_departures: u64,
    churn_rejoins: u64,
    /// Indifference fabricated for scenario-faulted endpoints on the
    /// in-process backends (the socket backend counts real wire
    /// timeouts instead — see
    /// [`SimulationReport::indifferent_replies`]).
    fault_indifference: u64,
}

/// The hosts whose replies are lost in the wave being issued now: the
/// one reading of the scenario's [`TransportFault`]s
/// ([`Simulator::down_hosts`]) that every backend applies. Hosts are the
/// socket backend's partition (`raw id % socket_hosts`), which the
/// in-process backends model the faults against too, so fault runs stay
/// digest-comparable across backends. Empty (no allocation) outside
/// scenario fault windows.
struct DownHosts {
    /// Per down host, the wire fault the socket backend injects on it.
    faults: Vec<(usize, HostFault)>,
    /// Size of the host partition.
    hosts: usize,
}

impl DownHosts {
    /// Whether the endpoint with this raw id sits on a down host.
    fn is_down(&self, raw: u32) -> bool {
        !self.faults.is_empty() && {
            let host = raw as usize % self.hosts;
            self.faults.iter().any(|&(h, _)| h == host)
        }
    }

    /// The per-wave latency override of that endpoint on the reactor and
    /// threaded backends: a down host's endpoints never answer, so the
    /// wave reads them as indifference at its deadline.
    fn latency(&self, raw: u32) -> Option<Latency> {
        self.is_down(raw).then_some(Latency::Never)
    }
}

/// A provider's Definition 8 answer to `query`: its intention, its
/// utilization and, when the method asks for one, its bid. Every backend
/// computes a provider's reply through this one function.
fn provider_answer(
    agent: &mut ProviderAgent,
    query: &Query,
    now: SimTime,
    request_bids: bool,
) -> ProviderAnswer {
    let (intention, utilization) = agent.intention_and_utilization(query, now);
    ProviderAnswer {
        query: query.id,
        intention,
        utilization,
        bid: request_bids.then(|| agent.bid_for(query, now)),
    }
}

/// The mediation backend the engine gathers intentions through — the
/// runtime realization of [`MediationMode`]. All four backends ask the
/// same agents the same questions in the same per-participant order, so
/// reports are bit-identical across them for a given seed.
enum MediationDriver {
    /// Direct in-process calls on the arrival hot path (the default).
    Inline,
    /// One scoped OS thread per participant request, per arrival, with a
    /// real deadline ([`run_wave_threaded`]) — the comparison backend.
    Threaded,
    /// The asynchronous reactor: the engine registers every participant
    /// as a polled endpoint at start-up, deregisters it on departure, and
    /// runs each arrival's gather as one reactor wave.
    Reactor(Box<Reactor>),
    /// The socket transport: a loopback wave server plus participant-host
    /// connections (`sqlb-transport`). Every arrival's gather crosses
    /// real TCP sockets as framed bytes; endpoints are announced at
    /// start-up and deregistered on departure, and a host whose last
    /// endpoint departs has its connection closed.
    Socket(Box<SocketMediator>),
}

impl MediationDriver {
    /// Removes a departed consumer's endpoint (the inline and threaded
    /// backends keep no endpoints).
    fn deregister_consumer(&mut self, id: ConsumerId) {
        match self {
            MediationDriver::Reactor(reactor) => reactor.deregister_consumer(id),
            MediationDriver::Socket(socket) => socket.deregister_consumer(id),
            MediationDriver::Inline | MediationDriver::Threaded => {}
        }
    }

    /// Removes a departed or churned-out provider's endpoint.
    fn deregister_provider(&mut self, id: ProviderId) {
        match self {
            MediationDriver::Reactor(reactor) => reactor.deregister_provider(id),
            MediationDriver::Socket(socket) => socket.deregister_provider(id),
            MediationDriver::Inline | MediationDriver::Threaded => {}
        }
    }

    /// Re-announces a re-joining provider's endpoint (the socket backend
    /// reconnects its host if the host's link is gone).
    fn register_provider(&mut self, id: ProviderId) {
        match self {
            MediationDriver::Reactor(reactor) => {
                reactor.register_provider(id, Latency::Immediate);
            }
            MediationDriver::Socket(socket) => socket
                .register_provider(id)
                .expect("socket re-registration of a re-joining provider failed"),
            MediationDriver::Inline | MediationDriver::Threaded => {}
        }
    }
}

/// One arrival prepared (drawn and routed) but not yet mediated or
/// allocated. Its candidate set `P_q` is the routed shard's provider
/// list, read in place through [`ShardRouter::providers_of_shard`].
struct Arrival {
    query: Query,
    shard: usize,
}

/// An arrival of a socket wave: the candidate set is owned, because the
/// socket path copies it into the wave request anyway and a coalesced
/// batch outlives the borrow.
struct PreparedArrival {
    query: Query,
    shard: usize,
    candidates: Vec<ProviderId>,
}

/// The simulator for one `(configuration, method)` pair.
pub struct Simulator {
    config: SimulationConfig,
    method_kind: Method,
    /// The mediation layer: one or more mediator shards plus the
    /// provider-to-shard assignment.
    router: ShardRouter,
    /// How arriving queries pick their preferred mediator shard.
    routing: Box<dyn RoutingPolicy>,
    /// Outstanding work (in work units) currently enqueued at providers of
    /// each shard — the load signal
    /// [`crate::routing::LeastLoadedRouting`] reads. Migrations and
    /// departures move a provider's outstanding backlog with it, so the
    /// totals stay consistent; tiny floating-point residue from the
    /// differing summation order can still leave a value fractionally
    /// negative, which readers clamp at zero.
    shard_backlog: Vec<f64>,
    /// Total provider capacity per shard (units per second), maintained
    /// incrementally on departures and migrations so routing never scans
    /// providers on the arrival path.
    shard_capacity: Vec<f64>,
    population: Population,
    reputation: ReputationStore,
    rng: StdRng,
    queue: EventQueue,
    /// Per-provider time at which its FIFO queue drains (seconds), keyed
    /// by stable provider id. A dense struct-of-arrays column (8 bytes
    /// per slot, no `Option` wrapper): departed providers just keep a
    /// stale drain time that is never read again.
    busy_until: SlotColumn<ProviderId, f64>,
    now: SimTime,
    next_query_id: u32,
    /// Tick counters of the periodic events. Every periodic occurrence is
    /// scheduled at `tick × interval` rather than `previous + interval`:
    /// repeated addition accumulates floating-point drift for non-dyadic
    /// intervals (e.g. 0.1 s), which can change how many samples or sync
    /// rounds a run performs. For dyadic intervals the two schedules are
    /// bit-identical, which keeps old seeds reproducible.
    next_sample_tick: u64,
    next_assessment_tick: u64,
    next_sync_tick: u64,
    next_rebalance_tick: u64,
    total_capacity: f64,
    initial_consumers: usize,
    initial_providers: usize,
    /// Consecutive assessments at which each provider's departure rule
    /// fired (the rule only takes effect after `required_consecutive`
    /// strikes). Dense columns like `busy_until`.
    provider_strikes: SlotColumn<ProviderId, u32>,
    /// Consecutive assessments at which each consumer's departure rule
    /// fired.
    consumer_strikes: SlotColumn<ConsumerId, u32>,
    // Statistics.
    series: MetricSeries,
    /// Sum of the completed queries' response times, in completion order.
    response_time_sum: f64,
    issued: u64,
    completed: u64,
    unallocated: u64,
    provider_departures: Vec<DepartureRecord>,
    consumer_departures: Vec<ConsumerDepartureRecord>,
    /// Cross-shard provider migrations, in chronological order.
    migrations: Vec<MigrationRecord>,
    /// Rebalancing rounds evaluated (whether or not they migrated).
    rebalance_rounds: u64,
    /// Per-shard allocation counters as of the previous rebalancing round,
    /// so each round sees the mediation load of its own window only.
    allocations_at_last_rebalance: Vec<u64>,
    /// Per-provider performed-query counters as of the previous
    /// rebalancing round: the windowed difference is a provider's observed
    /// mediation throughput, the quantity the load-adaptive rule moves.
    performed_at_last_rebalance: ParticipantTable<ProviderId, u64>,
    /// Reusable arrival-path buffers (see [`ArrivalScratch`]).
    scratch: ArrivalScratch,
    /// Reusable per-shard `(utilization, smoothed satisfaction)` sums of
    /// the `Sample` sweep.
    shard_sums: Vec<(f64, f64)>,
    /// The mediation backend intentions are gathered through.
    mediation: MediationDriver,
    /// Scenario run state (`None` for plain runs — the default).
    scenario: Option<ScenarioState>,
    /// The run's observability handle: live when
    /// [`SimulationConfig::observability`] is set, a no-op shell
    /// otherwise. Clones of it are planted in the shard router and the
    /// mediation backend at build time, so one snapshot covers the
    /// whole run.
    obs: Obs,
    /// Pre-resolved engine instruments (see [`EngineMetrics`]).
    metrics: EngineMetrics,
    /// Waves that completed with at least one reply degraded to
    /// indifference, on any backend — the report's `degraded_waves`.
    /// Plain engine accounting, maintained whether or not observability
    /// is on (like `issued`/`completed`).
    degraded_waves: u64,
    /// Socket-backend wire timeouts already folded into the unified
    /// indifference accounting (delta tracking against the transport's
    /// accumulated `timed_out_total`).
    socket_timeouts_seen: u64,
}

impl Simulator {
    /// Builds a simulator for the given configuration and allocation
    /// method.
    pub fn new(config: SimulationConfig, method: Method) -> Result<Self, SqlbError> {
        Self::build(config, method, None)
    }

    /// Builds a simulator executing `scenario` on top of the configured
    /// setup: arrival modifiers reshape the Poisson rate, churn groups
    /// are compiled into [`Event::ChurnDepart`]/[`Event::ChurnRejoin`]
    /// occurrences on the ordinary event queue, and transport faults
    /// degrade the affected hosts' replies on every mediation backend.
    /// Same seed, same scenario → bit-identical report.
    pub fn with_scenario(
        config: SimulationConfig,
        method: Method,
        scenario: &Scenario,
    ) -> Result<Self, SqlbError> {
        Self::build(config, method, Some(scenario))
    }

    fn build(
        config: SimulationConfig,
        method: Method,
        scenario: Option<&Scenario>,
    ) -> Result<Self, SqlbError> {
        config.validate()?;
        if let Some(scenario) = scenario {
            scenario.validate(&config)?;
        }
        let population = Population::generate(&config.population)?;
        let total_capacity = population.total_capacity();
        let initial_consumers = population.consumers.len();
        let initial_providers = population.providers.len();
        let state_config = MediatorStateConfig {
            consumer_window: config.population.consumer_config.memory,
            provider_proposed_window: config.population.provider_config.proposed_memory,
            provider_performed_window: config.population.provider_config.performed_memory,
            initial_satisfaction: config.population.provider_config.initial_satisfaction,
        };
        let mut router = ShardRouter::new(
            config.mediator_shards,
            method,
            config.seed,
            state_config,
            population.providers.keys(),
        );
        router.set_scoring_threads(config.scoring_threads);

        // Observation only: a disabled handle records nothing, an
        // enabled one observes without feeding anything back, so
        // same-seed reports are bit-identical either way (pinned by the
        // observability integration tests).
        let obs = Obs::when(config.observability);
        router.set_obs(&obs);

        // The wave deadline is only a guard on the simulated topologies
        // (in-process participants answer as soon as they are polled);
        // scenario fault runs shrink it so stalled hosts do not make
        // every wave pay the full default five seconds.
        let wave_timeout = Duration::from_millis(config.wave_timeout_ms);
        let mediation = match config.mediation {
            MediationMode::Inline => MediationDriver::Inline,
            MediationMode::Threaded => MediationDriver::Threaded,
            MediationMode::Reactor => {
                // The engine drives the reactor: every participant is
                // registered as a polled endpoint up front (a lightweight
                // profile, not a thread) and deregistered on departure.
                let mut reactor = Reactor::new(RuntimeConfig {
                    timeout: wave_timeout,
                    request_bids: method.uses_bids(),
                });
                for id in population.consumers.keys() {
                    reactor.register_consumer(id, Latency::Immediate);
                }
                for id in population.providers.keys() {
                    reactor.register_provider(id, Latency::Immediate);
                }
                reactor.set_obs(&obs);
                MediationDriver::Reactor(Box::new(reactor))
            }
            MediationMode::Socket => {
                // The engine hosts the whole loopback topology: a wave
                // server on 127.0.0.1 and `socket_hosts` participant-host
                // connections announcing the population's endpoints.
                let mut mediator = SocketMediator::loopback(
                    config.socket_hosts,
                    ServerConfig {
                        timeout: wave_timeout,
                        request_bids: method.uses_bids(),
                    },
                    population.consumers.keys(),
                    population.providers.keys(),
                )
                .map_err(|e| SqlbError::InvalidConfig {
                    reason: format!("socket mediation bring-up failed: {e}"),
                })?;
                mediator.set_obs(obs.clone());
                MediationDriver::Socket(Box::new(mediator))
            }
        };

        // Compile the scenario against the generated population: churn
        // membership is drawn from the salted scenario RNG (the engine's
        // own random streams are untouched), schedules are frozen as
        // virtual times.
        let scenario = scenario.map(|s| {
            let providers: Vec<ProviderId> = population.providers.keys().collect();
            let compiled = s.compile(config.seed, &providers);
            ScenarioState {
                description: s.clone(),
                departed_members: vec![Vec::new(); compiled.groups.len()],
                groups: compiled.groups,
                faults: compiled.faults,
                churn_departures: 0,
                churn_rejoins: 0,
                fault_indifference: 0,
            }
        });

        let routing = config.routing.build();
        let shard_backlog = vec![0.0f64; router.shard_count()];
        let shard_capacity: Vec<f64> = (0..router.shard_count())
            .map(|shard| {
                router
                    .providers_of_shard(shard)
                    .iter()
                    .map(|&p| population.providers[p].capacity().units_per_sec())
                    .sum()
            })
            .collect();
        let mut sim = Simulator {
            method_kind: method,
            router,
            routing,
            shard_backlog,
            shard_capacity,
            reputation: ReputationStore::neutral(),
            rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17)),
            queue: EventQueue::new(),
            busy_until: SlotColumn::with_len(initial_providers, 0.0),
            provider_strikes: SlotColumn::with_len(initial_providers, 0),
            consumer_strikes: SlotColumn::with_len(initial_consumers, 0),
            now: SimTime::ZERO,
            next_query_id: 0,
            next_sample_tick: 1,
            next_assessment_tick: 1,
            next_sync_tick: 1,
            next_rebalance_tick: 1,
            total_capacity,
            initial_consumers,
            initial_providers,
            series: MetricSeries::default(),
            response_time_sum: 0.0,
            issued: 0,
            completed: 0,
            unallocated: 0,
            provider_departures: Vec::new(),
            consumer_departures: Vec::new(),
            migrations: Vec::new(),
            rebalance_rounds: 0,
            allocations_at_last_rebalance: Vec::new(),
            performed_at_last_rebalance: ParticipantTable::new(),
            scratch: ArrivalScratch::default(),
            shard_sums: Vec::new(),
            mediation,
            scenario,
            metrics: EngineMetrics::resolve(&obs),
            obs,
            degraded_waves: 0,
            socket_timeouts_seen: 0,
            population,
            config,
        };
        sim.schedule_initial_events();
        Ok(sim)
    }

    /// The allocation method under test.
    pub fn method(&self) -> Method {
        self.method_kind
    }

    /// Total system capacity (work units per second) at the start of the
    /// run.
    pub fn total_capacity(&self) -> f64 {
        self.total_capacity
    }

    /// The number of mediator shards this simulator runs.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// The run's observability handle — disabled (a no-op shell) unless
    /// [`SimulationConfig::observability`] is set. Clone it *before*
    /// [`Simulator::run`] (which consumes the simulator) to snapshot
    /// counters or dump the flight recorder afterwards: every clone
    /// shares the same storage.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn schedule_initial_events(&mut self) {
        let first_arrival = self.next_interarrival();
        if first_arrival.is_finite() {
            self.queue
                .schedule(SimTime::from_secs(first_arrival), Event::QueryArrival);
        }
        // Periodic events are scheduled at `tick × interval` (see the tick
        // counter fields); the first occurrence is tick 1.
        self.queue.schedule(
            SimTime::from_secs(self.config.sample_interval_secs),
            Event::Sample,
        );
        self.queue.schedule(
            SimTime::from_secs(self.config.assessment_interval_secs),
            Event::Assessment,
        );
        // A mono-mediator run schedules no synchronization and no
        // rebalancing at all, keeping its event stream identical to the
        // pre-sharding engine.
        if self.router.shard_count() > 1 {
            self.queue.schedule(
                SimTime::from_secs(self.config.sync_interval_secs),
                Event::SyncViews,
            );
            if self.config.migration_enabled {
                self.queue.schedule(
                    SimTime::from_secs(self.config.rebalance_interval_secs),
                    Event::Rebalance,
                );
            }
        }
        // Scenario churn is compiled into the same queue, so same-seed
        // runs pop the identical event sequence; occurrences beyond the
        // horizon are dropped like any other event.
        if let Some(state) = &self.scenario {
            for (group, compiled) in state.groups.iter().enumerate() {
                if compiled.depart_at.as_secs() <= self.config.duration_secs {
                    self.queue
                        .schedule(compiled.depart_at, Event::ChurnDepart { group });
                }
                if let Some(rejoin_at) = compiled.rejoin_at {
                    if rejoin_at.as_secs() <= self.config.duration_secs {
                        self.queue.schedule(rejoin_at, Event::ChurnRejoin { group });
                    }
                }
            }
        }
    }

    /// Schedules the next occurrence of a periodic event from its tick
    /// counter: occurrence `tick` runs at `tick × interval`, so the
    /// schedule never accumulates floating-point drift no matter how many
    /// rounds have passed.
    fn schedule_periodic(
        queue: &mut EventQueue,
        duration_secs: f64,
        next_tick: &mut u64,
        interval_secs: f64,
        event: Event,
    ) {
        *next_tick += 1;
        let at = *next_tick as f64 * interval_secs;
        if at <= duration_secs {
            queue.schedule(SimTime::from_secs(at), event);
        }
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> SimulationReport {
        while self.step().is_some() {}
        self.finish()
    }

    /// Handles the next event and returns it, or `None` once the run is
    /// over.
    fn step(&mut self) -> Option<Event> {
        let (time, event) = self.queue.pop()?;
        if time.as_secs() > self.config.duration_secs {
            return None;
        }
        self.now = time;
        match event {
            Event::QueryArrival => self.handle_arrival(),
            Event::QueryCompletion {
                provider,
                query: _,
                issued_at,
                work,
            } => self.handle_completion(provider, issued_at, work),
            Event::Sample => self.handle_sample(),
            Event::Assessment => self.handle_assessment(),
            Event::SyncViews => self.handle_sync(),
            Event::Rebalance => self.handle_rebalance(),
            Event::ChurnDepart { group } => self.handle_churn_depart(group),
            Event::ChurnRejoin { group } => self.handle_churn_rejoin(group),
        }
        Some(event)
    }

    fn workload_fraction(&self) -> f64 {
        self.config
            .workload
            .fraction_at(self.now.as_secs(), self.config.duration_secs)
    }

    fn next_interarrival(&mut self) -> f64 {
        // The active-consumer count is maintained incrementally by the
        // population (updated only on departure) — no per-draw scan.
        let active_consumers = self.population.active_consumer_count();
        let consumer_fraction = if self.initial_consumers == 0 {
            0.0
        } else {
            active_consumers as f64 / self.initial_consumers as f64
        };
        let rate = arrival_rate(
            self.workload_fraction(),
            self.total_capacity,
            Population::mean_query_cost(),
        ) * consumer_fraction;
        match &self.scenario {
            Some(state) if !state.description.arrival.is_empty() => {
                // Thinning (Lewis–Shedler): candidate arrivals are drawn
                // at the scenario's envelope rate and accepted with
                // probability `factor(t) / max`, so the modifier shape is
                // honoured at the *candidate's* instant — a burst ramps
                // on at its exact onset, and arrivals revive by
                // themselves after a zero-factor window. Plain runs
                // (no scenario) take the single-draw path below and keep
                // their historical random stream bit-for-bit.
                let max = state.description.max_rate_factor();
                if rate <= 0.0 || max <= 0.0 {
                    return f64::INFINITY;
                }
                let duration = self.config.duration_secs;
                let start = self.now.as_secs();
                let mut t = start;
                loop {
                    let dt = sample_interarrival(&mut self.rng, rate * max);
                    if !dt.is_finite() {
                        return f64::INFINITY;
                    }
                    t += dt;
                    if t > duration {
                        // Past the horizon the event would be dropped
                        // anyway; stop consuming random draws.
                        return f64::INFINITY;
                    }
                    let accept = state.description.rate_factor_at(t, duration) / max;
                    if accept >= 1.0 || self.rng.random_bool(accept.clamp(0.0, 1.0)) {
                        return t - start;
                    }
                }
            }
            _ => sample_interarrival(&mut self.rng, rate),
        }
    }

    fn schedule_next_arrival(&mut self) {
        let dt = self.next_interarrival();
        if dt.is_finite() {
            let at = self.now + sqlb_types::SimDuration::from_secs(dt);
            if at.as_secs() <= self.config.duration_secs {
                self.queue.schedule(at, Event::QueryArrival);
            }
        }
    }

    /// The preferred shard if it still has active providers, otherwise the
    /// next shard (in wrap-around order) that does. `None` only when every
    /// provider of the whole system has departed. With one shard this
    /// reduces to "the shard, or nothing" — the mono-mediator behaviour.
    ///
    /// The candidate set of a shard is its router-maintained provider
    /// list: providers are removed from it exactly when they depart, so
    /// the list always equals "the shard's providers that have not
    /// departed, ascending" without any per-arrival filtering.
    fn first_shard_with_candidates(&self, preferred: usize) -> Option<usize> {
        let shard_count = self.router.shard_count();
        (0..shard_count)
            .map(|offset| (preferred + offset) % shard_count)
            .find(|&shard| !self.router.providers_of_shard(shard).is_empty())
    }

    fn handle_arrival(&mut self) {
        if let MediationDriver::Socket(_) = self.mediation {
            // The socket backend coalesces every arrival landing on this
            // same virtual instant into one multi-query wave (when the
            // knob is on and routing is load-blind — a load-reactive
            // policy reads allocation state between arrivals, so its runs
            // stay strictly sequential. With a single shard, though,
            // every route is shard 0 no matter what the policy observes,
            // so least-loaded K = 1 runs keep the batched fan-out instead
            // of needlessly degrading to one wave per arrival).
            if self.config.socket_wave_coalescing
                && (!self.routing.reacts_to_load() || self.router.shard_count() == 1)
            {
                return self.handle_socket_arrivals();
            }
            // Otherwise every arrival is a wave of its own: a batch of one.
            if let Some(prepared) = self.prepare_socket_arrival() {
                self.mediate_socket_batch(vec![prepared]);
            }
            return;
        }
        let Some(arrival) = self.prepare_arrival() else {
            return;
        };

        // Gather intentions (Algorithm 1, lines 2–5) into the reusable
        // arena. The consumer's intentions come from its preferences (and
        // provider reputation); each provider's answer balances its
        // preference for the query class against its current utilization
        // (computed once and reused for the mediator's view of `Ut(p)`).
        // The mediated backends run the exact same per-participant
        // computations, only multiplexed through a mediation wave instead
        // of direct calls — which is why reports are bit-identical across
        // backends for a given seed.
        //
        // A scenario transport fault models the *reply* going missing, not
        // the work: every backend reads a down host's answers as the
        // indifference of Algorithm 1, line 5.
        let down = self.down_hosts();
        let query = &arrival.query;
        let consumer = query.consumer;
        let candidates = self.router.providers_of_shard(arrival.shard);
        let consumer_down = down.is_down(consumer.raw());
        let fabricated = if down.faults.is_empty() {
            0
        } else {
            u64::from(consumer_down)
                + candidates.iter().filter(|p| down.is_down(p.raw())).count() as u64
        };

        let uses_bids = self.method_kind.uses_bids();
        let now = self.now;
        let wave_timeout = Duration::from_millis(self.config.wave_timeout_ms);
        match &mut self.mediation {
            MediationDriver::Inline => {
                // A down host is not asked at all; the skipped agent calls
                // are pure reads, so skipping them is unobservable
                // elsewhere.
                let consumer_agent = &self.population.consumers[consumer];
                let infos = &mut self.scratch.infos;
                infos.clear();
                for &p in candidates {
                    let ci = if consumer_down {
                        0.0
                    } else {
                        consumer_agent.intention_for(query, p, &self.reputation)
                    };
                    let answer = (!down.is_down(p.raw())).then(|| {
                        provider_answer(&mut self.population.providers[p], query, now, uses_bids)
                    });
                    infos.push(candidate_info(p, ci, answer.as_ref()));
                }
            }
            driver => {
                // One wave: a batched intention request to the issuing
                // consumer (covering all candidates) and one request per
                // candidate provider, with per-endpoint deadline tracking.
                // A down host's endpoints never answer (`Never`), and the
                // wave reads them as indifference.
                let consumer_agent = &self.population.consumers[consumer];
                let reputation = &self.reputation;
                let mut wave = IntentionWave::with_capacity(1, candidates.len());
                wave.consumer(consumer, down.latency(consumer.raw()), move || {
                    vec![(
                        query.id,
                        candidates
                            .iter()
                            .map(|&p| (p, consumer_agent.intention_for(query, p, reputation)))
                            .collect(),
                    )]
                });
                // The shard's candidate list is ascending, so the table
                // hands out one disjoint `&mut` per candidate agent in
                // O(candidates) — the wave never walks the rest of the
                // population.
                for (p, agent) in self.population.providers.iter_mut_of(candidates) {
                    wave.provider(p, down.latency(p.raw()), move || {
                        vec![provider_answer(agent, query, now, uses_bids)]
                    });
                }

                let replies = match driver {
                    MediationDriver::Threaded => run_wave_threaded(wave, wave_timeout),
                    MediationDriver::Reactor(reactor) => reactor.run_wave(wave),
                    MediationDriver::Inline | MediationDriver::Socket(_) => {
                        unreachable!("inline is handled above, socket before the gather")
                    }
                };
                replies.into_query_infos(query.id, candidates, &mut self.scratch.infos);
            }
        }
        if fabricated > 0 {
            if let Some(state) = &mut self.scenario {
                state.fault_indifference += fabricated;
            }
            // The in-process backends' share of the unified indifference
            // accounting (the socket backend credits its real wire
            // timeouts in `mediate_socket_batch`).
            self.note_degraded_wave(u64::from(query.id.raw()), fabricated);
        }

        self.allocate_and_record(&arrival.query, arrival.shard);
    }

    /// Allocation decision (Algorithm 1, lines 6–9) over the candidate
    /// infos sitting in `self.scratch.infos`, recorded in the shard's
    /// satisfaction state, followed by the participant-side bookkeeping
    /// and the enqueueing of the query at the selected providers. Shared
    /// by the per-arrival path and the socket backend's coalesced path
    /// (which mediates a batch first, then allocates each query of the
    /// batch through here, in arrival order).
    fn allocate_and_record(&mut self, query: &Query, shard: usize) {
        let now = self.now;
        let consumer = query.consumer;
        let allocation = self.router.allocate(shard, query, &self.scratch.infos);

        // Participant-side bookkeeping (the mediation result is sent to all
        // candidates, line 10), answering "was p selected?" through the
        // id-sorted selection index instead of a linear scan per candidate.
        let scratch = &mut self.scratch;
        scratch.selection.rebuild(&allocation);
        scratch.shown_cis.clear();
        scratch
            .shown_cis
            .extend(scratch.infos.iter().map(|i| i.consumer_intention));
        scratch.selected_indices.clear();
        scratch.selected_indices.extend(
            scratch
                .infos
                .iter()
                .enumerate()
                .filter(|(_, i)| scratch.selection.contains(i.provider))
                .map(|(idx, _)| idx),
        );
        self.population.consumers[consumer].record_allocation(
            &scratch.shown_cis,
            &scratch.selected_indices,
            query.n,
        );
        for info in &scratch.infos {
            let performed = scratch.selection.contains(info.provider);
            self.population.providers[info.provider].record_proposal(
                query,
                info.provider_intention,
                performed,
            );
        }

        // Enqueue the query at the selected providers.
        self.shard_backlog[shard] += query.cost().value() * allocation.selected.len() as f64;
        for &p in &allocation.selected {
            let provider_agent = &mut self.population.providers[p];
            let processing = provider_agent.assign(query, now);
            let start = self.busy_until[p].max(now.as_secs());
            let finish = start + processing.as_secs();
            self.busy_until[p] = finish;
            self.queue.schedule(
                SimTime::from_secs(finish),
                Event::QueryCompletion {
                    provider: p,
                    query: query.id,
                    issued_at: query.issued_at,
                    work: query.cost(),
                },
            );
        }
    }

    /// Credits `count` replies degraded to indifference on the wave
    /// that mediated query `wave` — the unified accounting every
    /// backend funnels through. The plain `degraded_waves` report
    /// counter always moves; the obs counters and the flight-recorder
    /// event only when observability is on (and a disabled handle makes
    /// them single-branch no-ops anyway).
    fn note_degraded_wave(&mut self, wave: u64, count: u64) {
        self.degraded_waves += 1;
        self.metrics.indifferent_replies.add(count);
        self.metrics.degraded_waves.inc();
        if self.obs.is_enabled() {
            self.obs.record(
                self.now.as_secs(),
                EventKind::TimeoutIndifference { wave, count },
            );
        }
    }

    /// The socket backend's coalesced arrival handler: prepares the
    /// arrival at hand plus every further arrival scheduled for this same
    /// virtual instant (popping them off the event queue in their normal
    /// order), and mediates them as *one* socket wave — one frame
    /// fan-out, one reply collection — instead of one wave each.
    ///
    /// Bit-identity with the sequential path is preserved by
    /// construction. Preparation (the arrival-process reschedule and the
    /// consumer/class draws) is a pure function of the rng stream and of
    /// state no allocation of the batch can touch, so performing it for
    /// arrival `t + 1` before arrival `t`'s allocation consumes exactly
    /// the random values the sequential interleaving would. Mediated
    /// answers *can* observe earlier allocations, so a prepared arrival
    /// sharing a consumer or a shard with the batch flushes the batch
    /// first — the wave only ever carries arrivals whose answers are
    /// mutually independent. Allocation then runs per query, in arrival
    /// order, exactly like the sequential path.
    fn handle_socket_arrivals(&mut self) {
        let mut batch: Vec<PreparedArrival> = Vec::new();
        if let Some(first) = self.prepare_socket_arrival() {
            batch.push(first);
        }
        while matches!(
            self.queue.peek(),
            Some((time, Event::QueryArrival)) if time == self.now
        ) {
            self.queue.pop();
            let Some(prepared) = self.prepare_socket_arrival() else {
                continue;
            };
            let conflicts = batch.iter().any(|earlier| {
                earlier.query.consumer == prepared.query.consumer || earlier.shard == prepared.shard
            });
            if conflicts {
                let flushed = std::mem::take(&mut batch);
                self.mediate_socket_batch(flushed);
            }
            batch.push(prepared);
        }
        if !batch.is_empty() {
            self.mediate_socket_batch(batch);
        }
    }

    /// The per-arrival work that precedes mediation, shared by every
    /// arrival path: reschedule the arrival process (its rate follows the
    /// workload pattern and the number of remaining consumers), draw the
    /// consumer and query class, and route to a shard, whose provider
    /// list is the candidate set `P_q`. Returns `None` when no consumer
    /// remains (nothing is issued) or no provider-bearing shard does (the
    /// query is counted as issued and unallocated).
    fn prepare_arrival(&mut self) -> Option<Arrival> {
        self.schedule_next_arrival();

        // The active-consumer index presents the surviving consumers in
        // ascending id order — the same sequence the per-arrival
        // filter-and-collect used to produce, so the random draw picks the
        // same consumer for the same seed.
        let consumers = self.population.active_consumer_ids();
        if consumers.is_empty() {
            return None;
        }
        let consumer = consumers[self.rng.random_range(0..consumers.len())];
        let class = if self.rng.random_bool(0.5) {
            QueryClass::Light
        } else {
            QueryClass::Heavy
        };
        let mut query = Query::single(QueryId::new(self.next_query_id), consumer, class, self.now);
        query.n = self.config.query_n;
        self.next_query_id = self.next_query_id.wrapping_add(1);
        self.issued += 1;
        self.metrics.queries_issued.inc();

        // Route the query to its mediator shard; the candidate set `P_q`
        // is the providers that shard owns, every provider a candidate as
        // in the paper's evaluation. Routing is deterministic (a pure
        // function of the consumer id and the observed per-shard load), so
        // a mono-mediator run consumes exactly the same random stream as
        // the pre-sharding engine. A query is only unallocated when *no*
        // shard has an active provider left: departures can empty one
        // shard while the system still has capacity, in which case the
        // query falls over to the next non-empty shard (deterministically,
        // so runs stay reproducible).
        let preferred = self.routing.route(
            consumer,
            &self.router,
            ShardLoadView {
                backlog: &self.shard_backlog,
                capacity: &self.shard_capacity,
            },
        );
        let Some(shard) = self.first_shard_with_candidates(preferred) else {
            self.unallocated += 1;
            self.metrics.queries_unallocated.inc();
            return None;
        };
        Some(Arrival { query, shard })
    }

    /// [`Simulator::prepare_arrival`] for a socket wave: the candidate
    /// set is copied out, because the wave request carries it and a
    /// coalesced batch outlives the borrow.
    fn prepare_socket_arrival(&mut self) -> Option<PreparedArrival> {
        let arrival = self.prepare_arrival()?;
        let candidates = self.router.providers_of_shard(arrival.shard).to_vec();
        Some(PreparedArrival {
            query: arrival.query,
            shard: arrival.shard,
            candidates,
        })
    }

    /// Mediates a batch of arrivals as a single socket wave, then
    /// allocates each query of the batch in arrival order — the socket
    /// backend's only gather site. The batch invariant (distinct
    /// consumers, distinct shards — hence disjoint candidate sets) is
    /// established by [`Simulator::handle_socket_arrivals`]; a
    /// non-coalesced arrival is a batch of one.
    ///
    /// One wave over real loopback sockets: the request is framed, fanned
    /// out by the wave server, decoded by the participant-host threads,
    /// and answered by jobs that compute the same Definition 7/8 values
    /// as the other backends — on the *decoded* queries, so the reply
    /// derives from the bytes that actually travelled. A down host gets
    /// its wire fault injected on every wave it is down for.
    fn mediate_socket_batch(&mut self, batch: Vec<PreparedArrival>) {
        let now = self.now;
        let down = self.down_hosts();
        let requests: Vec<(Query, Vec<ProviderId>)> = batch
            .iter()
            .map(|a| (a.query, a.candidates.clone()))
            .collect();
        // The union of the batch's candidate sets, ascending: the sets
        // are disjoint (distinct shards), so sorting the concatenation
        // yields the duplicate-free ordered list `iter_mut_of` wants.
        let mut all_candidates: Vec<ProviderId> =
            Vec::with_capacity(batch.iter().map(|a| a.candidates.len()).sum());
        for arrival in &batch {
            all_candidates.extend_from_slice(&arrival.candidates);
        }
        all_candidates.sort_unstable();

        let MediationDriver::Socket(socket) = &mut self.mediation else {
            unreachable!("socket waves are mediated only on the socket backend");
        };
        let reputation = &self.reputation;
        let mut jobs = WaveJobs::new();
        for arrival in &batch {
            let consumer_agent = &self.population.consumers[arrival.query.consumer];
            jobs.consumer(arrival.query.consumer, move |decoded| {
                decoded
                    .iter()
                    .map(|(q, cands)| {
                        (
                            q.id,
                            cands
                                .iter()
                                .map(|&p| (p, consumer_agent.intention_for(q, p, reputation)))
                                .collect(),
                        )
                    })
                    .collect()
            });
        }
        // One provider job answers every query of the wave addressed to
        // it — the wire request already carries the provider's full query
        // list, so the same batch closure serves waves of any width.
        for (p, agent) in self.population.providers.iter_mut_of(&all_candidates) {
            jobs.provider(p, move |decoded, request_bids| {
                decoded
                    .iter()
                    .map(|q| provider_answer(agent, q, now, request_bids))
                    .collect()
            });
        }
        let gathered = socket.gather_with_faults(&requests, jobs, &down.faults);
        // The wave's wire timeouts (delta of the accumulated total),
        // credited to the unified indifference accounting exactly like
        // the indifference the in-process backends fabricate.
        let wire_timeouts = socket.timed_out_total() - self.socket_timeouts_seen;
        self.socket_timeouts_seen = socket.timed_out_total();
        if wire_timeouts > 0 {
            // One wave, one degraded-wave credit — stamped with the
            // first query of the batch.
            self.note_degraded_wave(u64::from(batch[0].query.id.raw()), wire_timeouts);
        }
        for (arrival, infos) in batch.iter().zip(gathered) {
            self.scratch.infos.clear();
            self.scratch.infos.extend(infos);
            self.allocate_and_record(&arrival.query, arrival.shard);
        }
    }

    /// The hosts down for a wave issued at this instant — the engine's
    /// only reading of the scenario's transport faults. A
    /// [`TransportFault::StallHost`] is down inside its window; a
    /// [`TransportFault::DropHost`] is down from its instant for the rest
    /// of the run, and wins over a stall of the same host.
    fn down_hosts(&self) -> DownHosts {
        let mut down = DownHosts {
            faults: Vec::new(),
            hosts: self.config.socket_hosts,
        };
        let Some(state) = &self.scenario else {
            return down;
        };
        let now = self.now.as_secs();
        for fault in &state.faults {
            let (host, wire) = match *fault {
                TransportFault::StallHost {
                    host,
                    from_secs,
                    until_secs,
                } if now >= from_secs && now < until_secs => (host, HostFault::Stall),
                TransportFault::DropHost { host, at_secs } if now >= at_secs => {
                    (host, HostFault::Drop)
                }
                _ => continue,
            };
            match down.faults.iter_mut().find(|(h, _)| *h == host) {
                Some(entry) if wire == HostFault::Drop => entry.1 = wire,
                Some(_) => {}
                None => down.faults.push((host, wire)),
            }
        }
        down
    }

    /// Takes a churn group's members down, mirroring the assessment
    /// departure machinery (capacity/backlog write-off, mediation
    /// deregistration) with two deliberate differences: the
    /// mediator-side satisfaction tracker is *parked* for a possible
    /// re-join instead of destroyed, and the exit is counted as a churn
    /// departure, not as a behavioral [`DepartureRecord`] — churn is
    /// imposed by the scenario, not chosen by the agent, so it must not
    /// pollute the retention metrics of Table 3.
    fn handle_churn_depart(&mut self, group: usize) {
        let members = match &self.scenario {
            Some(state) => state.groups[group].members.clone(),
            None => return,
        };
        let mut departed = Vec::new();
        for id in members {
            if self.population.providers[id].has_departed() {
                continue;
            }
            self.population.depart_provider(id);
            if let Some(shard) = self.router.shard_of_provider(id) {
                let agent = &self.population.providers[id];
                self.shard_capacity[shard] -= agent.capacity().units_per_sec();
                // In-flight completions of a parked provider are not
                // credited anywhere, so its outstanding work comes off
                // the books now (and goes back on at re-join, for
                // whatever is still outstanding then).
                self.shard_backlog[shard] -= agent.backlog().value();
            }
            self.router.churn_depart(id);
            self.mediation.deregister_provider(id);
            self.metrics.churn_departures.inc();
            if self.obs.is_enabled() {
                self.obs.record(
                    self.now.as_secs(),
                    EventKind::ChurnDepart {
                        participant: u64::from(id.raw()),
                        provider: true,
                    },
                );
            }
            departed.push(id);
        }
        self.population.debug_assert_active_indices_consistent();
        if let Some(state) = &mut self.scenario {
            state.churn_departures += departed.len() as u64;
            state.departed_members[group] = departed;
        }
    }

    /// Brings a churn group's members back: the population re-activates
    /// the agent, the router readmits it to its home shard (`slot % K`)
    /// with its parked satisfaction view under [`RejoinPolicy::Resume`]
    /// or a fresh registration under [`RejoinPolicy::Reset`], capacity
    /// and outstanding backlog go back on the books, departure strikes
    /// restart from zero, and the mediation backend re-announces the
    /// endpoint (the socket backend reconnects the host if the drop-out
    /// closed its last connection).
    fn handle_churn_rejoin(&mut self, group: usize) {
        let (members, policy) = match &mut self.scenario {
            Some(state) => (
                std::mem::take(&mut state.departed_members[group]),
                state.groups[group].policy,
            ),
            None => return,
        };
        let mut rejoined = 0u64;
        for id in members {
            let Some(shard) = self
                .router
                .readmit_provider(id, policy == RejoinPolicy::Resume)
            else {
                continue;
            };
            self.population.rejoin_provider(id);
            if policy == RejoinPolicy::Reset {
                self.population.providers[id].reset_satisfaction_history();
            }
            let agent = &self.population.providers[id];
            self.shard_capacity[shard] += agent.capacity().units_per_sec();
            self.shard_backlog[shard] += agent.backlog().value();
            self.provider_strikes[id] = 0;
            self.mediation.register_provider(id);
            self.metrics.churn_rejoins.inc();
            if self.obs.is_enabled() {
                self.obs.record(
                    self.now.as_secs(),
                    EventKind::ChurnRejoin {
                        participant: u64::from(id.raw()),
                        provider: true,
                    },
                );
            }
            rejoined += 1;
        }
        self.population.debug_assert_active_indices_consistent();
        if let Some(state) = &mut self.scenario {
            state.churn_rejoins += rejoined;
        }
    }

    fn handle_completion(
        &mut self,
        provider: ProviderId,
        issued_at: SimTime,
        work: sqlb_types::WorkUnits,
    ) {
        self.population.providers[provider].complete(work);
        // Credit the shard that owns the provider *now*: a migration moves
        // the provider's outstanding backlog to the new owner, which is
        // where the remaining queue drains. A departed provider has no
        // shard; its outstanding work was already written off when it
        // left.
        if let Some(shard) = self.router.shard_of_provider(provider) {
            self.shard_backlog[shard] -= work.value();
        }
        let response_time = (self.now - issued_at).as_secs();
        self.response_time_sum += response_time;
        self.completed += 1;
        self.metrics.queries_completed.inc();
        self.metrics.response_time_seconds.record(response_time);
    }

    fn handle_sample(&mut self) {
        let now = self.now;
        let shard_count = self.router.shard_count();
        // One walk over the providers in ascending id order folds the
        // global sets and every shard's sums. Each shard's provider list
        // is ascending too, so its sums see the same additions in the
        // same order as a walk over the list would.
        let mut sat_intention = Moments::EMPTY;
        let mut sat_preference = Moments::EMPTY;
        let mut alloc_sat_pref = Moments::EMPTY;
        let mut alloc_sat_int = Moments::EMPTY;
        let mut utilizations = Moments::EMPTY;
        let shard_sums = &mut self.shard_sums;
        shard_sums.clear();
        shard_sums.resize(shard_count, (0.0, 0.0));
        for (id, p) in self.population.providers.iter_mut() {
            let active = !p.has_departed();
            let shard = self.router.shard_of_provider(id);
            if !active && shard.is_none() {
                continue;
            }
            let utilization = p.utilization(now).value();
            // Figure 4(a) reports the provider's long-run feeling about the
            // queries it performs, so the smoothed (Table 2) reading is
            // plotted; the strict Definition 5 value drives departures.
            let satisfaction = p.smoothed_satisfaction();
            if active {
                sat_intention.push(satisfaction);
                sat_preference.push(p.preference_satisfaction());
                alloc_sat_pref.push(p.preference_allocation_satisfaction());
                alloc_sat_int.push(p.allocation_satisfaction());
                utilizations.push(utilization);
            }
            if let Some(shard) = shard {
                shard_sums[shard].0 += utilization;
                shard_sums[shard].1 += satisfaction;
            }
        }
        let mut consumer_alloc_sat = Moments::EMPTY;
        let mut consumer_sat = Moments::EMPTY;
        for c in self
            .population
            .consumers
            .values()
            .filter(|c| !c.has_departed())
        {
            consumer_alloc_sat.push(c.allocation_satisfaction());
            consumer_sat.push(c.satisfaction());
        }

        let workload_fraction = self.workload_fraction();
        let s = &mut self.series;
        s.provider_satisfaction_intention_mean
            .push(now, sat_intention.mean());
        s.provider_satisfaction_preference_mean
            .push(now, sat_preference.mean());
        s.provider_allocation_satisfaction_preference_mean
            .push(now, alloc_sat_pref.mean());
        s.provider_allocation_satisfaction_intention_mean
            .push(now, alloc_sat_int.mean());
        s.provider_satisfaction_fairness
            .push(now, sat_intention.fairness());
        s.consumer_allocation_satisfaction_mean
            .push(now, consumer_alloc_sat.mean());
        s.consumer_satisfaction_mean.push(now, consumer_sat.mean());
        s.consumer_satisfaction_fairness
            .push(now, consumer_sat.fairness());
        s.utilization_mean.push(now, utilizations.mean());
        s.utilization_fairness.push(now, utilizations.fairness());
        s.workload_fraction.push(now, workload_fraction);
        s.active_providers.push(now, sat_intention.count() as f64);
        s.active_consumers
            .push(now, consumer_alloc_sat.count() as f64);

        // Per-shard load and satisfaction: the imbalance the routing
        // policy and the rebalancer act on, recorded so shard skew is
        // visible in experiment output and not just in the final
        // `shard_allocations` totals.
        let series = &mut self.series;
        if series.shard_utilization.len() != shard_count {
            series
                .shard_utilization
                .resize_with(shard_count, TimeSeries::new);
            series
                .shard_satisfaction
                .resize_with(shard_count, TimeSeries::new);
            series
                .shard_allocation_counts
                .resize_with(shard_count, TimeSeries::new);
        }
        let mut shard_utilizations = Moments::EMPTY;
        for (shard, &(utilization_sum, satisfaction_sum)) in self.shard_sums.iter().enumerate() {
            let count = self.router.providers_of_shard(shard).len();
            let (utilization, satisfaction) = if count == 0 {
                // An emptied shard carries no load; report it as idle.
                (0.0, 0.0)
            } else {
                (
                    utilization_sum / count as f64,
                    satisfaction_sum / count as f64,
                )
            };
            series.shard_utilization[shard].push(now, utilization);
            series.shard_satisfaction[shard].push(now, satisfaction);
            series.shard_allocation_counts[shard].push(
                now,
                self.router.mediator(shard).state().allocations() as f64,
            );
            if count > 0 {
                shard_utilizations.push(utilization);
            }
        }
        series
            .shard_utilization_spread
            .push(now, shard_utilizations.spread());

        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_sample_tick,
            self.config.sample_interval_secs,
            Event::Sample,
        );
    }

    fn handle_sync(&mut self) {
        self.router.sync_views();
        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_sync_tick,
            self.config.sync_interval_secs,
            Event::SyncViews,
        );
    }

    /// How much busier (in allocations per rebalancing window) the busiest
    /// shard must be than the idlest before the mediation-load rule
    /// migrates a provider.
    const ALLOCATION_IMBALANCE_TRIGGER: f64 = 1.25;
    /// Minimum allocations the busiest shard must have mediated in the
    /// window before its imbalance is considered signal rather than noise.
    const MIN_ALLOCATION_DELTA: u64 = 8;
    /// Weight of the satisfaction term in the load-adaptive donor score
    /// (see [`donor_score`]): a fully satisfied donor is penalized by this
    /// fraction of the throughput target, so satisfaction arbitrates
    /// between donors whose windowed throughput is comparably close to
    /// half the gap without overriding a decisively better throughput
    /// match.
    const MIGRATION_SATISFACTION_WEIGHT: f64 = 0.25;

    /// One cross-shard rebalancing round. Which imbalance signal drives it
    /// depends on whether routed demand can follow the migrated capacity
    /// ([`RoutingPolicy::reacts_to_load`]):
    ///
    /// * **Static routing — utilization spread.** Each shard's query
    ///   volume is pinned by `consumer % K`, so the only actionable lever
    ///   is capacity: if the gap between the hottest and coldest shard's
    ///   mean provider utilization exceeds the configured threshold, the
    ///   coldest shard's least-utilized provider (its most spare capacity)
    ///   migrates to the hottest shard — capacity follows demand, the hot
    ///   shard's load spreads over more providers, the spread shrinks.
    /// * **Load-adaptive routing — mediation load.** Routing already
    ///   equalizes utilization by construction (arrivals seek the least
    ///   relative load), but shards still mediate query volumes
    ///   proportional to their effective drain rate. If the busiest shard
    ///   mediated ≥ 1.25× the allocations of the idlest over the last
    ///   window, the throughput gap behind that skew is closed by
    ///   migrating the provider whose *observed* windowed performed-query
    ///   count best matches half the gap, busiest → idlest; the routed
    ///   demand follows the drain rate it brings along. Moves are only
    ///   made when they strictly shrink the gap, which rules out
    ///   oscillation. Running the utilization rule here instead would
    ///   chase sampling noise that routing self-corrects, and the two
    ///   rules would fight.
    ///
    /// One provider per round keeps rebalancing gentle; the interval
    /// controls how fast it converges. Every input is a deterministic
    /// function of observed state: shard lists are iterated in ascending
    /// provider-id order and ties break toward the lowest shard index /
    /// provider id, so two runs with the same seed perform the identical
    /// migration sequence.
    fn handle_rebalance(&mut self) {
        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_rebalance_tick,
            self.config.rebalance_interval_secs,
            Event::Rebalance,
        );
        self.rebalance_rounds += 1;

        // Roll the allocation window: a round judges mediation load by
        // what happened since the previous round only.
        let shard_count = self.router.shard_count();
        let allocations = self.router.allocations_per_shard();
        self.allocations_at_last_rebalance.resize(shard_count, 0);
        let window: Vec<u64> = allocations
            .iter()
            .zip(&self.allocations_at_last_rebalance)
            .map(|(current, previous)| current.saturating_sub(*previous))
            .collect();
        self.allocations_at_last_rebalance = allocations;

        if self.routing.reacts_to_load() {
            self.rebalance_mediation_load(&window);
            // Roll the per-provider throughput window for the next round
            // (after the rule, which reads the previous round's baseline).
            for shard in 0..shard_count {
                for &p in self.router.providers_of_shard(shard) {
                    let performed = self.population.providers[p].performed_queries();
                    self.performed_at_last_rebalance.insert(p, performed);
                }
            }
        } else {
            self.rebalance_utilization();
        }
    }

    /// The static-routing rebalancing rule: migrate spare capacity from
    /// the utilization-coldest shard to the hottest.
    fn rebalance_utilization(&mut self) {
        let now = self.now;
        let shard_count = self.router.shard_count();
        // Hottest and coldest shard by mean provider utilization; shards
        // with no providers left carry no load and take no part.
        let mut hottest: Option<(usize, f64)> = None;
        let mut coldest: Option<(usize, f64)> = None;
        for shard in 0..shard_count {
            let providers = self.router.providers_of_shard(shard);
            if providers.is_empty() {
                continue;
            }
            let mut sum = 0.0;
            for &p in providers {
                sum += self.population.providers[p].utilization(now).value();
            }
            let utilization = sum / providers.len() as f64;
            if hottest.is_none_or(|(_, u)| utilization > u) {
                hottest = Some((shard, utilization));
            }
            if coldest.is_none_or(|(_, u)| utilization < u) {
                coldest = Some((shard, utilization));
            }
        }
        let (Some((hot, hot_utilization)), Some((cold, cold_utilization))) = (hottest, coldest)
        else {
            return;
        };
        let imbalance = hot_utilization - cold_utilization;
        if hot == cold || imbalance < self.config.migration_min_spread {
            return;
        }
        self.migrate_spare_provider(cold, hot, imbalance);
    }

    /// The load-adaptive rebalancing rule: close the throughput gap behind
    /// a mediation-load skew. `window` is the per-shard allocation count
    /// since the previous round.
    fn rebalance_mediation_load(&mut self, window: &[u64]) {
        let mut busiest: Option<(usize, u64)> = None;
        let mut idlest: Option<(usize, u64)> = None;
        for (shard, &mediated) in window.iter().enumerate() {
            if self.router.providers_of_shard(shard).is_empty() {
                continue;
            }
            if busiest.is_none_or(|(_, m)| mediated > m) {
                busiest = Some((shard, mediated));
            }
            if idlest.is_none_or(|(_, m)| mediated < m) {
                idlest = Some((shard, mediated));
            }
        }
        let (Some((busy, busy_count)), Some((idle, idle_count))) = (busiest, idlest) else {
            return;
        };
        if busy == idle || busy_count < Self::MIN_ALLOCATION_DELTA {
            return;
        }
        if (busy_count as f64) < Self::ALLOCATION_IMBALANCE_TRIGGER * idle_count.max(1) as f64 {
            return;
        }
        // The busy shard mediates more because its providers collectively
        // win more queries (the allocation method concentrates work on
        // attractive, fast-draining providers — raw capacity is a poor
        // predictor of this). Move the *observed* throughput instead:
        // among providers whose windowed performed-query count would
        // strictly shrink the gap (the monotone-convergence guard), pick
        // the lowest [`donor_score`] — closeness to half the gap, with
        // the donor shard's satisfaction reading for the provider folded
        // in so that of comparably-matched donors the under-served one
        // moves: its proposals mostly lose on the contended shard, so it
        // both frees the least won throughput there and stands to gain
        // the most on the receiving shard. Demand follows the move,
        // because routed arrivals seek the drain rate it brings along.
        let gap = busy_count - idle_count;
        let donors = self.router.providers_of_shard(busy);
        if donors.len() < 2 {
            return;
        }
        let busy_state = self.router.mediator(busy).state();
        let mut pick = None;
        let mut pick_score = f64::INFINITY;
        for &p in donors {
            let performed = self.population.providers[p].performed_queries();
            let previous = self
                .performed_at_last_rebalance
                .get(p)
                .copied()
                .unwrap_or(0);
            let throughput = performed.saturating_sub(previous);
            let satisfaction = busy_state.provider_satisfaction(p);
            let Some(score) = donor_score(
                throughput,
                gap,
                satisfaction,
                Self::MIGRATION_SATISFACTION_WEIGHT,
            ) else {
                continue;
            };
            if score < pick_score {
                pick_score = score;
                pick = Some(p);
            }
        }
        if let Some(provider) = pick {
            let spread_before = (busy_count as f64) / idle_count.max(1) as f64;
            self.migrate_provider_with_record(provider, idle, spread_before);
        }
    }

    /// Migrates the least-utilized provider of `from` to `to`, unless
    /// `from` would be left empty (an emptied shard would bounce every
    /// routed query to fall-over). Ties break toward the lowest provider
    /// id (the shard lists are ascending).
    fn migrate_spare_provider(&mut self, from: usize, to: usize, spread_before: f64) {
        let now = self.now;
        let donors = self.router.providers_of_shard(from);
        if donors.len() < 2 {
            return;
        }
        let mut pick = donors[0];
        let mut pick_utilization = f64::INFINITY;
        for &p in donors {
            let utilization = self.population.providers[p].utilization(now).value();
            if utilization < pick_utilization {
                pick_utilization = utilization;
                pick = p;
            }
        }
        self.migrate_provider_with_record(pick, to, spread_before);
    }

    /// Performs one recorded migration of `provider` to shard `to`,
    /// keeping the incremental per-shard capacity totals in step.
    fn migrate_provider_with_record(
        &mut self,
        provider: ProviderId,
        to: usize,
        spread_before: f64,
    ) {
        // Read the donor shard's satisfaction view before the move: the
        // export wipes it there.
        let donor_satisfaction = self
            .router
            .shard_of_provider(provider)
            .map(|shard| {
                self.router
                    .mediator(shard)
                    .state()
                    .provider_satisfaction(provider)
            })
            .unwrap_or(0.0);
        if let Some(migration) = self.router.migrate_provider(provider, to) {
            let agent = &self.population.providers[provider];
            let capacity = agent.capacity().units_per_sec();
            self.shard_capacity[migration.from] -= capacity;
            self.shard_capacity[migration.to] += capacity;
            // The provider's outstanding work moves with it: completions
            // will be credited to the receiving shard from now on, so the
            // backlog must be too, or the donor would carry phantom load.
            let backlog = agent.backlog().value();
            self.shard_backlog[migration.from] -= backlog;
            self.shard_backlog[migration.to] += backlog;
            self.migrations.push(MigrationRecord {
                provider: migration.provider,
                time_secs: self.now.as_secs(),
                from_shard: migration.from,
                to_shard: migration.to,
                spread_before,
                donor_satisfaction,
            });
            self.metrics.migrations.inc();
            if self.obs.is_enabled() {
                self.obs.record(
                    self.now.as_secs(),
                    EventKind::Rebalance {
                        provider: u64::from(migration.provider.raw()),
                        from: migration.from as u64,
                        to: migration.to as u64,
                    },
                );
            }
        }
    }

    fn handle_assessment(&mut self) {
        let now = self.now;
        let optimal_utilization = self.workload_fraction().max(0.05);

        // Departures are only assessed once the sliding utilization windows
        // and satisfaction memories have had time to fill; judging the
        // system on a cold start would make every method shed providers.
        let warmed_up = now.as_secs() >= self.config.departure_warmup_secs;

        if warmed_up && self.config.providers_may_leave {
            let rule = self.config.provider_departure;
            let ids: Vec<ProviderId> = self.population.providers.keys().collect();
            for id in ids {
                let provider = &mut self.population.providers[id];
                if provider.has_departed() {
                    continue;
                }
                let utilization = provider.utilization(now).value();
                let reason = rule.evaluate(
                    provider.strict_satisfaction(),
                    provider.adequation(),
                    utilization,
                    optimal_utilization,
                    provider.proposed_queries(),
                );
                match reason {
                    Some(reason) => {
                        self.provider_strikes[id] += 1;
                        // Overutilization is already smoothed by the sliding
                        // utilization window, so it takes effect at the first
                        // assessment that observes it; dissatisfaction and
                        // starvation must persist across assessments.
                        let required = if reason == sqlb_agents::DepartureReason::Overutilization {
                            1
                        } else {
                            rule.required_consecutive.max(1)
                        };
                        if self.provider_strikes[id] >= required {
                            self.population.depart_provider(id);
                            if let Some(shard) = self.router.shard_of_provider(id) {
                                let agent = &self.population.providers[id];
                                self.shard_capacity[shard] -= agent.capacity().units_per_sec();
                                // Its in-flight completions will no longer
                                // be credited anywhere (the provider has
                                // no shard), so take the outstanding work
                                // off the books now or the shard would
                                // carry phantom load forever.
                                self.shard_backlog[shard] -= agent.backlog().value();
                            }
                            self.router.remove_provider(id);
                            self.mediation.deregister_provider(id);
                            let profile = self.population.profiles[id];
                            self.provider_departures.push(DepartureRecord {
                                provider: id,
                                time_secs: now.as_secs(),
                                reason,
                                profile,
                            });
                        }
                    }
                    None => self.provider_strikes[id] = 0,
                }
            }
        }

        if warmed_up && self.config.consumers_may_leave {
            let rule = self.config.consumer_departure;
            let ids: Vec<ConsumerId> = self.population.consumers.keys().collect();
            for id in ids {
                let consumer = &mut self.population.consumers[id];
                if consumer.has_departed() {
                    continue;
                }
                let reason = rule.evaluate(
                    consumer.satisfaction(),
                    consumer.adequation(),
                    consumer.issued_queries(),
                );
                match reason {
                    Some(_) => {
                        self.consumer_strikes[id] += 1;
                        if self.consumer_strikes[id] >= rule.required_consecutive.max(1) {
                            self.population.depart_consumer(id);
                            self.router.remove_consumer(id);
                            self.mediation.deregister_consumer(id);
                            self.consumer_departures.push(ConsumerDepartureRecord {
                                consumer: id,
                                time_secs: now.as_secs(),
                            });
                        }
                    }
                    None => self.consumer_strikes[id] = 0,
                }
            }
        }

        // Departures are the only place the active indices shrink; in
        // debug builds cross-check them against the departed flags after
        // every assessment (a no-op in release).
        self.population.debug_assert_active_indices_consistent();

        Self::schedule_periodic(
            &mut self.queue,
            self.config.duration_secs,
            &mut self.next_assessment_tick,
            self.config.assessment_interval_secs,
            Event::Assessment,
        );
    }

    fn finish(mut self) -> SimulationReport {
        let now = SimTime::from_secs(self.config.duration_secs);
        let utilizations: Vec<f64> = self
            .population
            .providers
            .values_mut()
            .filter(|p| !p.has_departed())
            .map(|p| p.utilization(now).value())
            .collect();
        let provider_satisfaction: Vec<f64> = self
            .population
            .providers
            .values()
            .filter(|p| !p.has_departed())
            .map(|p| p.smoothed_satisfaction())
            .collect();
        let consumer_satisfaction: Vec<f64> = self
            .population
            .consumers
            .values()
            .filter(|c| !c.has_departed())
            .map(|c| c.satisfaction())
            .collect();

        // Scenario fault accounting: the socket backend counts the
        // replies that really timed out (or found a dead connection) on
        // the wire; the in-process backends count the indifference they
        // fabricated for scenario-faulted endpoints.
        let indifferent_replies = match &self.mediation {
            MediationDriver::Socket(socket) => socket.timed_out_total(),
            _ => self.scenario.as_ref().map_or(0, |s| s.fault_indifference),
        };

        SimulationReport {
            method: self.method_kind.name().to_string(),
            seed: self.config.seed,
            scenario: self
                .scenario
                .as_ref()
                .map_or_else(String::new, |s| s.description.name.clone()),
            churn_departures: self.scenario.as_ref().map_or(0, |s| s.churn_departures),
            churn_rejoins: self.scenario.as_ref().map_or(0, |s| s.churn_rejoins),
            indifferent_replies,
            degraded_waves: self.degraded_waves,
            series: self.series,
            issued_queries: self.issued,
            completed_queries: self.completed,
            unallocated_queries: self.unallocated,
            response_time_sum: self.response_time_sum,
            provider_departures: self.provider_departures,
            consumer_departures: self.consumer_departures,
            initial_providers: self.initial_providers,
            initial_consumers: self.initial_consumers,
            mediator_shards: self.router.shard_count(),
            shard_allocations: self.router.allocations_per_shard(),
            sync_rounds: self.router.sync_rounds(),
            routing_policy: self.routing.name().to_string(),
            migrations: self.migrations,
            rebalance_rounds: self.rebalance_rounds,
            final_utilization: Summary::of(&utilizations),
            final_provider_satisfaction: Summary::of(&provider_satisfaction),
            final_consumer_satisfaction: Summary::of(&consumer_satisfaction),
        }
    }
}

/// Scores one donor candidate for the load-adaptive migration rule, or
/// `None` when moving it could not strictly shrink the allocation gap
/// (`throughput` must lie strictly between 0 and `gap` — the
/// monotone-convergence guard). Lower scores are better.
///
/// The score is the distance of the donor's windowed throughput from half
/// the gap (the move that splits the imbalance evenly), plus a
/// satisfaction penalty: `satisfaction × (gap / 2) × weight`. An
/// under-served donor — a low mediator-side satisfaction reading means
/// its proposals mostly lose on the contended shard — therefore wins
/// against a comparably-matched but well-served one: it frees the least
/// won throughput where it is, and stands to gain the most on the
/// receiving shard, where its proposals face less competition. The
/// bounded weight keeps the penalty a fraction of the target, so
/// satisfaction arbitrates near-ties without overriding a decisively
/// better throughput match.
fn donor_score(throughput: u64, gap: u64, satisfaction: f64, weight: f64) -> Option<f64> {
    if throughput == 0 || throughput >= gap {
        return None;
    }
    let target = gap as f64 / 2.0;
    let distance = (throughput as f64 - target).abs();
    Some(distance + satisfaction.clamp(0.0, 1.0) * target * weight)
}

/// Convenience: builds and runs one simulation.
pub fn run_simulation(
    config: SimulationConfig,
    method: Method,
) -> Result<SimulationReport, SqlbError> {
    Ok(Simulator::new(config, method)?.run())
}

/// Convenience: builds and runs one simulation under a scenario.
pub fn run_scenario(
    config: SimulationConfig,
    method: Method,
    scenario: &Scenario,
) -> Result<SimulationReport, SqlbError> {
    Ok(Simulator::with_scenario(config, method, scenario)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ChurnGroup;
    use crate::workload::WorkloadPattern;
    use sqlb_agents::{
        ConsumerDepartureRule, DepartureReason, EnabledReasons, ProviderDepartureRule,
    };
    use sqlb_types::StableId;

    fn small_config(duration: f64, seed: u64) -> SimulationConfig {
        SimulationConfig::scaled(16, 32, duration, seed)
    }

    #[test]
    fn donor_score_guards_convergence_and_prefers_the_under_served() {
        let weight = Simulator::MIGRATION_SATISFACTION_WEIGHT;
        // The monotone-convergence guard: a zero-throughput donor moves
        // nothing, a ≥gap donor would overshoot and oscillate.
        assert_eq!(donor_score(0, 10, 0.5, weight), None);
        assert_eq!(donor_score(10, 10, 0.5, weight), None);
        assert_eq!(donor_score(15, 10, 0.5, weight), None);

        // Equal distance from half the gap: the lower-satisfaction donor
        // scores strictly better.
        let served = donor_score(5, 10, 0.9, weight).unwrap();
        let under_served = donor_score(5, 10, 0.1, weight).unwrap();
        assert!(under_served < served);

        // The satisfaction penalty is bounded by `weight × gap/2`, so it
        // cannot overturn a decisively better throughput match: a donor on
        // target with satisfaction 1.0 still beats one a full half-gap off
        // target with satisfaction 0.0.
        let on_target_served = donor_score(5, 10, 1.0, weight).unwrap();
        let off_target_under_served = donor_score(1, 10, 0.0, weight).unwrap();
        assert!(on_target_served < off_target_under_served);

        // Out-of-range satisfaction readings are clamped, not amplified.
        assert_eq!(
            donor_score(3, 10, -4.0, weight),
            donor_score(3, 10, 0.0, weight)
        );
        assert_eq!(
            donor_score(3, 10, 7.0, weight),
            donor_score(3, 10, 1.0, weight)
        );
    }

    #[test]
    fn captive_run_completes_and_accounts_for_queries() {
        let report = run_simulation(
            small_config(300.0, 1).with_workload(WorkloadPattern::Fixed(0.5)),
            Method::Sqlb,
        )
        .unwrap();
        assert!(report.issued_queries > 100, "got {}", report.issued_queries);
        assert!(report.completed_queries > 0);
        assert!(report.completed_queries <= report.issued_queries);
        assert_eq!(report.unallocated_queries, 0);
        assert!(report.mean_response_time() > 0.0);
        assert!(report.provider_departures.is_empty());
        assert!(report.consumer_departures.is_empty());
        assert!(!report.series.utilization_mean.is_empty());
        assert_eq!(report.method, "SQLB");
        assert_eq!(report.mediator_shards, 1);
        assert_eq!(report.sync_rounds, 0, "a mono-mediator run never syncs");
        assert_eq!(report.shard_allocations.len(), 1);
        assert_eq!(report.shard_allocations[0], report.issued_queries);
    }

    #[test]
    fn runs_are_deterministic_for_a_given_seed() {
        let a = run_simulation(small_config(200.0, 3), Method::CapacityBased).unwrap();
        let b = run_simulation(small_config(200.0, 3), Method::CapacityBased).unwrap();
        assert_eq!(a.issued_queries, b.issued_queries);
        assert_eq!(a.completed_queries, b.completed_queries);
        assert_eq!(
            a.series.utilization_mean.values(),
            b.series.utilization_mean.values()
        );
        let c = run_simulation(small_config(200.0, 4), Method::CapacityBased).unwrap();
        assert_ne!(a.issued_queries, c.issued_queries);
    }

    #[test]
    fn explicit_k1_is_bit_identical_to_the_default_mono_engine() {
        // The acceptance bar for the sharding refactor: asking for one
        // shard must reproduce the mono-mediator pipeline exactly, sample
        // by sample.
        let mono = run_simulation(small_config(300.0, 9), Method::Sqlb).unwrap();
        let k1 = run_simulation(
            small_config(300.0, 9)
                .with_mediator_shards(1)
                .with_sync_interval(10.0),
            Method::Sqlb,
        )
        .unwrap();
        assert_eq!(mono.issued_queries, k1.issued_queries);
        assert_eq!(mono.completed_queries, k1.completed_queries);
        assert_eq!(
            mono.series.utilization_mean.values(),
            k1.series.utilization_mean.values()
        );
        assert_eq!(
            mono.series.consumer_allocation_satisfaction_mean.values(),
            k1.series.consumer_allocation_satisfaction_mean.values()
        );
        assert_eq!(mono.mean_response_time(), k1.mean_response_time());
    }

    #[test]
    fn sharded_runs_complete_and_spread_allocations() {
        for shards in [2usize, 4] {
            let report = run_simulation(
                small_config(300.0, 21)
                    .with_workload(WorkloadPattern::Fixed(0.5))
                    .with_mediator_shards(shards),
                Method::Sqlb,
            )
            .unwrap();
            assert_eq!(report.mediator_shards, shards);
            assert_eq!(report.shard_allocations.len(), shards);
            assert!(
                report.shard_allocations.iter().all(|&a| a > 0),
                "every shard should mediate some queries: {:?}",
                report.shard_allocations
            );
            assert_eq!(
                report.shard_allocations.iter().sum::<u64>(),
                report.issued_queries - report.unallocated_queries
            );
            assert!(report.sync_rounds > 0, "sharded runs synchronize views");
            assert!(report.completion_rate() > 0.5);
        }
    }

    #[test]
    fn per_shard_series_are_recorded() {
        for shards in [1usize, 4] {
            let report = run_simulation(
                small_config(300.0, 21)
                    .with_workload(WorkloadPattern::Fixed(0.5))
                    .with_mediator_shards(shards),
                Method::Sqlb,
            )
            .unwrap();
            let series = &report.series;
            assert_eq!(series.shard_utilization.len(), shards);
            assert_eq!(series.shard_satisfaction.len(), shards);
            let samples = series.utilization_mean.len();
            for shard in 0..shards {
                assert_eq!(series.shard_utilization[shard].len(), samples);
                assert_eq!(series.shard_satisfaction[shard].len(), samples);
                assert!(series.shard_utilization[shard].mean_after(100.0) > 0.0);
            }
            assert_eq!(series.shard_utilization_spread.len(), samples);
            if shards == 1 {
                // One shard owns everything: its series equals the global
                // mean and the spread is identically zero.
                assert_eq!(
                    series.shard_utilization[0].values(),
                    series.utilization_mean.values()
                );
                assert!(series
                    .shard_utilization_spread
                    .values()
                    .iter()
                    .all(|&v| v == 0.0));
            } else {
                assert!(series.shard_utilization_spread.mean_after(100.0) > 0.0);
            }
        }
    }

    #[test]
    fn sharded_runs_are_deterministic_too() {
        let config = small_config(250.0, 33).with_mediator_shards(4);
        let a = run_simulation(config, Method::Sqlb).unwrap();
        let b = run_simulation(config, Method::Sqlb).unwrap();
        assert_eq!(a.issued_queries, b.issued_queries);
        assert_eq!(a.shard_allocations, b.shard_allocations);
        assert_eq!(
            a.series.consumer_satisfaction_mean.values(),
            b.series.consumer_satisfaction_mean.values()
        );
    }

    #[test]
    fn queries_fall_over_to_other_shards_when_one_empties() {
        // One provider per shard: any single departure empties a shard.
        // An aggressive starvation rule makes the under-utilized
        // high-capacity providers leave while the small ones stay busy and
        // survive. Captive consumers routed to an emptied shard must fall
        // over to a surviving shard instead of being dropped — unallocated
        // queries are only legitimate once *every* provider has left.
        let aggressive_starvation = ProviderDepartureRule {
            starvation_fraction: 0.9,
            min_proposed_queries: 1,
            required_consecutive: 1,
            enabled: EnabledReasons {
                dissatisfaction: false,
                starvation: true,
                overutilization: false,
            },
            ..ProviderDepartureRule::default()
        };
        let config = SimulationConfig::scaled(8, 4, 900.0, 17)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_provider_departures(aggressive_starvation)
            .with_mediator_shards(4);
        let report = run_simulation(config, Method::MariposaLike).unwrap();
        assert!(
            !report.provider_departures.is_empty(),
            "the scenario needs at least one emptied shard to be meaningful"
        );
        assert!(
            report.provider_departures.len() < report.initial_providers,
            "some provider must survive for fall-over to have a target"
        );
        assert_eq!(
            report.unallocated_queries, 0,
            "queries to an emptied shard must fall over while providers remain"
        );
    }

    #[test]
    fn all_methods_run_at_moderate_workload() {
        for method in [
            Method::Sqlb,
            Method::CapacityBased,
            Method::MariposaLike,
            Method::Random,
            Method::RoundRobin,
        ] {
            let report = run_simulation(
                small_config(150.0, 5).with_workload(WorkloadPattern::Fixed(0.6)),
                method,
            )
            .unwrap();
            assert!(report.issued_queries > 0, "{method:?} issued no query");
            assert!(
                report.completion_rate() > 0.5,
                "{method:?} completed only {}",
                report.completion_rate()
            );
        }
    }

    #[test]
    fn sqlb_satisfies_consumers_more_than_capacity_based() {
        let config = small_config(400.0, 11).with_workload(WorkloadPattern::Fixed(0.6));
        let sqlb = run_simulation(config, Method::Sqlb).unwrap();
        let capacity = run_simulation(config, Method::CapacityBased).unwrap();
        let sqlb_cas = sqlb
            .series
            .consumer_allocation_satisfaction_mean
            .last_value()
            .unwrap();
        let cap_cas = capacity
            .series
            .consumer_allocation_satisfaction_mean
            .last_value()
            .unwrap();
        assert!(
            sqlb_cas > 1.0,
            "SQLB should satisfy consumers (δas > 1), got {sqlb_cas}"
        );
        assert!(
            sqlb_cas > cap_cas,
            "SQLB {sqlb_cas} should beat Capacity based {cap_cas}"
        );
    }

    #[test]
    fn capacity_based_balances_load_best() {
        let config = small_config(400.0, 13).with_workload(WorkloadPattern::Fixed(0.7));
        let capacity = run_simulation(config, Method::CapacityBased).unwrap();
        let mariposa = run_simulation(config, Method::MariposaLike).unwrap();
        let cap_fair = capacity.series.utilization_fairness.mean_after(100.0);
        let mar_fair = mariposa.series.utilization_fairness.mean_after(100.0);
        assert!(
            cap_fair > mar_fair,
            "Capacity based fairness {cap_fair} should exceed Mariposa-like {mar_fair}"
        );
    }

    #[test]
    fn autonomous_run_records_departures() {
        let config = small_config(600.0, 17)
            .with_workload(WorkloadPattern::Fixed(0.8))
            .with_provider_departures(ProviderDepartureRule::with_enabled(EnabledReasons::ALL));
        let report = run_simulation(config, Method::MariposaLike).unwrap();
        assert!(
            !report.provider_departures.is_empty(),
            "Mariposa-like at 80% workload should lose providers"
        );
        assert!(report.provider_departure_fraction() <= 1.0);
        // Departed providers are reflected in the active-provider series.
        let last_active = report.series.active_providers.last_value().unwrap();
        assert!(last_active < report.initial_providers as f64);
    }

    /// Runs `sim` event by event and, after every `Sample`, asserts that
    /// the mediator reads what the agents read, bit for bit: each live
    /// provider's `provider_satisfaction` on its shard against the agent's
    /// smoothed satisfaction and, under static routing, each live
    /// consumer's reading on its home shard against the agent's own.
    /// Returns the report and the number of samples checked.
    fn run_checking_mediator_against_agents(mut sim: Simulator) -> (SimulationReport, u32) {
        let static_routing = !sim.routing.reacts_to_load();
        let mut samples = 0;
        while let Some(event) = sim.step() {
            if event != Event::Sample {
                continue;
            }
            samples += 1;
            let at = sim.now.as_secs();
            for (id, agent) in sim.population.providers.iter() {
                if agent.has_departed() {
                    continue;
                }
                let shard = sim.router.shard_of_provider(id).expect("live provider");
                assert_eq!(
                    sim.router
                        .mediator(shard)
                        .state()
                        .provider_satisfaction(id)
                        .to_bits(),
                    agent.smoothed_satisfaction().to_bits(),
                    "provider {id:?} at {at}s"
                );
            }
            if static_routing {
                let shards = sim.router.shard_count();
                for (id, agent) in sim.population.consumers.iter() {
                    if agent.has_departed() {
                        continue;
                    }
                    let state = sim.router.mediator(id.slot() % shards).state();
                    assert_eq!(
                        state.consumer_satisfaction(id).to_bits(),
                        agent.satisfaction().to_bits(),
                        "consumer {id:?} at {at}s"
                    );
                }
            }
        }
        (sim.finish(), samples)
    }

    #[test]
    fn the_mediator_reads_like_the_agents_through_every_departure_reason() {
        let config = small_config(600.0, 17)
            .with_workload(WorkloadPattern::Fixed(0.8))
            .with_provider_departures(ProviderDepartureRule::with_enabled(EnabledReasons::ALL))
            .with_consumer_departures(ConsumerDepartureRule::default());
        // SQLB is the paper's method; the Mariposa-like run adds
        // overutilized providers and departing consumers.
        let mut reasons = Vec::new();
        let mut consumer_departures = 0;
        for method in [Method::Sqlb, Method::MariposaLike] {
            let sim = Simulator::new(config, method).unwrap();
            let (report, samples) = run_checking_mediator_against_agents(sim);
            assert!(samples > 0);
            reasons.extend(report.provider_departures.iter().map(|d| d.reason));
            consumer_departures += report.consumer_departures.len();
        }
        for reason in [
            DepartureReason::Dissatisfaction,
            DepartureReason::Starvation,
            DepartureReason::Overutilization,
        ] {
            assert!(reasons.contains(&reason), "no {reason:?} departure");
        }
        assert!(consumer_departures > 0);
    }

    #[test]
    fn the_mediator_reads_like_the_agents_across_migration_and_churn() {
        for rejoin in [RejoinPolicy::Resume, RejoinPolicy::Reset] {
            let config = SimulationConfig::scaled(32, 64, 300.0, 5)
                .with_workload(WorkloadPattern::Fixed(0.6))
                .with_mediator_shards(4)
                .with_migration(true);
            let mut scenario = Scenario::steady("churn");
            scenario.churn.push(ChurnGroup {
                fraction: 0.5,
                depart_at_secs: 60.0,
                rejoin_at_secs: Some(150.0),
                rejoin,
            });
            let sim = Simulator::with_scenario(config, Method::Sqlb, &scenario).unwrap();
            let (report, samples) = run_checking_mediator_against_agents(sim);
            assert!(samples > 0);
            assert!(!report.migrations.is_empty(), "{rejoin:?}");
            assert!(report.churn_rejoins > 0, "{rejoin:?}");
        }
    }

    #[test]
    fn non_dyadic_intervals_do_not_drift() {
        // Regression: periodic events used to be scheduled at
        // `previous + interval`, so a non-dyadic interval like 0.1 s
        // accumulated rounding drift and could change the number of
        // samples a run records. Tick-based scheduling pins sample `k` at
        // exactly `k × interval`.
        let mut config = small_config(100.0, 7).with_workload(WorkloadPattern::Fixed(0.4));
        config.sample_interval_secs = 0.1;
        let report = run_simulation(config, Method::Sqlb).unwrap();
        let points = report.series.utilization_mean.points();
        assert_eq!(
            points.len(),
            1000,
            "100 s at a 0.1 s cadence is exactly 1000 samples"
        );
        for (i, point) in points.iter().enumerate() {
            let expected = (i + 1) as f64 * 0.1;
            assert_eq!(
                point.time.to_bits(),
                expected.to_bits(),
                "sample {i} drifted: {} != {expected}",
                point.time
            );
        }
    }

    #[test]
    fn tick_scheduling_matches_repeated_addition_for_dyadic_intervals() {
        // The flip side of the drift fix: for dyadic intervals (every
        // committed configuration) the tick schedule is bit-identical to
        // the old one, which is what keeps historical seeds reproducible.
        let report = run_simulation(
            small_config(300.0, 1).with_workload(WorkloadPattern::Fixed(0.5)),
            Method::Sqlb,
        )
        .unwrap();
        let interval = 3.0; // 300 s / 100 samples
        for (i, point) in report.series.utilization_mean.points().iter().enumerate() {
            let mut by_addition = 0.0f64;
            for _ in 0..=i {
                by_addition += interval;
            }
            assert_eq!(point.time.to_bits(), by_addition.to_bits());
        }
    }

    #[test]
    fn every_mediation_backend_reproduces_the_same_run_bit_for_bit() {
        // The acceptance bar for the reactor rewrite: routing the gather
        // step through scoped threads or the asynchronous reactor
        // must not change a single bit of the report — the backends ask
        // the same agents the same questions in the same order.
        let config = small_config(150.0, 9).with_workload(WorkloadPattern::Fixed(0.6));
        let inline = run_simulation(config, Method::Sqlb).unwrap();
        let threaded = run_simulation(
            config.with_mediation(crate::MediationMode::Threaded),
            Method::Sqlb,
        )
        .unwrap();
        let reactor = run_simulation(
            config.with_mediation(crate::MediationMode::Reactor),
            Method::Sqlb,
        )
        .unwrap();
        assert_eq!(inline.digest(), threaded.digest());
        assert_eq!(inline.digest(), reactor.digest());
        assert_eq!(
            inline.series.utilization_mean.values(),
            reactor.series.utilization_mean.values()
        );
    }

    #[test]
    fn the_reactor_backend_supports_bids_and_shards() {
        // The economic method gathers bids through the wave, and K>1 runs
        // mediate per-shard candidate sets through it.
        let config = small_config(150.0, 5)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_mediator_shards(2);
        let inline = run_simulation(config, Method::MariposaLike).unwrap();
        let reactor = run_simulation(
            config.with_mediation(crate::MediationMode::Reactor),
            Method::MariposaLike,
        )
        .unwrap();
        assert_eq!(inline.digest(), reactor.digest());
        assert_eq!(inline.shard_allocations, reactor.shard_allocations);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = small_config(100.0, 0);
        config.duration_secs = -1.0;
        assert!(Simulator::new(config, Method::Sqlb).is_err());
    }

    #[test]
    fn the_socket_backend_reproduces_the_run_bit_for_bit() {
        // The acceptance bar for the transport: gathering over real
        // loopback TCP sockets (frames out, frames back, replies
        // computed from the decoded wire content) must not change a
        // single bit of the report relative to the in-process backends.
        let config = small_config(150.0, 9).with_workload(WorkloadPattern::Fixed(0.6));
        let inline = run_simulation(config, Method::Sqlb).unwrap();
        let socket = run_simulation(
            config.with_mediation(crate::MediationMode::Socket),
            Method::Sqlb,
        )
        .unwrap();
        let reactor = run_simulation(
            config.with_mediation(crate::MediationMode::Reactor),
            Method::Sqlb,
        )
        .unwrap();
        assert_eq!(socket.digest(), inline.digest());
        assert_eq!(socket.digest(), reactor.digest());
        assert_eq!(
            socket.series.utilization_mean.values(),
            inline.series.utilization_mean.values()
        );
    }

    #[test]
    fn same_instant_socket_arrivals_coalesce_into_one_wave() {
        // Force a burst of arrivals onto one virtual instant (the Poisson
        // process essentially never produces dt = 0 on its own) and check
        // the socket backend mediates them in fewer waves than arrivals —
        // while still issuing and allocating every one of them.
        let config = small_config(60.0, 23)
            .with_workload(WorkloadPattern::Fixed(0.5))
            .with_mediator_shards(2)
            .with_mediation(crate::MediationMode::Socket);
        let mut sim = Simulator::new(config, Method::Sqlb).unwrap();
        for _ in 0..8 {
            sim.queue
                .schedule(SimTime::from_secs(0.0), Event::QueryArrival);
        }
        let (time, event) = sim.queue.pop().unwrap();
        assert_eq!(time.as_secs(), 0.0);
        assert!(matches!(event, Event::QueryArrival));
        sim.now = time;
        sim.handle_arrival();

        assert_eq!(sim.issued, 8, "the whole burst is drained in one turn");
        let MediationDriver::Socket(socket) = &sim.mediation else {
            unreachable!("the test runs the socket backend");
        };
        let waves = socket.last_round().wave;
        assert!(
            waves < 8,
            "8 same-instant arrivals should coalesce into fewer waves, ran {waves}"
        );
        assert!(
            waves >= 4,
            "2 shards bound the batch width at 2, so at least 4 waves must run, ran {waves}"
        );
    }

    #[test]
    fn single_shard_least_loaded_runs_keep_the_coalesced_arrival_path() {
        // Regression: load-reactive routing used to suspend the coalesced
        // socket-arrival path unconditionally, K = 1 included. With a
        // single shard every route is shard 0 no matter what the policy
        // observes, so there is nothing for the batched drain to get
        // wrong — the guard now keeps the path engaged, and this pins
        // that it stays bit-identical to the sequential interleaving and
        // to the inline engine (same-instant bursts included).
        let run = |mode: crate::MediationMode, coalesce: bool| {
            let config = small_config(90.0, 23)
                .with_workload(WorkloadPattern::Fixed(0.5))
                .with_routing(crate::RoutingPolicyKind::LeastLoaded)
                .with_mediation(mode)
                .with_socket_wave_coalescing(coalesce);
            let mut sim = Simulator::new(config, Method::Sqlb).unwrap();
            for _ in 0..6 {
                sim.queue
                    .schedule(SimTime::from_secs(0.5), Event::QueryArrival);
            }
            sim.run()
        };
        let coalesced = run(crate::MediationMode::Socket, true);
        let sequential = run(crate::MediationMode::Socket, false);
        let inline = run(crate::MediationMode::Inline, true);
        assert_eq!(coalesced.digest(), sequential.digest());
        assert_eq!(coalesced.digest(), inline.digest());
        assert_eq!(coalesced.issued_queries, sequential.issued_queries);
    }

    #[test]
    fn coalesced_socket_waves_stay_bit_identical() {
        // Same forced burst, full runs: coalescing on vs. off must agree
        // bit for bit — the draws, the mediated answers and the
        // allocation order all line up with the sequential interleaving.
        let run = |coalesce: bool| {
            let config = small_config(120.0, 11)
                .with_workload(WorkloadPattern::Fixed(0.6))
                .with_mediator_shards(2)
                .with_mediation(crate::MediationMode::Socket)
                .with_socket_wave_coalescing(coalesce);
            let mut sim = Simulator::new(config, Method::Sqlb).unwrap();
            for _ in 0..6 {
                sim.queue
                    .schedule(SimTime::from_secs(0.5), Event::QueryArrival);
            }
            sim.run()
        };
        let coalesced = run(true);
        let sequential = run(false);
        assert_eq!(coalesced.digest(), sequential.digest());
        assert_eq!(coalesced.issued_queries, sequential.issued_queries);
        assert_eq!(
            coalesced.series.utilization_mean.values(),
            sequential.series.utilization_mean.values()
        );
    }

    #[test]
    fn the_socket_backend_supports_bids_shards_and_many_hosts() {
        let config = small_config(150.0, 5)
            .with_workload(WorkloadPattern::Fixed(0.6))
            .with_mediator_shards(2);
        let inline = run_simulation(config, Method::MariposaLike).unwrap();
        for hosts in [1usize, 4] {
            let socket = run_simulation(
                config
                    .with_mediation(crate::MediationMode::Socket)
                    .with_socket_hosts(hosts),
                Method::MariposaLike,
            )
            .unwrap();
            assert_eq!(socket.digest(), inline.digest(), "hosts={hosts}");
            assert_eq!(socket.shard_allocations, inline.shard_allocations);
        }
    }

    #[test]
    fn the_socket_backend_survives_departures() {
        // Departures deregister endpoints from the wave server and close
        // emptied host connections; the run must stay bit-identical to
        // the inline engine throughout.
        let config = small_config(600.0, 17)
            .with_workload(WorkloadPattern::Fixed(0.8))
            .with_provider_departures(ProviderDepartureRule::with_enabled(EnabledReasons::ALL));
        let inline = run_simulation(config, Method::MariposaLike).unwrap();
        assert!(!inline.provider_departures.is_empty());
        let socket = run_simulation(
            config.with_mediation(crate::MediationMode::Socket),
            Method::MariposaLike,
        )
        .unwrap();
        assert_eq!(socket.digest(), inline.digest());
        assert_eq!(
            socket.provider_departures.len(),
            inline.provider_departures.len()
        );
    }

    #[test]
    fn a_dropped_socket_host_is_severed_even_when_the_first_wave_misses_it() {
        // Regression: the drop used to be spent on the first wave at or
        // after its instant, but a wave skips the hosts it does not
        // address. At K = 2 over 2 hosts with static routing, a wave on
        // shard s reaches only host s (its consumer and its providers all
        // have ids ≡ s mod 2), so a first wave on shard 0 used to leave
        // host 1 connected and answering for the rest of the run.
        let mut scenario = Scenario::steady("drop-missed");
        scenario.faults.push(TransportFault::DropHost {
            host: 1,
            at_secs: 10.0,
        });
        let config = small_config(60.0, 3)
            .with_mediator_shards(2)
            .with_mediation(crate::MediationMode::Socket)
            .with_socket_hosts(2)
            .with_wave_timeout_ms(200);
        let mut sim = Simulator::with_scenario(config, Method::Sqlb, &scenario).unwrap();
        sim.now = SimTime::from_secs(10.0);
        let arrival_on = |sim: &Simulator, raw: u32| {
            let consumer = ConsumerId::new(raw);
            let shard = raw as usize;
            PreparedArrival {
                query: Query::single(QueryId::new(raw), consumer, QueryClass::Light, sim.now),
                shard,
                candidates: sim.router.providers_of_shard(shard).to_vec(),
            }
        };
        let live_hosts = |sim: &Simulator| match &sim.mediation {
            MediationDriver::Socket(socket) => socket.live_hosts(),
            _ => unreachable!("the test runs the socket backend"),
        };

        let first = arrival_on(&sim, 0);
        sim.mediate_socket_batch(vec![first]);
        assert_eq!(
            live_hosts(&sim),
            2,
            "a wave on shard 0 never touches host 1"
        );

        let second = arrival_on(&sim, 1);
        sim.mediate_socket_batch(vec![second]);
        assert_eq!(
            live_hosts(&sim),
            1,
            "the first wave addressing host 1 drops it"
        );
        assert!(!sim.scratch.infos.is_empty());
        for info in &sim.scratch.infos {
            assert_eq!(info.consumer_intention, 0.0);
            assert_eq!(info.provider_intention, 0.0);
            assert_eq!(info.utilization, 0.0);
        }
    }
}
