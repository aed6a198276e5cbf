//! The traced replay: a workload's event loop rebuilt from the layers'
//! public entry points, with a span around every call into a layer.
//!
//! The loop follows `Simulator::run` step for step — the same random
//! draws in the same order, the same event queue, the same allocation,
//! bookkeeping, departure, synchronization and rebalancing calls — so it
//! makes the same decisions as the engine on the same configuration. The
//! caller checks that by comparing the replay's counts with the engine's
//! report. Two things differ on purpose: the metric `Sample` sweep is
//! engine-private and changes no state, so it is left out (and attributed
//! by difference instead), and the socket backend mediates one arrival
//! per wave instead of coalescing same-instant arrivals.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlb_agents::{DepartureReason, Population};
use sqlb_core::mediator_state::MediatorStateConfig;
use sqlb_core::{CandidateInfo, MediatorView, SelectionSet};
use sqlb_mediation::{
    decode_mediator_message, decode_participant_reply, encode_mediator_message_into,
    encode_participant_reply_into, FrameAssembler, IntentionWave, Latency, MediatorMessage,
    ParticipantReply, ProviderAnswer, Reactor, RuntimeConfig,
};
use sqlb_obs::Obs;
use sqlb_reputation::ReputationStore;
use sqlb_sim::events::{Event, EventQueue};
use sqlb_sim::workload::{arrival_rate, sample_interarrival};
use sqlb_sim::{
    MediationMode, Method, RoutingPolicy, ShardLoadView, ShardRouter, SimulationConfig,
};
use sqlb_transport::{
    route_reply_frame, Applied, ServerConfig, SocketMediator, WaveJobs, WaveLedger,
};
use sqlb_types::{
    ConsumerId, ProviderId, Query, QueryClass, QueryId, SimDuration, SimTime, SlotColumn, WorkUnits,
};

use crate::trace::{OpenSpan, Tracer};

/// The engine's rebalancing constants (`Simulator::handle_rebalance`).
const ALLOCATION_IMBALANCE_TRIGGER: f64 = 1.25;
const MIN_ALLOCATION_DELTA: u64 = 8;
const MIGRATION_SATISFACTION_WEIGHT: f64 = 0.25;

/// Bytes per segment the codec pass feeds the frame assembler: one
/// Ethernet TCP segment, so frames straddle reads as they do on a wire.
const SEGMENT_BYTES: usize = 1_460;

enum Backend {
    Inline,
    Reactor(Box<Reactor>),
    Socket(Box<SocketMediator>),
}

/// One socket wave as it was gathered, kept for the codec pass.
pub struct WaveRecord {
    pub query: Query,
    pub candidates: Vec<ProviderId>,
    pub infos: Vec<CandidateInfo>,
}

/// What the replay did, for the layer table and the engine cross-check.
#[derive(Default)]
pub struct ReplayOutcome {
    pub loop_start_ns: u64,
    pub loop_end_ns: u64,
    pub events: u64,
    pub issued: u64,
    pub completed: u64,
    pub unallocated: u64,
    pub candidates: u64,
    pub provider_departures: u64,
    pub consumer_departures: u64,
    pub migrations: u64,
    pub rebalance_rounds: u64,
    pub sync_rounds: u64,
    pub degraded_replies: u64,
    pub allocations_per_shard: Vec<u64>,
    pub waves: Vec<WaveRecord>,
}

struct Replay<'t> {
    config: SimulationConfig,
    tracer: &'t Tracer,
    population: Population,
    router: ShardRouter,
    routing: Box<dyn RoutingPolicy>,
    backend: Backend,
    reputation: ReputationStore,
    shard_backlog: Vec<f64>,
    shard_capacity: Vec<f64>,
    rng: StdRng,
    queue: EventQueue,
    busy_until: SlotColumn<ProviderId, f64>,
    provider_strikes: SlotColumn<ProviderId, u32>,
    consumer_strikes: SlotColumn<ConsumerId, u32>,
    now: SimTime,
    next_query_id: u32,
    next_assessment_tick: u64,
    next_sync_tick: u64,
    next_rebalance_tick: u64,
    total_capacity: f64,
    initial_consumers: usize,
    allocations_at_last_rebalance: Vec<u64>,
    performed_at_last_rebalance: HashMap<ProviderId, u64>,
    infos: Vec<CandidateInfo>,
    shown_cis: Vec<f64>,
    selected_indices: Vec<usize>,
    selection: SelectionSet,
    out: ReplayOutcome,
}

/// Replays `config` under `method` with spans recorded into `tracer` and
/// the mediation backend's own instruments recording into `obs`. Every
/// socket wave's request and gathered answers are kept for
/// [`codec_pass`].
pub fn replay(
    config: SimulationConfig,
    method: Method,
    tracer: &Tracer,
    obs: &Obs,
) -> Result<ReplayOutcome, String> {
    let mut replay = Replay::build(config, method, tracer, obs)?;
    replay.run();
    Ok(replay.finish())
}

impl<'t> Replay<'t> {
    fn build(
        config: SimulationConfig,
        method: Method,
        tracer: &'t Tracer,
        obs: &Obs,
    ) -> Result<Self, String> {
        config.validate().map_err(|e| e.to_string())?;
        let population = tracer
            .span("setup.population", None, None, |_| {
                Population::generate(&config.population)
            })
            .map_err(|e| e.to_string())?;
        let mut router = tracer.span("setup.router", None, None, |_| {
            let state_config = MediatorStateConfig {
                consumer_window: config.population.consumer_config.memory,
                provider_proposed_window: config.population.provider_config.proposed_memory,
                provider_performed_window: config.population.provider_config.performed_memory,
                initial_satisfaction: config.population.provider_config.initial_satisfaction,
            };
            ShardRouter::new(
                config.mediator_shards,
                method,
                config.seed,
                state_config,
                population.providers.keys(),
            )
        });
        router.set_scoring_threads(config.scoring_threads);
        let timeout = Duration::from_millis(config.wave_timeout_ms);
        let backend = tracer.span("setup.backend", None, None, |_| match config.mediation {
            MediationMode::Inline => Ok(Backend::Inline),
            MediationMode::Reactor => {
                let mut reactor = Reactor::new(RuntimeConfig {
                    timeout,
                    request_bids: method.uses_bids(),
                });
                for id in population.consumers.keys() {
                    reactor.register_consumer(id, Latency::Immediate);
                }
                for id in population.providers.keys() {
                    reactor.register_provider(id, Latency::Immediate);
                }
                reactor.set_obs(obs);
                Ok(Backend::Reactor(Box::new(reactor)))
            }
            MediationMode::Socket => SocketMediator::loopback(
                config.socket_hosts,
                ServerConfig {
                    timeout,
                    request_bids: method.uses_bids(),
                },
                population.consumers.keys(),
                population.providers.keys(),
            )
            .map(|mut m| {
                m.set_obs(obs.clone());
                Backend::Socket(Box::new(m))
            })
            .map_err(|e| format!("socket bring-up failed: {e}")),
            MediationMode::Threaded => Err("the threaded backend is not replayed".to_string()),
        })?;
        let shard_capacity = (0..router.shard_count())
            .map(|shard| {
                router
                    .providers_of_shard(shard)
                    .iter()
                    .map(|&p| population.providers[p].capacity().units_per_sec())
                    .sum()
            })
            .collect();
        let providers = population.providers.len();
        let consumers = population.consumers.len();
        Ok(Replay {
            tracer,
            routing: config.routing.build(),
            shard_backlog: vec![0.0; router.shard_count()],
            shard_capacity,
            router,
            backend,
            reputation: ReputationStore::neutral(),
            rng: StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17)),
            queue: EventQueue::new(),
            busy_until: SlotColumn::with_len(providers, 0.0),
            provider_strikes: SlotColumn::with_len(providers, 0),
            consumer_strikes: SlotColumn::with_len(consumers, 0),
            now: SimTime::ZERO,
            next_query_id: 0,
            next_assessment_tick: 1,
            next_sync_tick: 1,
            next_rebalance_tick: 1,
            total_capacity: population.total_capacity(),
            initial_consumers: consumers,
            allocations_at_last_rebalance: Vec::new(),
            performed_at_last_rebalance: HashMap::new(),
            infos: Vec::new(),
            shown_cis: Vec::new(),
            selected_indices: Vec::new(),
            selection: SelectionSet::default(),
            out: ReplayOutcome::default(),
            population,
            config,
        })
    }

    fn run(&mut self) {
        let first = self.next_interarrival();
        if first.is_finite() {
            self.queue
                .schedule(SimTime::from_secs(first), Event::QueryArrival);
        }
        let c = self.config;
        self.queue.schedule(
            SimTime::from_secs(c.assessment_interval_secs),
            Event::Assessment,
        );
        if self.router.shard_count() > 1 {
            self.queue
                .schedule(SimTime::from_secs(c.sync_interval_secs), Event::SyncViews);
            if c.migration_enabled {
                self.queue.schedule(
                    SimTime::from_secs(c.rebalance_interval_secs),
                    Event::Rebalance,
                );
            }
        }

        let tracer = self.tracer;
        self.out.loop_start_ns = tracer.now_ns();
        while let Some((time, event)) = self.queue.pop() {
            if time.as_secs() > c.duration_secs {
                break;
            }
            self.now = time;
            let mut span = tracer.start("sim.event", None, None);
            match event {
                Event::QueryArrival => self.arrival(&mut span),
                Event::QueryCompletion { provider, work, .. } => {
                    tracer.span("agents.complete", Some(span.id), None, |_| {
                        self.complete(provider, work)
                    })
                }
                Event::Assessment => {
                    tracer.span("sim.assessment", Some(span.id), None, |_| self.assess())
                }
                Event::SyncViews => tracer.span("sim.sync", Some(span.id), None, |_| {
                    self.router.sync_views();
                    Self::reschedule(
                        &mut self.queue,
                        c.duration_secs,
                        &mut self.next_sync_tick,
                        c.sync_interval_secs,
                        Event::SyncViews,
                    );
                }),
                Event::Rebalance => {
                    tracer.span("sim.rebalance", Some(span.id), None, |_| self.rebalance())
                }
                Event::Sample | Event::ChurnDepart { .. } | Event::ChurnRejoin { .. } => {
                    unreachable!("the replay schedules no sample or churn events")
                }
            }
            tracer.end(span);
            self.out.events += 1;
        }
        self.out.loop_end_ns = tracer.now_ns();
    }

    fn finish(mut self) -> ReplayOutcome {
        self.out.allocations_per_shard = self.router.allocations_per_shard();
        self.out.sync_rounds = self.router.sync_rounds();
        // Dropping the socket backend joins its host threads.
        self.backend = Backend::Inline;
        std::mem::take(&mut self.out)
    }

    fn reschedule(
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

    fn workload_fraction(&self) -> f64 {
        self.config
            .workload
            .fraction_at(self.now.as_secs(), self.config.duration_secs)
    }

    fn next_interarrival(&mut self) -> f64 {
        let consumer_fraction = if self.initial_consumers == 0 {
            0.0
        } else {
            self.population.active_consumer_count() as f64 / self.initial_consumers as f64
        };
        let rate = arrival_rate(
            self.workload_fraction(),
            self.total_capacity,
            Population::mean_query_cost(),
        ) * consumer_fraction;
        sample_interarrival(&mut self.rng, rate)
    }

    fn arrival(&mut self, event: &mut OpenSpan) {
        let dt = self.next_interarrival();
        if dt.is_finite() {
            let at = self.now + SimDuration::from_secs(dt);
            if at.as_secs() <= self.config.duration_secs {
                self.queue.schedule(at, Event::QueryArrival);
            }
        }
        let consumers = self.population.active_consumer_ids();
        if consumers.is_empty() {
            return;
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
        self.out.issued += 1;
        let arrival = Some(query.id.raw());
        event.arrival = arrival;
        let parent = Some(event.id);
        let tracer = self.tracer;

        let shard = tracer.span("sim.route", parent, arrival, |_| {
            let preferred = self.routing.route(
                consumer,
                &self.router,
                ShardLoadView {
                    backlog: &self.shard_backlog,
                    capacity: &self.shard_capacity,
                },
            );
            let count = self.router.shard_count();
            (0..count)
                .map(|offset| (preferred + offset) % count)
                .find(|&s| !self.router.providers_of_shard(s).is_empty())
        });
        let Some(shard) = shard else {
            self.out.unallocated += 1;
            return;
        };

        let candidates = self.router.providers_of_shard(shard);
        self.out.candidates += candidates.len() as u64;
        self.out.degraded_replies += gather(
            &mut self.backend,
            &mut self.population,
            &self.reputation,
            tracer,
            &query,
            candidates,
            self.now,
            event.id,
            &mut self.infos,
        );
        if matches!(self.backend, Backend::Socket(_)) {
            self.out.waves.push(WaveRecord {
                query: query.clone(),
                candidates: candidates.to_vec(),
                infos: self.infos.clone(),
            });
        }

        let allocation = tracer.span("core.allocate", parent, arrival, |_| {
            self.router.allocate(shard, &query, &self.infos)
        });

        tracer.span("agents.record", parent, arrival, |_| {
            let now = self.now;
            self.selection.rebuild(&allocation);
            self.shown_cis.clear();
            self.shown_cis
                .extend(self.infos.iter().map(|i| i.consumer_intention));
            self.selected_indices.clear();
            let selection = &self.selection;
            self.selected_indices.extend(
                self.infos
                    .iter()
                    .enumerate()
                    .filter(|(_, i)| selection.contains(i.provider))
                    .map(|(idx, _)| idx),
            );
            self.population.consumers[consumer].record_allocation(
                &self.shown_cis,
                &self.selected_indices,
                query.n,
            );
            for info in &self.infos {
                self.population.providers[info.provider].record_proposal(
                    &query,
                    info.provider_intention,
                    selection.contains(info.provider),
                );
            }
            self.shard_backlog[shard] += query.cost().value() * allocation.selected.len() as f64;
            for &p in &allocation.selected {
                let processing = self.population.providers[p].assign(&query, now);
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
        });
    }

    fn complete(&mut self, provider: ProviderId, work: WorkUnits) {
        self.population.providers[provider].complete(work);
        if let Some(shard) = self.router.shard_of_provider(provider) {
            self.shard_backlog[shard] -= work.value();
        }
        self.out.completed += 1;
    }

    fn assess(&mut self) {
        let now = self.now;
        let optimal_utilization = self.workload_fraction().max(0.05);
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
                let Some(reason) = reason else {
                    self.provider_strikes[id] = 0;
                    continue;
                };
                self.provider_strikes[id] += 1;
                let required = if reason == DepartureReason::Overutilization {
                    1
                } else {
                    rule.required_consecutive.max(1)
                };
                if self.provider_strikes[id] < required {
                    continue;
                }
                self.population.depart_provider(id);
                if let Some(shard) = self.router.shard_of_provider(id) {
                    let agent = &self.population.providers[id];
                    self.shard_capacity[shard] -= agent.capacity().units_per_sec();
                    self.shard_backlog[shard] -= agent.backlog().value();
                }
                self.router.remove_provider(id);
                match &mut self.backend {
                    Backend::Reactor(reactor) => reactor.deregister_provider(id),
                    Backend::Socket(socket) => socket.deregister_provider(id),
                    Backend::Inline => {}
                }
                self.out.provider_departures += 1;
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
                let fired = rule
                    .evaluate(
                        consumer.satisfaction(),
                        consumer.adequation(),
                        consumer.issued_queries(),
                    )
                    .is_some();
                if !fired {
                    self.consumer_strikes[id] = 0;
                    continue;
                }
                self.consumer_strikes[id] += 1;
                if self.consumer_strikes[id] >= rule.required_consecutive.max(1) {
                    self.population.depart_consumer(id);
                    self.router.remove_consumer(id);
                    match &mut self.backend {
                        Backend::Reactor(reactor) => reactor.deregister_consumer(id),
                        Backend::Socket(socket) => socket.deregister_consumer(id),
                        Backend::Inline => {}
                    }
                    self.out.consumer_departures += 1;
                }
            }
        }

        let c = self.config;
        Self::reschedule(
            &mut self.queue,
            c.duration_secs,
            &mut self.next_assessment_tick,
            c.assessment_interval_secs,
            Event::Assessment,
        );
    }

    fn rebalance(&mut self) {
        let c = self.config;
        Self::reschedule(
            &mut self.queue,
            c.duration_secs,
            &mut self.next_rebalance_tick,
            c.rebalance_interval_secs,
            Event::Rebalance,
        );
        self.out.rebalance_rounds += 1;
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

    fn rebalance_utilization(&mut self) {
        let now = self.now;
        let mut hottest: Option<(usize, f64)> = None;
        let mut coldest: Option<(usize, f64)> = None;
        for shard in 0..self.router.shard_count() {
            let providers = self.router.providers_of_shard(shard);
            if providers.is_empty() {
                continue;
            }
            let sum: f64 = providers
                .iter()
                .map(|&p| self.population.providers[p].utilization(now).value())
                .sum();
            let utilization = sum / providers.len() as f64;
            if hottest.is_none_or(|(_, u)| utilization > u) {
                hottest = Some((shard, utilization));
            }
            if coldest.is_none_or(|(_, u)| utilization < u) {
                coldest = Some((shard, utilization));
            }
        }
        let (Some((hot, hot_u)), Some((cold, cold_u))) = (hottest, coldest) else {
            return;
        };
        if hot == cold || hot_u - cold_u < self.config.migration_min_spread {
            return;
        }
        let donors = self.router.providers_of_shard(cold);
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
        self.migrate(pick, hot);
    }

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
        if busy == idle || busy_count < MIN_ALLOCATION_DELTA {
            return;
        }
        if (busy_count as f64) < ALLOCATION_IMBALANCE_TRIGGER * idle_count.max(1) as f64 {
            return;
        }
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
                .get(&p)
                .copied()
                .unwrap_or(0);
            let Some(score) = donor_score(
                performed.saturating_sub(previous),
                gap,
                busy_state.provider_satisfaction(p),
            ) else {
                continue;
            };
            if score < pick_score {
                pick_score = score;
                pick = Some(p);
            }
        }
        if let Some(provider) = pick {
            self.migrate(provider, idle);
        }
    }

    fn migrate(&mut self, provider: ProviderId, to: usize) {
        if let Some(migration) = self.router.migrate_provider(provider, to) {
            let agent = &self.population.providers[provider];
            let capacity = agent.capacity().units_per_sec();
            self.shard_capacity[migration.from] -= capacity;
            self.shard_capacity[migration.to] += capacity;
            let backlog = agent.backlog().value();
            self.shard_backlog[migration.from] -= backlog;
            self.shard_backlog[migration.to] += backlog;
            self.out.migrations += 1;
        }
    }
}

/// The engine's load-adaptive donor score (`donor_score` in the engine):
/// `None` unless moving the donor strictly shrinks the gap.
fn donor_score(throughput: u64, gap: u64, satisfaction: f64) -> Option<f64> {
    if throughput == 0 || throughput >= gap {
        return None;
    }
    let target = gap as f64 / 2.0;
    let distance = (throughput as f64 - target).abs();
    Some(distance + satisfaction.clamp(0.0, 1.0) * target * MIGRATION_SATISFACTION_WEIGHT)
}

/// Gathers the candidate infos of `query` through the backend into
/// `infos` (Algorithm 1, lines 2–5), with a span per backend call and
/// one per participant answer. Returns the replies that degraded to
/// indifference.
#[allow(clippy::too_many_arguments)]
fn gather(
    backend: &mut Backend,
    population: &mut Population,
    reputation: &ReputationStore,
    tracer: &Tracer,
    query: &Query,
    candidates: &[ProviderId],
    now: SimTime,
    parent: u32,
    infos: &mut Vec<CandidateInfo>,
) -> u64 {
    let arrival = Some(query.id.raw());
    let consumer_agent = &population.consumers[query.consumer];
    let providers = &mut population.providers;
    match backend {
        Backend::Inline => tracer.span("agents.intention", Some(parent), arrival, |_| {
            infos.clear();
            for &p in candidates {
                let ci = consumer_agent.intention_for(query, p, reputation);
                let (pi, utilization) = providers[p].intention_and_utilization(query, now);
                infos.push(
                    CandidateInfo::new(p)
                        .with_consumer_intention(ci)
                        .with_provider_intention(pi)
                        .with_utilization(utilization),
                );
            }
            0
        }),
        Backend::Reactor(reactor) => {
            tracer.span("reactor.wave", Some(parent), arrival, |wave_id| {
                let mut wave = IntentionWave::new();
                wave.consumer(query.consumer, None, move || {
                    tracer.span("agents.intention", Some(wave_id), arrival, |_| {
                        vec![(
                            query.id,
                            candidates
                                .iter()
                                .map(|&p| (p, consumer_agent.intention_for(query, p, reputation)))
                                .collect(),
                        )]
                    })
                });
                for (p, agent) in providers.iter_mut_of(candidates) {
                    wave.provider(p, None, move || {
                        tracer.span("agents.intention", Some(wave_id), arrival, |_| {
                            let (intention, utilization) =
                                agent.intention_and_utilization(query, now);
                            vec![ProviderAnswer {
                                query: query.id,
                                intention,
                                utilization,
                                bid: None,
                            }]
                        })
                    });
                }
                let replies = reactor.run_wave(wave);
                let timed_out = reactor.last_round().timed_out as u64;
                let requests = [(query.clone(), candidates.to_vec())];
                infos.clear();
                infos.extend(
                    replies
                        .into_candidate_infos(&requests)
                        .into_iter()
                        .flatten(),
                );
                timed_out
            })
        }
        Backend::Socket(socket) => {
            tracer.span("transport.gather", Some(parent), arrival, |gather_id| {
                let mut jobs = WaveJobs::new();
                jobs.consumer(query.consumer, move |decoded| {
                    tracer.span("agents.intention", Some(gather_id), arrival, |_| {
                        decoded
                            .iter()
                            .map(|(q, cands)| {
                                (
                                    q.id,
                                    cands
                                        .iter()
                                        .map(|&p| {
                                            (p, consumer_agent.intention_for(q, p, reputation))
                                        })
                                        .collect(),
                                )
                            })
                            .collect()
                    })
                });
                for (p, agent) in providers.iter_mut_of(candidates) {
                    jobs.provider(p, move |decoded, request_bids| {
                        tracer.span("agents.intention", Some(gather_id), arrival, |_| {
                            decoded
                                .iter()
                                .map(|q| {
                                    let (intention, utilization) =
                                        agent.intention_and_utilization(q, now);
                                    ProviderAnswer {
                                        query: q.id,
                                        intention,
                                        utilization,
                                        bid: request_bids.then(|| agent.bid_for(q, now)),
                                    }
                                })
                                .collect()
                        })
                    });
                }
                let before = socket.timed_out_total();
                let requests = [(query.clone(), candidates.to_vec())];
                let gathered = socket.gather(&requests, jobs);
                infos.clear();
                infos.extend(gathered.into_iter().flatten());
                socket.timed_out_total() - before
            })
        }
    }
}

/// What the codec pass did.
#[derive(Debug, Default)]
pub struct CodecOutcome {
    pub frames_encoded: u64,
    pub frames_decoded: u64,
    pub bytes_reassembled: u64,
    pub replies_credited: u64,
    /// Every frame decoded back to the message it was encoded from, the
    /// assembler cut the segmented streams into the same frames, and
    /// every reply was credited to its wave.
    pub round_trip_ok: bool,
}

/// Runs the wire stages on the workload's own waves: encodes each wave's
/// requests and replies, cuts the byte streams back into frames through
/// a [`FrameAssembler`] fed in TCP-segment-sized pieces, decodes every
/// frame, and credits the replies to a [`WaveLedger`] planned for the
/// wave, with one span per stage per wave.
pub fn codec_pass(waves: &[WaveRecord], hosts: usize, tracer: &Tracer) -> CodecOutcome {
    let hosts = hosts.max(1);
    let home = |raw: u32| raw as usize % hosts;
    let mut out = CodecOutcome {
        round_trip_ok: true,
        ..CodecOutcome::default()
    };
    let mut request_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut outbox = Vec::new();
    for (index, record) in waves.iter().enumerate() {
        let wave = index as u64;
        let query = &record.query;
        let arrival = Some(query.id.raw());
        let requests: Vec<MediatorMessage> =
            std::iter::once(MediatorMessage::ConsumerWaveRequest {
                wave,
                consumer: query.consumer,
                requests: vec![(query.clone(), record.candidates.clone())],
            })
            .chain(
                record
                    .candidates
                    .iter()
                    .map(|&provider| MediatorMessage::ProviderWaveRequest {
                        wave,
                        provider,
                        queries: vec![query.clone()],
                        request_bids: false,
                    }),
            )
            .chain(std::iter::once(MediatorMessage::WaveEnd { wave }))
            .collect();
        let replies: Vec<ParticipantReply> = std::iter::once(ParticipantReply::ConsumerWaveReply {
            wave,
            consumer: query.consumer,
            intentions: vec![(
                query.id,
                record
                    .infos
                    .iter()
                    .map(|i| (i.provider, i.consumer_intention))
                    .collect(),
            )],
        })
        .chain(
            record
                .infos
                .iter()
                .map(|i| ParticipantReply::ProviderWaveReply {
                    wave,
                    provider: i.provider,
                    utilization: i.utilization,
                    intentions: vec![(query.id, i.provider_intention, None)],
                }),
        )
        .collect();
        let reply_slots: Vec<usize> = std::iter::once(home(query.consumer.raw()))
            .chain(record.infos.iter().map(|i| home(i.provider.raw())))
            .collect();
        let frames = (requests.len() + replies.len()) as u64;

        request_bytes.clear();
        reply_bytes.clear();
        tracer.span("protocol.encode", None, arrival, |_| {
            for message in &requests {
                encode_mediator_message_into(message, &mut request_bytes);
            }
            for reply in &replies {
                encode_participant_reply_into(reply, &mut reply_bytes);
            }
        });
        out.frames_encoded += frames;

        let reassembled = tracer.span("protocol.reassemble", None, arrival, |_| {
            let mut cut = 0u64;
            for stream in [&request_bytes, &reply_bytes] {
                let mut assembler = FrameAssembler::new();
                for segment in stream.chunks(SEGMENT_BYTES) {
                    assembler.extend(segment);
                    while let Ok(Some(_)) = assembler.next_frame() {
                        cut += 1;
                    }
                }
            }
            cut
        });
        out.bytes_reassembled += (request_bytes.len() + reply_bytes.len()) as u64;
        out.round_trip_ok &= reassembled == frames;

        let decoded = tracer.span("protocol.decode", None, arrival, |_| {
            let mut messages = Vec::with_capacity(requests.len());
            let mut at = 0;
            while at < request_bytes.len() {
                let Ok((message, used)) = decode_mediator_message(&request_bytes[at..]) else {
                    break;
                };
                messages.push(message);
                at += used;
            }
            let mut answers = Vec::with_capacity(replies.len());
            let mut at = 0;
            while at < reply_bytes.len() {
                let Ok((reply, used)) = decode_participant_reply(&reply_bytes[at..]) else {
                    break;
                };
                answers.push(reply);
                at += used;
            }
            (messages, answers)
        });
        out.frames_decoded += (decoded.0.len() + decoded.1.len()) as u64;
        out.round_trip_ok &= decoded.0 == requests && decoded.1 == replies;

        let consumer_home: BTreeMap<ConsumerId, usize> =
            [(query.consumer, home(query.consumer.raw()))].into();
        let provider_home: BTreeMap<ProviderId, usize> = record
            .candidates
            .iter()
            .map(|&p| (p, home(p.raw())))
            .collect();
        let mut ledger = WaveLedger::plan(
            wave,
            &[(query.clone(), record.candidates.clone())],
            &consumer_home,
            &provider_home,
            hosts,
            |_| true,
            false,
            &mut outbox,
        );
        let credited = tracer.span("transport.credit", None, arrival, |_| {
            let mut credited = 0u64;
            let mut at = 0;
            for &slot in &reply_slots {
                let Some(prefix) = reply_bytes.get(at..at + 4) else {
                    break;
                };
                let len =
                    4 + u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
                let Some(frame) = reply_bytes.get(at..at + len) else {
                    break;
                };
                if let Ok(Applied::Counted) =
                    route_reply_frame(frame, std::iter::once(&mut ledger), slot)
                {
                    credited += 1;
                }
                at += len;
            }
            credited
        });
        out.replies_credited += credited;
        out.round_trip_ok &= credited == replies.len() as u64 && ledger.is_complete();
    }
    out
}
