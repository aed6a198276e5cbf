//! The asynchronous mediation reactor.
//!
//! A thread per registered endpoint caps a mediation host at a few
//! thousand participants. In the reactor, participant endpoints are
//! *polled state machines* driven by a single event loop instead, so one
//! host can run tens of thousands of endpoints in one thread.
//!
//! # How a wave runs
//!
//! One mediation round ("wave") multiplexes one batched intention request
//! per distinct participant (Algorithm 1, lines 2–5, over a whole batch of
//! queries). Each endpoint touched by the wave enters a tiny state
//! machine:
//!
//! ```text
//!            deliver                 poll               reply
//!   Idle ──────────────▶ Pending ──────────▶ Ready ────────────▶ Answered
//!                           │ (readiness queue / timer heap)
//!                           │ deadline passes
//!                           ▼
//!                        TimedOut   →   reply read as indifference (0)
//! ```
//!
//! * endpoints whose reply is available immediately go straight onto the
//!   **readiness queue** and are polled by the event loop in FIFO order;
//! * endpoints with a modelled latency ([`Latency::After`]) are parked in
//!   a **timer heap** and re-queued when the reactor's clock reaches their
//!   readiness instant;
//! * endpoints that never answer ([`Latency::Never`]) stay `Pending` until
//!   the **per-wave deadline** (the configured timeout) passes, at which
//!   point every outstanding reply degrades to indifference — exactly the
//!   *waituntil / timeout* step of Algorithm 1, line 5.
//!
//! The reactor clock is **virtual**: it advances to the next timer (or to
//! the deadline) instead of sleeping, so a 50 000-endpoint wave with a
//! 200 ms timeout completes in microseconds of wall time and the
//! timeout-to-indifference transition happens at *exactly* the configured
//! deadline, reproducibly. Wall-clock latency modelling stays available
//! through the scoped-thread comparison backend ([`run_wave_threaded`]),
//! which interprets the same wave with real sleeps and a real deadline —
//! the two backends agree on every reply value, which is what keeps
//! simulation report digests bit-identical between them.
//!
//! # Entry points
//!
//! [`AsyncMediator`] is the owned-endpoint facade: register endpoints,
//! gather a batch's intentions in one wave with
//! [`AsyncMediator::gather_batch`] (or its single-query convenience
//! [`AsyncMediator::gather`]), hand each query's candidate information to
//! [`sqlb_core::Mediator::allocate`] — the one place that decides and
//! records an allocation — and deliver the result with
//! [`AsyncMediator::notify`]. Embedders that already own
//! their participants (the simulator engine) build an [`IntentionWave`]
//! directly, borrowing their agents in the wave's jobs, and hand it to
//! [`Reactor::run_wave`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::time::Duration;

use sqlb_core::allocation::{Allocation, Bid, CandidateInfo};
use sqlb_obs::{Counter, EventKind, Histogram, Obs};
use sqlb_types::{ConsumerId, ParticipantTable, ProviderId, Query, QueryId};

use crate::runtime::{ConsumerEndpoint, ProviderEndpoint, RuntimeConfig};

/// Pre-resolved observability instruments of a [`Reactor`] — no-op
/// handles until [`Reactor::set_obs`] installs an enabled
/// [`sqlb_obs::Obs`], so the event loop pays one predictable branch per
/// wave when observability is off. Flight-recorder events are stamped
/// with the reactor's *virtual* clock, so a recorded trace lines up
/// with the deterministic simulation timeline rather than wall time.
#[derive(Debug, Default)]
struct ReactorMetrics {
    /// Waves the event loop has run.
    waves: Counter,
    /// Requests delivered to endpoint state machines.
    requests_delivered: Counter,
    /// Replies that arrived before (or exactly at) a deadline.
    replies_answered: Counter,
    /// Requests that degraded to indifference at a deadline.
    replies_timed_out: Counter,
    /// Per-wave virtual gather latency, seconds.
    wave_virtual_seconds: Histogram,
}

impl ReactorMetrics {
    /// Resolves every instrument from `obs` (no-ops when disabled).
    fn resolve(obs: &Obs) -> Self {
        ReactorMetrics {
            waves: obs.counter("reactor_waves"),
            requests_delivered: obs.counter("reactor_requests_delivered"),
            replies_answered: obs.counter("reactor_replies_answered"),
            replies_timed_out: obs.counter("reactor_replies_timed_out"),
            wave_virtual_seconds: obs.histogram("reactor_wave_virtual_seconds"),
        }
    }
}

/// When an endpoint's reply becomes available after a request is
/// delivered to it.
///
/// The reactor interprets delays in *virtual* time (its clock jumps, it
/// never sleeps); the threaded backend interprets the same values in real
/// time. Either way a reply that would land after the wave deadline is
/// read as indifference.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Latency {
    /// The reply is available as soon as the event loop polls the
    /// endpoint (an in-process participant).
    #[default]
    Immediate,
    /// The reply becomes available after the given delay (a remote or
    /// busy participant). A delay at or under the wave timeout arrives; a
    /// longer one degrades to indifference.
    After(Duration),
    /// The endpoint never answers (crashed or partitioned participant);
    /// every reply expected from it degrades to indifference when the
    /// deadline passes.
    Never,
}

/// A consumer's reply to one wave: per query, its intention towards every
/// candidate provider of that query (the vector `CI_q`, Definition 7).
pub type ConsumerBatchAnswer = Vec<(QueryId, Vec<(ProviderId, f64)>)>;

/// A provider's reply to one wave: one [`ProviderAnswer`] per query of the
/// wave that listed it as a candidate.
pub type ProviderBatchAnswer = Vec<ProviderAnswer>;

/// One provider's answer for one query of a wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderAnswer {
    /// The query the answer is about.
    pub query: QueryId,
    /// The provider's intention `pi_p(q)` (Definition 8).
    pub intention: f64,
    /// The provider's current utilization, as shown to the mediator
    /// (methods that do not read it ignore it; the Capacity-based
    /// baseline relies on it).
    pub utilization: f64,
    /// The provider's bid, when the wave requested one (economic
    /// methods).
    pub bid: Option<Bid>,
}

type ConsumerJob<'a> = Box<dyn FnOnce() -> ConsumerBatchAnswer + Send + 'a>;
type ProviderJob<'a> = Box<dyn FnOnce() -> ProviderBatchAnswer + Send + 'a>;

/// A consumer endpoint temporarily detached from the facade for one wave,
/// together with its share of the wave's requests.
type DetachedConsumer = (
    ConsumerId,
    Box<dyn ConsumerEndpoint>,
    Vec<(Query, Vec<ProviderId>)>,
);
/// A provider endpoint temporarily detached from the facade for one wave.
type DetachedProvider = (ProviderId, Box<dyn ProviderEndpoint>, Vec<Query>);

/// A request of a wave. The job is taken when the event loop polls the
/// endpoint, so a task is polled at most once.
struct ConsumerTask<'a> {
    id: ConsumerId,
    latency: Option<Latency>,
    job: Option<ConsumerJob<'a>>,
}

struct ProviderTask<'a> {
    id: ProviderId,
    latency: Option<Latency>,
    job: Option<ProviderJob<'a>>,
}

/// One wave of intention requests: at most one batched request per
/// distinct participant, each carried by a *job* (the closure that
/// computes the participant's reply when its state machine reaches
/// `Ready`).
///
/// Jobs may borrow the caller's participant state — the simulator builds
/// waves whose jobs borrow its agents directly — which is why the wave is
/// lifetime-parameterized and consumed by a single run.
#[derive(Default)]
pub struct IntentionWave<'a> {
    consumers: Vec<ConsumerTask<'a>>,
    providers: Vec<ProviderTask<'a>>,
}

impl<'a> IntentionWave<'a> {
    /// Creates an empty wave.
    pub fn new() -> Self {
        IntentionWave::default()
    }

    /// Creates an empty wave with room for `consumers` consumer and
    /// `providers` provider requests.
    pub fn with_capacity(consumers: usize, providers: usize) -> Self {
        IntentionWave {
            consumers: Vec::with_capacity(consumers),
            providers: Vec::with_capacity(providers),
        }
    }

    /// Adds a consumer's batched intention request. `latency` overrides
    /// the endpoint's latency for this wave; `None` means the reactor
    /// falls back to the endpoint's registered profile, while the
    /// threaded backend — which keeps no profiles — treats `None` as
    /// [`Latency::Immediate`]. Pass an explicit `Some` when a wave must
    /// behave identically on both backends with a non-immediate latency.
    pub fn consumer(
        &mut self,
        id: ConsumerId,
        latency: Option<Latency>,
        job: impl FnOnce() -> ConsumerBatchAnswer + Send + 'a,
    ) {
        self.consumers.push(ConsumerTask {
            id,
            latency,
            job: Some(Box::new(job)),
        });
    }

    /// Adds a provider's batched intention request. `latency` overrides
    /// the endpoint's latency for this wave; `None` resolves as described
    /// on [`IntentionWave::consumer`].
    pub fn provider(
        &mut self,
        id: ProviderId,
        latency: Option<Latency>,
        job: impl FnOnce() -> ProviderBatchAnswer + Send + 'a,
    ) {
        self.providers.push(ProviderTask {
            id,
            latency,
            job: Some(Box::new(job)),
        });
    }

    /// Number of participant requests in the wave.
    pub fn len(&self) -> usize {
        self.consumers.len() + self.providers.len()
    }

    /// Whether the wave carries no request at all.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty() && self.providers.is_empty()
    }
}

/// The replies of one wave, in the order the requests were added.
/// `None` marks a participant whose reply missed the deadline (or that
/// never answers): every value expected from it is read as indifference.
pub struct WaveReplies {
    /// Per consumer request: the consumer and its reply, if it arrived.
    pub consumers: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)>,
    /// Per provider request: the provider and its reply, if it arrived.
    pub providers: Vec<(ProviderId, Option<ProviderBatchAnswer>)>,
}

impl WaveReplies {
    /// Assembles the candidate information of a batch of queries from the
    /// wave's replies — one [`CandidateInfo`] vector per input query, in
    /// input order, with indifference (`0`) filled in for every missing
    /// answer (Algorithm 1, line 5).
    ///
    /// A single-query batch goes through
    /// [`WaveReplies::into_query_infos`]; larger batches read the replies
    /// keyed by `(query, provider)`.
    pub fn into_candidate_infos(
        self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<Vec<CandidateInfo>> {
        if let [(query, candidates)] = requests {
            let mut infos = Vec::with_capacity(candidates.len());
            self.into_query_infos(query.id, candidates, &mut infos);
            return vec![infos];
        }
        let keyed = KeyedReplies::new(self);
        requests
            .iter()
            .map(|(query, candidates)| {
                let mut infos = Vec::with_capacity(candidates.len());
                keyed.assemble(query.id, candidates, &mut infos);
                infos
            })
            .collect()
    }

    /// Single-query form of [`WaveReplies::into_candidate_infos`]: clears
    /// `out` and fills it with one [`CandidateInfo`] per candidate of
    /// `query`, in candidate order — the same values
    /// `into_candidate_infos(&[(query, candidates)])` returns, written into
    /// the caller's buffer.
    ///
    /// When the replies line up with the request (the shape of a
    /// one-query wave: at most one consumer request, one provider request
    /// per candidate in candidate order, each reply one answer for
    /// `query`) they are read by position. Anything else falls back to the
    /// keyed read.
    pub fn into_query_infos(
        self,
        query: QueryId,
        candidates: &[ProviderId],
        out: &mut Vec<CandidateInfo>,
    ) {
        out.clear();
        if self.assemble_positional(query, candidates, out) {
            return;
        }
        out.clear();
        KeyedReplies::new(self).assemble(query, candidates, out);
    }

    /// The positional read behind [`WaveReplies::into_query_infos`].
    /// Returns `false` (leaving `out` partly filled) as soon as a reply
    /// does not line up with its position. The candidates must be
    /// strictly ascending: with a repeated provider the keyed read keeps
    /// the last value for both positions, which a positional read would
    /// not reproduce.
    fn assemble_positional(
        &self,
        query: QueryId,
        candidates: &[ProviderId],
        out: &mut Vec<CandidateInfo>,
    ) -> bool {
        let consumer_intentions: Option<&[(ProviderId, f64)]> = match self.consumers.as_slice() {
            [] | [(_, None)] => None,
            [(_, Some(reply))] => match reply.as_slice() {
                [(q, per_provider)] if *q == query && per_provider.len() == candidates.len() => {
                    Some(per_provider)
                }
                _ => return false,
            },
            _ => return false,
        };
        if self.providers.len() != candidates.len() {
            return false;
        }
        let mut previous = None;
        for (i, (&p, (provider, reply))) in candidates.iter().zip(&self.providers).enumerate() {
            if *provider != p || previous >= Some(p) {
                return false;
            }
            previous = Some(p);
            let ci = match consumer_intentions {
                Some(per_provider) if per_provider[i].0 == p => per_provider[i].1,
                Some(_) => return false,
                None => 0.0,
            };
            let answer = match reply.as_deref() {
                None => None,
                Some([answer]) if answer.query == query => Some(answer),
                Some(_) => return false,
            };
            out.push(candidate_info(p, ci, answer));
        }
        true
    }
}

/// A wave's replies keyed by `(query, provider)`: the general read, for
/// replies in any order, of any multiplicity, or about any query. A later
/// value for the same key replaces an earlier one; a key nobody answered
/// reads as indifference.
struct KeyedReplies {
    consumer_intentions: HashMap<(QueryId, ProviderId), f64>,
    provider_answers: HashMap<(QueryId, ProviderId), ProviderAnswer>,
}

impl KeyedReplies {
    fn new(replies: WaveReplies) -> Self {
        let mut consumer_intentions = HashMap::new();
        for (_, reply) in replies.consumers {
            let Some(reply) = reply else { continue };
            for (query, per_provider) in reply {
                for (provider, intention) in per_provider {
                    consumer_intentions.insert((query, provider), intention);
                }
            }
        }
        let mut provider_answers = HashMap::new();
        for (provider, reply) in replies.providers {
            let Some(reply) = reply else { continue };
            for answer in reply {
                provider_answers.insert((answer.query, provider), answer);
            }
        }
        KeyedReplies {
            consumer_intentions,
            provider_answers,
        }
    }

    /// Appends one [`CandidateInfo`] per candidate of `query` to `out`.
    fn assemble(&self, query: QueryId, candidates: &[ProviderId], out: &mut Vec<CandidateInfo>) {
        out.extend(candidates.iter().map(|&p| {
            let ci = self
                .consumer_intentions
                .get(&(query, p))
                .copied()
                .unwrap_or(0.0);
            candidate_info(p, ci, self.provider_answers.get(&(query, p)))
        }));
    }
}

/// One candidate's information from its consumer intention and its
/// provider's answer; a missing answer reads as indifference (Algorithm 1,
/// line 5). Every backend builds its candidate information through this
/// one rule.
#[inline]
pub fn candidate_info(
    provider: ProviderId,
    ci: f64,
    answer: Option<&ProviderAnswer>,
) -> CandidateInfo {
    let mut info = CandidateInfo::new(provider)
        .with_consumer_intention(ci)
        .with_provider_intention(answer.map_or(0.0, |a| a.intention))
        .with_utilization(answer.map_or(0.0, |a| a.utilization));
    if let Some(bid) = answer.and_then(|a| a.bid) {
        info = info.with_bid(bid);
    }
    info
}

/// What happened during one wave, in the reactor's virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundStats {
    /// Identifier of the wave (1-based, monotonically increasing).
    pub wave: u64,
    /// Requests delivered to endpoints.
    pub delivered: usize,
    /// Replies that arrived before (or exactly at) the deadline.
    pub answered: usize,
    /// Requests still outstanding when the deadline passed; their values
    /// were read as indifference.
    pub timed_out: usize,
    /// Virtual time the wave took: the arrival instant of the last reply,
    /// or exactly the configured timeout when any endpoint timed out.
    pub virtual_elapsed: Duration,
    /// Whether the wave ran into its deadline (`timed_out > 0`).
    pub hit_deadline: bool,
}

/// Per-endpoint bookkeeping the reactor keeps for registered endpoints.
#[derive(Debug, Clone, Copy, Default)]
struct EndpointProfile {
    latency: Latency,
    timeouts: u64,
}

/// The mediation reactor: a single-threaded event loop driving
/// participant-endpoint state machines over a virtual clock.
///
/// Registration is light (one small profile per endpoint, no thread, no
/// channel), which is what lets one reactor track tens of thousands of
/// endpoints. Profiles live in tables indexed by the endpoint's id, sized
/// to the largest registered id. Waves reference endpoints by id; an id
/// that was never registered is served with the default profile (its
/// reply is [`Latency::Immediate`]).
pub struct Reactor {
    config: RuntimeConfig,
    consumers: ParticipantTable<ConsumerId, EndpointProfile>,
    providers: ParticipantTable<ProviderId, EndpointProfile>,
    /// Virtual clock, in nanoseconds. Advances monotonically across waves.
    now_nanos: u64,
    waves: u64,
    last_round: RoundStats,
    /// Observability sink (disabled by default).
    obs: Obs,
    /// Pre-resolved instruments (see [`ReactorMetrics`]).
    metrics: ReactorMetrics,
    /// The event loop's readiness queue and timer heap, kept across waves
    /// so a wave schedules without allocating. Both are empty between
    /// waves.
    ready: VecDeque<usize>,
    timers: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Reactor {
    /// Creates a reactor with the given timeout/bid configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        Reactor {
            config,
            consumers: ParticipantTable::new(),
            providers: ParticipantTable::new(),
            now_nanos: 0,
            waves: 0,
            last_round: RoundStats::default(),
            obs: Obs::disabled(),
            metrics: ReactorMetrics::default(),
            ready: VecDeque::new(),
            timers: BinaryHeap::new(),
        }
    }

    /// The reactor's configuration.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// Installs an observability sink and resolves the reactor's
    /// instruments against it. Wave events recorded from here on are
    /// stamped with the reactor's virtual clock. With a disabled sink
    /// (the default) every instrument stays a no-op and the event loop
    /// is unchanged.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.metrics = ReactorMetrics::resolve(obs);
        self.obs = obs.clone();
    }

    /// Registers a consumer endpoint with a latency profile.
    pub fn register_consumer(&mut self, id: ConsumerId, latency: Latency) {
        self.consumers.insert(
            id,
            EndpointProfile {
                latency,
                ..EndpointProfile::default()
            },
        );
    }

    /// Registers a provider endpoint with a latency profile.
    pub fn register_provider(&mut self, id: ProviderId, latency: Latency) {
        self.providers.insert(
            id,
            EndpointProfile {
                latency,
                ..EndpointProfile::default()
            },
        );
    }

    /// Removes a consumer endpoint (e.g. on departure).
    pub fn deregister_consumer(&mut self, id: ConsumerId) {
        self.consumers.remove(id);
    }

    /// Removes a provider endpoint (e.g. on departure).
    pub fn deregister_provider(&mut self, id: ProviderId) {
        self.providers.remove(id);
    }

    /// Number of registered consumer endpoints.
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// Number of registered provider endpoints.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Number of waves the reactor has run.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// The reactor's virtual clock (total virtual time across all waves).
    pub fn virtual_now(&self) -> Duration {
        Duration::from_nanos(self.now_nanos)
    }

    /// Statistics of the most recent wave.
    pub fn last_round(&self) -> RoundStats {
        self.last_round
    }

    /// How many waves a registered provider endpoint missed the deadline
    /// of (0 for unregistered ids).
    pub fn provider_timeouts(&self, id: ProviderId) -> u64 {
        self.providers.get(id).map_or(0, |p| p.timeouts)
    }

    /// Runs one wave to completion on the event loop and returns its
    /// replies.
    ///
    /// The loop drains the readiness queue, advancing the virtual clock
    /// to the next parked timer whenever the queue runs dry, until every
    /// reply has arrived or the clock reaches the wave deadline — at
    /// which point every outstanding request is marked timed out and its
    /// values degrade to indifference.
    pub fn run_wave(&mut self, mut wave: IntentionWave<'_>) -> WaveReplies {
        self.waves += 1;
        let start = self.now_nanos;
        let timeout_nanos = duration_nanos(self.config.timeout);
        let deadline = start.saturating_add(timeout_nanos);

        let consumer_count = wave.consumers.len();
        let total = wave.len();
        self.metrics.waves.inc();
        self.metrics.requests_delivered.add(total as u64);
        if self.obs.is_enabled() {
            self.obs.record(
                Duration::from_nanos(start).as_secs_f64(),
                EventKind::WaveBegun {
                    wave: self.waves,
                    delivered: total as u64,
                },
            );
        }

        // Tokens < consumer_count index the consumer tasks; the rest index
        // the provider tasks. A reply slot stays `None` until its endpoint
        // is polled.
        let mut consumer_replies: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)> =
            Vec::with_capacity(consumer_count);
        let mut provider_replies: Vec<(ProviderId, Option<ProviderBatchAnswer>)> =
            Vec::with_capacity(wave.providers.len());
        self.ready.clear();
        self.timers.clear();

        // Delivery: every task enters the state machine according to its
        // effective latency (wave override, else registered profile).
        for (token, task) in wave.consumers.iter().enumerate() {
            let latency = task.latency.unwrap_or_else(|| {
                self.consumers
                    .get(task.id)
                    .map(|p| p.latency)
                    .unwrap_or_default()
            });
            Self::deliver(
                token,
                latency,
                start,
                deadline,
                &mut self.ready,
                &mut self.timers,
            );
            consumer_replies.push((task.id, None));
        }
        for (i, task) in wave.providers.iter().enumerate() {
            let latency = task.latency.unwrap_or_else(|| {
                self.providers
                    .get(task.id)
                    .map(|p| p.latency)
                    .unwrap_or_default()
            });
            Self::deliver(
                consumer_count + i,
                latency,
                start,
                deadline,
                &mut self.ready,
                &mut self.timers,
            );
            provider_replies.push((task.id, None));
        }

        // The event loop.
        let mut answered = 0usize;
        let mut clock = start;
        loop {
            while let Some(token) = self.ready.pop_front() {
                if token < consumer_count {
                    let job = wave.consumers[token].job.take().expect("job polled once");
                    consumer_replies[token].1 = Some(job());
                } else {
                    let i = token - consumer_count;
                    let job = wave.providers[i].job.take().expect("job polled once");
                    provider_replies[i].1 = Some(job());
                }
                answered += 1;
            }
            if answered == total {
                break;
            }
            match self.timers.pop() {
                // A parked endpoint becomes ready: advance the clock to
                // its readiness instant and poll it on the next turn.
                Some(Reverse((at, token))) => {
                    clock = at;
                    self.ready.push_back(token);
                }
                // Nothing can become ready before the deadline: the wave
                // times out *exactly* at the deadline.
                None => {
                    clock = deadline;
                    break;
                }
            }
        }

        let timed_out = total - answered;
        self.now_nanos = clock;
        self.last_round = RoundStats {
            wave: self.waves,
            delivered: total,
            answered,
            timed_out,
            virtual_elapsed: Duration::from_nanos(clock - start),
            hit_deadline: timed_out > 0,
        };
        self.metrics.replies_answered.add(answered as u64);
        self.metrics
            .wave_virtual_seconds
            .record(self.last_round.virtual_elapsed.as_secs_f64());
        if timed_out > 0 {
            self.metrics.replies_timed_out.add(timed_out as u64);
            if self.obs.is_enabled() {
                self.obs.record(
                    Duration::from_nanos(clock).as_secs_f64(),
                    EventKind::TimeoutIndifference {
                        wave: self.waves,
                        count: timed_out as u64,
                    },
                );
            }
            // Lifetime bookkeeping: a request still without a reply
            // missed the deadline.
            for (id, _) in consumer_replies.iter().filter(|(_, r)| r.is_none()) {
                if let Some(profile) = self.consumers.get_mut(*id) {
                    profile.timeouts += 1;
                }
            }
            for (id, _) in provider_replies.iter().filter(|(_, r)| r.is_none()) {
                if let Some(profile) = self.providers.get_mut(*id) {
                    profile.timeouts += 1;
                }
            }
        }

        WaveReplies {
            consumers: consumer_replies,
            providers: provider_replies,
        }
    }

    /// Enters one task into the wave's scheduling structures.
    fn deliver(
        token: usize,
        latency: Latency,
        start: u64,
        deadline: u64,
        ready: &mut VecDeque<usize>,
        timers: &mut BinaryHeap<Reverse<(u64, usize)>>,
    ) {
        match latency {
            Latency::Immediate => ready.push_back(token),
            Latency::After(delay) => {
                let at = start.saturating_add(duration_nanos(delay));
                // A reply landing exactly at the deadline still counts as
                // arrived; anything later can never be polled in time.
                if at <= deadline {
                    timers.push(Reverse((at, token)));
                }
            }
            Latency::Never => {}
        }
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("consumers", &self.consumers.len())
            .field("providers", &self.providers.len())
            .field("waves", &self.waves)
            .field("virtual_now", &self.virtual_now())
            .finish()
    }
}

fn duration_nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one wave on the scoped-thread comparison backend: one scoped OS
/// thread per participant request, a real deadline, and real sleeps for
/// modelled latencies ([`Latency::After`] sleeps, [`Latency::Never`] never
/// sends).
///
/// For any wave whose replies arrive *strictly before* the deadline, it
/// returns the same values as [`Reactor::run_wave`], which is what the
/// cross-backend digest tests pin. The boundary differs by nature: the
/// reactor's virtual clock makes a reply at exactly the deadline arrive
/// deterministically, while here the deadline is real time, so a sleep of
/// exactly `timeout` races the receiver and (almost always) degrades to
/// indifference — don't model at-the-deadline latencies on this backend.
/// Scoped threads are joined before this function returns, so a sleeping
/// straggler delays the *return* (not the deadline: its reply is still
/// discarded).
pub fn run_wave_threaded(wave: IntentionWave<'_>, timeout: Duration) -> WaveReplies {
    enum Answer {
        Consumer(usize, ConsumerBatchAnswer),
        Provider(usize, ProviderBatchAnswer),
    }

    let deadline = std::time::Instant::now() + timeout;
    let mut consumer_replies: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)> =
        wave.consumers.iter().map(|t| (t.id, None)).collect();
    let mut provider_replies: Vec<(ProviderId, Option<ProviderBatchAnswer>)> =
        wave.providers.iter().map(|t| (t.id, None)).collect();

    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<Answer>();
        let mut expected = 0usize;
        for (idx, task) in wave.consumers.into_iter().enumerate() {
            let latency = task.latency.unwrap_or_default();
            if matches!(latency, Latency::Never) {
                continue;
            }
            let Some(job) = task.job else { continue };
            expected += 1;
            let tx = tx.clone();
            scope.spawn(move || {
                if let Latency::After(delay) = latency {
                    std::thread::sleep(delay);
                }
                let _ = tx.send(Answer::Consumer(idx, job()));
            });
        }
        for (idx, task) in wave.providers.into_iter().enumerate() {
            let latency = task.latency.unwrap_or_default();
            if matches!(latency, Latency::Never) {
                continue;
            }
            let Some(job) = task.job else { continue };
            expected += 1;
            let tx = tx.clone();
            scope.spawn(move || {
                if let Latency::After(delay) = latency {
                    std::thread::sleep(delay);
                }
                let _ = tx.send(Answer::Provider(idx, job()));
            });
        }
        drop(tx);

        let mut received = 0usize;
        while received < expected {
            match rx.recv_timeout(deadline.saturating_duration_since(std::time::Instant::now())) {
                Ok(Answer::Consumer(idx, reply)) => {
                    consumer_replies[idx].1 = Some(reply);
                    received += 1;
                }
                Ok(Answer::Provider(idx, reply)) => {
                    provider_replies[idx].1 = Some(reply);
                    received += 1;
                }
                Err(_) => break, // deadline: the rest degrade to indifference
            }
        }
    });

    WaveReplies {
        consumers: consumer_replies,
        providers: provider_replies,
    }
}

/// The owned-endpoint facade over the reactor: [`AsyncMediator::gather_batch`]
/// runs Algorithm 1's gather step (lines 2–5) for a batch of queries and
/// [`AsyncMediator::notify`] its notifications (lines 9–10); the
/// allocation decision in between is [`sqlb_core::Mediator::allocate`]'s.
///
/// Endpoints implement [`ConsumerEndpoint`] / [`ProviderEndpoint`]; their
/// [`ConsumerEndpoint::latency`] / [`ProviderEndpoint::latency`] hooks
/// tell the reactor when each reply becomes available.
///
/// ```
/// use sqlb_core::{mediator_state::MediatorStateConfig, Mediator, SqlbAllocator};
/// use sqlb_mediation::{AsyncMediator, ConsumerEndpoint, ProviderEndpoint, RuntimeConfig};
/// use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};
///
/// struct Eager(f64);
/// impl ConsumerEndpoint for Eager {
///     fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
///         candidates.iter().map(|&p| (p, self.0)).collect()
///     }
/// }
/// impl ProviderEndpoint for Eager {
///     fn intention(&mut self, _q: &Query) -> f64 {
///         self.0
///     }
/// }
///
/// let mut mediator = AsyncMediator::new(RuntimeConfig::default());
/// mediator.register_consumer(ConsumerId::new(0), Eager(0.5));
/// mediator.register_provider(ProviderId::new(0), Eager(0.8));
/// mediator.register_provider(ProviderId::new(1), Eager(-0.2));
///
/// let query = Query::single(QueryId::new(1), ConsumerId::new(0), QueryClass::Light, SimTime::ZERO);
/// let candidates = vec![ProviderId::new(0), ProviderId::new(1)];
/// let infos = mediator.gather_batch(&[(query, candidates.clone())]);
/// assert_eq!(infos[0][0].provider_intention, 0.8);
/// assert_eq!(infos[0][1].provider_intention, -0.2);
/// assert_eq!(infos[0][0].consumer_intention, 0.5);
///
/// let mut sqlb = Mediator::new(
///     Box::new(SqlbAllocator::new()),
///     MediatorStateConfig::default(),
/// );
/// let allocation = sqlb.allocate(&query, &infos[0], None);
/// mediator.notify(&query, &candidates, &allocation);
/// assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
/// ```
pub struct AsyncMediator {
    reactor: Reactor,
    consumers: BTreeMap<ConsumerId, Box<dyn ConsumerEndpoint>>,
    providers: BTreeMap<ProviderId, Box<dyn ProviderEndpoint>>,
}

impl AsyncMediator {
    /// Creates an empty asynchronous mediator.
    pub fn new(config: RuntimeConfig) -> Self {
        AsyncMediator {
            reactor: Reactor::new(config),
            consumers: BTreeMap::new(),
            providers: BTreeMap::new(),
        }
    }

    /// Registers a consumer endpoint. No thread is spawned: the endpoint
    /// becomes a state machine polled by the reactor's event loop.
    pub fn register_consumer(&mut self, id: ConsumerId, endpoint: impl ConsumerEndpoint) {
        self.reactor.register_consumer(id, Latency::Immediate);
        self.consumers.insert(id, Box::new(endpoint));
    }

    /// Registers a provider endpoint.
    pub fn register_provider(&mut self, id: ProviderId, endpoint: impl ProviderEndpoint) {
        self.reactor.register_provider(id, Latency::Immediate);
        self.providers.insert(id, Box::new(endpoint));
    }

    /// Removes a provider endpoint (e.g. on departure).
    pub fn deregister_provider(&mut self, id: ProviderId) {
        self.reactor.deregister_provider(id);
        self.providers.remove(&id);
    }

    /// Removes a consumer endpoint.
    pub fn deregister_consumer(&mut self, id: ConsumerId) {
        self.reactor.deregister_consumer(id);
        self.consumers.remove(&id);
    }

    /// Number of registered providers.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Number of registered consumers.
    pub fn consumer_count(&self) -> usize {
        self.consumers.len()
    }

    /// The underlying reactor (wave statistics, virtual clock).
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Gathers the candidate information for a batch of queries in one
    /// wave: one batched request per distinct consumer and per distinct
    /// candidate provider, multiplexed by the reactor, with per-endpoint
    /// deadline tracking. Missing answers (unregistered endpoints,
    /// replies past the deadline) are read as indifference (`0`).
    ///
    /// Returns one candidate-info vector per input query, in input order.
    pub fn gather_batch(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
    ) -> Vec<Vec<CandidateInfo>> {
        if requests.is_empty() {
            return Vec::new();
        }
        // One request per distinct participant (BTreeMaps keep delivery
        // order deterministic).
        let mut by_consumer: BTreeMap<ConsumerId, Vec<(Query, Vec<ProviderId>)>> = BTreeMap::new();
        let mut by_provider: BTreeMap<ProviderId, Vec<Query>> = BTreeMap::new();
        for (query, candidates) in requests {
            by_consumer
                .entry(query.consumer)
                .or_default()
                .push((*query, candidates.clone()));
            for provider in candidates {
                by_provider.entry(*provider).or_default().push(*query);
            }
        }

        // Detach exactly the endpoints the wave addresses, so a wave
        // costs O(participants · log registered) — a single-query gather
        // against 50 000 registered endpoints must not walk all 50 000.
        // Detached endpoints are reattached after the wave; an id with no
        // registered endpoint simply yields no job (→ indifference).
        let request_bids = self.reactor.config.request_bids;
        let mut consumer_tasks: Vec<DetachedConsumer> = by_consumer
            .into_iter()
            .filter_map(|(id, reqs)| self.consumers.remove(&id).map(|e| (id, e, reqs)))
            .collect();
        let mut provider_tasks: Vec<DetachedProvider> = by_provider
            .into_iter()
            .filter_map(|(id, queries)| self.providers.remove(&id).map(|e| (id, e, queries)))
            .collect();

        let mut wave = IntentionWave::new();
        for (id, endpoint, consumer_requests) in consumer_tasks.iter_mut() {
            let latency = endpoint.latency();
            wave.consumer(*id, Some(latency), move || {
                endpoint.intentions_batch(consumer_requests)
            });
        }
        for (id, endpoint, queries) in provider_tasks.iter_mut() {
            let latency = endpoint.latency();
            wave.provider(*id, Some(latency), move || {
                let utilization = endpoint.utilization();
                endpoint
                    .intention_batch(queries, request_bids)
                    .into_iter()
                    .map(|(query, intention, bid)| ProviderAnswer {
                        query,
                        intention,
                        utilization,
                        bid,
                    })
                    .collect()
            });
        }

        let replies = self.reactor.run_wave(wave);
        for (id, endpoint, _) in consumer_tasks {
            self.consumers.insert(id, endpoint);
        }
        for (id, endpoint, _) in provider_tasks {
            self.providers.insert(id, endpoint);
        }
        replies.into_candidate_infos(requests)
    }

    /// Single-query convenience over [`AsyncMediator::gather_batch`].
    pub fn gather(&mut self, query: &Query, candidates: &[ProviderId]) -> Vec<CandidateInfo> {
        let requests = [(*query, candidates.to_vec())];
        self.gather_batch(&requests)
            .into_iter()
            .next()
            .unwrap_or_default()
    }

    /// Notifies every candidate of the mediation result and the consumer
    /// of its allocation (Algorithm 1, lines 9–10). Delivery is
    /// synchronous and in candidate order — the reactor has no detached
    /// threads for notices to trail behind on.
    pub fn notify(&mut self, query: &Query, candidates: &[ProviderId], allocation: &Allocation) {
        for provider in candidates {
            if let Some(endpoint) = self.providers.get_mut(provider) {
                endpoint.allocation_notice(query.id, allocation.is_selected(*provider));
            }
        }
        if let Some(endpoint) = self.consumers.get_mut(&query.consumer) {
            endpoint.allocation_result(query.id, &allocation.selected);
        }
    }
}

impl std::fmt::Debug for AsyncMediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncMediator")
            .field("consumers", &self.consumers.len())
            .field("providers", &self.providers.len())
            .field("reactor", &self.reactor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_core::mediator_state::MediatorStateConfig;
    use sqlb_core::{Mediator, SqlbAllocator};
    use sqlb_types::{QueryClass, SimTime};

    struct CannedConsumer {
        values: Vec<f64>,
        results: Vec<Vec<ProviderId>>,
    }

    impl ConsumerEndpoint for CannedConsumer {
        fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
            candidates
                .iter()
                .map(|&p| (p, self.values.get(p.index()).copied().unwrap_or(0.0)))
                .collect()
        }
        fn allocation_result(&mut self, _query: QueryId, providers: &[ProviderId]) {
            self.results.push(providers.to_vec());
        }
    }

    struct CannedProvider {
        value: f64,
        latency: Latency,
        bid: Option<Bid>,
        notices: Vec<(QueryId, bool)>,
    }

    impl ProviderEndpoint for CannedProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn bid(&mut self, _q: &Query) -> Option<Bid> {
            self.bid
        }
        fn latency(&mut self) -> Latency {
            self.latency
        }
        fn allocation_notice(&mut self, query: QueryId, selected: bool) {
            self.notices.push((query, selected));
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

    fn mediator_with(
        provider_values: &[(f64, Latency)],
        consumer_values: Vec<f64>,
        config: RuntimeConfig,
    ) -> AsyncMediator {
        let mut mediator = AsyncMediator::new(config);
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: consumer_values,
                results: Vec::new(),
            },
        );
        for (i, &(value, latency)) in provider_values.iter().enumerate() {
            mediator.register_provider(
                ProviderId::new(i as u32),
                CannedProvider {
                    value,
                    latency,
                    bid: Some(Bid::new(100.0 * (i as f64 + 1.0), 1.0)),
                    notices: Vec::new(),
                },
            );
        }
        mediator
    }

    #[test]
    fn immediate_endpoints_answer_in_zero_virtual_time() {
        let mut mediator = mediator_with(
            &[(0.8, Latency::Immediate), (-0.2, Latency::Immediate)],
            vec![0.5, 0.9],
            RuntimeConfig::default(),
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.8);
        assert_eq!(infos[1].provider_intention, -0.2);
        assert_eq!(infos[0].consumer_intention, 0.5);
        assert!(infos[0].bid.is_none(), "bids are not requested by default");
        let round = mediator.reactor().last_round();
        assert_eq!(round.answered, 3);
        assert_eq!(round.timed_out, 0);
        assert_eq!(round.virtual_elapsed, Duration::ZERO);
        assert!(!round.hit_deadline);
    }

    #[test]
    fn modelled_latency_below_the_timeout_arrives_at_its_instant() {
        let mut mediator = mediator_with(
            &[
                (0.7, Latency::Immediate),
                (1.0, Latency::After(Duration::from_millis(150))),
            ],
            vec![0.9, 0.9],
            RuntimeConfig::default(), // 200 ms timeout
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(
            infos[1].provider_intention, 1.0,
            "150 ms beats the 200 ms deadline"
        );
        let round = mediator.reactor().last_round();
        assert_eq!(round.virtual_elapsed, Duration::from_millis(150));
        assert!(!round.hit_deadline);
    }

    #[test]
    fn never_answering_endpoint_degrades_at_exactly_the_deadline() {
        let timeout = Duration::from_millis(80);
        let mut mediator = mediator_with(
            &[(0.7, Latency::Immediate), (1.0, Latency::Never)],
            vec![0.9, 0.9],
            RuntimeConfig {
                timeout,
                request_bids: false,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.7);
        assert_eq!(
            infos[1].provider_intention, 0.0,
            "a silent endpoint is read as indifferent"
        );
        let round = mediator.reactor().last_round();
        assert_eq!(round.timed_out, 1);
        assert!(round.hit_deadline);
        assert_eq!(
            round.virtual_elapsed, timeout,
            "the degradation happens at exactly the configured deadline"
        );
        assert_eq!(mediator.reactor().provider_timeouts(ProviderId::new(1)), 1);
        assert_eq!(mediator.reactor().provider_timeouts(ProviderId::new(0)), 0);
    }

    #[test]
    fn latency_beyond_the_timeout_degrades_to_indifference() {
        let mut mediator = mediator_with(
            &[
                (0.7, Latency::Immediate),
                (1.0, Latency::After(Duration::from_millis(500))),
            ],
            vec![0.9, 0.9],
            RuntimeConfig {
                timeout: Duration::from_millis(50),
                request_bids: false,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[1].provider_intention, 0.0);
        assert_eq!(
            mediator.reactor().last_round().virtual_elapsed,
            Duration::from_millis(50)
        );
    }

    #[test]
    fn a_reply_landing_exactly_at_the_deadline_still_counts() {
        let timeout = Duration::from_millis(100);
        let mut mediator = mediator_with(
            &[(0.6, Latency::After(timeout))],
            vec![0.5],
            RuntimeConfig {
                timeout,
                request_bids: false,
            },
        );
        let infos = mediator.gather(&query(1), &[ProviderId::new(0)]);
        assert_eq!(infos[0].provider_intention, 0.6);
        assert!(!mediator.reactor().last_round().hit_deadline);
    }

    #[test]
    fn virtual_clock_accumulates_across_waves() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::After(Duration::from_millis(30)))],
            vec![0.5],
            RuntimeConfig::default(),
        );
        for i in 0..3 {
            mediator.gather(&query(i), &[ProviderId::new(0)]);
        }
        assert_eq!(mediator.reactor().waves(), 3);
        assert_eq!(mediator.reactor().virtual_now(), Duration::from_millis(90));
    }

    /// A provider endpoint that counts batched requests, to pin the
    /// one-round-trip-per-participant property of a wave.
    struct CountingProvider {
        value: f64,
        requests: u32,
    }

    impl ProviderEndpoint for CountingProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn intention_batch(
            &mut self,
            queries: &[Query],
            request_bids: bool,
        ) -> Vec<(QueryId, f64, Option<Bid>)> {
            self.requests += 1;
            queries
                .iter()
                .map(|q| {
                    (
                        q.id,
                        self.value,
                        if request_bids { self.bid(q) } else { None },
                    )
                })
                .collect()
        }
    }

    #[test]
    fn gather_batch_multiplexes_one_request_per_participant() {
        let mut mediator = AsyncMediator::new(RuntimeConfig::default());
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.5, -0.25],
                results: Vec::new(),
            },
        );
        for (i, value) in [0.8, -0.2].into_iter().enumerate() {
            mediator.register_provider(
                ProviderId::new(i as u32),
                CountingProvider { value, requests: 0 },
            );
        }
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..5).map(|i| (query(i), candidates.clone())).collect();
        let infos = mediator.gather_batch(&batch);
        assert_eq!(infos.len(), 5);
        for per_query in &infos {
            assert_eq!(per_query[0].provider_intention, 0.8);
            assert_eq!(per_query[1].provider_intention, -0.2);
            assert_eq!(per_query[0].consumer_intention, 0.5);
            assert_eq!(per_query[1].consumer_intention, -0.25);
        }
        // 5 queries, 2 candidate providers: exactly 3 requests delivered
        // (1 consumer + 2 providers), each answered in one reply.
        assert_eq!(mediator.reactor().last_round().delivered, 3);
        assert_eq!(mediator.reactor().last_round().answered, 3);
    }

    #[test]
    fn gather_batch_of_nothing_is_empty() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate)],
            vec![0.5],
            RuntimeConfig::default(),
        );
        assert!(mediator.gather_batch(&[]).is_empty());
    }

    #[test]
    fn unknown_participants_default_to_indifference() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate)],
            vec![0.5],
            RuntimeConfig::default(),
        );
        let candidates = vec![ProviderId::new(0), ProviderId::new(9)];
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].provider_intention, 0.5);
        assert_eq!(infos[1].provider_intention, 0.0);
        assert_eq!(infos[1].consumer_intention, 0.0);
    }

    #[test]
    fn a_batch_round_allocates_and_notifies_synchronously() {
        let mut mediator = mediator_with(
            &[(0.9, Latency::Immediate), (0.4, Latency::Immediate)],
            vec![0.8, 0.8],
            RuntimeConfig::default(),
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let batch: Vec<(Query, Vec<ProviderId>)> =
            (0..3).map(|i| (query(i), candidates.clone())).collect();
        let mut sqlb = Mediator::new(
            Box::new(SqlbAllocator::new()),
            MediatorStateConfig::default(),
        );
        let infos = mediator.gather_batch(&batch);
        for ((query, candidates), query_infos) in batch.iter().zip(&infos) {
            let allocation = sqlb.allocate(query, query_infos, None);
            assert_eq!(allocation.selected, vec![ProviderId::new(0)]);
            mediator.notify(query, candidates, &allocation);
        }
        assert_eq!(sqlb.state().allocations(), 3);
        // Notices are delivered synchronously: no waiting, no threads.
        assert_eq!(mediator.reactor().waves(), 1, "one wave serves the batch");
    }

    /// A provider endpoint that reports a non-idle utilization.
    struct BusyProvider {
        value: f64,
        utilization: f64,
    }

    impl ProviderEndpoint for BusyProvider {
        fn intention(&mut self, _q: &Query) -> f64 {
            self.value
        }
        fn utilization(&mut self) -> f64 {
            self.utilization
        }
    }

    #[test]
    fn reported_utilization_reaches_the_candidate_info() {
        // Utilization-aware methods (the Capacity-based baseline) read
        // `CandidateInfo::utilization`; the facade must carry the
        // endpoint's reported value, not assume idle.
        let mut mediator = AsyncMediator::new(RuntimeConfig::default());
        mediator.register_consumer(
            ConsumerId::new(0),
            CannedConsumer {
                values: vec![0.5, 0.5],
                results: Vec::new(),
            },
        );
        mediator.register_provider(
            ProviderId::new(0),
            BusyProvider {
                value: 0.5,
                utilization: 0.85,
            },
        );
        mediator.register_provider(
            ProviderId::new(1),
            BusyProvider {
                value: 0.5,
                utilization: 0.1,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].utilization, 0.85);
        assert_eq!(infos[1].utilization, 0.1);
    }

    #[test]
    fn bids_are_gathered_when_requested() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate), (0.5, Latency::Immediate)],
            vec![0.5, 0.5],
            RuntimeConfig {
                timeout: Duration::from_millis(500),
                request_bids: true,
            },
        );
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[0].bid.unwrap().price, 100.0);
        assert_eq!(infos[1].bid.unwrap().price, 200.0);
    }

    #[test]
    fn deregistering_silences_an_endpoint() {
        let mut mediator = mediator_with(
            &[(0.5, Latency::Immediate), (0.6, Latency::Immediate)],
            vec![0.5, 0.5],
            RuntimeConfig::default(),
        );
        assert_eq!(mediator.provider_count(), 2);
        assert_eq!(mediator.consumer_count(), 1);
        mediator.deregister_provider(ProviderId::new(1));
        assert_eq!(mediator.provider_count(), 1);
        let candidates: Vec<ProviderId> = (0..2).map(ProviderId::new).collect();
        let infos = mediator.gather(&query(1), &candidates);
        assert_eq!(infos[1].provider_intention, 0.0);
    }

    #[test]
    fn threaded_and_reactor_backends_agree_on_wave_replies() {
        // The cross-backend contract in miniature: the same wave, run on
        // the event loop and on scoped threads, yields identical
        // candidate information.
        let requests: Vec<(Query, Vec<ProviderId>)> = (0..4)
            .map(|i| (query(i), (0..3).map(ProviderId::new).collect()))
            .collect();
        let build_wave = |values: &'static [f64]| {
            let mut wave = IntentionWave::new();
            let reqs = requests.clone();
            wave.consumer(ConsumerId::new(0), None, move || {
                reqs.iter()
                    .map(|(q, cands)| {
                        (
                            q.id,
                            cands.iter().map(|&p| (p, 0.1 * p.index() as f64)).collect(),
                        )
                    })
                    .collect()
            });
            for (i, &value) in values.iter().enumerate() {
                let queries: Vec<QueryId> = requests.iter().map(|(q, _)| q.id).collect();
                wave.provider(ProviderId::new(i as u32), None, move || {
                    queries
                        .iter()
                        .map(|&q| ProviderAnswer {
                            query: q,
                            intention: value,
                            utilization: value.abs(),
                            bid: None,
                        })
                        .collect()
                });
            }
            wave
        };
        static VALUES: [f64; 3] = [0.9, -0.3, 0.45];
        let mut reactor = Reactor::new(RuntimeConfig::default());
        let from_reactor = reactor
            .run_wave(build_wave(&VALUES))
            .into_candidate_infos(&requests);
        let from_threads = run_wave_threaded(build_wave(&VALUES), Duration::from_secs(5))
            .into_candidate_infos(&requests);
        assert_eq!(from_reactor, from_threads);
    }

    #[test]
    fn threaded_backend_honours_never_and_after_latencies() {
        let mut wave = IntentionWave::new();
        wave.provider(ProviderId::new(0), Some(Latency::Never), move || {
            vec![ProviderAnswer {
                query: QueryId::new(0),
                intention: 1.0,
                utilization: 0.0,
                bid: None,
            }]
        });
        wave.provider(
            ProviderId::new(1),
            Some(Latency::After(Duration::from_millis(1))),
            move || {
                vec![ProviderAnswer {
                    query: QueryId::new(0),
                    intention: 0.5,
                    utilization: 0.0,
                    bid: None,
                }]
            },
        );
        let replies = run_wave_threaded(wave, Duration::from_secs(2));
        assert!(replies.providers[0].1.is_none(), "Never sends no reply");
        assert!(replies.providers[1].1.is_some(), "1 ms beats the deadline");
    }

    /// A one-query wave over `providers`, each provider answering with
    /// its own latency override.
    fn wave_of(providers: &[(u32, Option<Latency>)]) -> IntentionWave<'static> {
        let mut wave = IntentionWave::with_capacity(1, providers.len());
        let candidates: Vec<ProviderId> =
            providers.iter().map(|&(p, _)| ProviderId::new(p)).collect();
        wave.consumer(ConsumerId::new(0), None, move || {
            vec![(
                QueryId::new(1),
                candidates.iter().map(|&p| (p, 0.25)).collect(),
            )]
        });
        for &(p, latency) in providers {
            wave.provider(ProviderId::new(p), latency, move || {
                vec![ProviderAnswer {
                    query: QueryId::new(1),
                    intention: 0.1 * f64::from(p),
                    utilization: 0.5,
                    bid: None,
                }]
            });
        }
        wave
    }

    #[test]
    fn a_reused_reactor_runs_a_wave_like_a_fresh_one() {
        let config = RuntimeConfig {
            timeout: Duration::from_millis(50),
            request_bids: false,
        };
        let requests = [(query(1), (0..3).map(ProviderId::new).collect::<Vec<_>>())];
        let immediate = [(0, None), (1, None), (2, None)];

        // A wave that hits its deadline: one endpoint never answers, one
        // answers past the timeout, one answers in time but later.
        let mut reused = Reactor::new(config);
        reused.register_provider(ProviderId::new(0), Latency::Never);
        let late = reused.run_wave(wave_of(&[
            (0, None),
            (1, Some(Latency::After(Duration::from_millis(80)))),
            (2, Some(Latency::After(Duration::from_millis(20)))),
        ]));
        assert!(late.providers[0].1.is_none() && late.providers[1].1.is_none());
        assert_eq!(reused.last_round().timed_out, 2);
        assert_eq!(
            reused.last_round().virtual_elapsed,
            Duration::from_millis(50)
        );
        assert_eq!(reused.provider_timeouts(ProviderId::new(0)), 1);

        // The next wave, all immediate, must not see anything of the
        // previous one (a stale readiness token or parked timer).
        reused.register_provider(ProviderId::new(0), Latency::Immediate);
        let mut fresh = Reactor::new(config);
        let from_reused = reused
            .run_wave(wave_of(&immediate))
            .into_candidate_infos(&requests);
        let from_fresh = fresh
            .run_wave(wave_of(&immediate))
            .into_candidate_infos(&requests);
        assert_eq!(from_reused, from_fresh);
        let (a, b) = (reused.last_round(), fresh.last_round());
        assert_eq!(
            (
                a.delivered,
                a.answered,
                a.timed_out,
                a.virtual_elapsed,
                a.hit_deadline
            ),
            (
                b.delivered,
                b.answered,
                b.timed_out,
                b.virtual_elapsed,
                b.hit_deadline
            )
        );
        assert_eq!((a.answered, a.timed_out), (4, 0));
        assert_eq!(a.virtual_elapsed, Duration::ZERO);
        assert_eq!(reused.waves(), 2);
        assert_eq!(
            reused.provider_timeouts(ProviderId::new(0)),
            0,
            "re-registered"
        );
    }

    #[test]
    fn profile_table_tracks_registration() {
        let mut reactor = Reactor::new(RuntimeConfig::default());
        for p in [0, 3, 7] {
            reactor.register_provider(ProviderId::new(p), Latency::Immediate);
        }
        reactor.register_consumer(ConsumerId::new(2), Latency::Immediate);
        assert_eq!((reactor.consumer_count(), reactor.provider_count()), (1, 3));

        reactor.deregister_provider(ProviderId::new(3));
        reactor.deregister_provider(ProviderId::new(3));
        reactor.deregister_provider(ProviderId::new(1_000));
        reactor.deregister_consumer(ConsumerId::new(2));
        assert_eq!((reactor.consumer_count(), reactor.provider_count()), (0, 2));

        reactor.register_provider(ProviderId::new(3), Latency::Never);
        reactor.register_provider(ProviderId::new(3), Latency::Never);
        reactor.register_consumer(ConsumerId::new(2), Latency::Immediate);
        assert_eq!((reactor.consumer_count(), reactor.provider_count()), (1, 3));

        // The re-registered endpoint's profile is live: it times out.
        reactor.run_wave(wave_of(&[(3, None)]));
        assert_eq!(reactor.provider_timeouts(ProviderId::new(3)), 1);
        // Registered-but-idle, unregistered and out-of-range ids read 0.
        assert_eq!(reactor.provider_timeouts(ProviderId::new(0)), 0);
        assert_eq!(reactor.provider_timeouts(ProviderId::new(1)), 0);
        assert_eq!(reactor.provider_timeouts(ProviderId::new(1_000_000)), 0);
    }

    #[test]
    fn wave_len_and_empty() {
        let mut wave = IntentionWave::new();
        assert!(wave.is_empty());
        wave.provider(ProviderId::new(0), None, Vec::new);
        assert_eq!(wave.len(), 1);
        assert!(!wave.is_empty());
    }
}
