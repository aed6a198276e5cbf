//! The wave-protocol world the explorer enumerates.
//!
//! [`WaveWorld`] wires the *production* protocol state machines — the
//! mediator-side [`WaveLedger`]/[`route_reply_frame`] seam, the
//! participant-side [`WaveRequestBuffer`], and the
//! [`FrameAssembler`]/codec from `sqlb-mediation` — into a miniature
//! deployment (one mediator, two hosts, three endpoints, one wave in
//! flight at a time, as the server runs it) whose only scheduler is the
//! explorer: every message delivery, chunk split, deadline firing, host
//! crash and adversarial injection is an explicit [`Model`] action.
//! Nothing protocol-level is re-implemented here; the model supplies
//! sockets-and-clock *plumbing* (byte wires with bounded capacity, a
//! virtual deadline) around the exact code the real
//! [`sqlb_transport::WaveServer`] runs.
//!
//! Checked invariants:
//!
//! * **termination** — every planned wave ends as either complete or
//!   timeout-to-indifference ([`WaveWorld::finish`]);
//! * **credit accounting** — on every step, the in-flight ledger's
//!   stored replies equal `delivered - pending` (over- or
//!   under-crediting, including the test-only sign-flipped credit,
//!   trips this immediately);
//! * **cross-wave correlation** — every stored reply value matches the
//!   deterministic per-wave oracle formula, so a straggling wave-*t*
//!   reply credited to wave *t+1* is caught by value, not just by count;
//! * **no deadlock** — the explorer fails any state with obligations
//!   outstanding and no enabled action (the write-stall/drain
//!   liveness argument, made checkable by bounding wire capacity);
//! * **frame consistency** — assemblers and the codec never error on
//!   any split of the honestly-produced byte streams.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use sqlb_mediation::{
    encode_participant_reply_into, FrameAssembler, MediatorMessage, ParticipantReply,
};
use sqlb_transport::{route_reply_frame, Applied, WaveLedger, WaveRequestBuffer};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

use crate::explore::{Model, Violation};

/// The consumer endpoint (homed on host 0).
const CONSUMER: u32 = 0;
/// The provider homed on host 0.
const PROVIDER_H0: u32 = 1;
/// The provider homed on host 1.
const PROVIDER_H1: u32 = 2;
/// Number of hosts (= connection slots) in the miniature deployment.
const HOSTS: usize = 2;

/// One bounded configuration of the miniature deployment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (prefixes replayable schedules).
    pub name: &'static str,
    /// Waves the mediator runs, one at a time.
    pub waves: u64,
    /// Crashes each host may suffer per trace (0 disables crash
    /// nondeterminism).
    pub crashes_per_host: usize,
    /// Enables the adversarial injections (duplicate, foreign-slot and
    /// stale-wave replies).
    pub byzantine: bool,
    /// When set, the host-1 provider never answers: every wave must
    /// terminate through the deadline.
    pub silent_provider: bool,
    /// Early deadline firings allowed per trace: each lets the
    /// wave's deadline race ahead of replies still in transit. The
    /// deadline additionally *always* fires for a wave that can no
    /// longer complete (pending requests charged to a dead connection),
    /// so exhausting this budget can never wedge a trace. Bounding the
    /// budget keeps the exhaustive tiers tractable — unbounded early
    /// deadlines compound exponentially.
    pub timeouts: usize,
    /// Bytes a wire holds in flight per direction; writers stall when
    /// it is full, which is what makes deadlock-freedom a real
    /// question.
    pub wire_capacity: usize,
    /// Receive chunk choices, in bytes (`0` = everything available):
    /// each distinct effective size is one nondeterministic delivery
    /// action, so listing e.g. `&[0, 7]` explores frames arriving both
    /// whole and split at awkward boundaries.
    pub splits: &'static [usize],
    /// Whether the default CI run explores this scenario to exhaustion
    /// (its full space closes out in seconds) instead of under the
    /// bounded per-scenario budget.
    pub exhaustive: bool,
}

impl Scenario {
    /// The exhaustively-explored core configuration: three waves,
    /// whole-chunk delivery, no faults — the full interleaving space of
    /// fan-out, replies, completion, deadline racing and stragglers of
    /// a timed-out wave (12 000 executions, closed out in well under a
    /// second in release builds).
    pub fn mini() -> Scenario {
        Scenario {
            name: "mini",
            waves: 3,
            crashes_per_host: 0,
            byzantine: false,
            silent_provider: false,
            wire_capacity: 4096,
            splits: &[0],
            timeouts: 1,
            exhaustive: true,
        }
    }

    /// One wave delivered under split choices, so partial frames sit in
    /// both directions' assemblers across interleavings.
    pub fn chunky() -> Scenario {
        Scenario {
            name: "chunky",
            waves: 1,
            crashes_per_host: 0,
            byzantine: false,
            silent_provider: false,
            wire_capacity: 4096,
            splits: &[0, 7],
            timeouts: 1,
            exhaustive: false,
        }
    }

    /// Each host may crash once, at any send/receive point.
    pub fn crashy() -> Scenario {
        Scenario {
            name: "crashy",
            waves: 2,
            crashes_per_host: 1,
            byzantine: false,
            silent_provider: false,
            wire_capacity: 4096,
            splits: &[0],
            timeouts: 1,
            exhaustive: true,
        }
    }

    /// Hosts may send duplicate, foreign-slot and stale-wave replies.
    pub fn byzantine() -> Scenario {
        Scenario {
            name: "byzantine",
            waves: 2,
            crashes_per_host: 0,
            byzantine: true,
            silent_provider: false,
            wire_capacity: 4096,
            splits: &[0],
            timeouts: 1,
            exhaustive: false,
        }
    }

    /// Tiny wire capacity: the fan-out of a wave cannot be written in
    /// one burst, so progress depends on the server draining replies
    /// (stragglers of a timed-out wave among them) while its own writes
    /// are stalled — the drain-path liveness scenario.
    pub fn stall() -> Scenario {
        Scenario {
            name: "stall",
            waves: 2,
            crashes_per_host: 0,
            byzantine: false,
            silent_provider: false,
            wire_capacity: 24,
            splits: &[0],
            timeouts: 1,
            exhaustive: false,
        }
    }

    /// The host-1 provider never answers: timeout-to-indifference is
    /// the only way a wave terminates.
    pub fn silent() -> Scenario {
        Scenario {
            name: "silent",
            waves: 2,
            crashes_per_host: 0,
            byzantine: false,
            silent_provider: true,
            wire_capacity: 4096,
            splits: &[0],
            timeouts: 1,
            exhaustive: true,
        }
    }

    /// Every named scenario, in documentation order.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::mini(),
            Scenario::chunky(),
            Scenario::crashy(),
            Scenario::byzantine(),
            Scenario::stall(),
            Scenario::silent(),
        ]
    }

    /// Looks a scenario up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.name == name)
    }
}

/// How one wave ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveOutcome {
    /// The wave's id.
    pub wave: u64,
    /// Endpoint requests the plan delivered.
    pub delivered: usize,
    /// Replies stored when the wave was collected.
    pub answered: usize,
    /// `true` when every request was answered before the deadline.
    pub complete: bool,
}

/// One host's connection: both wire directions, the host process, and
/// the server's receive state for the slot.
#[derive(Debug, Clone)]
struct SlotState {
    /// Server-side: the connection is usable.
    live: bool,
    /// The host process is running.
    host_alive: bool,
    /// Request bytes queued at the server, not yet on the wire.
    send_queue: Vec<u8>,
    /// Request bytes in flight towards the host.
    down_wire: Vec<u8>,
    /// The host's stream reassembler (production code).
    host_assembler: FrameAssembler,
    /// The host's wave-request buffer (production code).
    buffer: WaveRequestBuffer,
    /// Reply bytes computed by the host, not yet on the wire.
    reply_queue: Vec<u8>,
    /// Reply bytes in flight towards the server.
    up_wire: Vec<u8>,
    /// The server's per-slot reassembler (production code).
    server_assembler: FrameAssembler,
    /// The last reply frame this host produced (duplicate injection).
    last_reply_frame: Vec<u8>,
    /// Crashes this host may still suffer.
    crashes_left: usize,
    /// Bytes the host has taken off its wire (labels crash points).
    fed_down: usize,
    /// Bytes the server has taken off this slot's wire.
    fed_up: usize,
}

impl SlotState {
    fn new(crashes: usize) -> SlotState {
        SlotState {
            live: true,
            host_alive: true,
            send_queue: Vec::new(),
            down_wire: Vec::new(),
            host_assembler: FrameAssembler::new(),
            buffer: WaveRequestBuffer::new(),
            reply_queue: Vec::new(),
            up_wire: Vec::new(),
            server_assembler: FrameAssembler::new(),
            last_reply_frame: Vec::new(),
            crashes_left: crashes,
            fed_down: 0,
            fed_up: 0,
        }
    }

    /// Bytes anywhere on this connection, in either direction.
    fn bytes_outstanding(&self) -> usize {
        self.send_queue.len() + self.down_wire.len() + self.reply_queue.len() + self.up_wire.len()
    }

    /// Moves queued request bytes onto the wire, up to its free
    /// capacity. Called whenever bytes are enqueued or wire space
    /// frees up — the model's analogue of the server's write loop
    /// (writes proceed exactly as far as the pipe allows).
    fn flush_down(&mut self, capacity: usize) {
        let free = capacity.saturating_sub(self.down_wire.len());
        let n = free.min(self.send_queue.len());
        self.down_wire.extend(self.send_queue.drain(..n));
    }

    /// Moves computed reply bytes onto the upstream wire, up to its
    /// free capacity — the host's write loop.
    fn flush_up(&mut self, capacity: usize) {
        let free = capacity.saturating_sub(self.up_wire.len());
        let n = free.min(self.reply_queue.len());
        self.up_wire.extend(self.reply_queue.drain(..n));
    }
}

/// One nondeterministic action of the world.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    /// The mediator plans and queues the next wave's fan-out.
    BeginWave,
    /// The mediator collects the (complete) wave in flight.
    FinishWave,
    /// The wave in flight's deadline fires; missing replies degrade to
    /// indifference.
    TimeoutWave,
    /// The host takes a chunk of `1` bytes off its wire and processes
    /// every complete message (answering at wave-end markers).
    DeliverDown(usize, usize),
    /// The server takes a chunk off slot `0`'s upstream wire and routes
    /// every complete reply frame through the shared ledger seam.
    DeliverUp(usize, usize),
    /// Host `0` crashes: both wire directions are lost and the server
    /// marks the slot dead.
    Crash(usize),
    /// Host `0` re-sends its last reply frame verbatim.
    InjectDup(usize),
    /// Host `0` fabricates a reply for an endpoint homed on the *other*
    /// host, for the wave in flight.
    InjectForeign(usize),
    /// Host `0` fabricates a reply for an already-collected wave.
    InjectStale(usize),
}

/// The model-checked world: the miniature deployment's entire state.
#[derive(Debug, Clone)]
pub struct WaveWorld {
    scenario: Scenario,
    /// Next wave id to plan (ids start at 1).
    next_wave: u64,
    /// Waves begun so far.
    waves_begun: u64,
    /// The ledger of the wave in flight, if any — the server's one.
    in_flight: Option<WaveLedger>,
    /// Terminated waves, in collection order.
    outcomes: Vec<WaveOutcome>,
    slots: Vec<SlotState>,
    /// Remaining early deadline firings (see [`Scenario::timeouts`]).
    timeouts_left: usize,
    /// Remaining adversarial injections (bounded per trace).
    dups_left: usize,
    foreigns_left: usize,
    stales_left: usize,
}

/// The oracle value consumer `CONSUMER` reports for `(wave, query,
/// provider)`: exactly representable, unique per triple, so a reply
/// credited to the wrong wave is caught by value.
fn consumer_oracle(wave: u64, query: QueryId, provider: ProviderId) -> f64 {
    (wave * 1_000_000 + query.raw() as u64 * 100 + provider.raw() as u64) as f64
}

/// The oracle intention a provider reports for `(wave, provider,
/// query)`.
fn provider_oracle(wave: u64, provider: ProviderId, query: QueryId) -> f64 {
    (wave * 1_000_000 + provider.raw() as u64 * 10_000 + query.raw() as u64) as f64
}

/// The oracle utilization a provider reports in `wave`.
fn utilization_oracle(wave: u64, provider: ProviderId) -> f64 {
    (wave * 100 + provider.raw() as u64) as f64 / 4.0
}

/// The single query of `wave`: issued by the consumer, candidates on
/// both hosts — so every wave involves every connection.
fn wave_requests(wave: u64) -> Vec<(Query, Vec<ProviderId>)> {
    let query = Query::single(
        QueryId::new(100 + wave as u32),
        ConsumerId::new(CONSUMER),
        QueryClass::Light,
        SimTime::ZERO,
    );
    vec![(
        query,
        vec![ProviderId::new(PROVIDER_H0), ProviderId::new(PROVIDER_H1)],
    )]
}

/// The static endpoint→slot routing of the miniature deployment.
fn homes() -> (BTreeMap<ConsumerId, usize>, BTreeMap<ProviderId, usize>) {
    let consumers = BTreeMap::from([(ConsumerId::new(CONSUMER), 0)]);
    let providers = BTreeMap::from([
        (ProviderId::new(PROVIDER_H0), 0),
        (ProviderId::new(PROVIDER_H1), 1),
    ]);
    (consumers, providers)
}

/// The provider homed on host `slot`.
fn own_provider(slot: usize) -> ProviderId {
    ProviderId::new(if slot == 0 { PROVIDER_H0 } else { PROVIDER_H1 })
}

impl WaveWorld {
    /// A fresh world for `scenario`.
    pub fn new(scenario: Scenario) -> WaveWorld {
        let crashes = scenario.crashes_per_host;
        let byz = scenario.byzantine;
        let timeouts = scenario.timeouts;
        WaveWorld {
            scenario,
            next_wave: 1,
            waves_begun: 0,
            in_flight: None,
            outcomes: Vec::new(),
            slots: (0..HOSTS).map(|_| SlotState::new(crashes)).collect(),
            timeouts_left: timeouts,
            dups_left: usize::from(byz),
            foreigns_left: usize::from(byz),
            stales_left: usize::from(byz),
        }
    }

    /// Scenario this world runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Terminated waves so far (exposed for tests).
    pub fn outcomes(&self) -> &[WaveOutcome] {
        &self.outcomes
    }

    /// The deterministic action menu of the current state.
    fn actions(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        if let Some(wave) = &self.in_flight {
            if wave.is_complete() {
                actions.push(Action::FinishWave);
            } else if self.timeouts_left > 0 || self.stuck() {
                actions.push(Action::TimeoutWave);
            }
        } else if self.waves_begun < self.scenario.waves {
            actions.push(Action::BeginWave);
        }
        for (s, slot) in self.slots.iter().enumerate() {
            if slot.host_alive && !slot.down_wire.is_empty() {
                for size in self.chunk_sizes(slot.down_wire.len()) {
                    actions.push(Action::DeliverDown(s, size));
                }
            }
            if slot.live && !slot.up_wire.is_empty() {
                for size in self.chunk_sizes(slot.up_wire.len()) {
                    actions.push(Action::DeliverUp(s, size));
                }
            }
            if slot.host_alive && slot.crashes_left > 0 {
                actions.push(Action::Crash(s));
            }
            if self.scenario.byzantine && slot.host_alive {
                if self.dups_left > 0 && !slot.last_reply_frame.is_empty() {
                    actions.push(Action::InjectDup(s));
                }
                if self.foreigns_left > 0 && self.in_flight.is_some() {
                    actions.push(Action::InjectForeign(s));
                }
                if self.stales_left > 0 && !self.outcomes.is_empty() {
                    actions.push(Action::InjectStale(s));
                }
            }
        }
        actions
    }

    /// Whether the wave in flight can no longer complete on its own: some
    /// of its requests are charged to a connection that is gone, or to
    /// an endpoint configured to stay silent, so only the deadline can
    /// terminate it. The deadline action stays enabled for stuck waves
    /// even after the early-timeout budget is spent.
    fn stuck(&self) -> bool {
        let Some(wave) = &self.in_flight else {
            return false;
        };
        (0..HOSTS).any(|s| wave.pending_on(s) > 0 && !self.slots[s].live)
            || (self.scenario.silent_provider && wave.pending_on(1) > 0)
    }

    /// The distinct effective receive chunk sizes for a wire holding
    /// `available` bytes, per the scenario's split choices.
    fn chunk_sizes(&self, available: usize) -> Vec<usize> {
        let mut sizes: Vec<usize> = self
            .scenario
            .splits
            .iter()
            .map(|&choice| {
                if choice == 0 {
                    available
                } else {
                    choice.min(available)
                }
            })
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// Asserts the shared ledger seam's accounting identity on the wave
    /// in flight: stored replies must equal delivered minus
    /// pending. The test-only sign-flipped credit breaks this identity
    /// on its first application.
    fn check_ledger_accounting(&self) -> Result<(), Violation> {
        if let Some(ledger) = &self.in_flight {
            let delivered = ledger.delivered() as i64;
            let pending = ledger.pending_total() as i64;
            let stored = ledger.stored_replies() as i64;
            if delivered - pending != stored {
                return Err(Violation {
                    invariant: "credit-accounting",
                    detail: format!(
                        "wave {}: delivered {delivered} - pending {pending} != stored {stored}",
                        ledger.wave()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Verifies every stored reply of a terminated wave against the
    /// per-wave oracle formulas: a reply computed for wave *t* but
    /// credited to wave *t'* ≠ *t* carries wave-*t* values and fails
    /// here.
    fn check_wave_values(wave: u64, ledger: WaveLedger) -> Result<(), Violation> {
        let replies = ledger.into_replies();
        for (consumer, answer) in &replies.consumers {
            let Some(batch) = answer else { continue };
            for (query, per_provider) in batch {
                for &(provider, value) in per_provider {
                    let expected = consumer_oracle(wave, *query, provider);
                    if value != expected {
                        return Err(Violation {
                            invariant: "cross-wave-correlation",
                            detail: format!(
                                "wave {wave}: consumer {consumer} reported {value} for \
                                 ({query}, {provider}), oracle says {expected}"
                            ),
                        });
                    }
                }
            }
        }
        for (provider, answer) in &replies.providers {
            let Some(batch) = answer else { continue };
            for entry in batch {
                let expected = provider_oracle(wave, *provider, entry.query);
                let expected_util = utilization_oracle(wave, *provider);
                if entry.intention != expected || entry.utilization != expected_util {
                    return Err(Violation {
                        invariant: "cross-wave-correlation",
                        detail: format!(
                            "wave {wave}: provider {provider} reported ({}, {}) for {}, \
                             oracle says ({expected}, {expected_util})",
                            entry.intention, entry.utilization, entry.query
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn start_wave(&mut self) {
        let wave = self.next_wave;
        let requests = wave_requests(wave);
        let (consumer_home, provider_home) = homes();
        let live: Vec<bool> = self.slots.iter().map(|s| s.live).collect();
        let mut outbox = Vec::new();
        let ledger = WaveLedger::plan(
            wave,
            &requests,
            &consumer_home,
            &provider_home,
            HOSTS,
            |slot| live[slot],
            false,
            &mut outbox,
        );
        let capacity = self.scenario.wire_capacity;
        for (slot, bytes) in self.slots.iter_mut().zip(outbox) {
            slot.send_queue.extend_from_slice(&bytes);
            slot.flush_down(capacity);
        }
        self.in_flight = Some(ledger);
        self.next_wave += 1;
        self.waves_begun += 1;
    }

    /// Collects the wave in flight (complete or timed out) and records
    /// its outcome, verifying accounting and oracle values.
    fn collect(&mut self, complete: bool) -> Result<(), Violation> {
        let ledger = self
            .in_flight
            .take()
            .expect("collect requires a wave in flight");
        let wave = ledger.wave();
        let delivered = ledger.delivered();
        let pending = ledger.pending_total();
        let answered = ledger.stored_replies();
        if delivered as i64 - pending as i64 != answered as i64 {
            return Err(Violation {
                invariant: "credit-accounting",
                detail: format!(
                    "wave {wave} at collection: delivered {delivered} - pending {pending} \
                     != stored {answered}"
                ),
            });
        }
        if complete && answered != delivered {
            return Err(Violation {
                invariant: "termination",
                detail: format!(
                    "wave {wave} collected as complete with {answered}/{delivered} replies"
                ),
            });
        }
        self.outcomes.push(WaveOutcome {
            wave,
            delivered,
            answered,
            complete,
        });
        Self::check_wave_values(wave, ledger)
    }

    /// Host `s` consumes every complete message its assembler holds,
    /// buffering requests and answering at wave-end markers — the
    /// model-host analogue of `ParticipantHost::serve`'s inner loop,
    /// running the production buffer type.
    fn host_consume(&mut self, s: usize) -> Result<(), Violation> {
        let silent = self.scenario.silent_provider;
        let slot = &mut self.slots[s];
        loop {
            let message = slot
                .host_assembler
                .next_mediator_message()
                .map_err(|e| Violation {
                    invariant: "frame-consistency",
                    detail: format!("host {s} failed to decode a request frame: {e}"),
                })?;
            let Some(message) = message else { break };
            match message {
                MediatorMessage::ConsumerWaveRequest {
                    wave,
                    consumer,
                    requests,
                } => slot.buffer.push_consumer(wave, consumer, requests),
                MediatorMessage::ProviderWaveRequest {
                    wave,
                    provider,
                    queries,
                    request_bids,
                } => slot
                    .buffer
                    .push_provider(wave, provider, queries, request_bids),
                MediatorMessage::WaveEnd { wave } => {
                    let taken = slot.buffer.take_wave(wave);
                    for (consumer, requests) in taken.consumers {
                        let intentions = requests
                            .iter()
                            .map(|(query, candidates)| {
                                (
                                    query.id,
                                    candidates
                                        .iter()
                                        .map(|&p| (p, consumer_oracle(wave, query.id, p)))
                                        .collect(),
                                )
                            })
                            .collect();
                        let mut frame = Vec::new();
                        encode_participant_reply_into(
                            &ParticipantReply::ConsumerWaveReply {
                                wave,
                                consumer,
                                intentions,
                            },
                            &mut frame,
                        );
                        slot.reply_queue.extend_from_slice(&frame);
                        slot.last_reply_frame = frame;
                    }
                    for (provider, queries, _bids) in taken.providers {
                        if silent && provider == ProviderId::new(PROVIDER_H1) {
                            continue;
                        }
                        let intentions = queries
                            .iter()
                            .map(|query| {
                                (query.id, provider_oracle(wave, provider, query.id), None)
                            })
                            .collect();
                        let mut frame = Vec::new();
                        encode_participant_reply_into(
                            &ParticipantReply::ProviderWaveReply {
                                wave,
                                provider,
                                utilization: utilization_oracle(wave, provider),
                                intentions,
                            },
                            &mut frame,
                        );
                        slot.reply_queue.extend_from_slice(&frame);
                        slot.last_reply_frame = frame;
                    }
                }
                other => {
                    return Err(Violation {
                        invariant: "frame-consistency",
                        detail: format!("host {s} received an unexpected message: {other:?}"),
                    })
                }
            }
        }
        Ok(())
    }

    /// The server consumes every complete reply frame buffered for slot
    /// `s`, routing each through the shared ledger seam and checking
    /// the accounting identity after every frame.
    fn server_consume(&mut self, s: usize) -> Result<(), Violation> {
        loop {
            let slot = &mut self.slots[s];
            let frame = match slot.server_assembler.next_frame() {
                Err(e) => {
                    return Err(Violation {
                        invariant: "frame-consistency",
                        detail: format!("server failed to decode a reply frame from slot {s}: {e}"),
                    })
                }
                Ok(None) => break,
                Ok(Some(frame)) => frame,
            };
            let applied =
                route_reply_frame(frame, self.in_flight.as_mut(), s).map_err(|e| Violation {
                    invariant: "frame-consistency",
                    detail: format!("reply frame from slot {s} failed to route: {e}"),
                })?;
            if applied == Applied::Goodbye {
                return Err(Violation {
                    invariant: "frame-consistency",
                    detail: format!("unexpected goodbye from slot {s}"),
                });
            }
            self.check_ledger_accounting()?;
        }
        Ok(())
    }

    /// Fabricates a reply frame from host `s` claiming to answer
    /// `wave` for `provider`, with off-oracle values (zero): if the
    /// seam ever credits it, the value oracle catches the corruption
    /// too.
    fn inject_reply(&mut self, s: usize, wave: u64, provider: ProviderId) {
        let capacity = self.scenario.wire_capacity;
        let slot = &mut self.slots[s];
        encode_participant_reply_into(
            &ParticipantReply::ProviderWaveReply {
                wave,
                provider,
                utilization: 0.0,
                intentions: vec![(QueryId::new(100 + wave as u32), 0.0, None)],
            },
            &mut slot.reply_queue,
        );
        slot.flush_up(capacity);
    }

    fn apply(&mut self, action: Action) -> Result<(), Violation> {
        match action {
            Action::BeginWave => {
                self.start_wave();
                Ok(())
            }
            Action::FinishWave => self.collect(true),
            Action::TimeoutWave => {
                // A stuck wave's deadline is forced, not an early race:
                // it does not spend the early-timeout budget.
                if !self.stuck() {
                    self.timeouts_left = self.timeouts_left.saturating_sub(1);
                }
                self.collect(false)
            }
            Action::DeliverDown(s, n) => {
                let capacity = self.scenario.wire_capacity;
                let slot = &mut self.slots[s];
                let chunk: Vec<u8> = slot.down_wire.drain(..n).collect();
                slot.host_assembler.extend(&chunk);
                slot.fed_down += n;
                self.host_consume(s)?;
                // The drain freed wire space and may have produced
                // replies: both write loops advance as far as the
                // pipes allow.
                let slot = &mut self.slots[s];
                slot.flush_down(capacity);
                slot.flush_up(capacity);
                Ok(())
            }
            Action::DeliverUp(s, n) => {
                let capacity = self.scenario.wire_capacity;
                let slot = &mut self.slots[s];
                let chunk: Vec<u8> = slot.up_wire.drain(..n).collect();
                slot.server_assembler.extend(&chunk);
                slot.fed_up += n;
                self.server_consume(s)?;
                self.slots[s].flush_up(capacity);
                Ok(())
            }
            Action::Crash(s) => {
                let slot = &mut self.slots[s];
                slot.host_alive = false;
                slot.live = false;
                slot.crashes_left -= 1;
                slot.send_queue.clear();
                slot.down_wire.clear();
                slot.reply_queue.clear();
                slot.up_wire.clear();
                slot.host_assembler = FrameAssembler::new();
                slot.server_assembler = FrameAssembler::new();
                slot.buffer = WaveRequestBuffer::new();
                Ok(())
            }
            Action::InjectDup(s) => {
                self.dups_left -= 1;
                let capacity = self.scenario.wire_capacity;
                let slot = &mut self.slots[s];
                let frame = slot.last_reply_frame.clone();
                slot.reply_queue.extend_from_slice(&frame);
                slot.flush_up(capacity);
                Ok(())
            }
            Action::InjectForeign(s) => {
                self.foreigns_left -= 1;
                let wave = self.in_flight.as_ref().expect("enabled checked").wave();
                // A reply for the *other* host's provider: charged to
                // the other slot, so it must be rejected as foreign.
                self.inject_reply(s, wave, own_provider(1 - s));
                Ok(())
            }
            Action::InjectStale(s) => {
                self.stales_left -= 1;
                let wave = self.outcomes.last().expect("enabled checked").wave;
                self.inject_reply(s, wave, own_provider(s));
                Ok(())
            }
        }
    }
}

impl Model for WaveWorld {
    fn enabled(&self) -> usize {
        self.actions().len()
    }

    fn describe(&self, action: usize) -> String {
        match self.actions()[action] {
            Action::BeginWave => format!("begin(w{})", self.next_wave),
            Action::FinishWave => {
                format!("finish(w{})", self.in_flight.as_ref().unwrap().wave())
            }
            Action::TimeoutWave => {
                let wave = self.in_flight.as_ref().unwrap();
                format!("timeout(w{},pending={})", wave.wave(), wave.pending_total())
            }
            Action::DeliverDown(s, n) => {
                format!("recv_host(h{s},{n}B@{})", self.slots[s].fed_down)
            }
            Action::DeliverUp(s, n) => format!("recv_server(h{s},{n}B@{})", self.slots[s].fed_up),
            Action::Crash(s) => {
                let slot = &self.slots[s];
                format!("crash(h{s}@d{},u{})", slot.fed_down, slot.fed_up)
            }
            Action::InjectDup(s) => format!("dup(h{s})"),
            Action::InjectForeign(s) => {
                format!("foreign(h{s},w{})", self.in_flight.as_ref().unwrap().wave())
            }
            Action::InjectStale(s) => {
                format!("stale(h{s},w{})", self.outcomes.last().unwrap().wave)
            }
        }
    }

    fn step(&mut self, action: usize) -> Result<(), Violation> {
        let action = self.actions()[action].clone();
        self.apply(action)
    }

    fn obligations(&self) -> usize {
        (self.scenario.waves - self.waves_begun) as usize
            + usize::from(self.in_flight.is_some())
            + self
                .slots
                .iter()
                .map(SlotState::bytes_outstanding)
                .sum::<usize>()
    }

    fn finish(&self) -> Result<(), Violation> {
        if self.outcomes.len() as u64 != self.scenario.waves {
            return Err(Violation {
                invariant: "termination",
                detail: format!(
                    "{} of {} waves terminated",
                    self.outcomes.len(),
                    self.scenario.waves
                ),
            });
        }
        for outcome in &self.outcomes {
            if outcome.answered > outcome.delivered {
                return Err(Violation {
                    invariant: "credit-accounting",
                    detail: format!(
                        "wave {} over-credited: {} answered of {} delivered",
                        outcome.wave, outcome.answered, outcome.delivered
                    ),
                });
            }
            if outcome.complete && outcome.answered != outcome.delivered {
                return Err(Violation {
                    invariant: "termination",
                    detail: format!(
                        "wave {} complete with {}/{} replies",
                        outcome.wave, outcome.answered, outcome.delivered
                    ),
                });
            }
        }
        Ok(())
    }

    fn state_hash(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.next_wave.hash(&mut hasher);
        self.waves_begun.hash(&mut hasher);
        self.timeouts_left.hash(&mut hasher);
        (self.dups_left, self.foreigns_left, self.stales_left).hash(&mut hasher);
        for outcome in &self.outcomes {
            (
                outcome.wave,
                outcome.delivered,
                outcome.answered,
                outcome.complete,
            )
                .hash(&mut hasher);
        }
        if let Some(ledger) = &self.in_flight {
            (ledger.wave(), ledger.delivered(), ledger.stored_replies()).hash(&mut hasher);
            for s in 0..HOSTS {
                ledger.pending_on(s).hash(&mut hasher);
            }
        }
        for slot in &self.slots {
            (slot.live, slot.host_alive, slot.crashes_left).hash(&mut hasher);
            slot.send_queue.hash(&mut hasher);
            slot.down_wire.hash(&mut hasher);
            slot.reply_queue.hash(&mut hasher);
            slot.up_wire.hash(&mut hasher);
            (slot.fed_down, slot.fed_up).hash(&mut hasher);
            slot.host_assembler.pending_bytes().hash(&mut hasher);
            slot.server_assembler.pending_bytes().hash(&mut hasher);
            slot.buffer.len().hash(&mut hasher);
        }
        hasher.finish()
    }
}
