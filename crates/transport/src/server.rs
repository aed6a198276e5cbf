//! The mediator-side wave server.
//!
//! [`WaveServer`] is the socket realization of Algorithm 1's fork /
//! waituntil / timeout loop: it accepts participant-host connections over
//! TCP and Unix-domain sockets, fans each mediation wave out as framed
//! [`MediatorMessage`]s to the hosts that own the addressed endpoints,
//! and collects the framed replies until every request is answered or
//! the wave deadline passes — at which point everything still missing
//! degrades to indifference, exactly like the in-process backends
//! (the assembly goes through the same
//! [`WaveReplies::into_candidate_infos`] helper, so the timeout
//! semantics live in one place).
//!
//! One connection carries *many* endpoints: a host opens with
//! [`ParticipantReply::Hello`] declaring the consumers and providers it
//! serves, and the server routes each endpoint's requests over that
//! host's connection. That is what makes tens of thousands of endpoints
//! practical — the socket count scales with hosts, not participants.
//!
//! One wave is in flight at a time, as in Algorithm 1: the next query's
//! answers depend on this wave's allocation, so [`WaveServer::run_wave`]
//! plans, writes and collects a wave before the next one starts.
//! Replies are correlated by wave id; a reply for an older wave (a
//! straggler that missed its deadline) is recognized as stale and
//! discarded, never mixed into the current wave.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

#[cfg(unix)]
use std::os::unix::net::UnixListener;
#[cfg(unix)]
use std::path::PathBuf;

use sqlb_core::allocation::{Allocation, CandidateInfo};
use sqlb_mediation::{
    encode_mediator_message, encode_mediator_message_into, FrameAssembler, MediatorMessage,
    ParticipantReply, WaveReplies,
};
use sqlb_obs::{Counter, EventKind, Gauge, Histogram, Obs, ObsSnapshot};
use sqlb_types::{ConsumerId, ProviderId, Query};

use crate::ledger::{route_reply_frame, Applied, WaveLedger};
use crate::net::{is_timeout, Stream};

/// Wire tag of [`ParticipantReply::StatsRequest`] (tag byte at offset 4
/// of a frame, after the length prefix) — peeked on the receive path so
/// an introspection request can be intercepted before ledger routing.
const STATS_REQUEST_TAG: u8 = 7;

/// Pre-resolved observability instruments of a [`WaveServer`]. All
/// handles are no-ops until [`WaveServer::set_obs`] installs an enabled
/// [`Obs`], so the receive/send hot paths pay one predictable branch per
/// update when observability is off.
#[derive(Debug, Default)]
struct ServerMetrics {
    /// Waves run (`run_wave` calls).
    waves_begun: Counter,
    /// Endpoint requests written out across all waves.
    requests_delivered: Counter,
    /// Replies credited to the current wave's ledger.
    replies_credited: Counter,
    /// Stale, duplicate or foreign replies parsed and discarded.
    replies_discarded: Counter,
    /// Requests that degraded to indifference: unanswered at a wave
    /// deadline, or addressed over a connection already gone.
    replies_timed_out: Counter,
    /// Frames reassembled from host connections.
    frames_reassembled: Counter,
    /// Bytes read from host connections.
    bytes_in: Counter,
    /// Bytes written to host connections.
    bytes_out: Counter,
    /// Live host connections.
    connections: Gauge,
    /// Per-wave gather latency (write-out to last reply or deadline),
    /// seconds.
    wave_gather_seconds: Histogram,
}

impl ServerMetrics {
    /// Resolves every instrument from `obs` (no-ops when disabled).
    fn resolve(obs: &Obs) -> Self {
        ServerMetrics {
            waves_begun: obs.counter("waves_begun"),
            requests_delivered: obs.counter("requests_delivered"),
            replies_credited: obs.counter("replies_credited"),
            replies_discarded: obs.counter("replies_discarded"),
            replies_timed_out: obs.counter("replies_timed_out"),
            frames_reassembled: obs.counter("frames_reassembled"),
            bytes_in: obs.counter("bytes_in"),
            bytes_out: obs.counter("bytes_out"),
            connections: obs.gauge("connections"),
            wave_gather_seconds: obs.histogram("wave_gather_seconds"),
        }
    }
}

/// The observability context threaded through the server's receive
/// paths: instruments, the event recorder with its clock base, and the
/// queue of connection slots whose stats requests await an answer.
struct ObsCtx<'a> {
    m: &'a ServerMetrics,
    obs: &'a Obs,
    /// The server's birth instant; events are stamped with seconds
    /// since it (the transport has no virtual clock).
    t0: Instant,
    /// Slots that sent a [`ParticipantReply::StatsRequest`] and have
    /// not been answered yet.
    stats_requests: &'a mut Vec<usize>,
}

impl ObsCtx<'_> {
    /// Seconds since server start, the transport's event clock.
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Takes one frame reassembled from connection `slot`: a stats
    /// request is queued for [`WaveServer::flush_stats_replies`], any
    /// other frame is routed through [`route_reply_frame`] to `ledger`
    /// (the wave being run, if any). Returns `false` when the connection
    /// is no longer usable: the frame was malformed or said goodbye, so
    /// whatever the host has not answered degrades.
    fn take_frame(&mut self, frame: &[u8], ledger: Option<&mut WaveLedger>, slot: usize) -> bool {
        self.m.frames_reassembled.inc();
        if frame.len() > 4 && frame[4] == STATS_REQUEST_TAG {
            self.stats_requests.push(slot);
            return true;
        }
        match route_reply_frame(frame, ledger, slot) {
            Err(_) | Ok(Applied::Goodbye) => false,
            Ok(applied) => {
                self.on_applied(frame, applied);
                true
            }
        }
    }

    /// Accounts one routed reply frame.
    fn on_applied(&mut self, frame: &[u8], applied: Applied) {
        if !self.obs.is_enabled() {
            return;
        }
        // Wave replies carry their wave id right after the tag byte;
        // peek it for the event stream (0 for non-wave frames).
        let wave = if frame.len() >= 13 && (frame[4] == 3 || frame[4] == 4) {
            u64::from_le_bytes(frame[5..13].try_into().expect("8 bytes"))
        } else {
            0
        };
        match applied {
            Applied::Counted => {
                self.m.replies_credited.inc();
                self.obs
                    .record(self.now(), EventKind::ReplyCredited { wave });
            }
            Applied::Ignored | Applied::Foreign => {
                self.m.replies_discarded.inc();
                self.obs
                    .record(self.now(), EventKind::StaleDiscard { wave });
            }
            Applied::Goodbye => {}
        }
    }
}

/// Wave-server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How long a wave waits for replies before everything still missing
    /// degrades to indifference (Algorithm 1, line 5).
    pub timeout: Duration,
    /// Whether provider wave requests also ask for bids (economic
    /// methods).
    pub request_bids: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            timeout: Duration::from_millis(200),
            request_bids: false,
        }
    }
}

/// What happened during one socket wave.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SocketRoundStats {
    /// Identifier of the wave (1-based, monotonically increasing).
    pub wave: u64,
    /// Endpoint requests written to host connections.
    pub delivered: usize,
    /// Replies that arrived before the deadline.
    pub answered: usize,
    /// Requests left unanswered — still outstanding when the deadline
    /// passed, or not written because the addressee's host connection
    /// was already gone; their values were read as indifference.
    pub timed_out: usize,
    /// Wall-clock time the wave took (write-out to last reply or
    /// deadline).
    pub elapsed: Duration,
}

/// One connected participant host.
struct HostConnection {
    stream: Stream,
    assembler: FrameAssembler,
    consumers: Vec<ConsumerId>,
    providers: Vec<ProviderId>,
}

/// The mediator-side socket server: accepts host connections and drives
/// mediation waves over them.
pub struct WaveServer {
    config: ServerConfig,
    tcp: Option<TcpListener>,
    #[cfg(unix)]
    uds: Option<UnixListener>,
    #[cfg(unix)]
    uds_path: Option<PathBuf>,
    /// Slots are stable across closures (`None` = closed) so endpoint
    /// home indices never dangle.
    connections: Vec<Option<HostConnection>>,
    consumer_home: BTreeMap<ConsumerId, usize>,
    provider_home: BTreeMap<ProviderId, usize>,
    /// Waves run so far; also the id of the latest wave (ids are
    /// 1-based).
    waves: u64,
    last_round: SocketRoundStats,
    /// Per-connection encode scratch, reused across waves so the send
    /// path of a steady-state wave allocates nothing.
    outbox: Vec<Vec<u8>>,
    /// Observability sink (disabled by default — every instrument below
    /// is then a no-op handle).
    obs: Obs,
    /// Pre-resolved instruments (see [`ServerMetrics`]).
    metrics: ServerMetrics,
    /// Event-clock base: flight-recorder events are stamped with
    /// seconds since this instant.
    started_at: Instant,
    /// Connection slots with an unanswered
    /// [`ParticipantReply::StatsRequest`]; answered by
    /// [`WaveServer::flush_stats_replies`] at the end of every wave and
    /// every [`WaveServer::service_stats`] call.
    stats_requests: Vec<usize>,
}

impl WaveServer {
    /// Creates a server with no listener yet; call
    /// [`WaveServer::listen_tcp`] and/or [`WaveServer::listen_uds`].
    pub fn new(config: ServerConfig) -> Self {
        WaveServer {
            config,
            tcp: None,
            #[cfg(unix)]
            uds: None,
            #[cfg(unix)]
            uds_path: None,
            connections: Vec::new(),
            consumer_home: BTreeMap::new(),
            provider_home: BTreeMap::new(),
            waves: 0,
            last_round: SocketRoundStats::default(),
            outbox: Vec::new(),
            obs: Obs::disabled(),
            metrics: ServerMetrics::default(),
            started_at: Instant::now(),
            stats_requests: Vec::new(),
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> ServerConfig {
        self.config
    }

    /// Installs an observability sink and resolves the server's
    /// instruments against it. With the default [`Obs::disabled`] every
    /// instrument stays a no-op handle and the wire behaviour is
    /// bit-identical — only [`MediatorMessage::StatsReply`] answers are
    /// then empty snapshots.
    pub fn set_obs(&mut self, obs: Obs) {
        self.metrics = ServerMetrics::resolve(&obs);
        self.obs = obs;
    }

    /// The server's observability sink (disabled unless
    /// [`WaveServer::set_obs`] installed an enabled one).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A point-in-time snapshot of the server's instruments — the same
    /// view a [`ParticipantReply::StatsRequest`] is answered with.
    pub fn stats_snapshot(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Starts listening on a TCP address (use port 0 for an ephemeral
    /// port) and returns the bound address.
    pub fn listen_tcp(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        // Accepts are polled (see accept_host), never allowed to block
        // the mediator indefinitely.
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        self.tcp = Some(listener);
        Ok(bound)
    }

    /// The bound TCP address, when listening on TCP.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Starts listening on a Unix-domain socket path. An existing socket
    /// file at the path is removed first (a stale file from a previous
    /// run would otherwise block the bind).
    #[cfg(unix)]
    pub fn listen_uds(&mut self, path: impl Into<PathBuf>) -> io::Result<()> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        self.uds = Some(listener);
        self.uds_path = Some(path);
        Ok(())
    }

    /// The Unix-domain socket path, when listening on one.
    #[cfg(unix)]
    pub fn uds_path(&self) -> Option<&std::path::Path> {
        self.uds_path.as_deref()
    }

    /// Accepts one host connection (from either listener) and reads its
    /// [`ParticipantReply::Hello`], registering the declared endpoints.
    /// Returns the connection's slot index. Fails with
    /// [`io::ErrorKind::TimedOut`] when no host shows up in time.
    pub fn accept_host(&mut self, timeout: Duration) -> io::Result<usize> {
        let deadline = Instant::now() + timeout;
        let stream = loop {
            if let Some(listener) = &self.tcp {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nodelay(true)?;
                        stream.set_nonblocking(false)?;
                        break Stream::Tcp(stream);
                    }
                    Err(e) if is_timeout(&e) => {}
                    Err(e) => return Err(e),
                }
            }
            #[cfg(unix)]
            if let Some(listener) = &self.uds {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        break Stream::Unix(stream);
                    }
                    Err(e) if is_timeout(&e) => {}
                    Err(e) => return Err(e),
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no participant host connected before the deadline",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        };

        // Writes to this host must make progress or fail — a connected
        // host that stops reading would otherwise block the mediator's
        // wave fan-out forever, and the wave deadline only bounds reads.
        stream.set_write_timeout(Some(self.config.timeout.max(Duration::from_millis(100))))?;

        // The hello must arrive promptly; a connection that never
        // identifies itself cannot be routed to.
        let mut connection = HostConnection {
            stream,
            assembler: FrameAssembler::new(),
            consumers: Vec::new(),
            providers: Vec::new(),
        };
        let hello = loop {
            if let Some(reply) = connection
                .assembler
                .next_participant_reply()
                .map_err(frame_error)?
            {
                break reply;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "host connected but sent no hello before the deadline",
                ));
            }
            connection.stream.set_read_timeout(Some(remaining))?;
            match connection.assembler.fill_from(&mut connection.stream) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "host closed the connection before its hello",
                    ))
                }
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        let ParticipantReply::Hello {
            consumers,
            providers,
        } = hello
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "host's first frame was not a hello",
            ));
        };

        let slot = self.connections.len();
        for &c in &consumers {
            self.consumer_home.insert(c, slot);
        }
        for &p in &providers {
            self.provider_home.insert(p, slot);
        }
        connection.consumers = consumers;
        connection.providers = providers;
        self.connections.push(Some(connection));
        self.metrics.connections.set(self.connection_count() as i64);
        Ok(slot)
    }

    /// Accepts `hosts` connections (see [`WaveServer::accept_host`]);
    /// `timeout` bounds the whole accept phase.
    pub fn accept_hosts(&mut self, hosts: usize, timeout: Duration) -> io::Result<Vec<usize>> {
        let deadline = Instant::now() + timeout;
        let mut slots = Vec::with_capacity(hosts);
        for _ in 0..hosts {
            let remaining = deadline.saturating_duration_since(Instant::now());
            slots.push(self.accept_host(remaining)?);
        }
        Ok(slots)
    }

    /// Number of live host connections.
    pub fn connection_count(&self) -> usize {
        self.connections.iter().filter(|c| c.is_some()).count()
    }

    /// Number of registered consumer endpoints.
    pub fn consumer_count(&self) -> usize {
        self.consumer_home.len()
    }

    /// Number of registered provider endpoints.
    pub fn provider_count(&self) -> usize {
        self.provider_home.len()
    }

    /// Waves the server has run.
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Statistics of the most recent wave.
    pub fn last_round(&self) -> SocketRoundStats {
        self.last_round
    }

    /// Runs one mediation wave over the connected hosts — the server's
    /// only wave lifecycle. It plans one batched request per distinct
    /// participant of the batch, writes each owning connection's burst,
    /// then collects replies until every request is answered or the
    /// configured deadline passes. Returns the raw replies; missing
    /// answers (unregistered endpoints, dead connections, replies past
    /// the deadline) are `None` and degrade to indifference in
    /// [`WaveReplies::into_candidate_infos`].
    pub fn run_wave(&mut self, requests: &[(Query, Vec<ProviderId>)]) -> WaveReplies {
        self.waves += 1;
        let wave = self.waves;

        // Plan the fan-out through the shared ledger seam: requests are
        // framed per connection into the reusable scratch buffers, each
        // involved connection's burst bracketed with the wave-end marker,
        // and the reply ledger records which slot every request was
        // charged to. Requests to endpoints with no live home connection
        // are skipped and counted as unreachable.
        let connections = &self.connections;
        let mut ledger = WaveLedger::plan(
            wave,
            requests,
            &self.consumer_home,
            &self.provider_home,
            connections.len(),
            |slot| connections[slot].is_some(),
            self.config.request_bids,
            &mut self.outbox,
        );
        let started = Instant::now();
        let delivered = ledger.delivered();
        self.metrics.waves_begun.inc();
        self.metrics.requests_delivered.add(delivered as u64);
        if self.obs.is_enabled() {
            self.obs.record(
                self.started_at.elapsed().as_secs_f64(),
                EventKind::WaveBegun {
                    wave,
                    delivered: delivered as u64,
                },
            );
        }

        self.write_wave(&mut ledger);
        self.collect_replies(&mut ledger, started + self.config.timeout);

        let answered = delivered - ledger.pending_total();
        debug_assert_eq!(
            answered,
            ledger.stored_replies(),
            "ledger accounting must agree with the stored replies"
        );
        self.last_round = SocketRoundStats {
            wave,
            delivered,
            answered,
            timed_out: delivered - answered + ledger.unreachable(),
            elapsed: started.elapsed(),
        };
        self.metrics
            .wave_gather_seconds
            .record(self.last_round.elapsed.as_secs_f64());
        self.metrics.connections.set(self.connection_count() as i64);
        let timed_out = self.last_round.timed_out;
        if timed_out > 0 {
            self.metrics.replies_timed_out.add(timed_out as u64);
            if self.obs.is_enabled() {
                self.obs.record(
                    self.started_at.elapsed().as_secs_f64(),
                    EventKind::TimeoutIndifference {
                        wave,
                        count: timed_out as u64,
                    },
                );
            }
        }
        self.flush_stats_replies();
        ledger.into_replies()
    }

    /// Writes each connection's planned burst from the outbox. A host
    /// still answering an earlier, timed-out wave may be blocked writing
    /// those replies into our full receive buffer while its own receive
    /// buffer is full of this wave's requests — so a stalled write
    /// drains incoming frames (stale replies are discarded by wave id)
    /// instead of deadlocking on two full pipes. A connection that makes
    /// no progress within the write budget is closed; its requests stay
    /// unanswered and degrade at collection.
    fn write_wave(&mut self, ledger: &mut WaveLedger) {
        let WaveServer {
            config,
            connections,
            outbox,
            obs,
            metrics,
            started_at,
            stats_requests,
            ..
        } = self;
        let mut ctx = ObsCtx {
            m: metrics,
            obs,
            t0: *started_at,
            stats_requests,
        };
        let write_budget = config.timeout.max(Duration::from_millis(100));
        let write_deadline = Instant::now() + write_budget;
        for slot in 0..connections.len() {
            if outbox[slot].is_empty() {
                continue;
            }
            let mut written = 0;
            let mut dead = false;
            while written < outbox[slot].len() && !dead {
                let Some(connection) = connections[slot].as_mut() else {
                    break;
                };
                if connection
                    .stream
                    .set_write_timeout(Some(Duration::from_millis(20)))
                    .is_err()
                {
                    dead = true;
                    break;
                }
                match connection.stream.write(&outbox[slot][written..]) {
                    Ok(0) => dead = true,
                    Ok(n) => written += n,
                    Err(e) if is_timeout(&e) => {
                        // Pull the peer's pending replies out so both
                        // pipes keep moving, then retry — up to the
                        // overall write budget.
                        dead = !drain_slot(connection, ledger, slot, &mut ctx)
                            || Instant::now() >= write_deadline;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => dead = true,
                }
            }
            ctx.m.bytes_out.add(written as u64);
            if let Some(connection) = connections[slot].as_mut() {
                // Restore the long per-write budget used by notify /
                // shutdown writes.
                dead = dead
                    || connection
                        .stream
                        .set_write_timeout(Some(write_budget))
                        .is_err()
                    || connection.stream.flush().is_err();
            }
            if dead {
                // A dead connection: its endpoints' replies stay missing
                // and degrade to indifference.
                if let Some(connection) = connections[slot].take() {
                    connection.stream.shutdown();
                }
            }
        }
    }

    /// Reads replies into `ledger` until every request is answered or
    /// `deadline` passes. The first pass works the connections in slot
    /// order, each allowed to block until the deadline — so one stalled
    /// host can consume the whole budget. A second, drain-only pass
    /// then harvests the replies the *other* hosts delivered in time:
    /// those frames are already sitting in this process's socket
    /// buffers and must not be miscounted as timeouts just because an
    /// earlier slot was slow.
    fn collect_replies(&mut self, ledger: &mut WaveLedger, deadline: Instant) {
        let WaveServer {
            connections,
            obs,
            metrics,
            started_at,
            stats_requests,
            ..
        } = self;
        let mut ctx = ObsCtx {
            m: metrics,
            obs,
            t0: *started_at,
            stats_requests,
        };
        for drain_only in [false, true] {
            for (slot, connection_slot) in connections.iter_mut().enumerate() {
                let mut dead = false;
                while !dead && ledger.pending_on(slot) > 0 {
                    let Some(connection) = connection_slot.as_mut() else {
                        break;
                    };
                    // Drain whatever is already assembled before reading.
                    match connection.assembler.next_frame() {
                        // Garbage on the stream: frame boundaries are
                        // lost, the connection is unusable.
                        Err(_) => dead = true,
                        Ok(Some(frame)) => dead = !ctx.take_frame(frame, Some(&mut *ledger), slot),
                        Ok(None) => {
                            let timeout = if drain_only {
                                // Harvest only what has (essentially)
                                // already arrived; don't wait for
                                // anything new.
                                Duration::from_millis(1)
                            } else {
                                let remaining = deadline.saturating_duration_since(Instant::now());
                                if remaining.is_zero() {
                                    break;
                                }
                                remaining
                            };
                            if connection.stream.set_read_timeout(Some(timeout)).is_err() {
                                dead = true;
                                continue;
                            }
                            match connection.assembler.fill_from(&mut connection.stream) {
                                Ok(0) => dead = true,
                                Ok(n) => ctx.m.bytes_in.add(n as u64),
                                Err(e) if is_timeout(&e) => {
                                    if drain_only {
                                        break;
                                    }
                                }
                                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                                Err(_) => dead = true,
                            }
                        }
                    }
                }
                if dead {
                    if let Some(connection) = connection_slot.take() {
                        connection.stream.shutdown();
                    }
                }
            }
        }
    }

    /// Gathers the candidate information for a batch of queries in one
    /// socket wave — the transport counterpart of the reactor's
    /// `gather_batch`: one candidate-info vector per input query, in
    /// input order, indifference filled in for every missing answer.
    pub fn gather(&mut self, requests: &[(Query, Vec<ProviderId>)]) -> Vec<Vec<CandidateInfo>> {
        if requests.is_empty() {
            return Vec::new();
        }
        self.run_wave(requests).into_candidate_infos(requests)
    }

    /// Notifies every candidate of the mediation result and the consumer
    /// of its allocation (Algorithm 1, lines 9–10), as framed one-way
    /// messages over the owning connections.
    pub fn notify(&mut self, query: &Query, candidates: &[ProviderId], allocation: &Allocation) {
        self.outbox.resize_with(self.connections.len(), Vec::new);
        for bytes in &mut self.outbox {
            bytes.clear();
        }
        for &provider in candidates {
            if let Some(&home) = self.provider_home.get(&provider) {
                encode_mediator_message_into(
                    &MediatorMessage::AllocationNotice {
                        query: query.id,
                        provider,
                        selected: allocation.is_selected(provider),
                    },
                    &mut self.outbox[home],
                );
            }
        }
        if let Some(&home) = self.consumer_home.get(&query.consumer) {
            encode_mediator_message_into(
                &MediatorMessage::AllocationResult {
                    query: query.id,
                    consumer: query.consumer,
                    providers: allocation.selected.clone(),
                },
                &mut self.outbox[home],
            );
        }
        for slot in 0..self.connections.len() {
            if self.outbox[slot].is_empty() {
                continue;
            }
            if let Some(connection) = self.connections[slot].as_mut() {
                if connection.stream.write_all(&self.outbox[slot]).is_err() {
                    self.close_slot(slot);
                } else {
                    self.metrics.bytes_out.add(self.outbox[slot].len() as u64);
                }
            }
        }
    }

    /// Polls every live connection once for pending frames between
    /// waves — the idle pump behind the live introspection endpoint.
    /// Wave replies found along the way are stragglers of a wave already
    /// collected: they are validated and discarded like any stale reply;
    /// every
    /// [`ParticipantReply::StatsRequest`] is answered with a
    /// [`MediatorMessage::StatsReply`] snapshot. Each connection gets
    /// one bounded read (`timeout`), so a call costs at most
    /// `connections × timeout` wall clock. Returns the number of stats
    /// requests answered.
    ///
    /// Connections whose endpoints are all busy answering a wave simply
    /// have nothing buffered; a dedicated introspection client (a host
    /// that said hello with no endpoints) is serviced here without
    /// disturbing wave traffic.
    pub fn service_stats(&mut self, timeout: Duration) -> usize {
        let WaveServer {
            connections,
            obs,
            metrics,
            started_at,
            stats_requests,
            ..
        } = self;
        let mut ctx = ObsCtx {
            m: metrics,
            obs,
            t0: *started_at,
            stats_requests,
        };
        for (slot, connection_slot) in connections.iter_mut().enumerate() {
            let Some(connection) = connection_slot.as_mut() else {
                continue;
            };
            if connection.stream.set_read_timeout(Some(timeout)).is_err() {
                if let Some(connection) = connection_slot.take() {
                    connection.stream.shutdown();
                }
                continue;
            }
            let mut dead = false;
            match connection.assembler.fill_from(&mut connection.stream) {
                Ok(0) => dead = true,
                Ok(n) => ctx.m.bytes_in.add(n as u64),
                Err(e) if is_timeout(&e) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => dead = true,
            }
            while !dead {
                match connection.assembler.next_frame() {
                    Err(_) => dead = true,
                    Ok(None) => break,
                    Ok(Some(frame)) => dead = !ctx.take_frame(frame, None, slot),
                }
            }
            if dead {
                if let Some(connection) = connection_slot.take() {
                    connection.stream.shutdown();
                }
            }
        }
        self.metrics.connections.set(self.connection_count() as i64);
        self.flush_stats_replies()
    }

    /// Answers every queued [`ParticipantReply::StatsRequest`] with one
    /// shared snapshot and returns how many were answered. Write
    /// failures close the requesting slot.
    fn flush_stats_replies(&mut self) -> usize {
        if self.stats_requests.is_empty() {
            return 0;
        }
        let mut slots = std::mem::take(&mut self.stats_requests);
        slots.sort_unstable();
        slots.dedup();
        // One snapshot per flush: every request queued in the same
        // drain sees the same view.
        let frame = encode_mediator_message(&MediatorMessage::StatsReply {
            snapshot: self.obs.snapshot(),
        });
        let mut answered = 0;
        for slot in slots {
            let Some(connection) = self.connections[slot].as_mut() else {
                continue;
            };
            if connection.stream.write_all(&frame).is_ok() && connection.stream.flush().is_ok() {
                self.metrics.bytes_out.add(frame.len() as u64);
                answered += 1;
            } else {
                self.close_slot(slot);
            }
        }
        answered
    }

    /// Removes a consumer endpoint (e.g. on departure). When this leaves
    /// its host connection with no endpoints at all, the connection is
    /// shut down and dropped; returns `true` in that case.
    pub fn deregister_consumer(&mut self, id: ConsumerId) -> bool {
        let Some(slot) = self.consumer_home.remove(&id) else {
            return false;
        };
        if let Some(connection) = self.connections[slot].as_mut() {
            connection.consumers.retain(|&c| c != id);
            if connection.consumers.is_empty() && connection.providers.is_empty() {
                self.shutdown_slot(slot);
                return true;
            }
        }
        false
    }

    /// Removes a provider endpoint (see
    /// [`WaveServer::deregister_consumer`]).
    pub fn deregister_provider(&mut self, id: ProviderId) -> bool {
        let Some(slot) = self.provider_home.remove(&id) else {
            return false;
        };
        if let Some(connection) = self.connections[slot].as_mut() {
            connection.providers.retain(|&p| p != id);
            if connection.consumers.is_empty() && connection.providers.is_empty() {
                self.shutdown_slot(slot);
                return true;
            }
        }
        false
    }

    /// Registers a consumer endpoint on an already-connected host slot
    /// (a re-joining participant multiplexed onto a live connection, the
    /// inverse of [`WaveServer::deregister_consumer`]). Returns `false`
    /// when the slot is closed or the endpoint is already registered.
    pub fn register_consumer_on(&mut self, id: ConsumerId, slot: usize) -> bool {
        if self.consumer_home.contains_key(&id) {
            return false;
        }
        let Some(Some(connection)) = self.connections.get_mut(slot) else {
            return false;
        };
        connection.consumers.push(id);
        self.consumer_home.insert(id, slot);
        true
    }

    /// Registers a provider endpoint on an already-connected host slot
    /// (see [`WaveServer::register_consumer_on`]).
    pub fn register_provider_on(&mut self, id: ProviderId, slot: usize) -> bool {
        if self.provider_home.contains_key(&id) {
            return false;
        }
        let Some(Some(connection)) = self.connections.get_mut(slot) else {
            return false;
        };
        connection.providers.push(id);
        self.provider_home.insert(id, slot);
        true
    }

    /// Sends `Shutdown` to every live host and drops the connections.
    /// The Unix-domain socket file, if any, is removed.
    pub fn shutdown(&mut self) {
        for slot in 0..self.connections.len() {
            if self.connections[slot].is_some() {
                self.shutdown_slot(slot);
            }
        }
        #[cfg(unix)]
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Sends `Shutdown` on one connection and drops it.
    fn shutdown_slot(&mut self, slot: usize) {
        if let Some(connection) = self.connections[slot].as_mut() {
            let frame = encode_mediator_message(&MediatorMessage::Shutdown);
            let _ = connection.stream.write_all(&frame);
            let _ = connection.stream.flush();
        }
        self.close_slot(slot);
    }

    /// Drops a connection without ceremony (I/O already failed).
    fn close_slot(&mut self, slot: usize) {
        if let Some(connection) = self.connections[slot].take() {
            connection.stream.shutdown();
        }
        self.metrics.connections.set(self.connection_count() as i64);
    }
}

impl Drop for WaveServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for WaveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaveServer")
            .field("connections", &self.connection_count())
            .field("consumers", &self.consumer_home.len())
            .field("providers", &self.provider_home.len())
            .field("waves", &self.waves)
            .finish()
    }
}

fn frame_error(error: sqlb_mediation::FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, error)
}

/// Drains frames already available on one connection while a wave
/// write is stalled: takes every assembled frame (routed to `ledger` via
/// the shared [`route_reply_frame`]) and performs one short read so the
/// peer's send buffer keeps moving. Returns `false` when the connection
/// is no longer usable.
fn drain_slot(
    connection: &mut HostConnection,
    ledger: &mut WaveLedger,
    slot: usize,
    ctx: &mut ObsCtx<'_>,
) -> bool {
    loop {
        match connection.assembler.next_frame() {
            Err(_) => return false,
            Ok(None) => break,
            Ok(Some(frame)) => {
                if !ctx.take_frame(frame, Some(&mut *ledger), slot) {
                    return false;
                }
            }
        }
    }
    if connection
        .stream
        .set_read_timeout(Some(Duration::from_millis(1)))
        .is_err()
    {
        return false;
    }
    match connection.assembler.fill_from(&mut connection.stream) {
        Ok(0) => false,
        Ok(n) => {
            ctx.m.bytes_in.add(n as u64);
            true
        }
        Err(e) => is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted,
    }
}
