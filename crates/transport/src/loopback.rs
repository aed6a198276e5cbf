//! The deterministic loopback harness: the engine's socket backend.
//!
//! The simulator's participants are the engine's own agents — mutable
//! state the engine must keep owning between waves. A persistent
//! [`crate::ParticipantHost`] cannot borrow them, so the loopback
//! harness serves each wave with *scoped* participant-side threads: the
//! engine hands [`SocketMediator::gather`] a set of per-endpoint
//! [`WaveJobs`] (closures borrowing its agents, exactly like the
//! reactor's wave jobs), and the harness
//!
//! 1. fans the wave out through a real [`WaveServer`] — the full frame
//!    encode → TCP loopback → reassemble → decode path;
//! 2. runs one scoped thread per loopback host connection that decodes
//!    the requests **from the wire** and answers them by running the
//!    jobs *on the decoded queries* — the reply values derive from the
//!    bytes that actually travelled, not from state smuggled around the
//!    socket;
//! 3. collects the replies with the server's usual
//!    timeout-to-indifference semantics.
//!
//! Determinism: frames carry `f64`s as raw bits, so the decoded query is
//! bit-identical to the encoded one; the jobs compute the same pure
//! functions as the inline/reactor backends on the same inputs; and
//! reply assembly is keyed by `(query, provider)`, so socket scheduling
//! (which host answers first) cannot reorder anything observable. With
//! all-immediate endpoint latencies a same-seed run therefore produces
//! the same allocation decisions as the in-process backends — pinned by
//! the engine's cross-backend digest tests.
//!
//! Connection lifecycle is tied to the participant lifecycle: endpoints
//! are registered at start-up (one `Hello` per loopback host),
//! deregistered on departure, and a host whose last endpoint departs has
//! its connection shut down and dropped.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Duration;

use sqlb_core::allocation::CandidateInfo;
use sqlb_mediation::{
    encode_participant_reply, encode_participant_reply_into, FrameAssembler, MediatorMessage,
    ParticipantReply, ProviderAnswer,
};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryId};

use crate::host::WaveRequestBuffer;
use crate::net::Stream;
use crate::server::{ServerConfig, SocketRoundStats, WaveServer};

/// A consumer's wave job: answers the consumer's decoded wave request
/// (the full queries and candidate sets that travelled over the wire)
/// with its Definition 7 intentions.
pub type ConsumerWaveJob<'a> = Box<
    dyn FnOnce(&[(Query, Vec<ProviderId>)]) -> Vec<(QueryId, Vec<(ProviderId, f64)>)> + Send + 'a,
>;

/// A provider's wave job: answers the provider's decoded wave request
/// with one [`ProviderAnswer`] per query.
pub type ProviderWaveJob<'a> = Box<dyn FnOnce(&[Query], bool) -> Vec<ProviderAnswer> + Send + 'a>;

/// The participant-side jobs of one loopback wave, keyed by endpoint.
/// Jobs may borrow the caller's agents; the wave is served by scoped
/// threads and consumed whole.
#[derive(Default)]
pub struct WaveJobs<'a> {
    consumers: Vec<(ConsumerId, ConsumerWaveJob<'a>)>,
    providers: Vec<(ProviderId, ProviderWaveJob<'a>)>,
}

impl<'a> WaveJobs<'a> {
    /// Creates an empty job set.
    pub fn new() -> Self {
        WaveJobs::default()
    }

    /// Adds a consumer's job.
    pub fn consumer(
        &mut self,
        id: ConsumerId,
        job: impl FnOnce(&[(Query, Vec<ProviderId>)]) -> Vec<(QueryId, Vec<(ProviderId, f64)>)>
            + Send
            + 'a,
    ) {
        self.consumers.push((id, Box::new(job)));
    }

    /// Adds a provider's job.
    pub fn provider(
        &mut self,
        id: ProviderId,
        job: impl FnOnce(&[Query], bool) -> Vec<ProviderAnswer> + Send + 'a,
    ) {
        self.providers.push((id, Box::new(job)));
    }

    /// Number of endpoint jobs in the wave.
    pub fn len(&self) -> usize {
        self.consumers.len() + self.providers.len()
    }

    /// Whether the wave carries no job at all.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty() && self.providers.is_empty()
    }
}

/// A transport fault injected on one loopback host for one wave
/// ([`SocketMediator::gather_with_faults`]). Scenario campaigns drive
/// these from the deterministic simulation clock, so the *decision* to
/// fault a wave is seeded; the fault itself is a genuine wire-level
/// misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFault {
    /// The host goes silent for the wave: it reads its requests off the
    /// wire (keeping the link's frame stream aligned for later waves)
    /// but never answers, so every reply expected from it degrades to
    /// indifference when the wave deadline passes.
    Stall,
    /// The host connection drops mid-wave: the host reads the wave's
    /// requests, then shuts the stream down without replying. The server
    /// sees the EOF, closes the slot, and every later wave skips the
    /// host's endpoints at fan-out (instant indifference, no deadline
    /// wait) until they re-register over a fresh connection. A host the
    /// wave does not address keeps its link; the simulation engine passes
    /// `Drop` for a dropped host on every wave from the fault on, so the
    /// first wave that addresses it severs it, and a fresh connection of
    /// a re-joining endpoint is severed again the same way: the engine
    /// keeps a dropped host down.
    Drop,
}

/// The engine's socket mediation backend: a [`WaveServer`] on the
/// mediator side and `hosts` loopback participant-host connections,
/// each multiplexing the endpoints assigned to it.
pub struct SocketMediator {
    server: WaveServer,
    /// The wave server's TCP address, kept so churned-out endpoints can
    /// re-join over a fresh connection after their host link dropped.
    addr: std::net::SocketAddr,
    /// Client-side streams of the loopback hosts (`None` once closed).
    links: Vec<Option<Stream>>,
    /// Endpoints still registered per host, for connection lifecycle.
    endpoints_per_host: Vec<usize>,
    /// The server-side connection slot of each loopback host (bring-up
    /// makes `host_slot[h] == h`; a re-connect after a dropped link gets
    /// a fresh slot).
    host_slot: Vec<usize>,
    host_count: usize,
    /// Requests fanned out / answered / degraded to indifference across
    /// all waves so far (accumulated [`SocketRoundStats`]).
    delivered_total: u64,
    answered_total: u64,
    timed_out_total: u64,
}

impl SocketMediator {
    /// Brings the loopback topology up: binds a TCP wave server on
    /// `127.0.0.1`, connects `hosts` loopback host links, announces each
    /// host's endpoint partition (round-robin by raw id) and accepts
    /// them on the server side. Hosts are connected and accepted one at
    /// a time, so host `h` always owns server connection slot `h`.
    pub fn loopback(
        hosts: usize,
        config: ServerConfig,
        consumers: impl IntoIterator<Item = ConsumerId>,
        providers: impl IntoIterator<Item = ProviderId>,
    ) -> io::Result<Self> {
        let hosts = hosts.max(1);
        let mut server = WaveServer::new(config);
        let addr = server.listen_tcp("127.0.0.1:0")?;

        let mut host_consumers: Vec<Vec<ConsumerId>> = vec![Vec::new(); hosts];
        let mut host_providers: Vec<Vec<ProviderId>> = vec![Vec::new(); hosts];
        for c in consumers {
            host_consumers[Self::host_of(c.raw(), hosts)].push(c);
        }
        for p in providers {
            host_providers[Self::host_of(p.raw(), hosts)].push(p);
        }

        let mut links = Vec::with_capacity(hosts);
        let mut endpoints_per_host = Vec::with_capacity(hosts);
        let mut host_slot = Vec::with_capacity(hosts);
        for h in 0..hosts {
            let stream = Stream::connect_tcp(addr)?;
            // Loopback serving threads use blocking I/O; generous
            // timeouts turn a lost server into an error instead of a
            // hang.
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            let hello = ParticipantReply::Hello {
                consumers: host_consumers[h].clone(),
                providers: host_providers[h].clone(),
            };
            let mut stream = stream;
            stream.write_all(&encode_participant_reply(&hello))?;
            stream.flush()?;
            // Accept before connecting the next host, pinning the
            // host → slot mapping re-registration relies on.
            host_slot.push(server.accept_host(Duration::from_secs(10))?);
            endpoints_per_host.push(host_consumers[h].len() + host_providers[h].len());
            links.push(Some(stream));
        }

        Ok(SocketMediator {
            server,
            addr,
            links,
            endpoints_per_host,
            host_slot,
            host_count: hosts,
            delivered_total: 0,
            answered_total: 0,
            timed_out_total: 0,
        })
    }

    /// The loopback host an endpoint id lives on.
    fn host_of(raw: u32, hosts: usize) -> usize {
        raw as usize % hosts
    }

    /// The mediator-side wave server (statistics, endpoint registry).
    pub fn server(&self) -> &WaveServer {
        &self.server
    }

    /// Attaches an observability handle to the mediator-side wave server
    /// (see [`WaveServer::set_obs`]). A disabled handle (the default)
    /// keeps every instrumentation site a no-op.
    pub fn set_obs(&mut self, obs: sqlb_obs::Obs) {
        self.server.set_obs(obs);
    }

    /// Statistics of the most recent wave.
    pub fn last_round(&self) -> SocketRoundStats {
        self.server.last_round()
    }

    /// Requests degraded to indifference (missed deadlines, dead
    /// connections) accumulated across all waves so far.
    pub fn timed_out_total(&self) -> u64 {
        self.timed_out_total
    }

    /// Requests fanned out across all waves so far.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Replies that arrived before their deadline across all waves so
    /// far.
    pub fn answered_total(&self) -> u64 {
        self.answered_total
    }

    /// Number of live loopback host connections.
    pub fn live_hosts(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }

    /// Gathers the candidate information for a batch of queries through
    /// one socket wave: requests are framed and fanned out by the
    /// server, the scoped host threads decode them from the wire and
    /// answer with `jobs`, and missing answers degrade to indifference.
    /// Returns one candidate-info vector per input query, in input
    /// order.
    pub fn gather(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
        jobs: WaveJobs<'_>,
    ) -> Vec<Vec<CandidateInfo>> {
        self.gather_with_faults(requests, jobs, &[])
    }

    /// [`SocketMediator::gather`] with per-host transport faults injected
    /// for this wave. A [`HostFault::Stall`]ed host swallows its requests
    /// without answering (its jobs never run; its replies degrade to
    /// indifference at the deadline); a [`HostFault::Drop`]ped host reads
    /// the wave, shuts its connection down mid-wave and stays down until
    /// its endpoints re-register.
    pub fn gather_with_faults(
        &mut self,
        requests: &[(Query, Vec<ProviderId>)],
        jobs: WaveJobs<'_>,
        faults: &[(usize, HostFault)],
    ) -> Vec<Vec<CandidateInfo>> {
        if requests.is_empty() {
            return Vec::new();
        }
        // Partition the jobs by loopback host.
        let hosts = self.host_count;
        let mut consumer_jobs: Vec<BTreeMap<ConsumerId, ConsumerWaveJob<'_>>> =
            (0..hosts).map(|_| BTreeMap::new()).collect();
        let mut provider_jobs: Vec<BTreeMap<ProviderId, ProviderWaveJob<'_>>> =
            (0..hosts).map(|_| BTreeMap::new()).collect();
        for (id, job) in jobs.consumers {
            consumer_jobs[Self::host_of(id.raw(), hosts)].insert(id, job);
        }
        for (id, job) in jobs.providers {
            provider_jobs[Self::host_of(id.raw(), hosts)].insert(id, job);
        }

        let server = &mut self.server;
        let links = &mut self.links;
        let mut dropped = Vec::new();
        let replies = std::thread::scope(|scope| {
            for (host, ((link, cjobs), pjobs)) in links
                .iter_mut()
                .zip(consumer_jobs)
                .zip(provider_jobs)
                .enumerate()
            {
                if cjobs.is_empty() && pjobs.is_empty() {
                    continue;
                }
                let Some(stream) = link.as_mut() else {
                    continue;
                };
                match faults.iter().find(|(h, _)| *h == host).map(|&(_, f)| f) {
                    None => {
                        scope.spawn(move || serve_wave_jobs(stream, cjobs, pjobs));
                    }
                    Some(HostFault::Stall) => {
                        // The jobs are dropped, not run: the host reads
                        // its requests (keeping the pipe drained and the
                        // frame stream aligned for the next wave) and
                        // stays silent.
                        scope.spawn(move || swallow_wave(stream, false));
                    }
                    Some(HostFault::Drop) => {
                        scope.spawn(move || swallow_wave(stream, true));
                        dropped.push(host);
                    }
                }
            }
            server.run_wave(requests)
        });
        for host in dropped {
            // The serving thread already shut the stream down; forget the
            // link so later waves skip the host instead of writing into a
            // closed pipe.
            if let Some(stream) = self.links[host].take() {
                stream.shutdown();
            }
        }
        let round = self.server.last_round();
        self.delivered_total += round.delivered as u64;
        self.answered_total += round.answered as u64;
        self.timed_out_total += round.timed_out as u64;
        replies.into_candidate_infos(requests)
    }

    /// Removes a consumer endpoint (e.g. on departure); when its host's
    /// endpoint set empties, the host connection is shut down on both
    /// sides.
    pub fn deregister_consumer(&mut self, id: ConsumerId) {
        if self.server.deregister_consumer(id) {
            self.drop_link_of(id.raw());
        } else {
            self.shrink_host_of(id.raw());
        }
    }

    /// Removes a provider endpoint (see
    /// [`SocketMediator::deregister_consumer`]).
    pub fn deregister_provider(&mut self, id: ProviderId) {
        if self.server.deregister_provider(id) {
            self.drop_link_of(id.raw());
        } else {
            self.shrink_host_of(id.raw());
        }
    }

    /// Registers a consumer endpoint (a re-joining participant): onto
    /// its host's live connection when one exists, otherwise over a
    /// fresh connection to the server (the host's previous link dropped
    /// or was shut down when its last endpoint departed).
    pub fn register_consumer(&mut self, id: ConsumerId) -> io::Result<()> {
        let host = Self::host_of(id.raw(), self.host_count);
        if self.links[host].is_none() {
            return self.reconnect_host(host, vec![id], Vec::new());
        }
        if self.server.register_consumer_on(id, self.host_slot[host]) {
            self.endpoints_per_host[host] += 1;
        }
        Ok(())
    }

    /// Registers a provider endpoint (see
    /// [`SocketMediator::register_consumer`]).
    pub fn register_provider(&mut self, id: ProviderId) -> io::Result<()> {
        let host = Self::host_of(id.raw(), self.host_count);
        if self.links[host].is_none() {
            return self.reconnect_host(host, Vec::new(), vec![id]);
        }
        if self.server.register_provider_on(id, self.host_slot[host]) {
            self.endpoints_per_host[host] += 1;
        }
        Ok(())
    }

    /// Re-establishes a dropped host link with a fresh connection whose
    /// hello declares the given endpoints, and accepts it server-side
    /// (the host gets a new slot).
    fn reconnect_host(
        &mut self,
        host: usize,
        consumers: Vec<ConsumerId>,
        providers: Vec<ProviderId>,
    ) -> io::Result<()> {
        let endpoints = consumers.len() + providers.len();
        let stream = Stream::connect_tcp(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let mut stream = stream;
        stream.write_all(&encode_participant_reply(&ParticipantReply::Hello {
            consumers,
            providers,
        }))?;
        stream.flush()?;
        self.host_slot[host] = self.server.accept_host(Duration::from_secs(10))?;
        self.links[host] = Some(stream);
        self.endpoints_per_host[host] = endpoints;
        Ok(())
    }

    fn shrink_host_of(&mut self, raw: u32) {
        let host = Self::host_of(raw, self.host_count);
        self.endpoints_per_host[host] = self.endpoints_per_host[host].saturating_sub(1);
    }

    fn drop_link_of(&mut self, raw: u32) {
        let host = Self::host_of(raw, self.host_count);
        self.endpoints_per_host[host] = 0;
        if let Some(stream) = self.links[host].take() {
            stream.shutdown();
        }
    }

    /// Tears the topology down: server-side shutdown plus the loopback
    /// links.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
        for link in self.links.iter_mut() {
            if let Some(stream) = link.take() {
                stream.shutdown();
            }
        }
    }
}

impl Drop for SocketMediator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SocketMediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketMediator")
            .field("hosts", &self.host_count)
            .field("live_hosts", &self.live_hosts())
            .field("server", &self.server)
            .finish()
    }
}

/// Serves one wave's requests on a loopback host link: reads frames off
/// the wire, reassembles and decodes them, buffers the decoded requests
/// in the same [`WaveRequestBuffer`] the persistent host runs, and —
/// when the wave-end marker arrives — answers each addressed endpoint
/// by running its job on the *decoded* request, writing all replies in
/// one burst.
fn serve_wave_jobs(
    stream: &mut Stream,
    mut consumer_jobs: BTreeMap<ConsumerId, ConsumerWaveJob<'_>>,
    mut provider_jobs: BTreeMap<ProviderId, ProviderWaveJob<'_>>,
) -> io::Result<()> {
    // Waves are strictly sequential on a link (the engine is a
    // synchronous event loop), so a fresh assembler per wave never loses
    // partial bytes.
    let mut assembler = FrameAssembler::new();
    let mut buffer = WaveRequestBuffer::new();
    let mut out = Vec::new();
    loop {
        while let Some(message) = assembler
            .next_mediator_message()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            match message {
                MediatorMessage::ConsumerWaveRequest {
                    wave,
                    consumer,
                    requests,
                } => buffer.push_consumer(wave, consumer, requests),
                MediatorMessage::ProviderWaveRequest {
                    wave,
                    provider,
                    queries,
                    request_bids,
                } => buffer.push_provider(wave, provider, queries, request_bids),
                MediatorMessage::WaveEnd { wave } => {
                    let taken = buffer.take_wave(wave);
                    for (consumer, requests) in taken.consumers {
                        let intentions = consumer_jobs
                            .remove(&consumer)
                            .map(|job| job(&requests))
                            .unwrap_or_default();
                        encode_participant_reply_into(
                            &ParticipantReply::ConsumerWaveReply {
                                wave,
                                consumer,
                                intentions,
                            },
                            &mut out,
                        );
                    }
                    for (provider, queries, request_bids) in taken.providers {
                        let answers = provider_jobs
                            .remove(&provider)
                            .map(|job| job(&queries, request_bids))
                            .unwrap_or_default();
                        encode_participant_reply_into(
                            &ParticipantReply::ProviderWaveReply {
                                wave,
                                provider,
                                utilization: answers.first().map_or(0.0, |a| a.utilization),
                                intentions: answers
                                    .into_iter()
                                    .map(|a| (a.query, a.intention, a.bid))
                                    .collect(),
                            },
                            &mut out,
                        );
                    }
                    stream.write_all(&out)?;
                    return stream.flush();
                }
                MediatorMessage::Shutdown => return Ok(()),
                _ => {}
            }
        }
        match assembler.fill_from(stream) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads one wave's frames off a host link and discards them without
/// answering — the participant side of an injected [`HostFault`]. The
/// requests must still be consumed: waves are strictly sequential per
/// link, so frames left in the socket buffer would be mistaken for the
/// *next* wave's requests by its serving thread, desynchronizing the
/// link one wave per fault forever. With `drop_connection` the host
/// additionally shuts the stream down after the wave-end marker (the
/// mid-wave connection drop); otherwise it returns silently and the
/// wave's replies degrade to indifference at the server's deadline.
fn swallow_wave(stream: &mut Stream, drop_connection: bool) -> io::Result<()> {
    let mut assembler = FrameAssembler::new();
    loop {
        while let Some(message) = assembler
            .next_mediator_message()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            match message {
                MediatorMessage::WaveEnd { .. } => {
                    if drop_connection {
                        stream.shutdown();
                    }
                    return Ok(());
                }
                MediatorMessage::Shutdown => return Ok(()),
                _ => {}
            }
        }
        match assembler.fill_from(stream) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
