//! # sqlb-transport
//!
//! Socket-backed mediation: the transport that makes the
//! tens-of-thousands-of-endpoints story literal.
//!
//! `sqlb-mediation` defines the wave protocol and its length-prefixed
//! binary framing; until this crate, nothing spoke that framing over a
//! real socket — the reactor's scale story was in-process only. This
//! crate runs Algorithm 1's mediator ⇄ participant intention exchange
//! (fork / waituntil / timeout, PAPER.md §5) across process boundaries:
//!
//! * [`WaveServer`] — the mediator side: accepts TCP and Unix-domain
//!   host connections, fans each mediation wave out as framed requests,
//!   collects framed replies until the wave deadline, and degrades
//!   everything still missing to indifference (never blocking the
//!   wave), with stale-wave replies discarded by wave-id correlation;
//!   one wave is in flight at a time, as in Algorithm 1;
//! * [`ParticipantHost`] — the client library (and the
//!   `participant_host` binary built on it): multiplexes many consumer
//!   and provider endpoints over **one** connection per host — the
//!   socket count scales with hosts, not endpoints, which is what makes
//!   a 10 000-endpoint wave round practical over a handful of sockets;
//! * [`SocketMediator`] — the deterministic loopback harness the
//!   simulator engine drives as `MediationMode::Socket`: per-wave scoped
//!   host threads answer decoded-from-the-wire requests with jobs that
//!   borrow the engine's own agents, so same-seed runs produce the same
//!   allocation decisions as the in-process backends.
//!
//! Everything is `std` networking — the workspace builds fully offline.
//!
//! ## A minimal networked wave
//!
//! ```
//! use sqlb_mediation::{ConsumerEndpoint, ProviderEndpoint};
//! use sqlb_transport::{ParticipantHost, ServerConfig, WaveServer};
//! use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};
//! use std::time::Duration;
//!
//! struct Eager(f64);
//! impl ConsumerEndpoint for Eager {
//!     fn intentions(&mut self, _q: &Query, candidates: &[ProviderId]) -> Vec<(ProviderId, f64)> {
//!         candidates.iter().map(|&p| (p, self.0)).collect()
//!     }
//! }
//! impl ProviderEndpoint for Eager {
//!     fn intention(&mut self, _q: &Query) -> f64 {
//!         self.0
//!     }
//! }
//!
//! let mut server = WaveServer::new(ServerConfig {
//!     timeout: Duration::from_secs(5),
//!     request_bids: false,
//! });
//! let addr = server.listen_tcp("127.0.0.1:0").unwrap();
//!
//! // One host, two endpoints, one socket.
//! let handle = std::thread::spawn(move || {
//!     let mut host = ParticipantHost::connect_tcp(addr).unwrap();
//!     host.add_consumer(ConsumerId::new(0), Eager(0.5));
//!     host.add_provider(ProviderId::new(0), Eager(0.8));
//!     host.announce().unwrap();
//!     host.serve().unwrap()
//! });
//!
//! server.accept_hosts(1, Duration::from_secs(5)).unwrap();
//! let query = Query::single(QueryId::new(1), ConsumerId::new(0), QueryClass::Light, SimTime::ZERO);
//! let infos = server.gather(&[(query, vec![ProviderId::new(0)])]);
//! assert_eq!(infos[0][0].provider_intention, 0.8);
//! assert_eq!(infos[0][0].consumer_intention, 0.5);
//!
//! server.shutdown();
//! let report = handle.join().unwrap();
//! assert_eq!(report.waves_served, 1);
//! assert!(report.clean_shutdown);
//! ```

#![deny(missing_docs)]

pub mod demo;
pub mod host;
pub mod ledger;
pub mod loopback;
pub mod net;
pub mod server;

pub use host::{HostReport, ParticipantHost, TakenWave, WaveRequestBuffer};
pub use ledger::{route_reply_frame, Applied, WaveLedger};
pub use loopback::{ConsumerWaveJob, HostFault, ProviderWaveJob, SocketMediator, WaveJobs};
pub use net::Stream;
pub use server::{ServerConfig, SocketRoundStats, WaveServer};
