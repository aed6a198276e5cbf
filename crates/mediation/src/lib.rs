//! # sqlb-mediation
//!
//! The mediation/communication substrate on which Algorithm 1 runs.
//!
//! The paper's query allocation algorithm *forks* a request for the
//! consumer's intentions and, in parallel, a request to every candidate
//! provider for its intention, then *waits until* the intention vectors are
//! computed *or a timeout* elapses (Algorithm 1, lines 2–5). The simulator
//! engine (`sqlb-sim`) realizes that gather step with direct calls on its
//! inline backend; this crate provides the realizations used when
//! consumers and providers are independently-running endpoints:
//!
//! * [`runtime`] — the [`ConsumerEndpoint`] / [`ProviderEndpoint`]
//!   traits participants implement, and the [`RuntimeConfig`] (timeout,
//!   bids) a mediation runs under;
//! * [`protocol`] — the message types exchanged between the mediator and
//!   the participants (intention requests/replies, bid requests, allocation
//!   notices, connection hello/goodbye), their length-prefixed wire framing
//!   (hardened against hostile length prefixes) and the [`FrameAssembler`]
//!   that reassembles frames from stream chunk boundaries — the contract
//!   the socket transport (`sqlb-transport`) speaks on real connections;
//! * [`reactor`] — the asynchronous mediation reactor: participant
//!   endpoints as polled state machines driven by a single event loop with
//!   a readiness queue, a timer heap and per-endpoint deadline tracking,
//!   scaling one host to tens of thousands of endpoints. Its owned-endpoint
//!   facade [`AsyncMediator`] gathers a batch's intentions in one wave
//!   ([`AsyncMediator::gather_batch`]) and notifies the participants of
//!   the outcome ([`AsyncMediator::notify`]); the allocation decision in
//!   between is `sqlb_core::Mediator::allocate`'s, the one place that
//!   selects and records. [`run_wave_threaded`] runs the same waves on
//!   scoped OS threads with a real deadline, as the comparison backend.

#![deny(missing_docs)]

pub mod protocol;
pub mod reactor;
pub mod runtime;

pub use protocol::{
    decode_mediator_message, decode_participant_reply, encode_mediator_message,
    encode_mediator_message_into, encode_participant_reply, encode_participant_reply_into,
    FrameAssembler, FrameError, FrameReader, MediatorMessage, ParticipantReply, MAX_FRAME_PAYLOAD,
};
pub use reactor::{
    candidate_info, run_wave_threaded, AsyncMediator, IntentionWave, Latency, ProviderAnswer,
    Reactor, RoundStats, WaveReplies,
};
pub use runtime::{ConsumerEndpoint, ProviderEndpoint, RuntimeConfig};
