//! # sqlb-check
//!
//! A home-grown systematic-exploration harness for the SQLB wave
//! protocol: the model checker that runs the **production** protocol
//! state machines — [`sqlb_transport::WaveLedger`] and
//! [`sqlb_transport::route_reply_frame`] (the mediator's
//! wave-collection seam), [`sqlb_transport::WaveRequestBuffer`] (the
//! participant host's buffering discipline) and
//! [`sqlb_mediation::FrameAssembler`] with the wave codec — under a
//! deterministic virtual scheduler that enumerates *every*
//! interleaving of a miniature deployment.
//!
//! The harness has three parts:
//!
//! * [`mod@explore`] — a generic clone-based DFS over a [`explore::Model`]:
//!   nondeterminism is an indexed action menu, a schedule (the index
//!   sequence) identifies an execution, failing traces print a
//!   replayable schedule string, and a [`explore::Budget`] bounds CI
//!   runs honestly (truncation is reported, never silent);
//! * [`model`] — the wave-protocol world: one mediator, two hosts,
//!   three endpoints, one wave in flight at a time (as the server runs
//!   it), with bounded-capacity byte
//!   wires, chunked delivery, deadline racing, host crashes and
//!   adversarial (duplicate / foreign-slot / stale-wave) replies as
//!   explicit actions, and the protocol invariants checked on every
//!   step of every trace;
//! * [`splits`] — the exhaustive two-chunk split sweep: every frame
//!   shape of the wave path, split at every byte boundary, must
//!   reassemble to exactly the encoded message.
//!
//! The `sqlb_check` binary drives all of it:
//!
//! ```text
//! sqlb_check                         # bounded sweep of every scenario
//! sqlb_check --scenario mini         # one scenario
//! sqlb_check --budget 200000         # explicit execution budget
//! sqlb_check --replay mini:0.2.1.4   # re-run one schedule, verbose
//! sqlb_check --inject-miscount       # prove the harness can fail
//! ```

#![deny(missing_docs)]

pub mod explore;
pub mod model;
pub mod splits;

pub use explore::{explore, replay, Budget, Failure, Model, Report, Schedule, Violation};
pub use model::{Scenario, WaveOutcome, WaveWorld};
pub use splits::{sweep_two_chunk_splits, SplitReport};
