//! The wave-collection ledger: the mediator-side protocol state machine,
//! factored out of [`crate::WaveServer`] so the model checker
//! (`sqlb-check`) and the real server run **one** implementation.
//!
//! [`WaveServer::run_wave`](crate::WaveServer::run_wave) plans a
//! wave's fan-out with [`WaveLedger::plan`] (which endpoints are asked,
//! over which connection, with what framed bytes) and credits replies
//! with [`route_reply_frame`]; everything that is pure protocol state —
//! the wave's reply ledger, per-connection pending counts, stale-reply
//! and duplicate-reply rejection, wave-id correlation — lives here,
//! behind a seam that takes no sockets and no wall clock. The server
//! wraps a ledger in real I/O and `Instant` deadlines; the checker wraps
//! the same ledger in a virtual clock and enumerated message schedules.
//!
//! Two accounting rules are deliberate hardening (both found by running
//! `sqlb-check` against the pre-seam implementation, which indexed
//! per-connection state by the *arrival* connection):
//!
//! * a reply is credited to the connection slot its request was
//!   **charged** to at plan time, never to the slot it arrived on — so a
//!   host that answers for an endpoint it does not own (buggy or
//!   byzantine), or a host that reconnected under a new slot, can no
//!   longer corrupt another connection's pending count or index past
//!   the end of an older wave's per-slot vector;
//! * a reply arriving on a different slot than its request was charged
//!   to is fully parsed (frame validation is unconditional) and then
//!   rejected as [`Applied::Foreign`] — the request was sent over one
//!   connection and its answer must come back on that connection.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use sqlb_mediation::reactor::{ConsumerBatchAnswer, ProviderBatchAnswer};
use sqlb_mediation::{
    decode_participant_reply, encode_mediator_message_into, FrameError, FrameReader,
    MediatorMessage, ProviderAnswer, WaveReplies,
};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryId};

/// Test-only fault injection: when set, [`route_reply_frame`] *adds* to
/// the charged slot's pending count instead of subtracting — the
/// sign-flipped ledger credit the model checker must be able to catch
/// (proof that the harness can actually fail). Off by default; never set
/// outside tests.
static MISCOUNT_INJECTED: AtomicBool = AtomicBool::new(false);

/// Enables or disables the sign-flipped ledger credit. Test-only: the
/// flag exists so `sqlb-check` can prove it detects a miscounting
/// ledger; production code never calls this.
#[doc(hidden)]
pub fn inject_miscount_for_tests(on: bool) {
    MISCOUNT_INJECTED.store(on, Ordering::Relaxed);
}

/// Whether the test-only miscount injection is currently on.
#[doc(hidden)]
pub fn miscount_injected() -> bool {
    MISCOUNT_INJECTED.load(Ordering::Relaxed)
}

/// The wave in flight: its reply ledger and per-connection accounting,
/// keyed by wave id. A reply frame is credited only when it carries
/// this ledger's id — a straggler of an already-collected wave matches
/// no ledger and is discarded, the server's stale-reply rule.
#[derive(Debug, Clone)]
pub struct WaveLedger {
    wave: u64,
    /// Endpoint requests written out.
    delivered: usize,
    /// Requests not written because the addressee's home connection is
    /// gone; they degrade to indifference like a missed deadline.
    unreachable: usize,
    /// Unanswered requests per connection slot *of plan time* (a slot
    /// accepted after this wave was planned has no entry — see
    /// [`WaveLedger::pending_on`]).
    pending_per_slot: Vec<usize>,
    consumer_slot: BTreeMap<ConsumerId, usize>,
    provider_slot: BTreeMap<ProviderId, usize>,
    /// The connection slot each consumer request was charged to; credits
    /// decrement exactly this slot.
    consumer_charged: Vec<usize>,
    provider_charged: Vec<usize>,
    consumer_replies: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)>,
    provider_replies: Vec<(ProviderId, Option<ProviderBatchAnswer>)>,
}

impl WaveLedger {
    /// Plans one wave's fan-out: groups `requests` into one wave request
    /// per distinct participant, frames them into `outbox[slot]` for each
    /// participant's home connection (bracketed per involved slot with
    /// the [`MediatorMessage::WaveEnd`] marker), and returns the ledger
    /// that will account for the replies. Requests to endpoints with no
    /// live home connection are skipped — their answers degrade to
    /// indifference. A skipped endpoint whose home connection is gone
    /// (a dropped host) counts as [`WaveLedger::unreachable`], exactly
    /// as the in-process backends count a down host's answers; one with
    /// no home at all (deregistered) counts nothing, as on those
    /// backends.
    ///
    /// `outbox` is resized to `slots` and cleared, so callers can reuse
    /// one scratch vector across waves; `live(slot)` reports whether a
    /// connection slot can still be written to.
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        wave: u64,
        requests: &[(Query, Vec<ProviderId>)],
        consumer_home: &BTreeMap<ConsumerId, usize>,
        provider_home: &BTreeMap<ProviderId, usize>,
        slots: usize,
        live: impl Fn(usize) -> bool,
        request_bids: bool,
        outbox: &mut Vec<Vec<u8>>,
    ) -> WaveLedger {
        // One request per distinct participant (BTreeMaps keep the
        // fan-out order deterministic).
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

        outbox.resize_with(slots, Vec::new);
        for bytes in outbox.iter_mut() {
            bytes.clear();
        }
        let mut ledger = WaveLedger {
            wave,
            delivered: 0,
            unreachable: 0,
            pending_per_slot: vec![0; slots],
            consumer_slot: BTreeMap::new(),
            provider_slot: BTreeMap::new(),
            consumer_charged: Vec::new(),
            provider_charged: Vec::new(),
            consumer_replies: Vec::new(),
            provider_replies: Vec::new(),
        };
        for (consumer, consumer_requests) in by_consumer {
            let Some(&home) = consumer_home.get(&consumer) else {
                continue;
            };
            if home >= slots || !live(home) {
                ledger.unreachable += 1;
                continue;
            }
            encode_mediator_message_into(
                &MediatorMessage::ConsumerWaveRequest {
                    wave,
                    consumer,
                    requests: consumer_requests,
                },
                &mut outbox[home],
            );
            ledger.pending_per_slot[home] += 1;
            ledger
                .consumer_slot
                .insert(consumer, ledger.consumer_replies.len());
            ledger.consumer_charged.push(home);
            ledger.consumer_replies.push((consumer, None));
        }
        for (provider, queries) in by_provider {
            let Some(&home) = provider_home.get(&provider) else {
                continue;
            };
            if home >= slots || !live(home) {
                ledger.unreachable += 1;
                continue;
            }
            encode_mediator_message_into(
                &MediatorMessage::ProviderWaveRequest {
                    wave,
                    provider,
                    queries,
                    request_bids,
                },
                &mut outbox[home],
            );
            ledger.pending_per_slot[home] += 1;
            ledger
                .provider_slot
                .insert(provider, ledger.provider_replies.len());
            ledger.provider_charged.push(home);
            ledger.provider_replies.push((provider, None));
        }
        ledger.delivered = ledger.pending_per_slot.iter().sum();

        // Bracket each involved connection's burst with the wave-end
        // marker (hosts buffer until they see it, then answer).
        for (slot, bytes) in outbox.iter_mut().enumerate().take(slots) {
            if ledger.pending_per_slot[slot] > 0 {
                encode_mediator_message_into(&MediatorMessage::WaveEnd { wave }, bytes);
            }
        }
        ledger
    }

    /// The wave this ledger accounts for.
    pub fn wave(&self) -> u64 {
        self.wave
    }

    /// Endpoint requests written out for this wave.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Requests of this wave not written out because the addressee's
    /// home connection is gone.
    pub fn unreachable(&self) -> usize {
        self.unreachable
    }

    /// Unanswered requests charged to connection `slot`. Slots accepted
    /// after this wave was planned have no pending requests by
    /// definition, so any out-of-range slot reads as `0` — the collection
    /// loop can safely iterate the server's *current* connection set.
    pub fn pending_on(&self, slot: usize) -> usize {
        self.pending_per_slot.get(slot).copied().unwrap_or(0)
    }

    /// Unanswered requests across all slots.
    pub fn pending_total(&self) -> usize {
        self.pending_per_slot.iter().sum()
    }

    /// Whether every request of the wave has been answered.
    pub fn is_complete(&self) -> bool {
        self.pending_total() == 0
    }

    /// Replies actually stored in the ledger — the count the wave's
    /// statistics report as answered. Always equals
    /// `delivered() - pending_total()` (the checker asserts exactly this
    /// on every explored trace; the test-only miscount injection breaks
    /// it on the first credit).
    pub fn stored_replies(&self) -> usize {
        self.consumer_replies
            .iter()
            .filter(|(_, reply)| reply.is_some())
            .count()
            + self
                .provider_replies
                .iter()
                .filter(|(_, reply)| reply.is_some())
                .count()
    }

    /// Consumes the ledger into the wave's replies; missing answers stay
    /// `None` and degrade to indifference in
    /// [`WaveReplies::into_candidate_infos`].
    pub fn into_replies(self) -> WaveReplies {
        WaveReplies {
            consumers: self.consumer_replies,
            providers: self.provider_replies,
        }
    }

    /// Applies one credit to `charged`'s pending count. The test-only
    /// miscount injection flips the sign of this bookkeeping — the
    /// deliberate bug `sqlb-check` must catch.
    fn credit(&mut self, charged: usize) {
        let pending = &mut self.pending_per_slot[charged];
        if miscount_injected() {
            *pending = pending.saturating_add(1);
        } else {
            *pending = pending.saturating_sub(1);
        }
    }
}

/// What a popped reply meant to the wave in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// A fresh answer of an in-flight wave: one fewer pending request on
    /// its ledger.
    Counted,
    /// The host announced it is leaving.
    Goodbye,
    /// A stale-wave straggler, a duplicate of an already-filled slot, or
    /// a hello after the handshake: discarded.
    Ignored,
    /// A reply that arrived on a different connection than its request
    /// was charged to — a host answering for an endpoint it does not own,
    /// or a reconnected host answering a request sent to its previous
    /// connection. Parsed, then rejected: crediting it would corrupt the
    /// per-connection accounting.
    Foreign,
}

/// Routes one reply frame read from connection `slot` to the wave it
/// answers, decoding scalars in place from the borrowed frame bytes —
/// the steady-state receive path allocates only the reply vectors that
/// are actually kept. A reply whose wave id matches no ledger in
/// `waves` — a straggler of a wave already collected — is still fully
/// parsed (frame validation is unconditional) and then discarded, the
/// server's stale-reply rule; a duplicate of an already-filled slot
/// likewise validates and drops, and a reply arriving on the wrong
/// connection validates and rejects as [`Applied::Foreign`].
///
/// `waves` holds at most the one wave in flight: the server and the
/// model checker pass their current ledger (or none between waves), so
/// both share this exact routing and accounting.
pub fn route_reply_frame<'w>(
    frame: &[u8],
    waves: impl IntoIterator<Item = &'w mut WaveLedger>,
    slot: usize,
) -> Result<Applied, FrameError> {
    let mut waves = waves.into_iter();
    let mut r = FrameReader::open(frame)?;
    match r.u8()? {
        // ConsumerWaveReply
        3 => {
            let wave = r.u64()?;
            let consumer = ConsumerId::new(r.u32()?);
            let n = r.count()?;
            let target = waves.find(|w| w.wave == wave).and_then(|w| {
                let &i = w.consumer_slot.get(&consumer)?;
                w.consumer_replies[i].1.is_none().then_some((w, i))
            });
            match target {
                Some((w, i)) if w.consumer_charged[i] == slot => {
                    let mut intentions: ConsumerBatchAnswer = Vec::with_capacity(n);
                    for _ in 0..n {
                        let query = QueryId::new(r.u32()?);
                        let m = r.count()?;
                        let mut per_provider = Vec::with_capacity(m);
                        for _ in 0..m {
                            per_provider.push((ProviderId::new(r.u32()?), r.f64()?));
                        }
                        intentions.push((query, per_provider));
                    }
                    r.close()?;
                    w.consumer_replies[i].1 = Some(intentions);
                    w.credit(slot);
                    Ok(Applied::Counted)
                }
                target => {
                    let foreign = target.is_some();
                    for _ in 0..n {
                        r.u32()?;
                        let m = r.count()?;
                        for _ in 0..m {
                            r.u32()?;
                            r.f64()?;
                        }
                    }
                    r.close()?;
                    Ok(if foreign {
                        Applied::Foreign
                    } else {
                        Applied::Ignored
                    })
                }
            }
        }
        // ProviderWaveReply
        4 => {
            let wave = r.u64()?;
            let provider = ProviderId::new(r.u32()?);
            let utilization = r.f64()?;
            let n = r.count()?;
            let target = waves.find(|w| w.wave == wave).and_then(|w| {
                let &i = w.provider_slot.get(&provider)?;
                w.provider_replies[i].1.is_none().then_some((w, i))
            });
            match target {
                Some((w, i)) if w.provider_charged[i] == slot => {
                    let mut answers: ProviderBatchAnswer = Vec::with_capacity(n);
                    for _ in 0..n {
                        answers.push(ProviderAnswer {
                            query: QueryId::new(r.u32()?),
                            intention: r.f64()?,
                            utilization,
                            bid: r.bid()?,
                        });
                    }
                    r.close()?;
                    w.provider_replies[i].1 = Some(answers);
                    w.credit(slot);
                    Ok(Applied::Counted)
                }
                target => {
                    let foreign = target.is_some();
                    for _ in 0..n {
                        r.u32()?;
                        r.f64()?;
                        r.bid()?;
                    }
                    r.close()?;
                    Ok(if foreign {
                        Applied::Foreign
                    } else {
                        Applied::Ignored
                    })
                }
            }
        }
        // Goodbye
        6 => {
            r.close()?;
            Ok(Applied::Goodbye)
        }
        // Hellos and stats requests: validate the frame via the owned
        // decoder, then drop the value. An unknown tag is an error.
        _ => {
            decode_participant_reply(frame)?;
            Ok(Applied::Ignored)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_mediation::{encode_participant_reply, ParticipantReply};
    use sqlb_types::{QueryClass, SimTime};

    fn query(id: u32, consumer: u32) -> Query {
        Query::single(
            QueryId::new(id),
            ConsumerId::new(consumer),
            QueryClass::Light,
            SimTime::ZERO,
        )
    }

    fn homes() -> (BTreeMap<ConsumerId, usize>, BTreeMap<ProviderId, usize>) {
        let consumer_home = BTreeMap::from([(ConsumerId::new(0), 0)]);
        let provider_home = BTreeMap::from([(ProviderId::new(1), 0), (ProviderId::new(2), 1)]);
        (consumer_home, provider_home)
    }

    fn plan_one(outbox: &mut Vec<Vec<u8>>) -> WaveLedger {
        let (consumer_home, provider_home) = homes();
        WaveLedger::plan(
            7,
            &[(query(1, 0), vec![ProviderId::new(1), ProviderId::new(2)])],
            &consumer_home,
            &provider_home,
            2,
            |_| true,
            false,
            outbox,
        )
    }

    fn provider_reply(wave: u64, provider: u32, query: u32) -> Vec<u8> {
        encode_participant_reply(&ParticipantReply::ProviderWaveReply {
            wave,
            provider: ProviderId::new(provider),
            utilization: 0.5,
            intentions: vec![(QueryId::new(query), 0.25, None)],
        })
    }

    #[test]
    fn plan_charges_each_request_to_its_home_slot() {
        let mut outbox = Vec::new();
        let ledger = plan_one(&mut outbox);
        assert_eq!(ledger.delivered(), 3);
        assert_eq!(ledger.pending_on(0), 2); // consumer 0 + provider 1
        assert_eq!(ledger.pending_on(1), 1); // provider 2
        assert_eq!(ledger.pending_on(9), 0, "out-of-range slots read as 0");
        assert!(!outbox[0].is_empty() && !outbox[1].is_empty());
    }

    #[test]
    fn requests_over_a_dead_connection_count_as_unreachable() {
        // Provider 2's home slot 1 is gone: its request is not written
        // and counts as unreachable. Provider 3 has no home at all (it
        // deregistered): skipped without being counted.
        let (consumer_home, provider_home) = homes();
        let mut outbox = Vec::new();
        let ledger = WaveLedger::plan(
            7,
            &[(
                query(1, 0),
                vec![ProviderId::new(1), ProviderId::new(2), ProviderId::new(3)],
            )],
            &consumer_home,
            &provider_home,
            2,
            |slot| slot == 0,
            false,
            &mut outbox,
        );
        assert_eq!(ledger.delivered(), 2);
        assert_eq!(ledger.unreachable(), 1);
        assert_eq!(ledger.pending_on(1), 0);
        assert!(outbox[1].is_empty());
    }

    #[test]
    fn replies_credit_the_charged_slot() {
        let mut outbox = Vec::new();
        let mut ledger = plan_one(&mut outbox);
        let frame = provider_reply(7, 2, 1);
        let applied = route_reply_frame(&frame, [&mut ledger], 1).unwrap();
        assert_eq!(applied, Applied::Counted);
        assert_eq!(ledger.pending_on(1), 0);
        assert_eq!(ledger.stored_replies(), 1);
        assert_eq!(ledger.delivered() - ledger.pending_total(), 1);
    }

    #[test]
    fn foreign_slot_replies_are_rejected_not_credited() {
        // Provider 2 lives on slot 1; its reply arriving on slot 0 (a
        // buggy host answering for an endpoint it does not own) must be
        // rejected without touching either slot's accounting.
        let mut outbox = Vec::new();
        let mut ledger = plan_one(&mut outbox);
        let frame = provider_reply(7, 2, 1);
        let applied = route_reply_frame(&frame, [&mut ledger], 0).unwrap();
        assert_eq!(applied, Applied::Foreign);
        assert_eq!(ledger.pending_on(0), 2);
        assert_eq!(ledger.pending_on(1), 1);
        assert_eq!(ledger.stored_replies(), 0);
    }

    #[test]
    fn replies_from_slots_beyond_the_plan_never_index_out_of_bounds() {
        // A host accepted *after* this wave was planned (e.g. a crashed
        // host reconnecting under a fresh slot) delivers a reply for a
        // request charged to its old slot. Before the charged-slot fix
        // this indexed `pending_per_slot[arrival]` out of bounds.
        let mut outbox = Vec::new();
        let mut ledger = plan_one(&mut outbox);
        let frame = provider_reply(7, 2, 1);
        let applied = route_reply_frame(&frame, [&mut ledger], 5).unwrap();
        assert_eq!(applied, Applied::Foreign);
        assert_eq!(ledger.pending_total(), 3);
    }

    #[test]
    fn duplicate_replies_validate_and_drop() {
        let mut outbox = Vec::new();
        let mut ledger = plan_one(&mut outbox);
        let frame = provider_reply(7, 2, 1);
        assert_eq!(
            route_reply_frame(&frame, [&mut ledger], 1).unwrap(),
            Applied::Counted
        );
        assert_eq!(
            route_reply_frame(&frame, [&mut ledger], 1).unwrap(),
            Applied::Ignored
        );
        assert_eq!(ledger.stored_replies(), 1);
        assert_eq!(ledger.pending_on(1), 0);
    }

    #[test]
    fn stale_wave_replies_match_no_ledger() {
        let mut outbox = Vec::new();
        let mut ledger = plan_one(&mut outbox);
        let stale = provider_reply(6, 2, 1);
        assert_eq!(
            route_reply_frame(&stale, [&mut ledger], 1).unwrap(),
            Applied::Ignored
        );
        assert_eq!(ledger.pending_total(), 3);
    }
}
