//! Adversarial byte-stream properties for the wire layer: whatever
//! bytes arrive — arbitrary garbage, truncated encodings, bit-flipped
//! frames, hostile chunk boundaries — the [`FrameAssembler`] and the
//! wave codec must return errors, never panic, and never disagree with
//! a whole-buffer decode. This is the randomized complement of the
//! exhaustive two-chunk split sweep in `sqlb-check`.

use proptest::prelude::*;
use sqlb_mediation::{
    decode_mediator_message, decode_participant_reply, encode_mediator_message,
    encode_participant_reply, FrameAssembler, FrameError, MediatorMessage, ParticipantReply,
};
use sqlb_transport::{route_reply_frame, WaveLedger};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};
use std::collections::BTreeMap;

fn query(id: u32, consumer: u32) -> Query {
    Query::single(
        QueryId::new(id),
        ConsumerId::new(consumer),
        QueryClass::Light,
        SimTime::from_secs(0.25),
    )
}

/// Builds one mediator message of any wave-path shape, selected and
/// parameterized by the sampled inputs.
fn mediator_message(kind: usize, wave: u64, id: u32, flag: bool, list: &[u32]) -> MediatorMessage {
    match kind % 5 {
        0 => MediatorMessage::ConsumerWaveRequest {
            wave,
            consumer: ConsumerId::new(id % 8),
            requests: vec![(
                query(id, id % 8),
                list.iter().map(|&p| ProviderId::new(p)).collect(),
            )],
        },
        1 => MediatorMessage::ProviderWaveRequest {
            wave,
            provider: ProviderId::new(id % 8),
            queries: list.iter().map(|&q| query(q, 0)).collect(),
            request_bids: flag,
        },
        2 => MediatorMessage::WaveEnd { wave },
        3 => MediatorMessage::AllocationNotice {
            query: QueryId::new(id),
            provider: ProviderId::new(id % 8),
            selected: flag,
        },
        _ => MediatorMessage::Shutdown,
    }
}

/// Builds one participant reply of any wave-path shape.
fn participant_reply(
    kind: usize,
    wave: u64,
    id: u32,
    value: f64,
    list: &[u32],
) -> ParticipantReply {
    match kind % 4 {
        0 => ParticipantReply::ConsumerWaveReply {
            wave,
            consumer: ConsumerId::new(id % 8),
            intentions: list
                .iter()
                .map(|&q| (QueryId::new(q), vec![(ProviderId::new(q % 8), value)]))
                .collect(),
        },
        1 => ParticipantReply::ProviderWaveReply {
            wave,
            provider: ProviderId::new(id % 8),
            utilization: value.abs(),
            intentions: list
                .iter()
                .map(|&q| (QueryId::new(q), value, None))
                .collect(),
        },
        2 => ParticipantReply::Hello {
            consumers: list.iter().map(|&c| ConsumerId::new(c % 8)).collect(),
            providers: vec![ProviderId::new(id % 8)],
        },
        _ => ParticipantReply::Goodbye,
    }
}

/// Drains every complete frame, copied out.
fn drain(assembler: &mut FrameAssembler) -> Result<Vec<Vec<u8>>, String> {
    let mut frames = Vec::new();
    loop {
        match assembler.next_frame() {
            Err(e) => return Err(e.to_string()),
            Ok(None) => return Ok(frames),
            Ok(Some(frame)) => frames.push(frame.to_vec()),
        }
    }
}

/// A ledger with one consumer and two providers planned, for feeding
/// hostile reply frames into the real routing path.
fn planned_ledger() -> WaveLedger {
    let consumer_home = BTreeMap::from([(ConsumerId::new(0), 0)]);
    let provider_home = BTreeMap::from([(ProviderId::new(1), 0), (ProviderId::new(2), 1)]);
    let mut outbox = Vec::new();
    WaveLedger::plan(
        3,
        &[(query(9, 0), vec![ProviderId::new(1), ProviderId::new(2)])],
        &consumer_home,
        &provider_home,
        2,
        |_| true,
        false,
        &mut outbox,
    )
}

/// Asserts the ledger's accounting identity, the invariant the model
/// checker enforces on every explored trace.
fn assert_accounting(ledger: &WaveLedger) -> Result<(), TestCaseError> {
    prop_assert!(ledger.pending_total() <= ledger.delivered());
    prop_assert_eq!(
        ledger.stored_replies(),
        ledger.delivered() - ledger.pending_total()
    );
    Ok(())
}

proptest! {
    /// Arbitrary bytes at arbitrary chunk boundaries: the assembler
    /// may reject the stream or keep waiting for more, but it must not
    /// panic, and it must account for every byte it was fed.
    #[test]
    fn assembler_survives_arbitrary_chunked_garbage(
        chunks in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..64),
            1..8,
        )
    ) {
        let mut assembler = FrameAssembler::new();
        let mut fed = 0usize;
        let mut popped = 0usize;
        for chunk in &chunks {
            assembler.extend(chunk);
            fed += chunk.len();
            match drain(&mut assembler) {
                Ok(frames) => popped += frames.iter().map(|f| f.len()).sum::<usize>(),
                Err(_) => return Ok(()), // rejected: fine, as long as no panic
            }
            prop_assert!(assembler.pending_bytes() + popped <= fed);
        }
    }

    /// A valid multi-message burst reassembles to exactly the same
    /// frame sequence no matter where the chunk boundaries fall.
    #[test]
    fn valid_bursts_reassemble_under_any_chunking(
        kinds in proptest::collection::vec((0usize..9, 0u64..50, 0u32..200), 1..7),
        flag in proptest::bool::ANY,
        value in -1.0f64..=1.0,
        list in proptest::collection::vec(0u32..200, 0..4),
        cuts in proptest::collection::vec(0usize..4096, 1..7),
    ) {
        let mut burst = Vec::new();
        let mut expected = Vec::new();
        for &(kind, wave, id) in &kinds {
            let bytes = if kind < 5 {
                encode_mediator_message(&mediator_message(kind, wave, id, flag, &list))
            } else {
                encode_participant_reply(&participant_reply(kind - 5, wave, id, value, &list))
            };
            burst.extend_from_slice(&bytes);
            expected.push(bytes);
        }

        let mut boundaries: Vec<usize> = cuts.iter().map(|c| c % (burst.len() + 1)).collect();
        boundaries.push(0);
        boundaries.push(burst.len());
        boundaries.sort_unstable();

        let mut assembler = FrameAssembler::new();
        let mut frames = Vec::new();
        for pair in boundaries.windows(2) {
            assembler.extend(&burst[pair[0]..pair[1]]);
            frames.extend(drain(&mut assembler).map_err(TestCaseError::fail)?);
        }
        prop_assert_eq!(frames, expected);
        prop_assert_eq!(assembler.pending_bytes(), 0);
    }

    /// Truncating a valid encoding anywhere strictly inside it must
    /// fail to decode — cleanly, never panicking, never inventing a
    /// message out of a partial buffer.
    #[test]
    fn truncated_encodings_fail_cleanly(
        kind in 0usize..20,
        wave in 0u64..50,
        id in 0u32..200,
        value in -1.0f64..=1.0,
        list in proptest::collection::vec(0u32..200, 0..4),
        cut in 0usize..4096,
    ) {
        let bytes = encode_mediator_message(&mediator_message(kind, wave, id, true, &list));
        prop_assert!(decode_mediator_message(&bytes[..cut % bytes.len()]).is_err());

        let bytes = encode_participant_reply(&participant_reply(kind, wave, id, value, &list));
        prop_assert!(decode_participant_reply(&bytes[..cut % bytes.len()]).is_err());
    }

    /// Bit-flipping a valid encoding may still decode (a flipped value
    /// bit is a different, legal message) — but it must never panic,
    /// and whatever decodes must fit inside the buffer it came from.
    #[test]
    fn bit_flipped_encodings_never_panic(
        kind in 0usize..20,
        wave in 0u64..50,
        id in 0u32..200,
        value in -1.0f64..=1.0,
        list in proptest::collection::vec(0u32..200, 0..4),
        flip in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_mediator_message(&mediator_message(kind, wave, id, false, &list));
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok((_, consumed)) = decode_mediator_message(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }

        let mut bytes = encode_participant_reply(&participant_reply(kind, wave, id, value, &list));
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok((_, consumed)) = decode_participant_reply(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    /// Hostile frames fed straight into the mediator's reply-routing
    /// seam: any payload wrapped in a coherent frame envelope must be
    /// counted, ignored or rejected — never panic, and never corrupt
    /// the ledger's accounting identity. A body behind tag 1 or 2
    /// (unassigned in both directions) is always an unknown tag, so the
    /// server drops the connection.
    #[test]
    fn reply_routing_survives_arbitrary_frame_payloads(
        payload in proptest::collection::vec(0u8..=255, 0..48),
        slot in 0usize..4,
    ) {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);

        let mut ledger = planned_ledger();
        let _ = route_reply_frame(&frame, [&mut ledger], slot); // Ok or Err, never panic
        assert_accounting(&ledger)?;

        for tag in [1u8, 2] {
            let mut unassigned = (payload.len() as u32 + 1).to_le_bytes().to_vec();
            unassigned.push(tag);
            unassigned.extend_from_slice(&payload);
            prop_assert_eq!(
                decode_participant_reply(&unassigned).unwrap_err(),
                FrameError::UnknownTag(tag)
            );
            prop_assert_eq!(
                decode_mediator_message(&unassigned).unwrap_err(),
                FrameError::UnknownTag(tag)
            );
            let mut ledger = planned_ledger();
            prop_assert!(route_reply_frame(&unassigned, [&mut ledger], slot).is_err());
            prop_assert_eq!(ledger.stored_replies(), 0);
            assert_accounting(&ledger)?;
        }
    }

    /// Bit-flipped *real* reply frames through the routing seam: the
    /// accounting identity holds whether the flip lands in the length
    /// prefix, the tag, the wave id or a value.
    #[test]
    fn reply_routing_survives_bit_flipped_replies(
        kind in 0usize..20,
        wave in 0u64..8,
        id in 0u32..8,
        value in -1.0f64..=1.0,
        list in proptest::collection::vec(0u32..16, 0..4),
        flip in 0usize..4096,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_participant_reply(&participant_reply(kind, wave, id, value, &list));
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;

        let mut ledger = planned_ledger();
        let _ = route_reply_frame(&bytes, [&mut ledger], 0);
        assert_accounting(&ledger)?;
    }
}
