//! Equivalence of the reply assembly paths of [`WaveReplies`].
//!
//! `into_candidate_infos` reads a one-query wave's replies by position
//! when they line up with the request and falls back to a keyed read
//! otherwise. Whichever path runs, the result must be bit-identical to the
//! plain keyed assembly below (a copy of the original `HashMap` read), over
//! random waves: single- and multi-query, with replies missing, reordered,
//! duplicated, or about foreign queries and providers, with and without
//! bids, and with special float values (NaN, ±0, ±∞) in every field.

use std::collections::HashMap;

use proptest::prelude::*;
use sqlb_core::allocation::{Bid, CandidateInfo};
use sqlb_mediation::reactor::{ConsumerBatchAnswer, ProviderBatchAnswer};
use sqlb_mediation::{ProviderAnswer, WaveReplies};
use sqlb_types::{ConsumerId, ProviderId, Query, QueryClass, QueryId, SimTime};

/// The keyed assembly every path must reproduce: replies keyed by
/// `(query, provider)`, a later value replacing an earlier one, a missing
/// key read as indifference.
fn keyed_reference(
    replies: WaveReplies,
    requests: &[(Query, Vec<ProviderId>)],
) -> Vec<Vec<CandidateInfo>> {
    let mut consumer_intentions: HashMap<(QueryId, ProviderId), f64> = HashMap::new();
    for (_, reply) in replies.consumers {
        let Some(reply) = reply else { continue };
        for (query, per_provider) in reply {
            for (provider, intention) in per_provider {
                consumer_intentions.insert((query, provider), intention);
            }
        }
    }
    let mut provider_answers: HashMap<(QueryId, ProviderId), ProviderAnswer> = HashMap::new();
    for (provider, reply) in replies.providers {
        let Some(reply) = reply else { continue };
        for answer in reply {
            provider_answers.insert((answer.query, provider), answer);
        }
    }
    requests
        .iter()
        .map(|(query, candidates)| {
            candidates
                .iter()
                .map(|&p| {
                    let ci = consumer_intentions
                        .get(&(query.id, p))
                        .copied()
                        .unwrap_or(0.0);
                    let answer = provider_answers.get(&(query.id, p));
                    let mut info = CandidateInfo::new(p)
                        .with_consumer_intention(ci)
                        .with_provider_intention(answer.map_or(0.0, |a| a.intention))
                        .with_utilization(answer.map_or(0.0, |a| a.utilization));
                    if let Some(bid) = answer.and_then(|a| a.bid) {
                        info = info.with_bid(bid);
                    }
                    info
                })
                .collect()
        })
        .collect()
}

/// A candidate info as raw bits, so NaN and -0.0 compare exactly.
type InfoBits = (u32, u64, u64, u64, Option<(u64, u64)>);

fn bits(infos: &[CandidateInfo]) -> Vec<InfoBits> {
    infos
        .iter()
        .map(|i| {
            (
                i.provider.raw(),
                i.consumer_intention.to_bits(),
                i.provider_intention.to_bits(),
                i.utilization.to_bits(),
                i.bid.map(|b| (b.price.to_bits(), b.delay.to_bits())),
            )
        })
        .collect()
}

/// SplitMix64, driving the wave generator from one sampled seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    /// A value that is usually ordinary and sometimes special.
    fn value(&mut self) -> f64 {
        match self.below(12) {
            0 => f64::NAN,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0,
        }
    }
}

/// A query id no request carries.
const FOREIGN_QUERY: QueryId = QueryId(999);
/// A provider id no candidate set contains.
const FOREIGN_PROVIDER: ProviderId = ProviderId(999);

/// One generated case: the requests, the wave's replies (rebuilt per
/// assembly, since assembly consumes them), and whether the replies were
/// left exactly as a one-query wave lays them out.
struct Case {
    requests: Vec<(Query, Vec<ProviderId>)>,
    consumers: Vec<(ConsumerId, Option<ConsumerBatchAnswer>)>,
    providers: Vec<(ProviderId, Option<ProviderBatchAnswer>)>,
    lines_up: bool,
}

impl Case {
    fn replies(&self) -> WaveReplies {
        WaveReplies {
            consumers: self.consumers.clone(),
            providers: self.providers.clone(),
        }
    }
}

fn answer(g: &mut Gen, query: QueryId, with_bids: bool) -> ProviderAnswer {
    ProviderAnswer {
        query,
        intention: g.value(),
        utilization: g.value(),
        bid: (with_bids && g.chance(80)).then(|| Bid {
            price: g.value(),
            delay: g.value(),
        }),
    }
}

fn random_case(seed: u64) -> Case {
    let mut g = Gen(seed);
    let with_bids = g.chance(50);
    let query_count = if g.chance(70) { 1 } else { 2 + g.below(3) };
    let consumer = ConsumerId::new(g.below(4) as u32);

    // Requests: ascending candidate sets, occasionally shuffled or with a
    // repeated provider (shapes only the keyed read handles).
    let mut requests = Vec::new();
    let mut lines_up = query_count == 1;
    for q in 0..query_count {
        let query = Query::single(
            QueryId::new(q as u32 * 3 + 1),
            consumer,
            QueryClass::Light,
            SimTime::ZERO,
        );
        let mut candidates: Vec<ProviderId> = (0..12u32)
            .filter(|_| g.chance(50))
            .map(ProviderId::new)
            .collect();
        if candidates.len() > 1 && g.chance(10) {
            let (a, b) = (g.below(candidates.len()), g.below(candidates.len()));
            candidates.swap(a, b);
            lines_up &= a == b;
        }
        if !candidates.is_empty() && g.chance(8) {
            let repeated = candidates[g.below(candidates.len())];
            let at = g.below(candidates.len() + 1);
            candidates.insert(at, repeated);
            lines_up = false;
        }
        requests.push((query, candidates));
    }

    // The replies of a well-formed wave: one consumer answering every
    // query over its candidates, one provider request per distinct
    // candidate (in candidate order for a single query) answering every
    // query that lists it.
    let consumer_reply: ConsumerBatchAnswer = requests
        .iter()
        .map(|(q, cands)| (q.id, cands.iter().map(|&p| (p, g.value())).collect()))
        .collect();
    let mut consumers = vec![(consumer, Some(consumer_reply))];
    let mut wave_providers: Vec<ProviderId> = Vec::new();
    for (_, cands) in &requests {
        for &p in cands {
            if query_count == 1 || !wave_providers.contains(&p) {
                wave_providers.push(p);
            }
        }
    }
    let mut providers: Vec<(ProviderId, Option<ProviderBatchAnswer>)> = wave_providers
        .iter()
        .map(|&p| {
            let reply = requests
                .iter()
                .filter(|(_, cands)| cands.contains(&p))
                .map(|(q, _)| answer(&mut g, q.id, with_bids))
                .collect();
            (p, Some(reply))
        })
        .collect();

    // Perturbations. Each leaves the case well defined for the keyed read.
    if g.chance(25) {
        // A missing consumer reply (timed out) keeps the layout.
        consumers[0].1 = None;
    }
    for (_, reply) in providers.iter_mut() {
        if g.chance(15) {
            // A missing provider reply keeps the layout too.
            *reply = None;
        }
    }
    if g.chance(8) {
        consumers.clear();
    }
    if g.chance(8) {
        let extra = (0..3u32).map(|p| (ProviderId::new(p), g.value())).collect();
        consumers.push((ConsumerId::new(7), Some(vec![(requests[0].0.id, extra)])));
        lines_up = false;
    }
    if let Some((_, Some(reply))) = consumers.first_mut() {
        if g.chance(8) {
            // The consumer's per-provider entries, reordered.
            let per_provider = &mut reply[0].1;
            if per_provider.len() > 1 {
                per_provider.reverse();
                lines_up = false;
            }
        }
        if g.chance(8) {
            // A duplicated consumer entry (the later one wins).
            let per_provider = &mut reply[0].1;
            if let Some(&(p, _)) = per_provider.first() {
                per_provider.push((p, g.value()));
                lines_up = false;
            }
        }
        if g.chance(8) {
            reply.push((FOREIGN_QUERY, vec![(ProviderId::new(0), g.value())]));
            lines_up = false;
        }
        if g.chance(6) {
            reply[0].1.push((FOREIGN_PROVIDER, g.value()));
            lines_up = false;
        }
        if g.chance(6) {
            // Same shape, but about another query.
            reply[0].0 = FOREIGN_QUERY;
            lines_up = false;
        }
        if !reply[0].1.is_empty() && g.chance(6) {
            // Same shape, but one entry is about another provider.
            let i = g.below(reply[0].1.len());
            reply[0].1[i].0 = FOREIGN_PROVIDER;
            lines_up = false;
        }
        if g.chance(4) {
            reply.clear();
            lines_up = false;
        }
    }
    if providers.len() > 1 && g.chance(10) {
        let (a, b) = (g.below(providers.len()), g.below(providers.len()));
        providers.swap(a, b);
        lines_up &= a == b;
    }
    if !providers.is_empty() && g.chance(8) {
        // A provider request repeated in the wave.
        let i = g.below(providers.len());
        let (p, _) = providers[i];
        let reply = Some(vec![answer(&mut g, requests[0].0.id, with_bids)]);
        providers.push((p, reply));
        lines_up = false;
    }
    if let Some((_, Some(reply))) = providers.first_mut() {
        if g.chance(8) {
            // Two answers for the same query (the later one wins).
            reply.push(answer(&mut g, requests[0].0.id, with_bids));
            lines_up = false;
        }
        if g.chance(8) {
            reply.push(answer(&mut g, FOREIGN_QUERY, with_bids));
            lines_up = false;
        }
        if g.chance(4) {
            reply.clear();
            lines_up = false;
        }
    }
    if !providers.is_empty() && g.chance(6) {
        // Same shape, but one answer is about another query.
        let i = g.below(providers.len());
        if let (_, Some(reply)) = &mut providers[i] {
            if let Some(answer) = reply.first_mut() {
                answer.query = FOREIGN_QUERY;
                lines_up = false;
            }
        }
    }
    if !providers.is_empty() && g.chance(6) {
        // Same shape, but one request went to another provider.
        let i = g.below(providers.len());
        providers[i].0 = FOREIGN_PROVIDER;
        lines_up = false;
    }
    if g.chance(6) {
        providers.push((
            FOREIGN_PROVIDER,
            Some(vec![answer(&mut g, requests[0].0.id, with_bids)]),
        ));
        lines_up = false;
    }
    if !providers.is_empty() && g.chance(6) {
        providers.remove(g.below(providers.len()));
        lines_up = false;
    }
    Case {
        requests,
        consumers,
        providers,
        lines_up,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn every_assembly_path_matches_the_keyed_read(seed in 0u64..u64::MAX) {
        let case = random_case(seed);
        let expected = keyed_reference(case.replies(), &case.requests);
        let batched = case.replies().into_candidate_infos(&case.requests);
        prop_assert_eq!(batched.len(), expected.len());
        for (got, want) in batched.iter().zip(&expected) {
            prop_assert_eq!(bits(got), bits(want));
        }

        // The single-query buffer variant, per query, over a buffer that
        // holds stale entries from an earlier use.
        let mut out = vec![CandidateInfo::new(FOREIGN_PROVIDER); 3];
        for ((query, candidates), want) in case.requests.iter().zip(&expected) {
            case.replies().into_query_infos(query.id, candidates, &mut out);
            prop_assert_eq!(bits(&out), bits(want));
        }
        if let [(query, candidates)] = case.requests.as_slice() {
            case.replies().into_query_infos(query.id, candidates, &mut out);
            let flattened: Vec<CandidateInfo> = batched.into_iter().flatten().collect();
            prop_assert_eq!(bits(&out), bits(&flattened));
        }
    }
}

#[test]
fn the_generator_covers_both_reads() {
    let cases: Vec<Case> = (0..2_000u64).map(random_case).collect();
    let aligned = cases.iter().filter(|c| c.lines_up).count();
    let single = cases.iter().filter(|c| c.requests.len() == 1).count();
    assert!(aligned > 400, "{aligned} line-up cases");
    assert!(
        single - aligned > 300,
        "{} misaligned single-query cases",
        single - aligned
    );
    assert!(
        cases.len() - single > 300,
        "{} multi-query cases",
        cases.len() - single
    );
    assert!(cases
        .iter()
        .any(|c| c.lines_up && c.providers.iter().any(|(_, r)| r.is_none())));
    assert!(cases.iter().any(|c| c.lines_up
        && c.providers
            .iter()
            .flat_map(|(_, r)| r)
            .flatten()
            .any(|a| a.bid.is_some())));
}
