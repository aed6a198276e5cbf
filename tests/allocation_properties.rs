//! Property-based integration tests: invariants every allocation method
//! must uphold, whatever the candidate set looks like.

use proptest::prelude::*;
use sqlb::core::scoring::score_batch;
use sqlb::prelude::*;
use std::collections::HashSet;

fn arbitrary_candidates() -> impl Strategy<Value = Vec<CandidateInfo>> {
    proptest::collection::vec(
        (
            -1.0f64..=1.0,  // consumer intention
            -1.0f64..=1.0,  // provider intention
            0.0f64..=2.5,   // utilization
            1.0f64..=500.0, // bid price
            0.0f64..=30.0,  // bid delay
        ),
        1..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (ci, pi, ut, price, delay))| {
                CandidateInfo::new(ProviderId::new(i as u32))
                    .with_consumer_intention(ci)
                    .with_provider_intention(pi)
                    .with_utilization(ut)
                    .with_bid(Bid::new(price, delay))
            })
            .collect()
    })
}

fn methods() -> Vec<Box<dyn AllocationMethod>> {
    vec![
        Box::new(SqlbAllocator::new()),
        Box::new(CapacityBased::new()),
        Box::new(MariposaLike::new()),
        Box::new(RandomAllocator::new(7)),
        Box::new(RoundRobinAllocator::new()),
    ]
}

fn check_allocation(
    method: &mut dyn AllocationMethod,
    candidates: &[CandidateInfo],
    n: u32,
) -> Result<(), TestCaseError> {
    let mut query = Query::single(
        QueryId::new(1),
        ConsumerId::new(0),
        QueryClass::Light,
        SimTime::ZERO,
    );
    query.n = n;
    let view = UniformView(0.5);
    let allocation = method.allocate(&query, candidates, &view);

    // Exactly min(q.n, N) providers are selected…
    prop_assert_eq!(
        allocation.selected.len(),
        (n as usize).min(candidates.len()),
        "method {} selected the wrong number of providers",
        method.name()
    );
    // …each of them is a candidate…
    let candidate_ids: HashSet<ProviderId> = candidates.iter().map(|c| c.provider).collect();
    for p in &allocation.selected {
        prop_assert!(candidate_ids.contains(p));
    }
    // …and none is selected twice.
    let unique: HashSet<ProviderId> = allocation.selected.iter().copied().collect();
    prop_assert_eq!(unique.len(), allocation.selected.len());
    Ok(())
}

/// A mediator state whose satisfactions differ per participant: each
/// round allocates a query of consumer `round % 3` over `candidates` to
/// the candidate the round names.
fn state_after(candidates: &[CandidateInfo], winners: &[usize]) -> MediatorState {
    let mut state = MediatorState::paper_default();
    for (i, &winner) in winners.iter().enumerate() {
        let query = Query::single(
            QueryId::new(i as u32),
            ConsumerId::new((i % 3) as u32),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let allocation = Allocation {
            query: query.id,
            selected: vec![candidates[winner % candidates.len()].provider],
        };
        state.record_allocation(&query, candidates, &allocation);
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_method_selects_min_qn_n_distinct_candidates(
        candidates in arbitrary_candidates(),
        n in 1u32..6,
    ) {
        for mut method in methods() {
            check_allocation(method.as_mut(), &candidates, n)?;
        }
    }

    #[test]
    fn sqlb_never_prefers_a_dominated_candidate(
        base in arbitrary_candidates(),
    ) {
        // Add a candidate that dominates every other (maximal intentions on
        // both sides, idle): SQLB must rank it first.
        let mut candidates = base;
        let best_id = candidates.len() as u32;
        candidates.push(
            CandidateInfo::new(ProviderId::new(best_id))
                .with_consumer_intention(1.0)
                .with_provider_intention(1.0)
                .with_utilization(0.0),
        );
        let mut sqlb = SqlbAllocator::new();
        let query = Query::single(
            QueryId::new(1),
            ConsumerId::new(0),
            QueryClass::Light,
            SimTime::ZERO,
        );
        let allocation = sqlb.allocate(&query, &candidates, &UniformView(0.5));
        prop_assert_eq!(allocation.selected[0], ProviderId::new(best_id));
    }

    #[test]
    fn sqlb_selects_the_prefix_of_the_reference_ranking(
        candidates in arbitrary_candidates(),
        winners in proptest::collection::vec(0usize..60, 0..40),
    ) {
        // The paper's Algorithm 1, literally: score every candidate
        // (Definition 9, with Equation 6's ω read from the mediator's
        // state), sort into R_q, keep the first min(q.n, N). The
        // allocator's lazy argmax (q.n = 1) and top-k selection (q.n > 1)
        // must pick exactly that prefix, in that order.
        let state = state_after(&candidates, &winners);
        let consumer = ConsumerId::new(0);
        let omegas: Vec<f64> = candidates
            .iter()
            .map(|c| {
                omega(
                    state.consumer_satisfaction(consumer),
                    state.provider_satisfaction(c.provider),
                )
            })
            .collect();
        let mut scored = Vec::new();
        score_batch(&candidates, &omegas, IntentionParams::default(), &mut scored);
        let ranking = rank_candidates(scored);
        let mut sqlb = SqlbAllocator::new();
        for n in 1u32..=3 {
            let mut query = Query::single(
                QueryId::new(1_000 + n),
                consumer,
                QueryClass::Light,
                SimTime::ZERO,
            );
            query.n = n;
            let reference: Vec<ProviderId> = ranking
                .iter()
                .take(n as usize)
                .map(|r| r.provider)
                .collect();
            let allocation = sqlb.allocate(&query, &candidates, &state);
            prop_assert_eq!(allocation.selected, reference, "q.n = {}", n);
        }
    }

    #[test]
    fn mediator_state_satisfactions_stay_in_unit_interval(
        rounds in proptest::collection::vec(
            (proptest::collection::vec((-1.0f64..=1.0, -1.0f64..=1.0), 1..10), 0usize..10),
            1..30,
        ),
    ) {
        let mut state = MediatorState::paper_default();
        for (i, (intentions, winner)) in rounds.iter().enumerate() {
            let query = Query::single(
                QueryId::new(i as u32),
                ConsumerId::new((i % 3) as u32),
                QueryClass::Light,
                SimTime::ZERO,
            );
            let candidates: Vec<CandidateInfo> = intentions
                .iter()
                .enumerate()
                .map(|(j, &(ci, pi))| {
                    CandidateInfo::new(ProviderId::new(j as u32))
                        .with_consumer_intention(ci)
                        .with_provider_intention(pi)
                })
                .collect();
            let winner = winner % candidates.len();
            let allocation = Allocation {
                query: query.id,
                selected: vec![candidates[winner].provider],
            };
            state.record_allocation(&query, &candidates, &allocation);
        }
        for p in 0..10u32 {
            let s = state.provider_satisfaction(ProviderId::new(p));
            prop_assert!((0.0..=1.0).contains(&s));
        }
        for c in 0..3u32 {
            let s = state.consumer_satisfaction(ConsumerId::new(c));
            prop_assert!((0.0..=1.0).contains(&s));
        }
        for (_, s, weight) in state.consumer_readings() {
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(weight > 0);
        }
    }
}
