//! Scoring and ranking of providers (Section 5.3).
//!
//! Besides the scalar Definition 9 evaluation ([`provider_score`]), this
//! module owns the *batch* scoring kernel the allocation hot path runs
//! over a shard's candidate slice: [`score_batch`] streams the columnar
//! `(PI, CI, ω)` inputs into a reusable score buffer, and
//! [`best_candidate_lazy`] answers the paper's `q.n = 1` argmax with a
//! certified-upper-bound evaluation that skips the `powf`-heavy exact
//! score for provably losing candidates while staying bit-identical to
//! scoring everything.

use std::cmp::Ordering;

use sqlb_types::ProviderId;

use crate::allocation::CandidateInfo;
use crate::intention::{powf_fast, IntentionParams};

/// A provider together with its score for a given query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedProvider {
    /// The provider being ranked.
    pub provider: ProviderId,
    /// Its score `scr_q(p)` (Definition 9).
    pub score: f64,
}

/// The consumer/provider trade-off weight `ω` (Equation 6):
///
/// ```text
/// ω = ((δs(c) − δs(p)) + 1) / 2
/// ```
///
/// `δs(c)` and `δs(p)` are the *intention-based* satisfactions that the
/// query allocation module can observe ("Conversely to provider's
/// intention, the query allocation module has not access to private
/// information. Thus, the satisfaction it uses has to be based on the
/// intentions."). The more satisfied the consumer is relative to the
/// provider, the more weight the provider's intention receives.
pub fn omega(consumer_satisfaction: f64, provider_satisfaction: f64) -> f64 {
    let c = consumer_satisfaction.clamp(0.0, 1.0);
    let p = provider_satisfaction.clamp(0.0, 1.0);
    ((c - p) + 1.0) / 2.0
}

/// Provider score `scr_q(p)` (Definition 9): the balance between the
/// provider's intention `PI` to perform the query and the consumer's
/// intention `CI` to allocate the query to it.
///
/// ```text
/// scr =  PI^ω · CI^(1-ω)                                 if PI > 0 ∧ CI > 0
/// scr = -[(1 - PI + ε)^ω · (1 - CI + ε)^(1-ω)]           otherwise
/// ```
///
/// Intentions are accepted as raw `f64` values because Definitions 7–8 with
/// `ε = 1` can produce magnitudes above 1 (see `crate::intention`).
pub fn provider_score(
    provider_intention: f64,
    consumer_intention: f64,
    omega: f64,
    params: IntentionParams,
) -> f64 {
    let omega = omega.clamp(0.0, 1.0);
    let eps = params.epsilon;
    if provider_intention > 0.0 && consumer_intention > 0.0 {
        powf_fast(provider_intention, omega) * powf_fast(consumer_intention, 1.0 - omega)
    } else {
        -(powf_fast(1.0 - provider_intention + eps, omega)
            * powf_fast(1.0 - consumer_intention + eps, 1.0 - omega))
    }
}

/// Relative safety margin applied to [`score_upper_bound`] so floating-
/// point rounding of the bound arithmetic can never place the bound below
/// the exact score. The analytic inequalities hold over the reals; the
/// computed bound and the computed score each carry only a few ulp
/// (≲ 1e-15 relative) of rounding, so a 1e-9 margin dominates by six
/// orders of magnitude.
const UB_SAFETY: f64 = 1e-9;

/// A certified upper bound on [`provider_score`]: cheap to evaluate (no
/// `powf`) and never below the exact score for the same inputs.
///
/// * Positive branch (`PI > 0 ∧ CI > 0`): the score is the `ω`-weighted
///   geometric mean of `PI` and `CI`, which the weighted AM–GM inequality
///   bounds by the `ω`-weighted arithmetic mean `ω·PI + (1-ω)·CI`.
/// * Negative branch: the score is `-(A^ω · B^(1-ω))` with
///   `A = 1 - PI + ε` and `B = 1 - CI + ε`, and for positive `A`, `B` the
///   weighted geometric mean is at least `min(A, B)` — so the score is at
///   most `-min(A, B)`. Non-positive `A` or `B` (impossible for genuine
///   Definition 7/8 intentions, whose positive parts never exceed 1)
///   yields `+∞`, i.e. "no pruning, evaluate exactly".
///
/// Both bounds are inflated by a relative safety margin (`UB_SAFETY`,
/// 1e-9 — six orders of magnitude above the few-ulp rounding of the
/// bound arithmetic) to absorb rounding, so
/// `score_upper_bound(...) ≥ provider_score(...)` holds for every input
/// the pruning in [`best_candidate_lazy`] relies on.
pub fn score_upper_bound(
    provider_intention: f64,
    consumer_intention: f64,
    omega: f64,
    params: IntentionParams,
) -> f64 {
    let w = omega.clamp(0.0, 1.0);
    if provider_intention > 0.0 && consumer_intention > 0.0 {
        (w * provider_intention + (1.0 - w) * consumer_intention) * (1.0 + UB_SAFETY)
    } else {
        let a = 1.0 - provider_intention + params.epsilon;
        let b = 1.0 - consumer_intention + params.epsilon;
        let m = a.min(b);
        if m <= 0.0 {
            return f64::INFINITY;
        }
        -(m * (1.0 - UB_SAFETY))
    }
}

/// The batch Definition 9 kernel: scores every candidate of a slice
/// against the parallel `ω` column, appending one [`RankedProvider`] per
/// candidate to `out` (in candidate order). This is the full-evaluation
/// path of the allocation kernel — [`best_candidate_lazy`] is the pruned
/// `q.n = 1` variant with identical selection semantics.
///
/// `omegas` must hold exactly one weight per candidate.
pub fn score_batch(
    candidates: &[CandidateInfo],
    omegas: &[f64],
    params: IntentionParams,
    out: &mut Vec<RankedProvider>,
) {
    debug_assert_eq!(candidates.len(), omegas.len());
    out.extend(
        candidates
            .iter()
            .zip(omegas.iter())
            .map(|(c, &w)| RankedProvider {
                provider: c.provider,
                score: provider_score(c.provider_intention, c.consumer_intention, w, params),
            }),
    );
}

/// The `q.n = 1` argmax of the scoring kernel, evaluated lazily: the
/// exact (two-`powf`) score is only computed for candidates whose
/// certified upper bound could still beat the best exact score seen, so
/// the typical arrival pays a handful of `powf` calls instead of two per
/// candidate.
///
/// Returns exactly the entry a full [`score_batch`] followed by
/// [`select_top_k`]`(.., 1)` would put first — same provider, same score
/// bits: a candidate is only skipped when its bound is *strictly* below
/// the running best score, which rules out both wins and score ties (and
/// ties are the only place the ascending-id tie-break could matter).
///
/// `ub_scratch` is a reusable buffer for the bound column.
pub fn best_candidate_lazy(
    candidates: &[CandidateInfo],
    omegas: &[f64],
    params: IntentionParams,
    ub_scratch: &mut Vec<f64>,
) -> Option<RankedProvider> {
    debug_assert_eq!(candidates.len(), omegas.len());
    if candidates.is_empty() {
        return None;
    }
    // Pass 1: the bound column, and the most promising candidate (highest
    // bound, ties by lowest index so the scan order is deterministic).
    ub_scratch.clear();
    let mut lead = 0usize;
    let mut lead_ub = f64::NEG_INFINITY;
    for (i, c) in candidates.iter().enumerate() {
        let ub = score_upper_bound(
            c.provider_intention,
            c.consumer_intention,
            omegas[i],
            params,
        );
        ub_scratch.push(ub);
        if ub > lead_ub {
            lead_ub = ub;
            lead = i;
        }
    }
    // Seed the running best with the exact score of the leader — starting
    // from the highest bound maximizes how much of the column pass 2 can
    // prune.
    let c = &candidates[lead];
    let mut best = RankedProvider {
        provider: c.provider,
        score: provider_score(
            c.provider_intention,
            c.consumer_intention,
            omegas[lead],
            params,
        ),
    };
    // Pass 2: only candidates whose certified bound reaches the running
    // best score are evaluated exactly; the best score never decreases, so
    // every skipped candidate provably loses to the final winner.
    for (i, c) in candidates.iter().enumerate() {
        if i == lead || ub_scratch[i] < best.score {
            continue;
        }
        let entry = RankedProvider {
            provider: c.provider,
            score: provider_score(
                c.provider_intention,
                c.consumer_intention,
                omegas[i],
                params,
            ),
        };
        if ranking_order(&entry, &best) == Ordering::Less {
            best = entry;
        }
    }
    Some(best)
}

/// The deterministic ranking order: descending score, ties broken by
/// ascending provider identifier. Candidate sets never contain a provider
/// twice, so this is a *strict* total order — any two distinct entries
/// compare unequal, which is what makes partial selection provably
/// identical to a full sort (the top-`k` set is uniquely determined).
#[inline]
fn ranking_order(a: &RankedProvider, b: &RankedProvider) -> Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.provider.cmp(&b.provider))
}

/// Puts the `min(k, len)` best candidates — by the same deterministic
/// order as [`rank_candidates`] — in ranking order at the front of the
/// slice. The rest of the slice is left in unspecified order.
///
/// Because the ranking order is a strict total order over distinct
/// providers, the selected prefix is bit-identical to
/// `rank_candidates(...)[..k]`; the allocation hot path uses this to
/// replace the O(N log N) full sort with an O(N) selection for the
/// paper's `q.n = 1` queries (and O(N + k log k) in general).
pub fn select_top_k(candidates: &mut [RankedProvider], k: usize) {
    let len = candidates.len();
    if k == 0 || len <= 1 {
        return;
    }
    if k >= len {
        candidates.sort_unstable_by(ranking_order);
        return;
    }
    if k == 1 {
        // Selection of the single best entry: one scan, no partition.
        let mut best = 0;
        for i in 1..len {
            if ranking_order(&candidates[i], &candidates[best]) == Ordering::Less {
                best = i;
            }
        }
        candidates.swap(0, best);
        return;
    }
    candidates.select_nth_unstable_by(k - 1, ranking_order);
    candidates[..k].sort_unstable_by(ranking_order);
}

/// Ranks candidates from best to worst score (the vector `R_q` of
/// Section 5.3). Ties are broken by provider identifier so the ranking is
/// deterministic.
pub fn rank_candidates(mut candidates: Vec<RankedProvider>) -> Vec<RankedProvider> {
    candidates.sort_unstable_by(ranking_order);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const P: IntentionParams = IntentionParams { epsilon: 1.0 };

    #[test]
    fn omega_balances_satisfactions() {
        // Equally satisfied participants → both intentions weigh the same.
        assert!((omega(0.5, 0.5) - 0.5).abs() < 1e-12);
        // Fully satisfied consumer, unsatisfied provider → the provider's
        // intention dominates (ω = 1).
        assert!((omega(1.0, 0.0) - 1.0).abs() < 1e-12);
        // Fully satisfied provider, unsatisfied consumer → the consumer's
        // intention dominates (ω = 0).
        assert!((omega(0.0, 1.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn omega_clamps_inputs() {
        assert!((omega(2.0, -1.0) - 1.0).abs() < 1e-12);
        assert!((omega(-5.0, 7.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn score_positive_branch_is_weighted_geometric_mean() {
        let s = provider_score(0.64, 0.25, 0.5, P);
        assert!((s - (0.64f64 * 0.25).sqrt()).abs() < 1e-12);
        // ω = 1: only the provider's intention matters.
        let s = provider_score(0.64, 0.25, 1.0, P);
        assert!((s - 0.64).abs() < 1e-12);
        // ω = 0: only the consumer's intention matters.
        let s = provider_score(0.64, 0.25, 0.0, P);
        assert!((s - 0.25).abs() < 1e-12);
    }

    #[test]
    fn score_negative_when_either_intention_non_positive() {
        assert!(provider_score(-0.5, 0.9, 0.5, P) < 0.0);
        assert!(provider_score(0.9, -0.5, 0.5, P) < 0.0);
        assert!(provider_score(0.0, 0.9, 0.5, P) < 0.0);
        assert!(provider_score(-2.5, -1.0, 0.3, P) < 0.0);
    }

    #[test]
    fn score_orders_candidates_sensibly() {
        // Table 1 intuition: a provider wanted by both sides should beat a
        // provider wanted by only one side, which should beat a provider
        // wanted by neither.
        let both = provider_score(0.8, 0.8, 0.5, P);
        let provider_only = provider_score(0.8, -0.3, 0.5, P);
        let consumer_only = provider_score(-0.3, 0.8, 0.5, P);
        let neither = provider_score(-0.3, -0.3, 0.5, P);
        assert!(both > provider_only);
        assert!(both > consumer_only);
        assert!(provider_only > neither);
        assert!(consumer_only > neither);
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let ranked = rank_candidates(vec![
            RankedProvider {
                provider: ProviderId::new(2),
                score: 0.5,
            },
            RankedProvider {
                provider: ProviderId::new(0),
                score: 0.9,
            },
            RankedProvider {
                provider: ProviderId::new(3),
                score: 0.5,
            },
            RankedProvider {
                provider: ProviderId::new(1),
                score: -0.4,
            },
        ]);
        let order: Vec<u32> = ranked.iter().map(|r| r.provider.raw()).collect();
        assert_eq!(order, vec![0, 2, 3, 1]);
        assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn ranking_of_empty_set_is_empty() {
        assert!(rank_candidates(vec![]).is_empty());
    }

    #[test]
    fn top_k_prefix_equals_full_sort_on_ties() {
        // Tied scores exercise the id tie-break through the selection
        // path.
        let base = vec![
            RankedProvider {
                provider: ProviderId::new(3),
                score: 0.5,
            },
            RankedProvider {
                provider: ProviderId::new(1),
                score: 0.5,
            },
            RankedProvider {
                provider: ProviderId::new(2),
                score: 0.5,
            },
            RankedProvider {
                provider: ProviderId::new(0),
                score: -0.5,
            },
        ];
        let sorted = rank_candidates(base.clone());
        for k in 0..=base.len() + 1 {
            let mut selected = base.clone();
            select_top_k(&mut selected, k);
            let prefix = k.min(base.len());
            assert_eq!(&selected[..prefix], &sorted[..prefix], "k = {k}");
        }
    }

    #[test]
    fn provider_score_fast_omegas_match_general_powf() {
        // The fast-path contract: ω ∈ {0, 1} (and, through `1 - ω`, their
        // mirror exponents) plus arbitrary ω = 0.5 must return the same
        // bits as the bare-powf formulation of Definition 9.
        let mut pi = -2.4;
        while pi <= 1.0 {
            let mut ci = -2.4;
            while ci <= 1.0 {
                for w in [0.0, 1.0, 0.5] {
                    let fast = provider_score(pi, ci, w, P);
                    let general = {
                        // Reimplementation of Definition 9 with bare powf.
                        if pi > 0.0 && ci > 0.0 {
                            pi.powf(w) * ci.powf(1.0 - w)
                        } else {
                            -((1.0 - pi + P.epsilon).powf(w) * (1.0 - ci + P.epsilon).powf(1.0 - w))
                        }
                    };
                    assert_eq!(
                        fast.to_bits(),
                        general.to_bits(),
                        "provider_score({pi}, {ci}, {w}) diverged"
                    );
                }
                ci += 0.0625;
            }
            pi += 0.0625;
        }
    }

    fn kernel_candidates(pis: &[f64], cis: &[f64]) -> Vec<CandidateInfo> {
        pis.iter()
            .zip(cis.iter())
            .enumerate()
            .map(|(i, (&pi, &ci))| {
                CandidateInfo::new(ProviderId::new(i as u32))
                    .with_provider_intention(pi)
                    .with_consumer_intention(ci)
            })
            .collect()
    }

    #[test]
    fn lazy_argmax_handles_empty_and_singleton_sets() {
        let mut scratch = Vec::new();
        assert_eq!(best_candidate_lazy(&[], &[], P, &mut scratch), None);
        let cands = kernel_candidates(&[0.4], &[0.6]);
        let best = best_candidate_lazy(&cands, &[0.5], P, &mut scratch).unwrap();
        assert_eq!(best.provider, ProviderId::new(0));
        assert_eq!(
            best.score.to_bits(),
            provider_score(0.4, 0.6, 0.5, P).to_bits()
        );
    }

    proptest! {
        #[test]
        fn prop_upper_bound_certifies_the_exact_score(
            pi in -2.5f64..=1.0,
            ci in -2.5f64..=1.0,
            w in 0.0f64..=1.0,
        ) {
            let exact = provider_score(pi, ci, w, P);
            let bound = score_upper_bound(pi, ci, w, P);
            prop_assert!(
                bound >= exact,
                "bound {bound} below exact score {exact} for ({pi}, {ci}, {w})"
            );
        }

        #[test]
        fn prop_lazy_argmax_is_bit_identical_to_full_scoring(
            inputs in proptest::collection::vec(
                (-2.5f64..=1.0, -2.5f64..=1.0, 0.0f64..=1.0),
                1..80,
            ),
            duplicate_scores in proptest::bool::ANY,
        ) {
            let mut pis: Vec<f64> = inputs.iter().map(|(pi, _, _)| *pi).collect();
            let mut cis: Vec<f64> = inputs.iter().map(|(_, ci, _)| *ci).collect();
            let mut omegas: Vec<f64> = inputs.iter().map(|(_, _, w)| *w).collect();
            if duplicate_scores {
                // Force exact score ties so the ascending-id tie-break is
                // exercised through the pruned path.
                for i in 1..cis.len() {
                    pis[i] = pis[0];
                    cis[i] = cis[0];
                    omegas[i] = omegas[0];
                }
            }
            let candidates = kernel_candidates(&pis, &cis);
            let mut full = Vec::new();
            score_batch(&candidates, &omegas, P, &mut full);
            prop_assert_eq!(full.len(), candidates.len());
            select_top_k(&mut full, 1);
            let mut scratch = Vec::new();
            let lazy = best_candidate_lazy(&candidates, &omegas, P, &mut scratch).unwrap();
            prop_assert_eq!(lazy.provider, full[0].provider);
            prop_assert_eq!(lazy.score.to_bits(), full[0].score.to_bits());
        }

        #[test]
        fn prop_omega_in_unit_interval(c in 0.0f64..=1.0, p in 0.0f64..=1.0) {
            let w = omega(c, p);
            prop_assert!((0.0..=1.0).contains(&w));
        }

        #[test]
        fn prop_score_sign_matches_branches(
            pi in -2.5f64..=1.0,
            ci in -2.5f64..=1.0,
            w in 0.0f64..=1.0,
        ) {
            let s = provider_score(pi, ci, w, P);
            prop_assert!(s.is_finite());
            if pi > 0.0 && ci > 0.0 {
                prop_assert!(s >= 0.0);
            } else {
                prop_assert!(s < 0.0);
            }
        }

        #[test]
        fn prop_score_monotone_in_provider_intention_positive_branch(
            ci in 0.05f64..=1.0,
            w in 0.05f64..=1.0,
            pi in 0.05f64..=0.95,
        ) {
            let low = provider_score(pi, ci, w, P);
            let high = provider_score(pi + 0.05, ci, w, P);
            prop_assert!(high >= low - 1e-12);
        }

        #[test]
        fn prop_ranking_is_a_permutation(
            scores in proptest::collection::vec(-2.0f64..=1.0, 0..50),
        ) {
            let candidates: Vec<RankedProvider> = scores
                .iter()
                .enumerate()
                .map(|(i, &score)| RankedProvider {
                    provider: ProviderId::new(i as u32),
                    score,
                })
                .collect();
            let ranked = rank_candidates(candidates.clone());
            prop_assert_eq!(ranked.len(), candidates.len());
            let mut ids: Vec<u32> = ranked.iter().map(|r| r.provider.raw()).collect();
            ids.sort_unstable();
            let expected: Vec<u32> = (0..scores.len() as u32).collect();
            prop_assert_eq!(ids, expected);
            prop_assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
        }

        #[test]
        fn prop_select_top_k_prefix_is_bit_identical_to_full_sort(
            scores in proptest::collection::vec(-2.0f64..=1.0, 0..80),
            k in 0usize..80,
        ) {
            let candidates: Vec<RankedProvider> = scores
                .iter()
                .enumerate()
                .map(|(i, &score)| RankedProvider {
                    provider: ProviderId::new(i as u32),
                    score,
                })
                .collect();
            let sorted = rank_candidates(candidates.clone());
            let mut selected = candidates.clone();
            select_top_k(&mut selected, k);
            let prefix = k.min(candidates.len());
            for i in 0..prefix {
                prop_assert_eq!(selected[i].provider, sorted[i].provider);
                prop_assert_eq!(selected[i].score.to_bits(), sorted[i].score.to_bits());
            }
            // The tail is unordered but must still be a permutation of the
            // non-selected candidates.
            let mut tail: Vec<u32> = selected[prefix..].iter().map(|r| r.provider.raw()).collect();
            tail.sort_unstable();
            let mut expected_tail: Vec<u32> =
                sorted[prefix..].iter().map(|r| r.provider.raw()).collect();
            expected_tail.sort_unstable();
            prop_assert_eq!(tail, expected_tail);
        }
    }
}
