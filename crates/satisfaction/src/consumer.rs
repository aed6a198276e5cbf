//! Consumer characterization (Section 3.1).

use sqlb_types::Intention;

use crate::allocation_satisfaction;
use crate::memory::InteractionMemory;

/// Per-query consumer adequation `δa(c, q)` (Equation 1): the average of the
/// consumer's shown intentions towards the whole candidate set `P_q`, mapped
/// from `[-1, 1]` to `[0, 1]`.
///
/// Returns `None` when the candidate set is empty (infeasible query), which
/// the framework filters out earlier.
pub fn consumer_query_adequation(intentions_over_pq: &[Intention]) -> Option<f64> {
    if intentions_over_pq.is_empty() {
        return None;
    }
    let mean =
        intentions_over_pq.iter().map(|i| i.value()).sum::<f64>() / intentions_over_pq.len() as f64;
    Some((mean + 1.0) / 2.0)
}

/// Per-query consumer satisfaction `δs(c, q)` (Equation 2): the sum of the
/// consumer's shown intentions towards the providers that were *selected*,
/// divided by the *desired* number of results `n = q.n`, then mapped to
/// `[0, 1]`.
///
/// Dividing by the desired `n` rather than the obtained number of providers
/// is what lets the notion account for consumers that wanted more results
/// than they received (Section 3.1.2).
pub fn consumer_query_satisfaction(selected_intentions: &[Intention], n: u32) -> f64 {
    satisfaction_from_sum(selected_intentions.iter().map(|i| i.value()).sum(), n)
}

/// The tail of Equation 2: maps the sum of the selected intentions and
/// the desired result count to `[0, 1]`. Single home of the formula so
/// the slice, iterator, tracker and mediator entry points cannot drift
/// apart.
#[inline]
pub fn satisfaction_from_sum(selected_sum: f64, n: u32) -> f64 {
    ((selected_sum / n.max(1) as f64) + 1.0) / 2.0
}

/// Equations 1–2 evaluated together over raw shown values, without
/// materializing `Intention` slices: returns the per-query
/// `(adequation, satisfaction)` pair, or `None` for an empty candidate
/// set. `selected` holds indices into `shown`; out-of-range indices are
/// ignored (a provider that vanished between gathering and recording).
///
/// Values are clamped into `[-1, 1]` exactly as [`Intention::new`] does,
/// and the sums run in slice order — the result is bit-identical to
/// clamping into a vector first and calling [`consumer_query_adequation`]
/// and [`consumer_query_satisfaction`], which is pinned by a test. This
/// is the allocation-free entry point the per-arrival hot path uses.
pub fn consumer_query_outcome(shown: &[f64], selected: &[usize], n: u32) -> Option<(f64, f64)> {
    if shown.is_empty() {
        return None;
    }
    let clamped_sum: f64 = shown.iter().map(|&v| Intention::new(v).value()).sum();
    let adequation = (clamped_sum / shown.len() as f64 + 1.0) / 2.0;
    let selected_sum: f64 = selected
        .iter()
        .filter_map(|&i| shown.get(i))
        .map(|&v| Intention::new(v).value())
        .sum();
    Some((adequation, satisfaction_from_sum(selected_sum, n)))
}

/// Tracks a consumer's characteristics over its `k` last issued queries
/// (the set `IQ^k_c`).
///
/// The tracker is value-agnostic: feed it intention-derived per-query values
/// to obtain the public (mediator-observable) characterization, or
/// preference-derived values for the consumer's private view.
#[derive(Debug, Clone)]
pub struct ConsumerTracker {
    adequations: InteractionMemory,
    satisfactions: InteractionMemory,
    initial: f64,
    issued: u64,
}

impl ConsumerTracker {
    /// Creates a tracker remembering the last `k` issued queries and
    /// reporting `initial` until observations exist (Table 2 uses
    /// `k = 200`, `initial = 0.5`).
    pub fn new(k: usize, initial: f64) -> Self {
        ConsumerTracker {
            adequations: InteractionMemory::new(k),
            satisfactions: InteractionMemory::new(k),
            initial,
            issued: 0,
        }
    }

    /// Creates a tracker with the paper's default configuration
    /// (`k = 200`, initial satisfaction `0.5`).
    pub fn paper_default() -> Self {
        ConsumerTracker::new(200, 0.5)
    }

    /// Records the outcome of one query allocation.
    ///
    /// * `intentions_over_pq` — the consumer's shown values towards every
    ///   provider of `P_q` (the vector `CI_q`);
    /// * `selected` — indices into `intentions_over_pq` of the providers the
    ///   query was allocated to (`\hat{P}_q`);
    /// * `n` — the number of providers the consumer wished for (`q.n`).
    ///
    /// Returns the per-query `(adequation, satisfaction)` pair that was
    /// recorded, or `None` if the candidate set was empty.
    pub fn record_allocation(
        &mut self,
        intentions_over_pq: &[Intention],
        selected: &[usize],
        n: u32,
    ) -> Option<(f64, f64)> {
        let adequation = consumer_query_adequation(intentions_over_pq)?;
        // Sum the selected intentions directly (same order, same f64
        // additions as collecting them first — no per-query allocation).
        let sum: f64 = selected
            .iter()
            .filter_map(|&i| intentions_over_pq.get(i))
            .map(|i| i.value())
            .sum();
        let satisfaction = satisfaction_from_sum(sum, n);
        self.adequations.push(adequation);
        self.satisfactions.push(satisfaction);
        self.issued += 1;
        Some((adequation, satisfaction))
    }

    /// Records pre-computed per-query adequation and satisfaction values.
    /// Useful when the caller computes Equations 1–2 itself (e.g. from
    /// preference values it does not want to expose).
    pub fn record_values(&mut self, adequation: f64, satisfaction: f64) {
        self.adequations.push(adequation.clamp(0.0, 1.0));
        self.satisfactions.push(satisfaction.clamp(0.0, 1.0));
        self.issued += 1;
    }

    /// Consumer adequation `δa(c)` (Definition 1).
    pub fn adequation(&self) -> f64 {
        self.adequations.mean_or(self.initial)
    }

    /// Consumer satisfaction `δs(c)` (Definition 2).
    pub fn satisfaction(&self) -> f64 {
        self.satisfactions.mean_or(self.initial)
    }

    /// Consumer allocation satisfaction `δas(c)` (Definition 3).
    pub fn allocation_satisfaction(&self) -> f64 {
        allocation_satisfaction(self.satisfaction(), self.adequation())
    }

    /// Total number of queries recorded over the tracker's lifetime (not
    /// bounded by `k`).
    pub fn issued_queries(&self) -> u64 {
        self.issued
    }

    /// Number of queries currently remembered (at most `k`).
    pub fn window_len(&self) -> usize {
        self.adequations.len()
    }

    /// The configured window size `k`.
    pub fn window_capacity(&self) -> usize {
        self.adequations.capacity()
    }

    /// The configured initial (pre-observation) value.
    pub fn initial(&self) -> f64 {
        self.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn intentions(values: &[f64]) -> Vec<Intention> {
        values.iter().map(|&v| Intention::new(v)).collect()
    }

    #[test]
    fn query_adequation_matches_equation_1() {
        // eWine example: intentions 1, 0.9, 0.7 towards p2, p4, p5 and -1
        // towards p1, p3 → mean = 0.12 → adequation = 0.56.
        let ci = intentions(&[-1.0, 1.0, -1.0, 0.9, 0.7]);
        let a = consumer_query_adequation(&ci).unwrap();
        assert!((a - 0.56).abs() < 1e-12);
    }

    #[test]
    fn query_adequation_empty_candidate_set_is_none() {
        assert_eq!(consumer_query_adequation(&[]), None);
    }

    #[test]
    fn query_satisfaction_divides_by_desired_n() {
        // Section 3.1.2: the mediator allocates the query only to a provider
        // with intention 1 while the consumer desired n = 2 results.
        let selected = intentions(&[1.0]);
        let s = consumer_query_satisfaction(&selected, 2);
        assert!((s - 0.75).abs() < 1e-12);
        // With n = 1 the same allocation fully satisfies the consumer.
        let s = consumer_query_satisfaction(&selected, 1);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn query_satisfaction_of_disliked_provider_is_low() {
        let s = consumer_query_satisfaction(&intentions(&[-1.0]), 1);
        assert!((s - 0.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_reports_initial_before_observations() {
        let t = ConsumerTracker::paper_default();
        assert_eq!(t.adequation(), 0.5);
        assert_eq!(t.satisfaction(), 0.5);
        assert_eq!(t.allocation_satisfaction(), 1.0);
        assert_eq!(t.window_capacity(), 200);
        assert_eq!(t.initial(), 0.5);
    }

    #[test]
    fn tracker_records_allocations() {
        let mut t = ConsumerTracker::new(10, 0.5);
        // Candidate set of three providers; the one the consumer likes most
        // is selected.
        let ci = intentions(&[0.8, -0.2, 0.4]);
        let (a, s) = t.record_allocation(&ci, &[0], 1).unwrap();
        assert!((a - ((0.8 - 0.2 + 0.4) / 3.0 + 1.0) / 2.0).abs() < 1e-12);
        assert!((s - 0.9).abs() < 1e-12);
        assert!(t.allocation_satisfaction() > 1.0);
        assert_eq!(t.issued_queries(), 1);
        assert_eq!(t.window_len(), 1);
    }

    #[test]
    fn tracker_punishing_allocations_drop_delta_as_below_one() {
        let mut t = ConsumerTracker::new(10, 0.5);
        let ci = intentions(&[0.9, -0.9]);
        for _ in 0..5 {
            // Always allocate to the provider the consumer dislikes.
            t.record_allocation(&ci, &[1], 1);
        }
        assert!(t.satisfaction() < t.adequation());
        assert!(t.allocation_satisfaction() < 1.0);
    }

    #[test]
    fn tracker_window_eviction() {
        let mut t = ConsumerTracker::new(2, 0.5);
        t.record_values(1.0, 1.0);
        t.record_values(1.0, 1.0);
        t.record_values(0.0, 0.0);
        // Window keeps the last two entries: (1,1) and (0,0).
        assert!((t.adequation() - 0.5).abs() < 1e-12);
        assert!((t.satisfaction() - 0.5).abs() < 1e-12);
        assert_eq!(t.issued_queries(), 3);
        assert_eq!(t.window_len(), 2);
    }

    #[test]
    fn record_values_clamps_into_unit_interval() {
        let mut t = ConsumerTracker::new(4, 0.5);
        t.record_values(7.0, -3.0);
        assert_eq!(t.adequation(), 1.0);
        assert_eq!(t.satisfaction(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_query_outcome_is_bit_identical_to_slice_variants(
            shown in proptest::collection::vec(-2.5f64..=2.5, 0..40),
            selected in proptest::collection::vec(0usize..48, 0..8),
            n in 1u32..5,
        ) {
            let outcome = consumer_query_outcome(&shown, &selected, n);
            let ints = intentions(&shown);
            let reference = consumer_query_adequation(&ints).map(|adequation| {
                let selected_ints: Vec<Intention> = selected
                    .iter()
                    .filter_map(|&i| ints.get(i).copied())
                    .collect();
                (adequation, consumer_query_satisfaction(&selected_ints, n))
            });
            match (outcome, reference) {
                (None, None) => {}
                (Some((a1, s1)), Some((a2, s2))) => {
                    prop_assert_eq!(a1.to_bits(), a2.to_bits());
                    prop_assert_eq!(s1.to_bits(), s2.to_bits());
                }
                other => prop_assert!(false, "outcome/reference disagree: {:?}", other),
            }
        }

        #[test]
        fn prop_per_query_values_in_unit_interval(
            ci in proptest::collection::vec(-1.0f64..=1.0, 1..40),
            n in 1u32..5,
        ) {
            let ints = intentions(&ci);
            let a = consumer_query_adequation(&ints).unwrap();
            prop_assert!((0.0..=1.0).contains(&a));
            // Select an arbitrary prefix of at most n providers.
            let selected: Vec<Intention> = ints.iter().copied().take(n as usize).collect();
            let s = consumer_query_satisfaction(&selected, n);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn prop_tracker_outputs_in_unit_interval(
            entries in proptest::collection::vec((-1.0f64..=1.0, -1.0f64..=1.0), 0..100),
        ) {
            let mut t = ConsumerTracker::new(16, 0.5);
            for (a, s) in &entries {
                t.record_values((*a + 1.0) / 2.0, (*s + 1.0) / 2.0);
            }
            prop_assert!((0.0..=1.0).contains(&t.adequation()));
            prop_assert!((0.0..=1.0).contains(&t.satisfaction()));
            prop_assert!(t.allocation_satisfaction() >= 0.0);
        }

        #[test]
        fn prop_selecting_best_provider_never_hurts(
            ci in proptest::collection::vec(-1.0f64..=1.0, 2..20),
        ) {
            // Allocating to the provider with the highest intention yields
            // at least the satisfaction of any other single allocation.
            let ints = intentions(&ci);
            let best = ci
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            let s_best = consumer_query_satisfaction(&[ints[best]], 1);
            for &intention in &ints {
                let s_i = consumer_query_satisfaction(&[intention], 1);
                prop_assert!(s_best >= s_i - 1e-12);
            }
        }
    }
}
