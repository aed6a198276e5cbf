//! Provider characterization (Section 3.2).

use sqlb_types::Intention;

use crate::allocation_satisfaction;
use crate::memory::{InteractionMemory, WindowRing};

/// The `[0, 1]` value a shown intention enters a provider's windows with:
/// `(x + 1) / 2` as in Definitions 4–5. It is never `-0.0` or NaN, so
/// [`ProviderTracker::record_mapped`]'s clamp keeps its bits. The agent's
/// tracker and the mediator's performed windows both map through here.
#[inline]
pub fn unit_value(shown: Intention) -> f64 {
    shown.to_unit().value()
}

/// Tracks a provider's characteristics.
///
/// * Adequation `δa(p)` (Definition 4) is computed over the provider's shown
///   values for the `k_proposed` last *proposed* queries (the set
///   `PQ^k_p`, whether allocated to it or not).
/// * Satisfaction `δs(p)` (Definition 5) is computed over the shown values
///   of the queries the provider actually *performed*. Following Table 2
///   (`proSatSize`: "k last treated queries") this uses a dedicated memory
///   of the last `k_performed` performed queries; see the crate-level
///   documentation for why the literal `SQ^k_p ⊆ PQ^k_p` reading is not
///   usable with the paper's own experimental parameters. The literal
///   variant is exposed as [`ProviderTracker::satisfaction_strict`].
/// * Allocation satisfaction `δas(p)` (Definition 6) is the ratio of the
///   two.
///
/// Like [`crate::ConsumerTracker`], the tracker is value-agnostic: feed it
/// intentions for the public view or preferences for the provider's private
/// view (the private view is what Definition 8 uses to balance preferences
/// against utilization).
///
/// # Layout
///
/// Each proposal costs 8 bytes in the proposal window plus, when
/// performed, 8 bytes in the performed window. A proposal entry is the
/// mapped value with the performed flag in its sign bit: mapped values are
/// clamped into `[0, 1]` and `-0.0` is canonicalized to `+0.0`, so the sign
/// bit of a stored value is otherwise always clear. Both windows allocate
/// lazily, so a provider that was never proposed anything owns no window
/// memory.
#[derive(Debug, Clone)]
pub struct ProviderTracker {
    /// Tagged mapped values of the `k_proposed` last proposals (performed
    /// or not): `-v` for a performed query, `+v` otherwise. One window
    /// backs both Definition 4 (adequation, through `proposed_sum`) and
    /// the strict Definition 5 variant.
    proposed: WindowRing<f64>,
    /// Running sum of the (untagged) values in `proposed`, maintained
    /// subtract-then-add on eviction, so adequation is bit-identical to a
    /// dedicated evict-and-push memory.
    proposed_sum: f64,
    /// Shown values for performed queries only (Table 2 semantics).
    performed: InteractionMemory,
    initial: f64,
    proposed_total: u64,
    performed_total: u64,
}

impl ProviderTracker {
    /// Creates a tracker with a `k_proposed`-query adequation window and a
    /// `k_performed`-query satisfaction window, reporting `initial` until
    /// observations exist. Allocates nothing until the first proposal.
    pub fn new(k_proposed: usize, k_performed: usize, initial: f64) -> Self {
        assert!(k_proposed > 0, "proposed window capacity must be positive");
        ProviderTracker {
            proposed: WindowRing::new(k_proposed),
            proposed_sum: 0.0,
            performed: InteractionMemory::new(k_performed),
            initial,
            proposed_total: 0,
            performed_total: 0,
        }
    }

    /// Creates a tracker with the paper's default configuration
    /// (`proSatSize = 500`, initial satisfaction 0.5). The proposal window
    /// uses the same size.
    pub fn paper_default() -> Self {
        ProviderTracker::new(500, 500, 0.5)
    }

    /// Records a query that was proposed to the provider, together with the
    /// value the provider showed for it (its intention, or its preference
    /// for the private view) and whether the query was allocated to it.
    ///
    /// The value is mapped by [`unit_value`].
    pub fn record_proposal(&mut self, shown: Intention, performed: bool) {
        self.record_mapped(unit_value(shown), performed);
    }

    /// Records a proposal with an already-mapped `[0, 1]` value. Used when
    /// the caller applies its own mapping (e.g. preference-based private
    /// tracking).
    ///
    /// The value is clamped into `[0, 1]`, and `-0.0` is stored as `+0.0`
    /// (no reading can tell them apart: every sum starts at `+0.0`). A NaN
    /// is stored as a positive NaN, so it never reads as performed when it
    /// was not; it then poisons the sums it enters, as it always did.
    pub fn record_mapped(&mut self, mapped: f64, performed: bool) {
        let mapped = mapped.clamp(0.0, 1.0).abs();
        let tagged = if performed { -mapped } else { mapped };
        if let Some(evicted) = self.proposed.push(tagged) {
            self.proposed_sum -= evicted.abs();
        }
        self.proposed_sum += mapped;
        self.proposed_total += 1;
        if performed {
            self.performed.push(mapped);
            self.performed_total += 1;
        }
    }

    /// Provider adequation `δa(p)` (Definition 4). Returns the configured
    /// initial value until the provider has been proposed at least one
    /// query.
    pub fn adequation(&self) -> f64 {
        if self.proposed.is_empty() {
            self.initial
        } else {
            self.proposed_sum / self.proposed.len() as f64
        }
    }

    /// Provider satisfaction `δs(p)` over the last `k_performed` performed
    /// queries (Table 2 semantics). Returns the configured initial value
    /// until the provider has performed at least one query.
    ///
    /// This smoothed reading is the one Equation 6's `ω` uses (through the
    /// mediator's tracker).
    pub fn satisfaction(&self) -> f64 {
        self.performed.mean_or(self.initial)
    }

    /// Provider satisfaction computed strictly as Definition 5: the average
    /// over the performed subset of the *proposed* window, and 0 when that
    /// subset is empty. A provider that has not been proposed anything yet
    /// reports the configured initial value (Table 2's
    /// `iniSatisfaction = 0.5`).
    ///
    /// The departure rules read this value: a provider whose performed
    /// subset dries up reports 0 at once. Equation 6 does not; it uses the
    /// smoothed [`ProviderTracker::satisfaction`].
    pub fn satisfaction_strict(&self) -> f64 {
        if self.proposed.is_empty() {
            return self.initial;
        }
        // One pass, oldest first (the addition order the digests pin).
        let mut sum = 0.0;
        let mut count = 0usize;
        for v in self.proposed.iter() {
            if v.is_sign_negative() {
                sum += v.abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Provider allocation satisfaction `δas(p)` (Definition 6).
    pub fn allocation_satisfaction(&self) -> f64 {
        allocation_satisfaction(self.satisfaction(), self.adequation())
    }

    /// Total number of proposals recorded over the tracker's lifetime.
    pub fn proposed_queries(&self) -> u64 {
        self.proposed_total
    }

    /// Total number of performed queries recorded over the tracker's
    /// lifetime.
    pub fn performed_queries(&self) -> u64 {
        self.performed_total
    }

    /// Number of proposals currently remembered.
    pub fn proposal_window_len(&self) -> usize {
        self.proposed.len()
    }

    /// Number of performed queries currently remembered.
    pub fn performed_window_len(&self) -> usize {
        self.performed.len()
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

    #[test]
    fn reports_initial_before_observations() {
        let t = ProviderTracker::paper_default();
        assert_eq!(t.adequation(), 0.5);
        assert_eq!(t.satisfaction(), 0.5);
        assert_eq!(t.allocation_satisfaction(), 1.0);
        assert_eq!(
            t.satisfaction_strict(),
            0.5,
            "no proposals yet: the initial value applies"
        );
    }

    #[test]
    fn adequation_follows_proposed_queries() {
        let mut t = ProviderTracker::new(10, 10, 0.5);
        t.record_proposal(Intention::new(1.0), false);
        t.record_proposal(Intention::new(-1.0), false);
        // Mapped values 1.0 and 0.0 → adequation 0.5.
        assert!((t.adequation() - 0.5).abs() < 1e-12);
        // No performed query yet → satisfaction stays at the initial value.
        assert_eq!(t.satisfaction(), 0.5);
        assert_eq!(t.proposed_queries(), 2);
        assert_eq!(t.performed_queries(), 0);
    }

    #[test]
    fn satisfaction_follows_performed_queries_only() {
        let mut t = ProviderTracker::new(10, 10, 0.5);
        // The provider is proposed queries it likes but performs only the
        // ones it dislikes: satisfaction < adequation.
        for _ in 0..5 {
            t.record_proposal(Intention::new(0.9), false);
            t.record_proposal(Intention::new(-0.9), true);
        }
        assert!(t.satisfaction() < t.adequation());
        assert!(t.allocation_satisfaction() < 1.0);
        assert_eq!(t.performed_window_len(), 5);
        assert_eq!(t.proposal_window_len(), 10);
    }

    #[test]
    fn performing_desired_queries_raises_allocation_satisfaction() {
        let mut t = ProviderTracker::new(10, 10, 0.5);
        for _ in 0..5 {
            t.record_proposal(Intention::new(0.9), true);
            t.record_proposal(Intention::new(-0.9), false);
        }
        assert!(t.satisfaction() > t.adequation());
        assert!(t.allocation_satisfaction() > 1.0);
    }

    #[test]
    fn strict_satisfaction_matches_definition_5() {
        let mut t = ProviderTracker::new(3, 10, 0.5);
        t.record_proposal(Intention::new(1.0), true); // mapped 1.0
        t.record_proposal(Intention::new(0.0), false);
        t.record_proposal(Intention::new(-1.0), true); // mapped 0.0
        assert!((t.satisfaction_strict() - 0.5).abs() < 1e-12);
        // Pushing a fourth proposal evicts the first performed entry from
        // the proposed window; the strict value now only sees the third.
        t.record_proposal(Intention::new(0.5), false);
        assert!((t.satisfaction_strict() - 0.0).abs() < 1e-12);
        // The Table-2-style satisfaction still remembers both performed
        // queries.
        assert!((t.satisfaction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mapped_values_are_clamped() {
        let mut t = ProviderTracker::new(4, 4, 0.5);
        t.record_mapped(4.0, true);
        t.record_mapped(-2.0, true);
        assert!((t.satisfaction() - 0.5).abs() < 1e-12);
        assert_eq!(t.adequation(), 0.5);
    }

    /// The tracker as it was before the tagged layout: a 16-byte
    /// `(value, performed)` pair per proposal in a `Vec` ring. The compact
    /// tracker must read exactly like it.
    struct PairTracker {
        proposed_flags: Vec<(f64, bool)>,
        proposed_head: usize,
        proposed_capacity: usize,
        proposed_sum: f64,
        performed: InteractionMemory,
        initial: f64,
        proposed_total: u64,
        performed_total: u64,
    }

    impl PairTracker {
        fn new(k_proposed: usize, k_performed: usize, initial: f64) -> Self {
            PairTracker {
                proposed_flags: Vec::new(),
                proposed_head: 0,
                proposed_capacity: k_proposed,
                proposed_sum: 0.0,
                performed: InteractionMemory::new(k_performed),
                initial,
                proposed_total: 0,
                performed_total: 0,
            }
        }

        fn record_mapped(&mut self, mapped: f64, performed: bool) {
            let mapped = mapped.clamp(0.0, 1.0);
            if self.proposed_flags.len() == self.proposed_capacity {
                let slot = &mut self.proposed_flags[self.proposed_head];
                self.proposed_sum -= slot.0;
                *slot = (mapped, performed);
                self.proposed_head += 1;
                if self.proposed_head == self.proposed_capacity {
                    self.proposed_head = 0;
                }
            } else {
                self.proposed_flags.push((mapped, performed));
            }
            self.proposed_sum += mapped;
            self.proposed_total += 1;
            if performed {
                self.performed.push(mapped);
                self.performed_total += 1;
            }
        }

        fn adequation(&self) -> f64 {
            if self.proposed_flags.is_empty() {
                self.initial
            } else {
                self.proposed_sum / self.proposed_flags.len() as f64
            }
        }

        fn satisfaction_strict(&self) -> f64 {
            if self.proposed_flags.is_empty() {
                return self.initial;
            }
            let (wrapped, oldest) = self.proposed_flags.split_at(self.proposed_head);
            let mut sum = 0.0;
            let mut count = 0usize;
            for &(v, performed) in oldest.iter().chain(wrapped) {
                if performed {
                    sum += v;
                    count += 1;
                }
            }
            if count == 0 {
                0.0
            } else {
                sum / count as f64
            }
        }
    }

    fn assert_reads_alike(t: &ProviderTracker, pair: &PairTracker) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.adequation().to_bits(), pair.adequation().to_bits());
        prop_assert_eq!(
            t.satisfaction().to_bits(),
            pair.performed.mean_or(pair.initial).to_bits()
        );
        prop_assert_eq!(
            t.satisfaction_strict().to_bits(),
            pair.satisfaction_strict().to_bits()
        );
        prop_assert_eq!(t.proposed_queries(), pair.proposed_total);
        prop_assert_eq!(t.performed_queries(), pair.performed_total);
        prop_assert_eq!(t.proposal_window_len(), pair.proposed_flags.len());
        prop_assert_eq!(t.performed_window_len(), pair.performed.len());
        Ok(())
    }

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        let mut t = ProviderTracker::new(4, 4, 0.5);
        t.record_mapped(-0.0, false);
        assert_eq!(
            t.proposed.iter().next().unwrap().to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(t.satisfaction_strict().to_bits(), 0.0f64.to_bits());
        assert_eq!(t.adequation().to_bits(), 0.0f64.to_bits());
        assert_eq!(t.performed_window_len(), 0);
        t.record_mapped(1.0, true);
        // Misread as performed, the -0.0 would pull this down to 0.5.
        assert_eq!(t.satisfaction_strict(), 1.0);
        assert_eq!(t.adequation(), 0.5);
    }

    #[test]
    fn nan_poisons_its_sums_but_not_the_performed_flag() {
        let mut t = ProviderTracker::new(2, 2, 0.5);
        t.record_mapped(1.0, true);
        // A NaN with its sign bit set, recorded as not performed, must
        // not read as a performed entry.
        t.record_mapped(-f64::NAN, false);
        assert_eq!(t.satisfaction_strict(), 1.0);
        assert_eq!(t.satisfaction(), 1.0);
        assert!(t.adequation().is_nan());
        assert_eq!((t.proposed_queries(), t.performed_queries()), (2, 1));
        // A performed NaN enters both windows.
        t.record_mapped(f64::NAN, true);
        assert!(t.satisfaction_strict().is_nan());
        assert!(t.satisfaction().is_nan());
        assert_eq!((t.proposed_queries(), t.performed_queries()), (3, 2));
        // The running adequation sum never recovers from a NaN, exactly as
        // with the untagged layout.
        t.record_mapped(0.5, false);
        t.record_mapped(0.5, false);
        assert!(t.adequation().is_nan());
        assert_eq!(t.satisfaction_strict(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_tagged_window_reads_bit_for_bit_like_pairs(
            k_proposed in 1usize..=64,
            k_performed in 1usize..=64,
            entries in proptest::collection::vec((-0.25f64..=1.25, proptest::bool::ANY, 0u8..4), 0..400),
        ) {
            let mut t = ProviderTracker::new(k_proposed, k_performed, 0.5);
            let mut pair = PairTracker::new(k_proposed, k_performed, 0.5);
            assert_reads_alike(&t, &pair)?;
            for &(v, performed, shape) in &entries {
                // Mix exact window edges (0 and 1) and `-0.0` into the
                // random values, which also reach outside `[0, 1]`.
                let v = match shape {
                    0 => 0.0,
                    1 => 1.0,
                    2 => -0.0,
                    _ => v,
                };
                t.record_mapped(v, performed);
                pair.record_mapped(v, performed);
                assert_reads_alike(&t, &pair)?;
            }
        }

        #[test]
        fn prop_outputs_in_unit_interval(
            entries in proptest::collection::vec((-1.0f64..=1.0, proptest::bool::ANY), 0..200),
        ) {
            let mut t = ProviderTracker::new(16, 16, 0.5);
            for (v, performed) in &entries {
                t.record_proposal(Intention::new(*v), *performed);
            }
            prop_assert!((0.0..=1.0).contains(&t.adequation()));
            prop_assert!((0.0..=1.0).contains(&t.satisfaction()));
            prop_assert!((0.0..=1.0).contains(&t.satisfaction_strict()));
            prop_assert!(t.allocation_satisfaction() >= 0.0);
        }

        #[test]
        fn prop_counters_are_consistent(
            entries in proptest::collection::vec((-1.0f64..=1.0, proptest::bool::ANY), 0..200),
        ) {
            let mut t = ProviderTracker::new(8, 8, 0.5);
            for (v, performed) in &entries {
                t.record_proposal(Intention::new(*v), *performed);
            }
            let performed_count = entries.iter().filter(|(_, p)| *p).count() as u64;
            prop_assert_eq!(t.proposed_queries(), entries.len() as u64);
            prop_assert_eq!(t.performed_queries(), performed_count);
            prop_assert!(t.performed_window_len() <= 8);
            prop_assert!(t.proposal_window_len() <= 8);
        }
    }
}
