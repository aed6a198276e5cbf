//! The provider's private, preference-based satisfaction history.

use sqlb_satisfaction::WindowRing;
use sqlb_types::Intention;

/// The performed flag of a proposal entry (the top bit of its code).
const PERFORMED: u16 = 1 << 15;

/// A provider's preference-based characterization, stored as class codes.
///
/// The value the private view records for a proposal is the provider's
/// preference for the query's class, and the preference table is fixed at
/// construction. So an entry only needs the class: each proposal stores a
/// `u16` class code with the performed flag in its top bit (2 bytes), and
/// each performed query stores its class code again (2 bytes). The mapped
/// value `(prf + 1) / 2` is recomputed from the preference table when an
/// entry is evicted or read. The running sums add and subtract those
/// values in the same order as a [`sqlb_satisfaction::ProviderTracker`]
/// fed `Intention::new(preference)`, so every reading is bit-identical to
/// that tracker's.
///
/// A class outside the preference table is stored as the code one past
/// the table, which reads as preference 0 (the agent's neutral reading of
/// unknown classes). The table may therefore hold at most
/// [`PreferenceHistory::MAX_CLASSES`] classes.
#[derive(Debug, Clone)]
pub(crate) struct PreferenceHistory {
    /// Class codes of the last proposals, `PERFORMED` set when performed.
    proposed: WindowRing<u16>,
    /// Running sum of the mapped values of `proposed`.
    proposed_sum: f64,
    /// Class codes of the last performed queries (Table 2's `proSatSize`
    /// window).
    performed: WindowRing<u16>,
    /// Running sum of the mapped values of `performed`.
    performed_sum: f64,
}

impl PreferenceHistory {
    /// The largest preference table a history can address: every class
    /// code, including "one past the table", must fit below the flag bit.
    pub(crate) const MAX_CLASSES: usize = PERFORMED as usize - 1;

    /// Creates an empty history with a `k_proposed`-query proposal window
    /// and a `k_performed`-query performed window. Allocates nothing.
    pub(crate) fn new(k_proposed: usize, k_performed: usize) -> Self {
        PreferenceHistory {
            proposed: WindowRing::new(k_proposed),
            proposed_sum: 0.0,
            performed: WindowRing::new(k_performed),
            performed_sum: 0.0,
        }
    }

    /// Records a proposal of a query of class index `class` to a provider
    /// with the given preference table, and whether it was performed.
    pub(crate) fn record(&mut self, class: usize, performed: bool, preferences: &[f64]) {
        debug_assert!(preferences.len() <= Self::MAX_CLASSES);
        let code = class.min(preferences.len()) as u16;
        let value = mapped(preferences, code);
        let entry = if performed { code | PERFORMED } else { code };
        if let Some(evicted) = self.proposed.push(entry) {
            self.proposed_sum -= mapped(preferences, evicted & !PERFORMED);
        }
        self.proposed_sum += value;
        if performed {
            if let Some(evicted) = self.performed.push(code) {
                self.performed_sum -= mapped(preferences, evicted);
            }
            self.performed_sum += value;
        }
    }

    /// Adequation over the proposal window, `initial` while it is empty.
    pub(crate) fn adequation(&self, initial: f64) -> f64 {
        if self.proposed.is_empty() {
            initial
        } else {
            self.proposed_sum / self.proposed.len() as f64
        }
    }

    /// Satisfaction over the performed window (Table 2 reading), `initial`
    /// while it is empty.
    pub(crate) fn satisfaction(&self, initial: f64) -> f64 {
        if self.performed.is_empty() {
            initial
        } else {
            self.performed_sum / self.performed.len() as f64
        }
    }

    /// Satisfaction over the performed subset of the proposal window
    /// (strict Definition 5): 0 when that subset is empty, `initial` while
    /// nothing was proposed.
    pub(crate) fn satisfaction_strict(&self, preferences: &[f64], initial: f64) -> f64 {
        if self.proposed.is_empty() {
            return initial;
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for entry in self.proposed.iter() {
            if entry & PERFORMED != 0 {
                sum += mapped(preferences, entry & !PERFORMED);
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

/// The `[0, 1]` value a class code stands for: the preference mapped by
/// `(x + 1) / 2`, exactly as `ProviderTracker::record_proposal` maps it.
#[inline]
fn mapped(preferences: &[f64], code: u16) -> f64 {
    let preference = preferences.get(usize::from(code)).copied().unwrap_or(0.0);
    Intention::new(preference).to_unit().value()
}
