//! Incrementally maintained active-participant indices.
//!
//! The simulation engine used to rebuild "the consumers that have not
//! departed" as a fresh `Vec` on **every** query arrival, and to re-count
//! them for every inter-arrival draw — O(C) work per arrival for a set
//! that only ever changes on the (rare) departure path. [`ActiveSet`]
//! maintains that set incrementally: it starts as the full population in
//! ascending id order and shrinks by binary-search removal when a
//! participant departs, so the arrival hot path reads a ready slice.
//!
//! Ordering matters for determinism: the engine draws a random *index*
//! into the active set, so the set must present exactly the same sequence
//! as the filter-and-collect it replaces — ascending id order of the
//! surviving participants, which removal by binary search preserves.

use sqlb_types::StableId;

/// An ordered (ascending id) set of still-active participant identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet<K> {
    ids: Vec<K>,
}

impl<K: StableId + Ord> ActiveSet<K> {
    /// Builds the set from identifiers in ascending order (the order
    /// population generators and [`sqlb_types::ParticipantTable::keys`]
    /// produce).
    pub fn from_sorted(ids: impl IntoIterator<Item = K>) -> Self {
        let ids: Vec<K> = ids.into_iter().collect();
        // The O(n) ordering audit is feature-gated (not just
        // debug-gated): debug-profile tests build 10^5-participant
        // populations, where even a linear sweep per construction is
        // noticeable. `cargo test --features strict-invariants` turns it
        // back on.
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ActiveSet requires strictly ascending ids"
        );
        ActiveSet { ids }
    }

    /// The active identifiers, ascending.
    #[inline]
    pub fn ids(&self) -> &[K] {
        &self.ids
    }

    /// Number of active participants.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no participant is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `id` is active.
    pub fn contains(&self, id: K) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Removes a departing participant. Returns `true` if it was present
    /// (removal is idempotent — departures can only happen once, but the
    /// set does not rely on that).
    pub fn remove(&mut self, id: K) -> bool {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Re-admits a re-joining participant at its ordered position (churn
    /// scenarios bring previously departed providers back). Returns
    /// `true` if it was absent (insertion is idempotent, mirroring
    /// [`ActiveSet::remove`]).
    pub fn insert(&mut self, id: K) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                true
            }
        }
    }
}

impl<K: StableId + Ord> FromIterator<K> for ActiveSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        ActiveSet::from_sorted(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sqlb_types::ConsumerId;

    fn set(n: u32) -> ActiveSet<ConsumerId> {
        (0..n).map(ConsumerId::new).collect()
    }

    #[test]
    fn starts_full_and_shrinks_on_removal() {
        let mut s = set(4);
        assert_eq!(s.len(), 4);
        assert!(s.contains(ConsumerId::new(2)));
        assert!(s.remove(ConsumerId::new(2)));
        assert!(!s.contains(ConsumerId::new(2)));
        assert_eq!(
            s.ids().iter().map(|c| c.raw()).collect::<Vec<_>>(),
            [0, 1, 3]
        );
        // Idempotent.
        assert!(!s.remove(ConsumerId::new(2)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn insert_restores_ordered_position() {
        let mut s = set(4);
        assert!(s.remove(ConsumerId::new(1)));
        assert!(s.remove(ConsumerId::new(3)));
        assert!(s.insert(ConsumerId::new(3)));
        assert!(s.insert(ConsumerId::new(1)));
        // Idempotent: re-inserting an active id is a no-op.
        assert!(!s.insert(ConsumerId::new(1)));
        assert_eq!(
            s.ids().iter().map(|c| c.raw()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn empties_cleanly() {
        let mut s = set(2);
        s.remove(ConsumerId::new(0));
        s.remove(ConsumerId::new(1));
        assert!(s.is_empty());
        assert_eq!(s.ids(), &[]);
    }

    proptest! {
        #[test]
        fn prop_matches_filter_rebuild_after_any_departure_sequence(
            n in 1u32..64,
            departures in proptest::collection::vec(0u32..96, 0..96),
        ) {
            let mut s = set(n);
            let mut departed = std::collections::HashSet::new();
            for d in departures {
                s.remove(ConsumerId::new(d));
                if d < n {
                    departed.insert(d);
                }
                // The incremental set must equal the from-scratch rebuild
                // (ascending id filter) after every single step.
                let rebuilt: Vec<u32> =
                    (0..n).filter(|i| !departed.contains(i)).collect();
                let actual: Vec<u32> = s.ids().iter().map(|c| c.raw()).collect();
                prop_assert_eq!(&actual, &rebuilt);
                prop_assert_eq!(s.len(), rebuilt.len());
            }
        }
    }
}
