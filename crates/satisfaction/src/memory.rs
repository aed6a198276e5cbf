//! Bounded interaction memories.
//!
//! The paper's characteristics are computed "over the k last interactions
//! with the system" (Section 3); `k` "may be different for each participant
//! depending on its storage capacity, or strategy" (footnote 3).
//! [`WindowRing`] is the one ring every window is stored in: the `f64`
//! observations of an [`InteractionMemory`] (a ring plus its running sum),
//! a tagged `f64` per proposal in [`crate::ProviderTracker`], a `u16`
//! class code per proposal in the provider agent's private preference
//! history.

/// A fixed-capacity FIFO memory of `f64` observations with O(1) incremental
/// mean maintenance.
///
/// Pushing beyond the capacity evicts the oldest observation, so the memory
/// always reflects the `k` most recent interactions.
#[derive(Debug, Clone)]
pub struct InteractionMemory {
    values: WindowRing<f64>,
    sum: f64,
}

impl InteractionMemory {
    /// Creates a memory remembering at most `capacity` observations.
    /// Panics if `capacity` is zero.
    ///
    /// The backing ring starts unallocated and grows with the actual
    /// fill: at 10⁶ participants, eagerly reserving every window (500
    /// slots × 8 bytes per provider, Table 2) would cost gigabytes before
    /// a single query flows.
    pub fn new(capacity: usize) -> Self {
        InteractionMemory {
            values: WindowRing::new(capacity),
            sum: 0.0,
        }
    }

    /// Records an observation, evicting the oldest one if the memory is
    /// full. Returns the evicted observation, if any.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        let evicted = self.values.push(value);
        if let Some(old) = evicted {
            self.sum -= old;
        }
        self.sum += value;
        evicted
    }

    /// Number of remembered observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the memory holds no observation yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The configured capacity `k`.
    pub fn capacity(&self) -> usize {
        self.values.capacity
    }

    /// Whether the memory has reached its capacity (the window is "full").
    pub fn is_full(&self) -> bool {
        self.values.len() == self.values.capacity
    }

    /// Mean of the remembered observations, or `None` when empty.
    ///
    /// Reads the running sum, which [`InteractionMemory::push`] updates
    /// incrementally (add the new value, subtract the evicted one) and
    /// never recomputes from scratch: over a long run it can drift from
    /// the exact sum of the window by a few ulps. Recomputing it would
    /// change the digest of every seeded run, so the incremental value is
    /// part of the reproducibility contract.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum / self.values.len() as f64)
        }
    }

    /// Mean of the remembered observations, falling back to `initial` when
    /// the memory is empty. This implements the paper's "initialized with a
    /// satisfaction value of 0.5, which evolves with their last k queries".
    pub fn mean_or(&self, initial: f64) -> f64 {
        self.mean().unwrap_or(initial)
    }

    /// The remembered observations, oldest first.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter()
    }

    /// Removes all observations.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sum = 0.0;
    }

    /// Recomputes the running sum from the stored values. Nothing in the
    /// library calls it (see [`InteractionMemory::mean`] for why); it
    /// exists so tests can compare the incremental sum with the exact one.
    pub fn rebalance(&mut self) {
        self.sum = self.values.iter().sum();
    }
}

/// A fixed-capacity FIFO window of `Copy` entries stored in one `Vec`.
///
/// The vector grows with the fill (an idle provider costs no window
/// memory) and, once it holds `capacity` entries, becomes a ring: `head`
/// is the oldest entry and a push overwrites it in place, returning the
/// evicted entry so the caller can update its running sums. Iteration is
/// oldest first, which is insertion order while filling.
#[derive(Debug, Clone)]
pub struct WindowRing<T> {
    entries: Vec<T>,
    /// Index of the oldest entry once `entries` is at capacity (0 while
    /// still filling).
    head: usize,
    /// Window bound (eviction keys on this, not on the vector's
    /// allocation).
    capacity: usize,
}

impl<T: Copy> WindowRing<T> {
    /// Creates an empty window remembering at most `capacity` entries.
    /// Allocates nothing. Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        WindowRing {
            entries: Vec::new(),
            head: 0,
            capacity,
        }
    }

    /// Appends `entry`, evicting and returning the oldest entry if the
    /// window is full.
    #[inline]
    pub fn push(&mut self, entry: T) -> Option<T> {
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
            return None;
        }
        let evicted = std::mem::replace(&mut self.entries[self.head], entry);
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        Some(evicted)
    }

    /// Number of remembered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window holds no entry yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The remembered entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let (wrapped, oldest) = self.entries.split_at(self.head);
        oldest.iter().chain(wrapped).copied()
    }

    /// Forgets every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        InteractionMemory::new(0);
    }

    #[test]
    fn empty_memory_reports_none() {
        let m = InteractionMemory::new(3);
        assert!(m.is_empty());
        assert_eq!(m.mean(), None);
        assert_eq!(m.mean_or(0.5), 0.5);
        assert_eq!(m.len(), 0);
        assert!(!m.is_full());
    }

    #[test]
    fn mean_over_window() {
        let mut m = InteractionMemory::new(3);
        m.push(1.0);
        m.push(0.0);
        assert!((m.mean().unwrap() - 0.5).abs() < 1e-12);
        m.push(0.5);
        assert!(m.is_full());
        assert!((m.mean().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_keeps_only_last_k() {
        let mut m = InteractionMemory::new(2);
        assert_eq!(m.push(1.0), None);
        assert_eq!(m.push(2.0), None);
        assert_eq!(m.push(3.0), Some(1.0));
        assert_eq!(m.len(), 2);
        assert!((m.mean().unwrap() - 2.5).abs() < 1e-12);
        let vals: Vec<f64> = m.values().collect();
        assert_eq!(vals, vec![2.0, 3.0]);
    }

    #[test]
    fn clear_resets_state() {
        let mut m = InteractionMemory::new(4);
        m.push(1.0);
        m.push(1.0);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.mean(), None);
        m.push(0.25);
        assert!((m.mean().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rebalance_matches_running_sum() {
        let mut m = InteractionMemory::new(8);
        for i in 0..100 {
            m.push(i as f64 * 0.01);
        }
        let before = m.mean().unwrap();
        m.rebalance();
        let after = m.mean().unwrap();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_is_rejected() {
        WindowRing::<u16>::new(0);
    }

    #[test]
    fn ring_allocates_lazily_and_evicts_oldest_first() {
        let mut r = WindowRing::new(3);
        assert!(r.is_empty());
        assert_eq!(r.entries.capacity(), 0, "an empty window owns no heap");
        assert_eq!(r.push(1u16), None);
        assert_eq!(r.push(2), None);
        assert_eq!(r.push(3), None);
        assert_eq!(r.push(4), Some(1));
        assert_eq!(r.push(5), Some(2));
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 4, 5]);

        // Cleared mid-wrap, the ring fills anew from its start.
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.push(6), None);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![6]);
    }

    proptest! {
        #[test]
        fn prop_ring_matches_the_last_k_pushes(
            capacity in 1usize..=64,
            values in proptest::collection::vec(0u16..1000, 0..256),
        ) {
            let mut r = WindowRing::new(capacity);
            for (i, &v) in values.iter().enumerate() {
                let evicted = r.push(v);
                let expected = i.checked_sub(capacity).map(|j| values[j]);
                prop_assert_eq!(evicted, expected);
            }
            let window = &values[values.len().saturating_sub(capacity)..];
            prop_assert_eq!(r.iter().collect::<Vec<_>>(), window.to_vec());
            prop_assert_eq!(r.len(), window.len());
        }

        #[test]
        fn prop_len_never_exceeds_capacity(
            capacity in 1usize..64,
            values in proptest::collection::vec(-1.0f64..1.0, 0..256),
        ) {
            let mut m = InteractionMemory::new(capacity);
            for &v in &values {
                m.push(v);
            }
            prop_assert!(m.len() <= capacity);
            prop_assert_eq!(m.len(), values.len().min(capacity));
        }

        #[test]
        fn prop_mean_matches_naive_window_mean(
            capacity in 1usize..32,
            values in proptest::collection::vec(-1.0f64..1.0, 1..128),
        ) {
            let mut m = InteractionMemory::new(capacity);
            for &v in &values {
                m.push(v);
            }
            let window: Vec<f64> = values[values.len().saturating_sub(capacity)..].to_vec();
            let expected = window.iter().sum::<f64>() / window.len() as f64;
            prop_assert!((m.mean().unwrap() - expected).abs() < 1e-9);
        }

        #[test]
        fn prop_mean_stays_within_value_bounds(
            capacity in 1usize..32,
            values in proptest::collection::vec(0.0f64..1.0, 1..128),
        ) {
            let mut m = InteractionMemory::new(capacity);
            for &v in &values {
                m.push(v);
            }
            let mean = m.mean().unwrap();
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&mean));
        }
    }
}
