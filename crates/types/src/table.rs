//! Stable-identifier participant tables.
//!
//! Simulation and mediation state used to live in parallel `Vec`s indexed
//! by a participant's *initial position*, which silently corrupts once
//! autonomous departures shrink the population: positions shift, but
//! identifiers do not. [`ParticipantTable`] replaces that pattern with a
//! map keyed by the participant's stable identifier ([`ConsumerId`],
//! [`ProviderId`], ...). Lookups stay O(1) (a dense slot vector indexed by
//! the raw id), iteration is always in ascending id order (so seeded runs
//! stay deterministic), and removing a participant never invalidates the
//! keys of the others.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

use crate::ids::{ConsumerId, ProviderId, QueryId};

/// A copyable identifier with a stable, dense raw index.
pub trait StableId: Copy + Eq + fmt::Display {
    /// The raw index of the identifier.
    fn slot(self) -> usize;

    /// Rebuilds the identifier from a raw index.
    fn from_slot(slot: usize) -> Self;
}

macro_rules! stable_id_impls {
    ($($t:ty),*) => {$(
        impl StableId for $t {
            #[inline]
            fn slot(self) -> usize {
                self.index()
            }

            #[inline]
            fn from_slot(slot: usize) -> Self {
                Self::new(slot as u32)
            }
        }
    )*};
}

stable_id_impls!(ConsumerId, ProviderId, QueryId);

/// A map from stable participant identifiers to per-participant state.
///
/// Designed for the small, dense id spaces of the simulator (participants
/// are numbered from 0 at generation time): storage is a slot vector, so
/// `get`/`insert`/`remove` are O(1) and iteration is ordered by id.
#[derive(Debug, Clone)]
pub struct ParticipantTable<K: StableId, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K: StableId, V> ParticipantTable<K, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        ParticipantTable {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }

    /// Builds a table from values whose identifiers are their positions
    /// (the layout population generators produce).
    pub fn from_values(values: impl IntoIterator<Item = V>) -> Self {
        let slots: Vec<Option<V>> = values.into_iter().map(Some).collect();
        let len = slots.len();
        ParticipantTable {
            slots,
            len,
            _key: PhantomData,
        }
    }

    /// Builds a table with `n` entries produced by `f(id)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(K) -> V) -> Self {
        ParticipantTable::from_values((0..n).map(|i| f(K::from_slot(i))))
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: K) -> bool {
        self.slots.get(key.slot()).is_some_and(Option::is_some)
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.slot()).and_then(Option::as_ref)
    }

    /// Mutable access to the entry for `key`, if present.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.slot()).and_then(Option::as_mut)
    }

    /// Disjoint mutable access to the entries of `keys`, which must be in
    /// strictly ascending id order (the order candidate lists are kept
    /// in). Yields one `(key, &mut value)` pair per *present* key — absent
    /// keys are skipped — in O(len(keys)), without walking the rest of the
    /// table. The borrows are simultaneous (each yielded reference splits
    /// the remaining slots), which is what lets a caller hand out one
    /// `&mut` participant per task of a batch.
    pub fn iter_mut_of<'a>(
        &'a mut self,
        keys: &'a [K],
    ) -> impl Iterator<Item = (K, &'a mut V)> + 'a {
        debug_assert!(
            keys.windows(2).all(|w| w[0].slot() < w[1].slot()),
            "iter_mut_of requires strictly ascending keys"
        );
        let mut rest: &'a mut [Option<V>] = &mut self.slots;
        let mut consumed = 0usize;
        keys.iter().filter_map(move |&key| {
            // Out-of-order (or duplicate) keys would alias; they are
            // rejected by the debug assertion above and skipped here.
            let offset = key.slot().checked_sub(consumed)?;
            if offset >= rest.len() {
                return None;
            }
            let taken = std::mem::take(&mut rest);
            let (head, tail) = taken.split_at_mut(offset + 1);
            rest = tail;
            consumed = key.slot() + 1;
            head[offset].as_mut().map(|value| (key, value))
        })
    }

    /// Inserts an entry, returning the previous value for `key` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let slot = key.slot();
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let previous = self.slots[slot].replace(value);
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Returns a mutable reference to the entry for `key`, inserting the
    /// result of `default` first if absent. A single slot probe — this
    /// sits on the allocation hot path (one call per candidate per
    /// query), where the contains/insert/get_mut sequence it replaced
    /// cost three.
    pub fn or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let slot = key.slot();
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, || None);
        }
        let entry = &mut self.slots[slot];
        if entry.is_none() {
            *entry = Some(default());
            self.len += 1;
        }
        entry.as_mut().expect("entry just ensured")
    }

    /// Removes the entry for `key`, keeping every other key valid.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let removed = self.slots.get_mut(key.slot()).and_then(Option::take);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// Iterates over `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, value)| value.as_ref().map(|v| (K::from_slot(slot), v)))
    }

    /// Iterates over `(id, value)` pairs with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(slot, value)| value.as_mut().map(|v| (K::from_slot(slot), v)))
    }

    /// Iterates over present identifiers in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates over present values mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        for slot in 0..self.slots.len() {
            let drop_it = match self.slots[slot].as_mut() {
                Some(value) => !keep(K::from_slot(slot), value),
                None => false,
            };
            if drop_it {
                self.slots[slot] = None;
                self.len -= 1;
            }
        }
    }
}

impl<K: StableId, V> Default for ParticipantTable<K, V> {
    fn default() -> Self {
        ParticipantTable::new()
    }
}

impl<K: StableId, V: PartialEq> PartialEq for ParticipantTable<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: StableId, V> Index<K> for ParticipantTable<K, V> {
    type Output = V;

    fn index(&self, key: K) -> &V {
        match self.get(key) {
            Some(value) => value,
            None => panic!("no participant {key} in table"),
        }
    }
}

impl<K: StableId, V> IndexMut<K> for ParticipantTable<K, V> {
    fn index_mut(&mut self, key: K) -> &mut V {
        match self.get_mut(key) {
            Some(value) => value,
            None => panic!("no participant {key} in table"),
        }
    }
}

impl<K: StableId, V> FromIterator<(K, V)> for ParticipantTable<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut table = ParticipantTable::new();
        for (key, value) in iter {
            table.insert(key, value);
        }
        table
    }
}

/// A dense struct-of-arrays column of plain per-participant values,
/// indexed by a stable identifier's slot.
///
/// Where [`ParticipantTable`] stores `Option<V>` per slot (presence is
/// part of the state), a `SlotColumn` stores a bare `T` per slot with a
/// designated `fill` value standing in for "absent": reads past the end
/// or of never-written slots return `fill`, and resetting a slot writes
/// `fill` back. Dropping the `Option` halves the footprint for small `T`
/// and keeps the column a contiguous `&[T]` that batch kernels can stream
/// over — the struct-of-arrays layout the million-participant hot path
/// wants, with the id→slot translation confined to this type.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotColumn<K: StableId, T> {
    values: Vec<T>,
    fill: T,
    _key: PhantomData<K>,
}

impl<K: StableId, T: Copy> SlotColumn<K, T> {
    /// Creates an empty column whose absent slots read as `fill`.
    pub fn new(fill: T) -> Self {
        SlotColumn {
            values: Vec::new(),
            fill,
            _key: PhantomData,
        }
    }

    /// Creates a column of `n` slots, each initialized to `fill`.
    pub fn with_len(n: usize, fill: T) -> Self {
        SlotColumn {
            values: vec![fill; n],
            fill,
            _key: PhantomData,
        }
    }

    /// Creates a column of `n` slots initialized by `f(id)`.
    pub fn from_fn(n: usize, fill: T, mut f: impl FnMut(K) -> T) -> Self {
        SlotColumn {
            values: (0..n).map(|i| f(K::from_slot(i))).collect(),
            fill,
            _key: PhantomData,
        }
    }

    /// Number of materialized slots (reads past this return the fill).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no slot has been materialized.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The fill value standing in for absent slots.
    pub fn fill_value(&self) -> T {
        self.fill
    }

    /// The value for `key` (the fill value when the slot was never
    /// written).
    pub fn get(&self, key: K) -> T {
        self.values.get(key.slot()).copied().unwrap_or(self.fill)
    }

    /// Writes the value for `key`, growing the column with fill values
    /// when the slot lies past the end.
    pub fn set(&mut self, key: K, value: T) {
        *self.slot_mut(key) = value;
    }

    /// Resets `key` to the fill value.
    pub fn reset(&mut self, key: K) {
        let fill = self.fill;
        self.set(key, fill);
    }

    /// Mutable access to the slot for `key`, growing the column as
    /// needed.
    pub fn slot_mut(&mut self, key: K) -> &mut T {
        let slot = key.slot();
        if slot >= self.values.len() {
            self.values.resize(slot + 1, self.fill);
        }
        &mut self.values[slot]
    }

    /// The contiguous backing column, for batch kernels that stream over
    /// slots directly.
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }
}

impl<K: StableId, T: Copy> Index<K> for SlotColumn<K, T> {
    type Output = T;

    fn index(&self, key: K) -> &T {
        self.values.get(key.slot()).unwrap_or(&self.fill)
    }
}

impl<K: StableId, T: Copy> IndexMut<K> for SlotColumn<K, T> {
    fn index_mut(&mut self, key: K) -> &mut T {
        self.slot_mut(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(raw: u32) -> ProviderId {
        ProviderId::new(raw)
    }

    #[test]
    fn keys_survive_removals() {
        let mut table: ParticipantTable<ProviderId, &str> =
            ParticipantTable::from_values(["a", "b", "c", "d"]);
        assert_eq!(table.len(), 4);
        assert_eq!(table.remove(p(1)), Some("b"));
        // The keys of the remaining entries are untouched — this is the
        // property the positional-Vec layout violated.
        assert_eq!(table.get(p(2)), Some(&"c"));
        assert_eq!(table.get(p(3)), Some(&"d"));
        assert_eq!(table.get(p(1)), None);
        assert_eq!(table.len(), 3);
        assert_eq!(table.remove(p(1)), None);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn iter_mut_of_hands_out_disjoint_borrows_for_ascending_keys() {
        let mut table: ParticipantTable<ProviderId, u32> =
            ParticipantTable::from_values([10, 11, 12, 13, 14]);
        table.remove(p(2));

        // Simultaneous &mut to a selection of entries (the absent key is
        // skipped), collected to prove the borrows coexist.
        let keys = [p(0), p(2), p(3)];
        let selected: Vec<(ProviderId, &mut u32)> = table.iter_mut_of(&keys).collect();
        assert_eq!(selected.len(), 2, "the removed key is skipped");
        for (key, value) in selected {
            *value += key.raw();
        }
        assert_eq!(table.get(p(0)), Some(&10));
        assert_eq!(table.get(p(3)), Some(&16));
        assert_eq!(table.get(p(1)), Some(&11), "unselected entries untouched");

        // Keys past the end of the table are skipped, not panicked on.
        assert_eq!(table.iter_mut_of(&[p(99)]).count(), 0);
        // An empty selection is an empty iterator.
        assert_eq!(table.iter_mut_of(&[]).count(), 0);
    }

    #[test]
    fn slot_column_reads_fill_for_absent_slots_and_grows_on_write() {
        let mut column: SlotColumn<ProviderId, f64> = SlotColumn::new(0.5);
        assert!(column.is_empty());
        assert_eq!(column.get(p(7)), 0.5, "absent slots read the fill");
        assert_eq!(column[p(7)], 0.5);

        column.set(p(3), 0.9);
        assert_eq!(column.len(), 4, "grown exactly to the written slot");
        assert_eq!(column.get(p(3)), 0.9);
        assert_eq!(column.get(p(1)), 0.5, "intermediate slots hold the fill");
        assert_eq!(column.get(p(100)), 0.5, "past-the-end still reads fill");

        column[p(3)] += 0.1;
        assert_eq!(column.get(p(3)), 1.0);
        column.reset(p(3));
        assert_eq!(column.get(p(3)), 0.5);
        assert_eq!(column.as_slice(), &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(column.fill_value(), 0.5);
    }

    #[test]
    fn slot_column_constructors_materialize_dense_slots() {
        let column: SlotColumn<ProviderId, u32> = SlotColumn::with_len(3, 0);
        assert_eq!(column.as_slice(), &[0, 0, 0]);

        let column: SlotColumn<ProviderId, u32> =
            SlotColumn::from_fn(4, 0, |id: ProviderId| id.raw() * 2);
        assert_eq!(column.as_slice(), &[0, 2, 4, 6]);
        assert_eq!(column.len(), 4);

        let mut via_index: SlotColumn<ProviderId, u32> = SlotColumn::new(0);
        via_index[p(2)] = 9;
        assert_eq!(via_index.as_slice(), &[0, 0, 9]);
    }

    #[test]
    fn iteration_is_ordered_by_id() {
        let mut table: ParticipantTable<ConsumerId, u32> = ParticipantTable::new();
        table.insert(ConsumerId::new(5), 50);
        table.insert(ConsumerId::new(1), 10);
        table.insert(ConsumerId::new(3), 30);
        let pairs: Vec<(u32, u32)> = table.iter().map(|(k, v)| (k.raw(), *v)).collect();
        assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50)]);
        assert_eq!(
            table.keys().map(ConsumerId::raw).collect::<Vec<_>>(),
            [1, 3, 5]
        );
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut table: ParticipantTable<ProviderId, u32> = ParticipantTable::new();
        assert_eq!(table.insert(p(2), 1), None);
        assert_eq!(table.insert(p(2), 2), Some(1));
        assert_eq!(table.len(), 1);
        assert_eq!(table[p(2)], 2);
        table[p(2)] += 5;
        assert_eq!(table[p(2)], 7);
    }

    #[test]
    fn or_insert_with_is_lazy_and_idempotent() {
        let mut table: ParticipantTable<ConsumerId, Vec<u32>> = ParticipantTable::new();
        table.or_insert_with(ConsumerId::new(0), Vec::new).push(1);
        table
            .or_insert_with(ConsumerId::new(0), || panic!("must not run"))
            .push(2);
        assert_eq!(table[ConsumerId::new(0)], vec![1, 2]);
    }

    #[test]
    fn retain_drops_matching_entries() {
        let mut table: ParticipantTable<ProviderId, u32> =
            ParticipantTable::from_values([0, 1, 2, 3, 4]);
        table.retain(|_, v| v.is_multiple_of(2));
        assert_eq!(table.len(), 3);
        assert_eq!(
            table.keys().map(ProviderId::raw).collect::<Vec<_>>(),
            [0, 2, 4]
        );
    }

    #[test]
    #[should_panic(expected = "no participant p9")]
    fn indexing_a_missing_key_panics_with_the_id() {
        let table: ParticipantTable<ProviderId, u32> = ParticipantTable::from_values([1]);
        let _ = table[p(9)];
    }

    #[test]
    fn equality_compares_contents() {
        let a: ParticipantTable<ProviderId, u32> = ParticipantTable::from_values([1, 2]);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.remove(p(0));
        assert_ne!(a, b);
    }

    #[test]
    fn from_fn_assigns_sequential_ids() {
        let table: ParticipantTable<ConsumerId, u32> =
            ParticipantTable::from_fn(3, |id: ConsumerId| id.raw() * 10);
        assert_eq!(table[ConsumerId::new(2)], 20);
        assert_eq!(table.len(), 3);
    }
}
