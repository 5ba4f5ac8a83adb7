//! A dense table keyed by never-reused `u32` ids.
//!
//! The system hands out client and stream ids from a counter, so an id
//! is also a good index: [`IdTable`] keeps slot `id` of a `Vec`, and a
//! removed id leaves a hole that is never filled again. Lookups are one
//! bounds-checked index, and every iteration visits the live ids in
//! ascending order — the same order a `BTreeMap<u32, T>` gives, which
//! the simulation's determinism depends on wherever a walk's order
//! reaches a result.

use std::ops::Index;

/// Values keyed by dense `u32` ids, iterated in ascending id order.
///
/// The method names follow `BTreeMap<u32, T>`, so a call site reads
/// the same over either; iterators yield ids by value.
#[derive(Clone, Debug)]
pub struct IdTable<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable::new()
    }
}

impl<T> IdTable<T> {
    /// An empty table.
    pub fn new() -> IdTable<T> {
        IdTable {
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live entry.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Stores `value` under `id`, growing the table (with holes) as
    /// needed. Returns the value the id held before, if any.
    pub fn insert(&mut self, id: u32, value: T) -> Option<T> {
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Takes the value out of `id`, leaving a hole.
    pub fn remove(&mut self, id: &u32) -> Option<T> {
        let old = self.slots.get_mut(*id as usize)?.take();
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// The value under `id`; `None` for a hole or an id past the end.
    pub fn get(&self, id: &u32) -> Option<&T> {
        self.slots.get(*id as usize)?.as_ref()
    }

    /// Mutable access to the value under `id`.
    pub fn get_mut(&mut self, id: &u32) -> Option<&mut T> {
        self.slots.get_mut(*id as usize)?.as_mut()
    }

    /// Whether `id` holds a value.
    pub fn contains_key(&self, id: &u32) -> bool {
        self.get(id).is_some()
    }

    /// The lowest live id.
    pub fn first_key(&self) -> Option<u32> {
        self.next_slot(0)
    }

    /// The lowest live id above `id`: the next step of an ascending
    /// walk that may insert into or remove from the table between
    /// steps.
    pub fn next_key(&self, id: u32) -> Option<u32> {
        self.next_slot(id as usize + 1)
    }

    fn next_slot(&self, from: usize) -> Option<u32> {
        let skip = self.slots.get(from..)?.iter().position(Option::is_some)?;
        Some((from + skip) as u32)
    }

    /// Live `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> + Clone + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u32, v)))
    }

    /// Live `(id, value)` pairs in ascending id order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (i as u32, v)))
    }

    /// Live ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Live values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> + Clone + '_ {
        self.slots.iter().flatten()
    }
}

impl<T> Index<&u32> for IdTable<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if `id` holds no value.
    fn index(&self, id: &u32) -> &T {
        self.get(id)
            .unwrap_or_else(|| panic!("no entry for id {id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_remove_track_the_live_count() {
        let mut t = IdTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(0, "a"), None);
        assert_eq!(t.insert(3, "d"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.insert(3, "D"), Some("d"), "overwrite keeps the count");
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(&0), Some("a"));
        assert_eq!(t.remove(&0), None, "a hole stays a hole");
        assert_eq!(t.remove(&99), None, "past the end");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn get_on_a_hole_or_past_the_end_is_none() {
        let mut t = IdTable::new();
        t.insert(2, 20);
        assert_eq!(t.get(&0), None);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.get(&2), Some(&20));
        assert_eq!(t.get(&3), None);
        assert_eq!(t.get(&u32::MAX), None);
        assert!(t.get_mut(&1).is_none());
        *t.get_mut(&2).unwrap() += 1;
        assert_eq!(t[&2], 21);
        assert!(t.contains_key(&2) && !t.contains_key(&0));
    }

    #[test]
    #[should_panic(expected = "no entry for id 1")]
    fn indexing_a_hole_panics() {
        let mut t = IdTable::new();
        t.insert(0, ());
        t.insert(2, ());
        let _ = &t[&1];
    }

    #[test]
    fn iteration_is_ascending_across_holes() {
        let mut t = IdTable::new();
        for id in [7, 1, 4, 0, 9] {
            t.insert(id, id * 10);
        }
        t.remove(&4);
        t.remove(&0);
        assert_eq!(t.keys().collect::<Vec<_>>(), [1, 7, 9]);
        assert_eq!(t.values().copied().collect::<Vec<_>>(), [10, 70, 90]);
        assert_eq!(t.iter().collect::<Vec<_>>(), [(1, &10), (7, &70), (9, &90)]);
        for (id, v) in t.iter_mut() {
            *v += id;
        }
        assert_eq!(t.values().copied().collect::<Vec<_>>(), [11, 77, 99]);
    }

    #[test]
    fn next_key_walks_live_slots_through_removals() {
        let mut t = IdTable::new();
        assert_eq!(t.first_key(), None);
        for id in [2, 3, 5, 8] {
            t.insert(id, ());
        }
        assert_eq!(t.first_key(), Some(2));
        assert_eq!(t.next_key(0), Some(2));
        assert_eq!(t.next_key(3), Some(5));
        assert_eq!(t.next_key(8), None);
        assert_eq!(t.next_key(u32::MAX - 1), None);
        // A walk that removes the entry it stands on still finds the
        // next one, like a `range(Excluded(id)..)` step.
        let mut seen = Vec::new();
        let mut next = t.first_key();
        while let Some(id) = next {
            seen.push(id);
            if id == 3 {
                t.remove(&3);
                t.remove(&5);
            }
            next = t.next_key(id);
        }
        assert_eq!(seen, [2, 3, 8]);
        assert_eq!(t.first_key(), Some(2));
    }
}
