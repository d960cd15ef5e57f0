//! A generational slab: stable handles into a free-list arena.
//!
//! The fabric's steady state does not allocate (measured by
//! `tests/steady_state_allocs.rs`) — packets, flits and bookkeeping
//! entries churn millions of times per run. A [`Slab`] holds
//! values in a flat `Vec`, recycles vacated slots through an internal free
//! list, and brands every handle with the slot's *generation* so a stale
//! handle (kept across a remove + reinsert) is detected instead of silently
//! aliasing the new occupant.
//!
//! All accessors are total: a dangling or foreign key yields `None`, never
//! a panic — slabs sit on the per-cycle fabric path.

/// A generational handle into a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabKey {
    index: u32,
    generation: u32,
}

impl SlabKey {
    /// The raw slot index (diagnostics only — not unique over time).
    pub fn index(self) -> u32 {
        self.index
    }
}

#[derive(Debug)]
enum Entry<T> {
    Vacant { generation: u32 },
    Occupied { generation: u32, value: T },
}

/// A free-list arena with generation-checked handles. See the module
/// docs for the full contract.
///
/// # Examples
///
/// ```
/// use nifdy_sim::Slab;
///
/// let mut slab: Slab<&str> = Slab::with_capacity(4);
/// let k = slab.insert("worm");
/// assert_eq!(slab.get(k), Some(&"worm"));
/// assert_eq!(slab.remove(k), Some("worm"));
/// assert_eq!(slab.get(k), None, "stale key after removal");
/// let k2 = slab.insert("next");
/// assert_ne!(k, k2, "recycled slot carries a new generation");
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Slab<T> {
    /// An empty slab with no preallocated slots.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// An empty slab with `cap` slots preallocated, so the first `cap`
    /// inserts (net of removals) never allocate.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no values are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts `value`, recycling a vacant slot when one exists.
    pub fn insert(&mut self, value: T) -> SlabKey {
        if let Some(index) = self.free.pop() {
            let Some(entry) = self.entries.get_mut(index as usize) else {
                // Free list corrupt (impossible by construction); fall
                // through to a fresh slot rather than panic.
                return self.insert_fresh(value);
            };
            let generation = match entry {
                Entry::Vacant { generation } => generation.wrapping_add(1),
                // Occupied slot on the free list: skip it defensively.
                Entry::Occupied { .. } => return self.insert_fresh(value),
            };
            *entry = Entry::Occupied { generation, value };
            self.live += 1;
            return SlabKey { index, generation };
        }
        self.insert_fresh(value)
    }

    fn insert_fresh(&mut self, value: T) -> SlabKey {
        let index = self.entries.len() as u32;
        self.entries.push(Entry::Occupied {
            generation: 0,
            value,
        });
        self.live += 1;
        SlabKey {
            index,
            generation: 0,
        }
    }

    /// The value behind `key`, if it is still live.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.entries.get(key.index as usize) {
            Some(Entry::Occupied { generation, value }) if *generation == key.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access to the value behind `key`, if it is still live.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.entries.get_mut(key.index as usize) {
            Some(Entry::Occupied { generation, value }) if *generation == key.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Removes and returns the value behind `key`; `None` for stale keys.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let entry = self.entries.get_mut(key.index as usize)?;
        match entry {
            Entry::Occupied { generation, .. } if *generation == key.generation => {
                let generation = *generation;
                let old = std::mem::replace(entry, Entry::Vacant { generation });
                // The slot being freed was occupied, so it is not on the
                // free list yet: the push can never outgrow the arena.
                debug_assert!(self.free.len() < self.entries.len());
                self.free.push(key.index);
                self.live -= 1;
                match old {
                    Entry::Occupied { value, .. } => Some(value),
                    Entry::Vacant { .. } => None, // unreachable: matched Occupied
                }
            }
            Entry::Occupied { .. } | Entry::Vacant { .. } => None,
        }
    }

    /// Iterates over live `(key, &value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Entry::Occupied { generation, value } => Some((
                    SlabKey {
                        index: i as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Entry::Vacant { .. } => None,
            })
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert(10u32);
        let b = s.insert(20);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&10));
        assert_eq!(s.get_mut(b).map(|v| std::mem::replace(v, 21)), Some(20));
        assert_eq!(s.get(b), Some(&21));
        assert_eq!(s.remove(a), Some(10));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None);
    }

    #[test]
    fn stale_keys_are_rejected_after_slot_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1u8);
        assert_eq!(s.remove(a), Some(1));
        let b = s.insert(2);
        assert_eq!(b.index(), a.index(), "slot recycled");
        assert_ne!(a, b, "generation advanced");
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn preallocated_slabs_never_grow_in_steady_state() {
        let mut s: Slab<u64> = Slab::with_capacity(8);
        let cap = s.entries.capacity();
        // Churn well past the preallocation with at most 8 live values.
        let mut keys = Vec::new();
        for round in 0..100u64 {
            while keys.len() < 8 {
                keys.push(s.insert(round));
            }
            for k in keys.drain(..4) {
                assert!(s.remove(k).is_some());
            }
        }
        assert_eq!(s.entries.capacity(), cap, "no reallocation under churn");
    }

    #[test]
    fn iter_visits_only_live_entries() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let _b = s.insert("b");
        s.remove(a);
        let seen: Vec<&str> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(seen, vec!["b"]);
    }
}
