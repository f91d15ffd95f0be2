//! Typed arenas: dense, index-keyed storage for the simulator's hot tables.
//!
//! Every identifier in this workspace is already a small dense integer
//! ([`crate::SequencerId`], [`crate::ProcessId`], …), so the natural storage
//! for per-entity state is a `Vec` indexed by the id — not a hash map.  This
//! module packages that discipline:
//!
//! * [`ArenaId`] — the trait an id newtype implements to act as an arena key
//!   (a raw-index round trip).  The [`arena_id!`] macro implements it for any
//!   id with `new(u32)` / `index()`, and all workspace ids implement it here.
//! * [`Arena<I, T>`] — a dense table with one `T` per allocated id, where ids
//!   are handed out by [`Arena::alloc`] in insertion order.  Use it when the
//!   arena itself owns id allocation (kernel process/thread tables).
//! * [`ArenaMap<I, T>`] — a sparse-capable map from id to `T` backed by
//!   `Vec<Option<T>>`.  Use it when ids are allocated elsewhere but remain
//!   small and dense (sync objects keyed by [`crate::LockId`], per-process
//!   runtimes keyed by [`crate::ProcessId`]).  Lookups are a bounds check and
//!   a tag test — no hashing on the step path.
//!
//! # Examples
//!
//! ```
//! use misp_types::{Arena, ArenaMap, LockId};
//!
//! let mut names: Arena<LockId, &str> = Arena::new();
//! let a = names.alloc("mutex");
//! let b = names.alloc("barrier");
//! assert_eq!(names[a], "mutex");
//! assert_eq!(names[b], "barrier");
//!
//! let mut owners: ArenaMap<LockId, u32> = ArenaMap::new();
//! owners.insert(b, 7);
//! assert_eq!(owners.get(b), Some(&7));
//! assert_eq!(owners.get(a), None);
//! ```

use core::fmt;
use core::marker::PhantomData;
use core::ops::{Index, IndexMut};

/// An identifier usable as a typed arena key: a cheap round trip to and from
/// a raw dense index.
pub trait ArenaId: Copy {
    /// Creates the id from a raw arena index.
    fn from_index(index: u32) -> Self;
    /// Returns the raw arena index.
    fn index(self) -> u32;
    /// Returns the raw arena index widened for slice indexing.
    #[inline]
    fn as_index(self) -> usize {
        self.index() as usize
    }
}

/// Implements [`ArenaId`] for an id newtype exposing `new(u32)` and
/// `index() -> u32` (the shape every `id_type!` id in this crate has).
#[macro_export]
macro_rules! arena_id {
    ($($name:ty),+ $(,)?) => {
        $(impl $crate::ArenaId for $name {
            #[inline]
            fn from_index(index: u32) -> Self {
                <$name>::new(index)
            }
            #[inline]
            fn index(self) -> u32 {
                <$name>::index(self)
            }
        })+
    };
}

arena_id!(
    crate::SequencerId,
    crate::MispProcessorId,
    crate::OsThreadId,
    crate::ShredId,
    crate::ProcessId,
    crate::LockId,
);

/// A dense typed arena: one `T` per allocated `I`, ids handed out in
/// insertion order and never reused.
#[derive(Clone, PartialEq, Eq)]
pub struct Arena<I, T> {
    items: Vec<T>,
    _marker: PhantomData<fn(I) -> I>,
}

impl<I: ArenaId, T> Arena<I, T> {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Arena {
            items: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty arena with room for `cap` entries.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            items: Vec::with_capacity(cap),
            _marker: PhantomData,
        }
    }

    /// Stores `value` and returns its freshly-allocated id.
    pub fn alloc(&mut self, value: T) -> I {
        let id = I::from_index(u32::try_from(self.items.len()).expect("arena overflow"));
        self.items.push(value);
        id
    }

    /// Number of entries allocated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The id the next [`Arena::alloc`] call will return.
    #[must_use]
    pub fn next_id(&self) -> I {
        I::from_index(self.items.len() as u32)
    }

    /// Whether `id` names an allocated entry.
    #[must_use]
    pub fn contains(&self, id: I) -> bool {
        id.as_index() < self.items.len()
    }

    /// The entry for `id`, or `None` when out of range.
    #[must_use]
    pub fn get(&self, id: I) -> Option<&T> {
        self.items.get(id.as_index())
    }

    /// Mutable access to the entry for `id`, or `None` when out of range.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.items.get_mut(id.as_index())
    }

    /// Iterates `(id, &entry)` in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, t)| (I::from_index(i as u32), t))
    }

    /// Iterates `(id, &mut entry)` in allocation order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut T)> {
        self.items
            .iter_mut()
            .enumerate()
            .map(|(i, t)| (I::from_index(i as u32), t))
    }

    /// The allocated ids in order.
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        (0..self.items.len() as u32).map(I::from_index)
    }

    /// The underlying dense slice, indexed by raw id.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }
}

impl<I: ArenaId, T> Default for Arena<I, T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<I: ArenaId, T> Index<I> for Arena<I, T> {
    type Output = T;
    #[inline]
    fn index(&self, id: I) -> &T {
        &self.items[id.as_index()]
    }
}

impl<I: ArenaId, T> IndexMut<I> for Arena<I, T> {
    #[inline]
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.items[id.as_index()]
    }
}

impl<I: ArenaId, T: fmt::Debug> fmt::Debug for Arena<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.items.iter().enumerate())
            .finish()
    }
}

/// A map from a dense id to `T`, backed by `Vec<Option<T>>`: supports holes
/// (removal, externally-allocated ids) while keeping lookups hash-free.
#[derive(Clone, PartialEq, Eq)]
pub struct ArenaMap<I, T> {
    slots: Vec<Option<T>>,
    len: usize,
    _marker: PhantomData<fn(I) -> I>,
}

impl<I: ArenaId, T> ArenaMap<I, T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        ArenaMap {
            slots: Vec::new(),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Creates an empty map with room for ids below `cap`.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        ArenaMap {
            slots: Vec::with_capacity(cap),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Number of occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `id`, returning the previous entry if any.
    pub fn insert(&mut self, id: I, value: T) -> Option<T> {
        let i = id.as_index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the entry at `id`.
    pub fn remove(&mut self, id: I) -> Option<T> {
        let old = self.slots.get_mut(id.as_index()).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Whether `id` has an entry.
    #[must_use]
    pub fn contains(&self, id: I) -> bool {
        self.get(id).is_some()
    }

    /// The entry at `id`, if occupied.
    #[inline]
    #[must_use]
    pub fn get(&self, id: I) -> Option<&T> {
        self.slots.get(id.as_index()).and_then(Option::as_ref)
    }

    /// Mutable access to the entry at `id`, if occupied.
    #[inline]
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.slots.get_mut(id.as_index()).and_then(Option::as_mut)
    }

    /// The entry at `id`, inserting `default()` first when vacant.
    pub fn get_or_insert_with(&mut self, id: I, default: impl FnOnce() -> T) -> &mut T {
        let i = id.as_index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            self.slots[i] = Some(default());
            self.len += 1;
        }
        self.slots[i].as_mut().expect("just filled")
    }

    /// Iterates occupied `(id, &entry)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|t| (I::from_index(i as u32), t)))
    }

    /// Iterates occupied `(id, &mut entry)` pairs in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|t| (I::from_index(i as u32), t)))
    }

    /// Iterates occupied ids in order.
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Removes every entry, keeping the backing storage.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }
}

impl<I: ArenaId, T> Default for ArenaMap<I, T> {
    fn default() -> Self {
        ArenaMap::new()
    }
}

impl<I: ArenaId, T: fmt::Debug> fmt::Debug for ArenaMap<I, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                self.slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|t| (i, t))),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockId, ProcessId, SequencerId};

    #[test]
    fn arena_allocates_dense_ids_in_order() {
        let mut arena: Arena<ProcessId, String> = Arena::new();
        assert!(arena.is_empty());
        let a = arena.alloc("init".to_string());
        let b = arena.alloc("shell".to_string());
        assert_eq!(a, ProcessId::new(0));
        assert_eq!(b, ProcessId::new(1));
        assert_eq!(arena.next_id(), ProcessId::new(2));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena[a], "init");
        arena[b].push('!');
        assert_eq!(arena.get(b).map(String::as_str), Some("shell!"));
        assert_eq!(arena.get(ProcessId::new(9)), None);
        assert!(arena.contains(a) && !arena.contains(ProcessId::new(2)));
        let ids: Vec<_> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
        assert_eq!(arena.as_slice().len(), 2);
    }

    #[test]
    fn arena_map_supports_holes_and_reinsert() {
        let mut map: ArenaMap<LockId, u32> = ArenaMap::new();
        assert_eq!(map.insert(LockId::new(3), 30), None);
        assert_eq!(map.insert(LockId::new(1), 10), None);
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(LockId::new(0)), None);
        assert_eq!(map.get(LockId::new(3)), Some(&30));
        assert_eq!(map.insert(LockId::new(3), 31), Some(30));
        assert_eq!(map.len(), 2, "overwrite does not grow");
        assert_eq!(map.remove(LockId::new(3)), Some(31));
        assert_eq!(map.remove(LockId::new(3)), None);
        assert_eq!(map.len(), 1);
        let pairs: Vec<_> = map.iter().map(|(id, &v)| (id.index(), v)).collect();
        assert_eq!(pairs, vec![(1, 10)]);
        *map.get_or_insert_with(LockId::new(5), || 0) += 7;
        assert_eq!(map.get(LockId::new(5)), Some(&7));
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(LockId::new(1)), None);
    }

    #[test]
    fn arena_id_round_trips_workspace_ids() {
        let s = <SequencerId as ArenaId>::from_index(4);
        assert_eq!(s, SequencerId::new(4));
        assert_eq!(ArenaId::index(s), 4);
        assert_eq!(s.as_index(), 4usize);
    }
}
