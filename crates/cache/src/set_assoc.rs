//! A set-associative cache with per-set LRU replacement and MESI-lite line
//! states.

use crate::CacheGeometry;

/// The MESI-lite coherence state of a cached line.  `Invalid` is represented
/// by absence from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// The line is dirty and this cache is the only holder.
    Modified,
    /// The line is clean and this cache is the only holder.
    Exclusive,
    /// The line is clean and may be held by other caches.
    Shared,
}

/// One set-associative cache level: `sets × ways` lines, true-LRU within each
/// set, one [`MesiState`] per line.
///
/// The cache stores line *indices* (byte address divided by the line size);
/// the mapping from addresses to lines lives in
/// [`crate::CacheConfig::line_of`].  The lines live in one flat array of
/// `sets × ways` slots: set `s` owns the `ways` slots from `s × ways`, of
/// which the first `fill[s]` are resident, least-recently-used first.  A hit
/// rotates the line to the end of its set's resident slice.  Every operation
/// depends only on the access sequence, so two identical access sequences
/// leave two caches in identical states — the engine-level determinism
/// guarantee depends on this.
///
/// # Examples
///
/// ```
/// use misp_cache::{CacheGeometry, MesiState, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheGeometry::new(1, 2));
/// assert!(cache.lookup(7).is_none());
/// cache.insert(7, MesiState::Exclusive);
/// assert_eq!(cache.lookup(7), Some(MesiState::Exclusive));
/// cache.insert(9, MesiState::Exclusive);
/// // A third line in the 2-way set evicts the least-recently-used one.
/// assert_eq!(cache.insert(11, MesiState::Exclusive), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// `sets × ways` line slots; only each set's first `fill` are resident.
    slots: Vec<(u64, MesiState)>,
    /// Resident lines per set.
    fill: Vec<u32>,
}

/// Two caches are equal when they hold the same lines in the same states and
/// LRU order; slots past a set's fill are scratch and never compared.
impl PartialEq for SetAssocCache {
    fn eq(&self, other: &Self) -> bool {
        self.geometry == other.geometry && self.lines().eq(other.lines())
    }
}

impl Eq for SetAssocCache {}

impl SetAssocCache {
    /// Creates an empty cache of the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            slots: vec![(0, MesiState::Shared); geometry.lines() as usize],
            fill: vec![0; geometry.sets as usize],
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The resident lines of `set`, least-recently-used first.
    fn set_lines(&self, set: usize) -> &[(u64, MesiState)] {
        let base = set * self.geometry.ways as usize;
        &self.slots[base..base + self.fill[set] as usize]
    }

    fn set_lines_mut(&mut self, set: usize) -> &mut [(u64, MesiState)] {
        let base = set * self.geometry.ways as usize;
        &mut self.slots[base..base + self.fill[set] as usize]
    }

    /// [`SetAssocCache::lookup`] with `line`'s set already computed.
    pub(crate) fn lookup_at(&mut self, set: usize, line: u64) -> Option<MesiState> {
        let entries = self.set_lines_mut(set);
        let pos = entries.iter().position(|&(l, _)| l == line)?;
        let state = entries[pos].1;
        entries[pos..].rotate_left(1);
        Some(state)
    }

    /// [`SetAssocCache::peek`] with `line`'s set already computed.
    pub(crate) fn peek_at(&self, set: usize, line: u64) -> Option<MesiState> {
        self.set_lines(set)
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, s)| s)
    }

    /// [`SetAssocCache::set_state`] with `line`'s set already computed.
    pub(crate) fn set_state_at(&mut self, set: usize, line: u64, state: MesiState) -> bool {
        match self.set_lines_mut(set).iter_mut().find(|(l, _)| *l == line) {
            Some(entry) => {
                entry.1 = state;
                true
            }
            None => false,
        }
    }

    /// [`SetAssocCache::insert`] with `line`'s set already computed.
    pub(crate) fn insert_at(&mut self, set: usize, line: u64, state: MesiState) -> Option<u64> {
        let ways = self.geometry.ways as usize;
        let fill = self.fill[set] as usize;
        let base = set * ways;
        let entries = &mut self.slots[base..base + fill];
        if let Some(pos) = entries.iter().position(|&(l, _)| l == line) {
            entries[pos..].rotate_left(1);
            entries[fill - 1] = (line, state);
            return None;
        }
        if fill == ways {
            let evicted = entries[0].0;
            entries.rotate_left(1);
            entries[fill - 1] = (line, state);
            return Some(evicted);
        }
        self.slots[base + fill] = (line, state);
        self.fill[set] += 1;
        None
    }

    /// [`SetAssocCache::invalidate`] with `line`'s set already computed.
    pub(crate) fn invalidate_at(&mut self, set: usize, line: u64) -> Option<MesiState> {
        let entries = self.set_lines_mut(set);
        let pos = entries.iter().position(|&(l, _)| l == line)?;
        let state = entries[pos].1;
        entries[pos..].rotate_left(1);
        self.fill[set] -= 1;
        Some(state)
    }

    /// Looks `line` up, promoting it to most-recently-used on a hit.
    pub fn lookup(&mut self, line: u64) -> Option<MesiState> {
        self.lookup_at(self.geometry.set_of(line), line)
    }

    /// Returns the state of `line` without touching LRU order.
    #[must_use]
    pub fn peek(&self, line: u64) -> Option<MesiState> {
        self.peek_at(self.geometry.set_of(line), line)
    }

    /// Sets the coherence state of a resident line without touching LRU
    /// order.  Returns `false` if the line is not resident.
    pub fn set_state(&mut self, line: u64, state: MesiState) -> bool {
        self.set_state_at(self.geometry.set_of(line), line, state)
    }

    /// Inserts `line` in `state` as most-recently-used, evicting and
    /// returning the set's LRU line if the set is full.  Re-inserting a
    /// resident line updates its state and promotes it.
    pub fn insert(&mut self, line: u64, state: MesiState) -> Option<u64> {
        self.insert_at(self.geometry.set_of(line), line, state)
    }

    /// Removes `line`, returning its state if it was resident.
    pub fn invalidate(&mut self, line: u64) -> Option<MesiState> {
        self.invalidate_at(self.geometry.set_of(line), line)
    }

    /// Drops every line, returning how many were resident.
    pub fn clear(&mut self) -> usize {
        let dropped = self.len();
        self.fill.fill(0);
        dropped
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fill.iter().map(|&f| f as usize).sum()
    }

    /// Returns `true` when no line is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fill.iter().all(|&f| f == 0)
    }

    /// Iterates over every resident `(line, state)` pair, set by set, LRU
    /// first within each set.
    pub fn lines(&self) -> impl Iterator<Item = (u64, MesiState)> + '_ {
        (0..self.fill.len()).flat_map(|set| self.set_lines(set).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: u32, ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry::new(sets, ways))
    }

    #[test]
    fn lru_within_a_set() {
        let mut c = cache(1, 2);
        c.insert(1, MesiState::Exclusive);
        c.insert(2, MesiState::Exclusive);
        assert_eq!(c.lookup(1), Some(MesiState::Exclusive)); // 2 is now LRU
        assert_eq!(c.insert(3, MesiState::Exclusive), Some(2));
        assert!(c.peek(1).is_some());
        assert!(c.peek(2).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = cache(2, 1);
        c.insert(0, MesiState::Exclusive); // set 0
        c.insert(1, MesiState::Exclusive); // set 1
        assert_eq!(c.len(), 2);
        // A second even line evicts only from set 0.
        assert_eq!(c.insert(2, MesiState::Exclusive), Some(0));
        assert_eq!(c.peek(1), Some(MesiState::Exclusive));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = cache(1, 2);
        c.insert(1, MesiState::Shared);
        c.insert(2, MesiState::Shared);
        assert_eq!(c.insert(1, MesiState::Modified), None);
        assert_eq!(c.peek(1), Some(MesiState::Modified));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = cache(4, 2);
        c.insert(9, MesiState::Exclusive);
        assert!(c.set_state(9, MesiState::Shared));
        assert!(!c.set_state(10, MesiState::Shared));
        assert_eq!(c.invalidate(9), Some(MesiState::Shared));
        assert_eq!(c.invalidate(9), None);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_reports_dropped_lines() {
        let mut c = cache(2, 2);
        for line in 0..4 {
            c.insert(line, MesiState::Exclusive);
        }
        assert_eq!(c.clear(), 4);
        assert!(c.is_empty());
    }

    #[test]
    fn equality_ignores_slots_past_the_fill() {
        let mut a = cache(1, 2);
        a.insert(1, MesiState::Exclusive);
        a.insert(2, MesiState::Exclusive);
        a.invalidate(2); // leaves line 2 in a scratch slot
        let mut b = cache(1, 2);
        b.insert(1, MesiState::Exclusive);
        assert_eq!(a, b);
        b.insert(3, MesiState::Exclusive);
        assert_ne!(a, b);
    }

    #[test]
    fn lines_iterates_everything() {
        let mut c = cache(2, 2);
        c.insert(0, MesiState::Exclusive);
        c.insert(1, MesiState::Modified);
        let collected: Vec<(u64, MesiState)> = c.lines().collect();
        assert_eq!(collected.len(), 2);
        assert!(collected.contains(&(1, MesiState::Modified)));
    }
}
