//! Per-sequencer translation look-aside buffers.

use misp_types::{FxHashMap, PageId};
use serde::{Deserialize, Serialize};

/// Hit/miss/flush counters for one TLB.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed (serviced by the hardware page walker).
    pub misses: u64,
    /// Number of full flushes (CR3 writes).
    pub flushes: u64,
}

/// A per-sequencer TLB with true-LRU replacement.
///
/// The paper notes (Section 2.3) that in modern IA-32 implementations a write
/// to CR3 purges the sequencer's TLB, and that TLB misses are handled
/// independently by each sequencer's hardware page walker without OS
/// involvement — so a TLB miss is *not* a serializing event.  The TLB exists
/// in the model so the memory system can charge the page-walk latency and so
/// CR3 flush behaviour is observable in tests.
///
/// # Examples
///
/// ```
/// use misp_mem::Tlb;
/// use misp_types::PageId;
///
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.lookup_insert(PageId::new(1))); // miss
/// assert!(tlb.lookup_insert(PageId::new(1)));  // hit
/// assert!(!tlb.lookup_insert(PageId::new(2))); // miss
/// assert!(!tlb.lookup_insert(PageId::new(3))); // miss, evicts page 1 (LRU)
/// assert!(!tlb.lookup_insert(PageId::new(1))); // miss again
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tlb {
    capacity: usize,
    /// Page → slab slot of its list node.
    map: FxHashMap<PageId, u32>,
    /// Slab of doubly-linked LRU list nodes: `head` is the LRU entry, `tail`
    /// the MRU one.  The linked list makes the promote-to-MRU of every
    /// lookup O(1) — this sits on the engine's per-memory-access hot path,
    /// where an ordered deque would shift half the TLB per hit.
    nodes: Vec<Node>,
    /// Recycled slab slots.
    free: Vec<u32>,
    head: u32,
    tail: u32,
    stats: TlbStats,
}

/// One LRU list node; `NIL` marks the ends of the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// Null link in the LRU list.
const NIL: u32 = u32::MAX;

impl Tlb {
    /// Creates a TLB holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-entry TLB would make every access
    /// a miss and is never a meaningful configuration.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Tlb {
            capacity,
            map: FxHashMap::default(),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: TlbStats::default(),
        }
    }

    /// Maximum number of entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached translations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when the TLB caches no translations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Detaches node `i` from the LRU list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Attaches node `i` at the MRU (tail) end of the list.
    fn link_tail(&mut self, i: u32) {
        let old_tail = self.tail;
        {
            let node = &mut self.nodes[i as usize];
            node.prev = old_tail;
            node.next = NIL;
        }
        match old_tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Looks up `page`; on a miss, inserts it (evicting the LRU entry if
    /// full).  Returns `true` on a hit.
    pub fn lookup_insert(&mut self, page: PageId) -> bool {
        // MRU fast path: a repeat access to the most recent page — the common
        // case, since consecutive operations usually fall in the same 4 KiB
        // page — is already at the tail, so it hits without the hash probe or
        // a relink.  Statistics and LRU order are identical to the slow path.
        if self.tail != NIL && self.nodes[self.tail as usize].page == page {
            self.stats.hits += 1;
            return true;
        }
        if let Some(&slot) = self.map.get(&page) {
            // Promote to MRU.
            if self.tail != slot {
                self.unlink(slot);
                self.link_tail(slot);
            }
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.map.len() == self.capacity {
            // Evict the LRU entry and reuse its node for the new page.
            let victim = self.head;
            let victim_page = self.nodes[victim as usize].page;
            self.unlink(victim);
            self.map.remove(&victim_page);
            self.nodes[victim as usize].page = page;
            self.map.insert(page, victim);
            self.link_tail(victim);
            return false;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize].page = page;
                slot
            }
            None => {
                let slot = self.nodes.len() as u32;
                self.nodes.push(Node {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                slot
            }
        };
        self.map.insert(page, slot);
        self.link_tail(slot);
        false
    }

    /// Returns `true` if `page` is currently cached, without affecting LRU
    /// order or statistics.
    #[must_use]
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Flushes the entire TLB, as a CR3 write does.
    pub fn flush(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.stats.flushes += 1;
    }

    /// Invalidates a single page translation (e.g. `INVLPG`), if present.
    pub fn invalidate(&mut self, page: PageId) {
        if let Some(slot) = self.map.remove(&page) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    /// Hit/miss/flush statistics accumulated since creation.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.lookup_insert(PageId::new(1)));
        assert!(tlb.lookup_insert(PageId::new(1)));
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.lookup_insert(PageId::new(1));
        tlb.lookup_insert(PageId::new(2));
        // Touch 1 so that 2 becomes LRU.
        tlb.lookup_insert(PageId::new(1));
        tlb.lookup_insert(PageId::new(3)); // evicts 2
        assert!(tlb.contains(PageId::new(1)));
        assert!(!tlb.contains(PageId::new(2)));
        assert!(tlb.contains(PageId::new(3)));
        assert_eq!(tlb.len(), 2);
    }

    #[test]
    fn flush_clears_and_counts() {
        let mut tlb = Tlb::new(4);
        tlb.lookup_insert(PageId::new(1));
        tlb.lookup_insert(PageId::new(2));
        tlb.flush();
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats().flushes, 1);
        assert!(
            !tlb.lookup_insert(PageId::new(1)),
            "post-flush lookup misses"
        );
    }

    #[test]
    fn invalidate_single_entry() {
        let mut tlb = Tlb::new(4);
        tlb.lookup_insert(PageId::new(1));
        tlb.lookup_insert(PageId::new(2));
        tlb.invalidate(PageId::new(1));
        assert!(!tlb.contains(PageId::new(1)));
        assert!(tlb.contains(PageId::new(2)));
        // Invalidating an absent page is a no-op.
        tlb.invalidate(PageId::new(99));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn mru_fast_path_matches_slow_path_accounting() {
        let mut tlb = Tlb::new(2);
        tlb.lookup_insert(PageId::new(1));
        // Repeat accesses take the tail fast path: all hits, LRU unchanged.
        for _ in 0..3 {
            assert!(tlb.lookup_insert(PageId::new(1)));
        }
        assert_eq!(tlb.stats().hits, 3);
        assert_eq!(tlb.stats().misses, 1);
        // Page 1 is still MRU: inserting 2 then 3 evicts 2's predecessor
        // order correctly (1 stays until it becomes LRU).
        tlb.lookup_insert(PageId::new(2));
        tlb.lookup_insert(PageId::new(3)); // evicts 1 (LRU)
        assert!(!tlb.contains(PageId::new(1)));
        assert!(tlb.contains(PageId::new(2)));
        assert!(tlb.contains(PageId::new(3)));
    }

    #[test]
    fn capacity_is_respected() {
        let mut tlb = Tlb::new(3);
        for i in 0..10 {
            tlb.lookup_insert(PageId::new(i));
        }
        assert_eq!(tlb.len(), 3);
        assert_eq!(tlb.capacity(), 3);
        // The three most recent pages remain.
        assert!(tlb.contains(PageId::new(7)));
        assert!(tlb.contains(PageId::new(8)));
        assert!(tlb.contains(PageId::new(9)));
    }
}
