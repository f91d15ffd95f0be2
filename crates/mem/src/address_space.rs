//! Per-process address spaces and page residency.

use misp_types::{FxHashMap, PageId};
use serde::{Deserialize, Serialize};

/// Residency state of a virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageState {
    /// The page has never been touched; the next access raises a compulsory
    /// page fault.
    Untouched,
    /// The page is resident in physical memory; accesses proceed without OS
    /// involvement (aside from possible TLB misses).
    Resident,
}

/// Page numbers below this bound live in the dense residency bitmap; higher
/// pages fall back to the sparse map.  64 Ki pages cover 256 MiB of virtual
/// address space at 4 KiB pages — far beyond every modeled working set — at a
/// worst-case bitmap cost of 8 KiB per process.
const DENSE_PAGES: u64 = 1 << 16;

/// A process's virtual address space: the page table plus residency metadata.
///
/// The model is intentionally simple — the paper's evaluation only depends on
/// *when* a page fault occurs (first touch) and *which sequencer* touches the
/// page first, because that determines whether the fault is handled locally on
/// the OMS or via proxy execution from an AMS.
///
/// `touch` sits on the engine's per-access hot path, so residency for page
/// numbers below `DENSE_PAGES` (2¹⁶) is a bitmap (grown on demand) and the lookup
/// is a shift and a mask; only pages above the bound — which no modeled
/// workload produces — pay for a hash probe in the sparse fallback map.
///
/// # Examples
///
/// ```
/// use misp_mem::AddressSpace;
/// use misp_types::{PageId, VirtAddr};
///
/// let mut space = AddressSpace::new();
/// assert!(!space.is_resident(PageId::new(4)));
/// let faulted = space.touch(VirtAddr::new(4 * 4096).page());
/// assert!(faulted, "first touch is a compulsory fault");
/// assert!(!space.touch(PageId::new(4)), "second touch hits");
/// assert_eq!(space.resident_pages(), 1);
/// ```
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct AddressSpace {
    /// Residency bitmap for pages below [`DENSE_PAGES`], one bit per page,
    /// grown a word at a time as higher pages are touched.
    dense: Vec<u64>,
    /// Residency for pages at or above [`DENSE_PAGES`] (never hit by the
    /// modeled workloads; kept for correctness on arbitrary addresses).
    sparse: FxHashMap<PageId, PageState>,
    compulsory_faults: u64,
}

impl PartialEq for AddressSpace {
    fn eq(&self, other: &Self) -> bool {
        // Trailing zero words in the bitmap are representational only (an
        // evicted page leaves its word behind), so compare the meaningful
        // prefix rather than the raw vectors.
        let common = self.dense.len().min(other.dense.len());
        self.compulsory_faults == other.compulsory_faults
            && self.dense[..common] == other.dense[..common]
            && self.dense[common..].iter().all(|w| *w == 0)
            && other.dense[common..].iter().all(|w| *w == 0)
            && self.sparse == other.sparse
    }
}

impl Eq for AddressSpace {}

impl AddressSpace {
    /// Creates an empty address space with no resident pages.
    #[must_use]
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Returns `true` if `page` is resident.
    #[must_use]
    pub fn is_resident(&self, page: PageId) -> bool {
        let n = page.number();
        if n < DENSE_PAGES {
            let (word, bit) = (n / 64, n % 64);
            self.dense
                .get(word as usize)
                .is_some_and(|w| w & (1 << bit) != 0)
        } else {
            matches!(self.sparse.get(&page), Some(PageState::Resident))
        }
    }

    /// Sets the residency bit of a dense page, growing the bitmap to cover
    /// its word.  Returns `true` if the page was already resident.
    fn dense_set(&mut self, n: u64) -> bool {
        let (word, bit) = ((n / 64) as usize, n % 64);
        if word >= self.dense.len() {
            self.dense.resize(word + 1, 0);
        }
        let w = &mut self.dense[word];
        let was = *w & (1 << bit) != 0;
        *w |= 1 << bit;
        was
    }

    /// Touches `page`: returns `true` if the touch raised a compulsory page
    /// fault (i.e. the page was not yet resident), after which the page is
    /// resident.
    pub fn touch(&mut self, page: PageId) -> bool {
        let n = page.number();
        let was_resident = if n < DENSE_PAGES {
            self.dense_set(n)
        } else {
            self.sparse.insert(page, PageState::Resident) == Some(PageState::Resident)
        };
        if !was_resident {
            self.compulsory_faults += 1;
        }
        !was_resident
    }

    /// Pre-faults `page` without counting it as a compulsory fault *event*
    /// observed during parallel execution.  This models the OMS probing each
    /// page in the serial region before starting shreds (the optimization
    /// suggested in Section 5.3); the fault still happens, but on the OMS
    /// during serial execution where it does not serialize any AMS.
    pub fn pretouch(&mut self, page: PageId) {
        let n = page.number();
        if n < DENSE_PAGES {
            self.dense_set(n);
        } else {
            self.sparse.insert(page, PageState::Resident);
        }
    }

    /// Evicts `page` from physical memory (used by failure-injection tests and
    /// by workloads that model working sets larger than memory).
    pub fn evict(&mut self, page: PageId) {
        let n = page.number();
        if n < DENSE_PAGES {
            let (word, bit) = ((n / 64) as usize, n % 64);
            if let Some(w) = self.dense.get_mut(word) {
                *w &= !(1 << bit);
            }
        } else {
            self.sparse.remove(&page);
        }
    }

    /// Number of currently resident pages.
    #[must_use]
    #[allow(
        clippy::disallowed_methods,
        reason = "commutative count; order cannot be observed"
    )]
    pub fn resident_pages(&self) -> usize {
        let dense: u32 = self.dense.iter().map(|w| w.count_ones()).sum();
        dense as usize
            + self
                .sparse
                .values()
                .filter(|s| **s == PageState::Resident)
                .count()
    }

    /// Total number of compulsory faults taken by this address space since
    /// creation (pre-touched pages excluded).
    #[must_use]
    pub fn compulsory_faults(&self) -> u64 {
        self.compulsory_faults
    }

    /// Iterates over the resident pages in arbitrary order.
    #[allow(
        clippy::disallowed_methods,
        reason = "documented arbitrary-order iterator; callers sort or count"
    )]
    pub fn iter_resident(&self) -> impl Iterator<Item = PageId> + '_ {
        self.dense
            .iter()
            .enumerate()
            .flat_map(|(word, &w)| {
                (0..64)
                    .filter(move |bit| w & (1 << bit) != 0)
                    .map(move |bit| PageId::new(word as u64 * 64 + bit))
            })
            .chain(
                self.sparse
                    .iter()
                    .filter(|(_, s)| **s == PageState::Resident)
                    .map(|(p, _)| *p),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_faults_second_does_not() {
        let mut s = AddressSpace::new();
        let p = PageId::new(10);
        assert!(s.touch(p));
        assert!(!s.touch(p));
        assert_eq!(s.compulsory_faults(), 1);
        assert!(s.is_resident(p));
    }

    #[test]
    fn pretouch_makes_resident_without_fault_count() {
        let mut s = AddressSpace::new();
        let p = PageId::new(3);
        s.pretouch(p);
        assert!(s.is_resident(p));
        assert!(!s.touch(p));
        assert_eq!(s.compulsory_faults(), 0);
    }

    #[test]
    fn evict_forces_refault() {
        let mut s = AddressSpace::new();
        let p = PageId::new(7);
        assert!(s.touch(p));
        s.evict(p);
        assert!(!s.is_resident(p));
        assert!(s.touch(p));
        assert_eq!(s.compulsory_faults(), 2);
    }

    #[test]
    fn resident_page_accounting() {
        let mut s = AddressSpace::new();
        for i in 0..5 {
            s.touch(PageId::new(i));
        }
        assert_eq!(s.resident_pages(), 5);
        let mut pages: Vec<u64> = s.iter_resident().map(|p| p.number()).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn distinct_pages_fault_independently() {
        let mut s = AddressSpace::new();
        assert!(s.touch(PageId::new(1)));
        assert!(s.touch(PageId::new(2)));
        assert_eq!(s.compulsory_faults(), 2);
    }

    #[test]
    fn pages_beyond_the_dense_bound_use_the_sparse_fallback() {
        let mut s = AddressSpace::new();
        let far = PageId::new(DENSE_PAGES + 123);
        assert!(!s.is_resident(far));
        assert!(s.touch(far));
        assert!(!s.touch(far));
        assert!(s.is_resident(far));
        assert_eq!(s.compulsory_faults(), 1);
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.iter_resident().collect::<Vec<_>>(), vec![far]);
        s.evict(far);
        assert!(!s.is_resident(far));
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn equality_ignores_bitmap_growth_history() {
        let mut a = AddressSpace::new();
        let mut b = AddressSpace::new();
        // `a` grows its bitmap out to page 600 and then evicts it; `b` never
        // touches that word.  Logically identical spaces must compare equal.
        assert!(a.touch(PageId::new(600)));
        a.evict(PageId::new(600));
        assert!(a.touch(PageId::new(1)));
        assert!(b.touch(PageId::new(1)));
        b.compulsory_faults = a.compulsory_faults;
        assert_eq!(a, b);
        assert!(b.touch(PageId::new(2)));
        assert_ne!(a, b);
    }
}
