//! Per-process address spaces and page residency.

use misp_types::{FxHashSet, PageId};

/// Page numbers below this bound live in the dense residency bitmap; higher
/// pages fall back to the sparse set.  64 Ki pages cover the lowest 256 MiB
/// of virtual address space at 4 KiB pages, at a worst-case bitmap cost of
/// 8 KiB per process.  The workload and scenario working sets are laid out
/// at `0x1000_0000` and above, so their pages all take the sparse set.
const DENSE_PAGES: u64 = 1 << 16;

/// A process's virtual address space: the page table plus residency metadata.
///
/// The model is intentionally simple — the paper's evaluation only depends on
/// *when* a page fault occurs (first touch) and *which sequencer* touches the
/// page first, because that determines whether the fault is handled locally on
/// the OMS or via proxy execution from an AMS.
///
/// `touch` sits on the engine's per-access hot path.  Residency for page
/// numbers below `DENSE_PAGES` (2¹⁶) is a bitmap (grown on demand) and the
/// lookup is a shift and a mask; pages at or above the bound pay for a hash
/// probe in the sparse fallback set.
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
/// assert!(space.is_resident(PageId::new(4)));
/// ```
#[derive(Debug, Default, Clone)]
pub struct AddressSpace {
    /// Residency bitmap for pages below [`DENSE_PAGES`], one bit per page,
    /// grown a word at a time as higher pages are touched.
    dense: Vec<u64>,
    /// Resident pages at or above [`DENSE_PAGES`].
    sparse: FxHashSet<PageId>,
}

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
            self.sparse.contains(&page)
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
        if n < DENSE_PAGES {
            !self.dense_set(n)
        } else {
            self.sparse.insert(page)
        }
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
        assert!(s.is_resident(p));
    }

    #[test]
    fn distinct_pages_fault_independently() {
        let mut s = AddressSpace::new();
        assert!(s.touch(PageId::new(1)));
        assert!(s.touch(PageId::new(2)));
        assert!(!s.is_resident(PageId::new(3)));
    }

    #[test]
    fn pages_beyond_the_dense_bound_use_the_sparse_fallback() {
        let mut s = AddressSpace::new();
        let far = PageId::new(DENSE_PAGES + 123);
        assert!(!s.is_resident(far));
        assert!(s.touch(far));
        assert!(!s.touch(far));
        assert!(s.is_resident(far));
        assert!(s.dense.is_empty(), "a far page never grows the bitmap");
    }
}
