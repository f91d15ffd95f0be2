//! Per-process address spaces and page residency.

use misp_types::{FxHashSet, PageId};

/// A process's virtual address space: the page table plus residency metadata.
///
/// The model is intentionally simple — the paper's evaluation only depends on
/// *when* a page fault occurs (first touch) and *which sequencer* touches the
/// page first, because that determines whether the fault is handled locally on
/// the OMS or via proxy execution from an AMS.
///
/// `touch` sits on the engine's per-access hot path.  Residency is one hash
/// set of resident pages, so a lookup is one hash probe.
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
    /// The resident pages.
    resident: FxHashSet<PageId>,
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
        self.resident.contains(&page)
    }

    /// Touches `page`: returns `true` if the touch raised a compulsory page
    /// fault (i.e. the page was not yet resident), after which the page is
    /// resident.
    pub fn touch(&mut self, page: PageId) -> bool {
        self.resident.insert(page)
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
}
