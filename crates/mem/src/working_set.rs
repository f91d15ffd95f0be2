//! Working-set descriptions used by workload generators.

use misp_types::{PageId, VirtAddr, PAGE_SIZE};
use serde::{Deserialize, Serialize};

/// A contiguous region of virtual memory that a shred (or a group of shreds)
/// works over.
///
/// Workload generators use working sets to lay out page footprints: the number
/// of pages in a working set that have not been touched before parallel
/// execution begins is exactly the number of compulsory page faults the
/// workload will incur — the dominant entry of the paper's Table 1.
///
/// # Examples
///
/// ```
/// use misp_mem::WorkingSet;
/// use misp_types::VirtAddr;
///
/// let matrix = WorkingSet::new("matrix A", VirtAddr::new(0x1000_0000), 512);
/// assert_eq!(matrix.pages(), 512);
/// let halves = matrix.split(2);
/// assert_eq!(halves[1].base(), matrix.page_addr(256));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkingSet {
    name: String,
    base: VirtAddr,
    pages: u64,
}

impl WorkingSet {
    /// Creates a working set of `pages` pages starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, base: VirtAddr, pages: u64) -> Self {
        assert!(pages > 0, "a working set must contain at least one page");
        WorkingSet {
            name: name.into(),
            base,
            pages,
        }
    }

    /// The descriptive name of this region.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base virtual address.
    #[must_use]
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Number of pages covered.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Total size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// The address of byte `offset` within the working set.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the working set.
    #[must_use]
    pub fn addr(&self, offset: u64) -> VirtAddr {
        assert!(offset < self.bytes(), "offset beyond working set");
        self.base.offset(offset)
    }

    /// The address of the first byte of the `i`-th page of the working set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.pages()`.
    #[must_use]
    pub fn page_addr(&self, i: u64) -> VirtAddr {
        assert!(i < self.pages, "page index beyond working set");
        PageId::new(self.base.page().number() + i).base_addr()
    }

    /// Splits the working set into `parts` nearly-equal contiguous chunks
    /// (the last chunk absorbs the remainder), as a data-parallel workload
    /// divides its arrays among shreds.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero or exceeds the number of pages.
    #[must_use]
    pub fn split(&self, parts: u64) -> Vec<WorkingSet> {
        assert!(parts > 0, "cannot split into zero parts");
        assert!(
            parts <= self.pages,
            "cannot split {} pages into {} parts",
            self.pages,
            parts
        );
        let per = self.pages / parts;
        let mut out = Vec::with_capacity(parts as usize);
        for i in 0..parts {
            let start_page = self.base.page().number() + i * per;
            let pages = if i == parts - 1 {
                self.pages - i * per
            } else {
                per
            };
            out.push(WorkingSet {
                name: format!("{}[{}]", self.name, i),
                base: PageId::new(start_page).base_addr(),
                pages,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_pages_panics() {
        let _ = WorkingSet::new("w", VirtAddr::new(0), 0);
    }

    #[test]
    fn geometry() {
        let w = WorkingSet::new("w", VirtAddr::new(4 * PAGE_SIZE), 10);
        assert_eq!(w.pages(), 10);
        assert_eq!(w.bytes(), 10 * PAGE_SIZE);
        assert_eq!(w.page_addr(0), VirtAddr::new(4 * PAGE_SIZE));
        assert_eq!(w.page_addr(9), VirtAddr::new(13 * PAGE_SIZE));
        assert_eq!(w.addr(5), VirtAddr::new(4 * PAGE_SIZE + 5));
        assert_eq!(w.name(), "w");
        assert_eq!(w.base(), VirtAddr::new(4 * PAGE_SIZE));
    }

    #[test]
    #[should_panic(expected = "page index beyond")]
    fn page_addr_out_of_range_panics() {
        let w = WorkingSet::new("w", VirtAddr::new(0), 2);
        let _ = w.page_addr(2);
    }

    #[test]
    #[should_panic(expected = "offset beyond")]
    fn addr_out_of_range_panics() {
        let w = WorkingSet::new("w", VirtAddr::new(0), 1);
        let _ = w.addr(PAGE_SIZE);
    }

    #[test]
    fn split_covers_all_pages_exactly_once() {
        let w = WorkingSet::new("w", VirtAddr::new(0), 10);
        let parts = w.split(3);
        assert_eq!(parts.len(), 3);
        let total: u64 = parts.iter().map(WorkingSet::pages).sum();
        assert_eq!(total, 10);
        // Contiguous and non-overlapping.
        let extents: Vec<(VirtAddr, u64)> = parts.iter().map(|p| (p.base(), p.pages())).collect();
        assert_eq!(
            extents,
            [
                (w.page_addr(0), 3),
                (w.page_addr(3), 3),
                (w.page_addr(6), 4)
            ]
        );
        assert_eq!(parts[2].name(), "w[2]");
    }

    #[test]
    fn split_into_one_is_identity_geometry() {
        let w = WorkingSet::new("w", VirtAddr::new(PAGE_SIZE), 5);
        let parts = w.split(1);
        assert_eq!(parts.len(), 1);
        assert_eq!((parts[0].base(), parts[0].pages()), (w.base(), w.pages()));
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn split_more_parts_than_pages_panics() {
        let w = WorkingSet::new("w", VirtAddr::new(0), 2);
        let _ = w.split(3);
    }
}
