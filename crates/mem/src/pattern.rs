//! Memory access patterns for workload generation.

use crate::WorkingSet;
use misp_types::VirtAddr;

/// How a shred walks a working set.
///
/// The patterns mirror the memory behaviour of the paper's benchmark classes:
/// dense kernels stream sequentially, sparse kernels make strided/indirect
/// accesses, and RayTracer-style applications touch pages irregularly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Visit every page in ascending order (dense matrix kernels, swim,
    /// applu).
    #[default]
    Sequential,
    /// Visit every `stride`-th page, wrapping around until all pages are
    /// visited (transposed/symmetric sparse kernels).
    Strided {
        /// Page stride between consecutive accesses.
        stride: u64,
    },
    /// Visit pages in a deterministic pseudo-random permutation derived from
    /// `seed` (sparse matrix-vector products, RayTracer's scene traversal).
    Shuffled {
        /// Seed of the permutation.
        seed: u64,
    },
}

impl AccessPattern {
    /// Generates the sequence of page-granular addresses this pattern visits
    /// within `set`, touching every page of the set exactly once.
    #[must_use]
    pub fn addresses(&self, set: &WorkingSet) -> Vec<VirtAddr> {
        let n = set.pages();
        match self {
            AccessPattern::Sequential => (0..n).map(|i| set.page_addr(i)).collect(),
            AccessPattern::Strided { stride } => {
                let stride = (*stride).max(1) % n.max(1);
                let stride = if stride == 0 { 1 } else { stride };
                let mut visited = vec![false; n as usize];
                let mut out = Vec::with_capacity(n as usize);
                let mut start = 0;
                while out.len() < n as usize {
                    let mut i = start;
                    loop {
                        if !visited[i as usize] {
                            visited[i as usize] = true;
                            out.push(set.page_addr(i));
                        }
                        i = (i + stride) % n;
                        if i == start {
                            break;
                        }
                    }
                    start += 1;
                }
                out
            }
            AccessPattern::Shuffled { seed } => {
                // Fisher-Yates with a splitmix64 PRNG so the permutation is
                // deterministic for a given seed without pulling in `rand`.
                let mut indices: Vec<u64> = (0..n).collect();
                let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut next = || {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                for i in (1..n as usize).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    indices.swap(i, j);
                }
                indices.into_iter().map(|i| set.page_addr(i)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_types::PAGE_SIZE;
    use std::collections::BTreeSet;

    fn set(pages: u64) -> WorkingSet {
        WorkingSet::new("w", VirtAddr::new(0), pages)
    }

    fn page_numbers(addrs: &[VirtAddr]) -> Vec<u64> {
        addrs.iter().map(|a| a.page().number()).collect()
    }

    #[test]
    fn sequential_visits_in_order() {
        let addrs = AccessPattern::Sequential.addresses(&set(5));
        assert_eq!(page_numbers(&addrs), vec![0, 1, 2, 3, 4]);
        assert_eq!(addrs[1], VirtAddr::new(PAGE_SIZE));
    }

    #[test]
    fn strided_covers_all_pages_exactly_once() {
        for stride in [1, 2, 3, 4, 7] {
            let addrs = AccessPattern::Strided { stride }.addresses(&set(12));
            let pages: BTreeSet<u64> = page_numbers(&addrs).into_iter().collect();
            assert_eq!(pages.len(), 12, "stride {stride} must cover all pages");
            assert_eq!(addrs.len(), 12, "stride {stride} must not repeat pages");
        }
    }

    #[test]
    fn strided_with_coprime_stride_is_a_single_cycle() {
        let addrs = AccessPattern::Strided { stride: 5 }.addresses(&set(8));
        assert_eq!(page_numbers(&addrs), vec![0, 5, 2, 7, 4, 1, 6, 3]);
    }

    #[test]
    fn shuffled_is_a_permutation_and_deterministic() {
        let a = AccessPattern::Shuffled { seed: 42 }.addresses(&set(16));
        let b = AccessPattern::Shuffled { seed: 42 }.addresses(&set(16));
        let c = AccessPattern::Shuffled { seed: 7 }.addresses(&set(16));
        assert_eq!(a, b, "same seed must give same order");
        assert_ne!(a, c, "different seeds should differ for 16 pages");
        let pages: BTreeSet<u64> = page_numbers(&a).into_iter().collect();
        assert_eq!(pages.len(), 16);
    }

    #[test]
    fn single_page_patterns() {
        for pattern in [
            AccessPattern::Sequential,
            AccessPattern::Strided { stride: 3 },
            AccessPattern::Shuffled { seed: 1 },
        ] {
            let addrs = pattern.addresses(&set(1));
            assert_eq!(page_numbers(&addrs), vec![0]);
        }
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(AccessPattern::default(), AccessPattern::Sequential);
    }
}
