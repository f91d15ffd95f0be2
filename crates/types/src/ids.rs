//! Strongly-typed identifiers used throughout the MISP workspace.
//!
//! Every architectural entity the paper names — sequencers, MISP processors,
//! OS threads, shreds, processes, memory pages — gets its own identifier
//! newtype so the compiler keeps them from being confused with one another.

use core::fmt;

/// Number of low-order bits in a virtual address that index into a page
/// (4 KiB pages, matching IA-32 default page size).
pub const PAGE_SHIFT: u64 = 12;

/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from its raw index.
            #[inline]
            #[must_use]
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// Returns the raw index.
            #[inline]
            #[must_use]
            pub const fn index(self) -> u32 {
                self.0
            }

            /// Returns the raw index as a `usize` for direct slice indexing.
            #[inline]
            #[must_use]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                $name(index)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifies a sequencer (a hardware thread context capable of fetching
    /// and executing one instruction stream).  The paper calls these logical
    /// identifiers *SIDs*; they are the first operand of the `SIGNAL`
    /// instruction.
    SequencerId,
    "SEQ"
);

id_type!(
    /// Identifies a MISP processor: the group of one OS-managed sequencer and
    /// zero or more application-managed sequencers that the OS sees as a
    /// single logical CPU.
    MispProcessorId,
    "MISP"
);

id_type!(
    /// Identifies an OS-visible thread (the entity the OS scheduler manages).
    OsThreadId,
    "THR"
);

id_type!(
    /// Identifies a shred: a MISP-enabled user-level thread that runs on an
    /// application-managed sequencer without OS involvement.
    ShredId,
    "SHR"
);

id_type!(
    /// Identifies an OS process (an address space plus one or more threads).
    ProcessId,
    "PID"
);

id_type!(
    /// Identifies a user-level synchronization object managed by ShredLib
    /// (a mutex or a barrier).
    LockId,
    "LCK"
);

/// A virtual memory page number within a process address space.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page identifier from its raw page number.
    #[inline]
    #[must_use]
    pub const fn new(page_number: u64) -> Self {
        PageId(page_number)
    }

    /// Returns the raw page number.
    #[inline]
    #[must_use]
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Returns the virtual address of the first byte of this page.
    #[inline]
    #[must_use]
    pub const fn base_addr(self) -> VirtAddr {
        VirtAddr::new(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PAGE{:#x}", self.0)
    }
}

impl From<u64> for PageId {
    fn from(page_number: u64) -> Self {
        PageId(page_number)
    }
}

/// A virtual address within a process address space.
///
/// # Examples
///
/// ```
/// use misp_types::{VirtAddr, PageId, PAGE_SIZE};
///
/// let addr = VirtAddr::new(3 * PAGE_SIZE + 17);
/// assert_eq!(addr.page(), PageId::new(3));
/// assert_eq!(addr.offset(PAGE_SIZE).page(), PageId::new(4));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address from its raw value.
    #[inline]
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw address.
    #[inline]
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the page containing this address.
    #[inline]
    #[must_use]
    pub const fn page(self) -> PageId {
        PageId(self.0 >> PAGE_SHIFT)
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    #[must_use]
    pub const fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let s = SequencerId::new(5);
        assert_eq!(s.index(), 5);
        assert_eq!(s.as_usize(), 5);
        assert_eq!(u32::from(s), 5);
        assert_eq!(SequencerId::from(5u32), s);
        assert_eq!(s.to_string(), "SEQ5");
    }

    #[test]
    fn distinct_display_prefixes() {
        assert_eq!(MispProcessorId::new(1).to_string(), "MISP1");
        assert_eq!(OsThreadId::new(2).to_string(), "THR2");
        assert_eq!(ShredId::new(3).to_string(), "SHR3");
        assert_eq!(ProcessId::new(4).to_string(), "PID4");
        assert_eq!(LockId::new(6).to_string(), "LCK6");
    }

    #[test]
    fn ordering_is_by_index() {
        assert!(ShredId::new(1) < ShredId::new(2));
        let mut v = vec![
            SequencerId::new(3),
            SequencerId::new(1),
            SequencerId::new(2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SequencerId::new(1),
                SequencerId::new(2),
                SequencerId::new(3)
            ]
        );
    }

    #[test]
    fn virt_addr_page_math() {
        let addr = VirtAddr::new(5 * PAGE_SIZE + 100);
        assert_eq!(addr.page(), PageId::new(5));
        assert_eq!(addr.offset(PAGE_SIZE).page(), PageId::new(6));
        assert_eq!(PageId::new(5).base_addr(), VirtAddr::new(5 * PAGE_SIZE));
        assert_eq!(addr.to_string(), format!("{:#x}", 5 * PAGE_SIZE + 100));
    }

    #[test]
    fn page_id_display_and_conversion() {
        assert_eq!(PageId::from(16u64).number(), 16);
        assert_eq!(PageId::new(16).to_string(), "PAGE0x10");
    }
}
