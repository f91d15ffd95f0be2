//! The counting global allocator shared by `sweep --profile` and the
//! allocation audits in `tests/zero_alloc.rs`.
//!
//! [`CountingAllocator`] wraps the system allocator.  Each allocation bumps
//! a process-wide count and byte total (two relaxed atomic adds, read by
//! [`total_allocations`] and [`total_bytes`]) and a count and byte total of
//! the calling thread (read by [`thread_allocations`] and
//! [`thread_bytes`]).  An audit that measures its own thread never sees the
//! allocations of tests running beside it.
//!
//! A binary or test opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: misp_harness::alloc_count::CountingAllocator =
//!     misp_harness::alloc_count::CountingAllocator;
//! ```

#![allow(
    unsafe_code,
    reason = "a global allocator must implement the unsafe `GlobalAlloc` trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting wrapper around [`System`]; install it with
/// `#[global_allocator]`.
#[derive(Debug)]
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialized, so the first touch on a thread neither allocates
    // nor registers a destructor — safe to use from inside the allocator.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation of `bytes`.  `try_with` never allocates and is a
/// no-op while the thread's locals are being torn down.
fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = THREAD_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations made so far by the whole process.
#[must_use]
pub fn total_allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested so far by the whole process (a reallocation counts its
/// new size).
#[must_use]
pub fn total_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Allocations made so far on the calling thread.
#[must_use]
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Bytes requested so far on the calling thread (a reallocation counts its
/// new size).
#[must_use]
pub fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

// SAFETY: every method forwards the caller's arguments to `System` unchanged
// after `count`, which neither allocates nor panics, so `GlobalAlloc`'s
// layout/aliasing contract is exactly `System`'s own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwards the caller's layout to `System.alloc` untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwards the caller's layout to `System.alloc_zeroed` untouched.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwards the caller's pointer/layout/size to `System.realloc`
        // untouched, so the caller's obligations transfer verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's pointer and layout to `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
