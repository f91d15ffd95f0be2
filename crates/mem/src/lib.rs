//! Virtual-memory substrate for the MISP simulator.
//!
//! Section 2.3 of the MISP paper requires all sequencers of a MISP processor
//! to share one virtual address space, synchronized on the Ring 0 control
//! registers (CR3) whenever the OS-managed sequencer leaves Ring 0.  Table 1
//! of the evaluation shows that compulsory page faults dominate the
//! serializing events, and Section 5.3 points out that most of them could be
//! eliminated by pre-touching pages.
//!
//! This crate provides everything the simulator needs to reproduce that
//! behaviour:
//!
//! * [`AddressSpace`] — a per-process page table tracking which pages are
//!   resident; the first touch of a page is a *compulsory* page fault.
//! * [`Tlb`] — a per-sequencer translation look-aside buffer with LRU
//!   replacement, flushed on CR3 writes, with misses serviced by the hardware
//!   page walker (no OS involvement, exactly as the paper describes).
//! * [`MemorySystem`] — the per-machine aggregation of address spaces and
//!   per-sequencer TLBs, including CR3 tracking.
//! * [`WorkingSet`] / [`AccessPattern`] — helpers used by workload generators
//!   to lay out realistic page footprints.
//!
//! # Memory hierarchy
//!
//! By default every access is charged the engine's flat access cost — the
//! paper's memory model.  A [`MemorySystem`] can additionally carry the
//! coherent cache hierarchy from the `misp-cache` crate (per-sequencer L1s,
//! per-processor shared L2s, MESI-lite coherence): platforms install it with
//! [`MemorySystem::configure_caches`] during engine initialization, passing
//! the cluster map that says which sequencers share an L2.  Once installed,
//! [`MemorySystem::access`] reports a
//! [`misp_cache::CacheOutcome`] in [`MemoryOutcome::cache`] and the engine
//! charges the corresponding per-level latency.  The cache model is
//! **disabled by default** (`misp_cache::CacheConfig::disabled()`), which
//! keeps every committed golden result byte-identical; see the `misp-cache`
//! crate docs for the hierarchy's parameters and the README for how goldens
//! are regenerated after an intentional schema change.
//!
//! # Examples
//!
//! ```
//! use misp_mem::{MemorySystem, MemoryOutcome};
//! use misp_types::{ProcessId, SequencerId, VirtAddr};
//!
//! let mut mem = MemorySystem::new(4, 64);
//! let pid = ProcessId::new(0);
//! mem.register_process(pid);
//! let seq = SequencerId::new(1);
//! mem.bind_sequencer(seq, pid);
//!
//! // First touch of a page: compulsory page fault.
//! let outcome = mem.access(seq, VirtAddr::new(0x10_0000), false);
//! assert!(outcome.page_fault);
//! assert!(outcome.cache.is_none(), "cache model is disabled by default");
//! // Second touch: the page is resident and now cached in the TLB.
//! let outcome = mem.access(seq, VirtAddr::new(0x10_0008), false);
//! assert!(!outcome.page_fault);
//! assert!(outcome.tlb_hit);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address_space;
mod pattern;
mod system;
mod tlb;
mod working_set;

pub use address_space::AddressSpace;
pub use pattern::AccessPattern;
pub use system::{MemoryOutcome, MemorySystem};
pub use tlb::{Tlb, TlbStats};
pub use working_set::WorkingSet;
