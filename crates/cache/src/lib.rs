//! Coherent cache hierarchy for the MISP simulator.
//!
//! The paper's evaluation charges a flat cost per memory touch; this crate
//! refines that into a two-level coherent hierarchy so memory-bound workloads
//! can distinguish locality regimes that a flat model cannot:
//!
//! * [`SetAssocCache`] — a set-associative cache with true-LRU replacement
//!   within each set, tracking a MESI-lite [`MesiState`] per line.
//! * [`CacheHierarchy`] — one private L1 per sequencer plus one shared L2 per
//!   *cluster* (a MISP processor, or a single core on the SMP baseline), with
//!   a MESI-lite coherence protocol between the L1s: a store invalidates the
//!   line in every remote L1 (and in remote clusters' L2s), a load downgrades
//!   a remote `Modified` line to `Shared`.
//! * [`CacheConfig`] — geometry and latencies, **disabled by default** so the
//!   flat-cost model of the paper's figures is reproduced byte-for-byte
//!   unless an experiment opts in.
//!
//! # Memory hierarchy
//!
//! The simulated hierarchy is:
//!
//! ```text
//! sequencer ── L1 (private, MESI-lite) ── L2 (shared per cluster) ── memory
//! ```
//!
//! On a MISP machine every sequencer of one MISP processor (the OMS and its
//! AMSs) shares that processor's L2, so producer/consumer traffic between
//! shreds of one processor resolves in the shared L2.  On the SMP baseline
//! every core is its own cluster, so the same sharing pattern crosses the
//! coherence fabric and pays memory latency.  Misses are classified as
//! *compulsory* (first access to the line anywhere), *coherence* (the line
//! was invalidated out of this sequencer's L1 by a remote store) or
//! *capacity* (everything else).  Latencies come from
//! [`misp_types::CacheCostModel`].
//!
//! # Examples
//!
//! ```
//! use misp_cache::{CacheConfig, CacheHierarchy, HitLevel};
//! use misp_types::{SequencerId, VirtAddr};
//!
//! // Two sequencers sharing one L2 cluster (a 1x2 MISP processor); all
//! // accesses below are within address space 0.
//! let mut caches = CacheHierarchy::new(CacheConfig::enabled_default(), &[0, 0]);
//! let a = SequencerId::new(0);
//! let addr = VirtAddr::new(0x1000);
//!
//! let miss = caches.access(a, 0, addr, false);
//! assert_eq!(miss.level, HitLevel::Memory);
//! let hit = caches.access(a, 0, addr, false);
//! assert_eq!(hit.level, HitLevel::L1);
//! // The second sequencer misses its own L1 but hits the shared L2.
//! let shared = caches.access(SequencerId::new(1), 0, addr, false);
//! assert_eq!(shared.level, HitLevel::L2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod hierarchy;
mod set_assoc;

pub use config::{CacheConfig, CacheGeometry};
pub use hierarchy::{CacheHierarchy, CacheOutcome, CacheStats, HitLevel, MissClass};
pub use set_assoc::{MesiState, SetAssocCache};
