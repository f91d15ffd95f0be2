//! Foundation types shared by every crate in the MISP workspace.
//!
//! The Multiple Instruction Stream Processor (MISP) architecture, as described
//! in the ISCA 2006 paper by Hankins et al., introduces the *sequencer* as a
//! new category of architectural resource and defines a canonical set of
//! instructions for user-level inter-sequencer signaling and asynchronous
//! control transfer.  This crate contains the vocabulary types used throughout
//! the reproduction: strongly-typed identifiers, cycle arithmetic, the
//! architectural cost model, and the common error type.
//!
//! # Examples
//!
//! ```
//! use misp_types::{CostModel, Cycles, SequencerId};
//!
//! let start = Cycles::new(1_000);
//! let end = start + Cycles::new(500);
//! assert_eq!(end.as_u64(), 1_500);
//!
//! let oms = SequencerId::new(0);
//! assert_eq!(oms.index(), 0);
//! assert_eq!(CostModel::default().signal_cycles(), Cycles::new(5_000));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod cost;
mod cycles;
mod error;
mod fnv;
mod fxhash;
mod histogram;
mod ids;
mod rng;

pub use arena::{Arena, ArenaId, ArenaMap};
pub use cost::{CacheCostModel, CostModel, CostModelBuilder, SignalCost};
pub use cycles::{Cycles, Duration};
pub use error::{MispError, Result};
pub use fnv::Fnv64;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use histogram::Histogram;
pub use ids::{
    LockId, MispProcessorId, OsThreadId, PageId, ProcessId, SequencerId, ShredId, VirtAddr,
    PAGE_SHIFT, PAGE_SIZE,
};
pub use rng::{det_ln, SplitMix64};
