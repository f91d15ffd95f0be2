//! ShredLib: the user-level multi-shredding runtime.
//!
//! Section 4.2 of the MISP paper describes ShredLib, a dynamically linked
//! runtime that implements the shared-memory multi-shredded programming model
//! on top of the MISP ISA: a POSIX-compliant suite of shred control and
//! synchronization primitives (critical sections, mutexes, condition
//! variables, semaphores and events), a work-queue gang scheduler (Figure 3),
//! a generic proxy handler, legacy API translations for Pthreads and Win32
//! Threads, and shred-local storage.
//!
//! This crate reproduces that runtime for the simulator:
//!
//! * [`GangScheduler`] — the M:N work-queue scheduler of Figure 3, implemented
//!   as a [`misp_sim::Runtime`] so it can drive both the MISP machine and the
//!   SMP baseline (where it plays the role of an ordinary thread-pool
//!   runtime).
//! * [`WorkQueue`] and [`SchedulingPolicy`] — the mutex-protected shred queue
//!   and the selectable scheduling algorithms.
//! * [`SyncTable`] with mutexes, counting semaphores, condition variables,
//!   events and barriers.
//! * [`compat`] — the thread-to-shred API mapping tables used to port legacy
//!   Pthreads/Win32/OpenMP software (the basis of the Table 2 reproduction).
//!
//! Shred-local storage, the Thread-Local-Storage equivalent of Section 4.2,
//! is not modelled: no workload executes a TLS operation.  The [`compat`]
//! tables still count the `Tls*` calls a port maps to ShredLib.
//!
//! # Examples
//!
//! Build a gang scheduler whose main shred spawns four workers and joins them
//! through a barrier:
//!
//! ```
//! use shredlib::{GangScheduler, SchedulingPolicy};
//! use misp_isa::ProgramRef;
//!
//! let scheduler = GangScheduler::builder()
//!     .policy(SchedulingPolicy::Fifo)
//!     .main_program(ProgramRef::new(0))
//!     .barrier(misp_types::LockId::new(0), 5)
//!     .build();
//! assert_eq!(scheduler.policy(), SchedulingPolicy::Fifo);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compat;
mod gang;
mod queue;
mod service;
mod sync;

pub use gang::{GangScheduler, GangSchedulerBuilder};
pub use queue::{SchedulingPolicy, WorkQueue};
pub use service::{RequestShape, ServiceModel};
pub use sync::{SyncObject, SyncTable};
