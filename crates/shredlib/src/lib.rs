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
//! * [`WorkQueue`] — the mutex-protected shred queue, dispatched first-in
//!   first-out so shreds run in creation order (Figure 3).
//! * [`SyncTable`] with mutexes and barriers.
//! * [`compat`] — the thread-to-shred API mapping tables used to port legacy
//!   Pthreads/Win32/OpenMP software (the basis of the Table 2 reproduction).
//!
//! Shred-local storage, the Thread-Local-Storage equivalent of Section 4.2,
//! is not modelled: no workload executes a TLS operation.  The [`compat`]
//! tables still count the `Tls*` calls a port maps to ShredLib.
//!
//! Nor are Section 4.2's counting semaphores, condition variables, events,
//! voluntary yield and explicit shred exit: no workload, scenario or
//! competitor program executes one.  A shred ends by halting, which
//! completes its request and wakes its joiners.  The [`compat`] tables still
//! map the legacy `sem_*`, `pthread_cond_*`, `*Event` and yield calls to
//! their ShredLib names; Table 2 counts those names and executes none of
//! them.
//!
//! # Examples
//!
//! Build a gang scheduler whose main shred spawns four workers and joins them
//! through a barrier:
//!
//! ```
//! use shredlib::GangScheduler;
//! use misp_isa::ProgramRef;
//!
//! let scheduler = GangScheduler::builder()
//!     .main_program(ProgramRef::new(0))
//!     .barrier(misp_types::LockId::new(0), 5)
//!     .build();
//! assert_eq!(scheduler.request_table_len(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compat;
mod gang;
mod queue;
mod service;
mod sync;

pub use gang::{GangScheduler, GangSchedulerBuilder};
pub use queue::WorkQueue;
pub use service::{RequestShape, ServiceModel};
pub use sync::SyncTable;
