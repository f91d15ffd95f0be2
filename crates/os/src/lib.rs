//! Operating-system model for the MISP simulator.
//!
//! The MISP paper runs its prototype under Windows Server 2003 configured (via
//! `/NUMPROC=1`) to see a single logical CPU, with the OS providing exactly the
//! services the evaluation measures: system-call handling, page-fault
//! handling, timer interrupts, other device interrupts, and thread context
//! switches (Table 1's serializing-event categories).  This crate models that
//! OS at the level of detail the evaluation depends on:
//!
//! * [`OsEventKind`] — the four privileged-event categories of Table 1.
//! * [`Kernel`] — process/thread bookkeeping plus the privileged service-time
//!   model (how long the OS spends in Ring 0 for each event).
//! * [`CpuScheduler`] / [`SystemScheduler`] — a per-CPU round-robin scheduler
//!   with a one-tick quantum, used in the multi-programming experiments of
//!   Figure 7.
//! * [`TimerConfig`] — timer-tick and uncategorized-interrupt generation.
//!
//! # Examples
//!
//! ```
//! use misp_os::{Kernel, OsEventKind};
//! use misp_types::{CostModel, ProcessId};
//!
//! let mut kernel = Kernel::new(CostModel::default());
//! let pid = kernel.spawn_process("raytracer");
//! let tid = kernel.spawn_thread(pid);
//! assert_eq!(kernel.thread(tid).unwrap().process(), pid);
//! let service = kernel.service_cost(OsEventKind::PageFault);
//! assert!(service.as_u64() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod kernel;
mod process;
mod scheduler;
mod timer;

pub use event::{OsEventCounts, OsEventKind};
pub use kernel::Kernel;
pub use process::{OsThread, Process};
pub use scheduler::{CpuScheduler, SystemScheduler};
pub use timer::TimerConfig;
