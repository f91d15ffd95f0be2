//! The SMP baseline machine.
//!
//! The MISP paper compares every result against "an equivalently configured
//! SMP system" (Section 5): the same number of hardware contexts, but all of
//! them OS-visible, each servicing its own system calls, page faults and timer
//! interrupts locally with no cross-core serialization.  This crate provides
//! that baseline as a [`misp_sim::Platform`] implementation for the
//! `misp-sim` engine plus the [`SmpMachine`] convenience wrapper.
//!
//! The important difference from the MISP machine in `misp-core` is what
//! *doesn't* happen here: a privileged event on one core never suspends any
//! other core, and there is no proxy execution because every core can execute
//! Ring 0 code itself.
//!
//! # Examples
//!
//! ```
//! use misp_smp::SmpMachine;
//! use misp_isa::{ProgramBuilder, ProgramLibrary};
//! use misp_sim::{SimConfig, SingleShredRuntime};
//! use misp_types::Cycles;
//!
//! let mut library = ProgramLibrary::new();
//! let main = library.insert(ProgramBuilder::new("main").compute(Cycles::new(10_000)).build());
//! let mut machine = SmpMachine::new(4, SimConfig::default(), library);
//! machine.add_process("demo", Box::new(SingleShredRuntime::new(main)), Some(0));
//! let report = machine.run().unwrap();
//! assert!(report.total_cycles >= Cycles::new(10_000));
//! ```
//!
//! The same run assembled by hand from the `misp-sim` engine: a
//! [`misp_sim::Machine`] over an [`SmpPlatform`], one process whose single
//! thread is pinned to core 0 and runs the built-in
//! [`misp_sim::SingleShredRuntime`]:
//!
//! ```
//! use misp_smp::SmpPlatform;
//! use misp_isa::{ProgramBuilder, ProgramLibrary};
//! use misp_sim::{Machine, SimConfig, SingleShredRuntime};
//! use misp_types::Cycles;
//!
//! let mut library = ProgramLibrary::new();
//! let main = library.insert(ProgramBuilder::new("main").compute(Cycles::new(10_000)).build());
//! let mut engine = Machine::new(SimConfig::default(), 1, library, SmpPlatform::new(1));
//! let pid = engine.core_mut().kernel_mut().spawn_process("demo");
//! let tid = engine.core_mut().kernel_mut().spawn_thread(pid);
//! engine.add_runtime(pid, Box::new(SingleShredRuntime::new(main)));
//! engine.platform_mut().pin_thread(tid, 0);
//! let report = engine.run().unwrap();
//! assert!(report.total_cycles >= Cycles::new(10_000));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod machine;
mod platform;

pub use machine::SmpMachine;
pub use platform::SmpPlatform;
