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

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod machine;
mod platform;

pub use machine::SmpMachine;
pub use platform::SmpPlatform;
