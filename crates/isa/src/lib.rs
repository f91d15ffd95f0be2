//! Abstract instruction streams for the MISP simulator.
//!
//! The MISP paper (Hankins et al., ISCA 2006) evaluates the architecture by
//! running real IA-32 binaries on a firmware-emulated prototype.  This
//! reproduction instead executes *abstract instruction streams*: sequences of
//! [`Op`] items that capture exactly the behaviours the architecture reacts to
//! — computation, memory touches (which may page-fault), system calls (which
//! trap to Ring 0), the sequencer-aware `SIGNAL` operation, and the user-level
//! runtime primitives ShredLib provides.
//!
//! A shred's code is a [`ShredProgram`]: a compact, loop-structured list of
//! operations that can be iterated lazily by a [`ProgramCursor`].  Workload
//! generators in the `misp-workloads` crate build programs with
//! [`ProgramBuilder`] and collect them into a [`ProgramLibrary`] so that
//! dynamically-created shreds can reference their code by [`ProgramRef`].
//!
//! # Examples
//!
//! ```
//! use misp_isa::{Op, ProgramBuilder, SyscallKind};
//! use misp_types::{Cycles, VirtAddr};
//!
//! let program = ProgramBuilder::new("example")
//!     .compute(Cycles::new(1_000))
//!     .load(VirtAddr::new(0x1000))
//!     .repeat(3, |body| body.compute(Cycles::new(10)).store(VirtAddr::new(0x2000)))
//!     .syscall(SyscallKind::Io)
//!     .build();
//!
//! // 1 compute + 1 load + 3 * (compute + store) + 1 syscall + implicit exit
//! assert_eq!(program.flat_len(), 1 + 1 + 3 * 2 + 1 + 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod continuation;
mod cursor;
mod library;
mod op;
mod program;
mod syscall;

pub use builder::ProgramBuilder;
pub use continuation::Continuation;
pub use cursor::{CursorState, OwnedCursor};
pub use library::{ProgramLibrary, ProgramRef};
pub use op::{AccessKind, Op, OpClass, RuntimeOp};
pub use program::{ProgramCursor, ProgramItem, ShredProgram};
pub use syscall::SyscallKind;
