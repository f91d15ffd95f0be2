//! The operation alphabet executed by simulated sequencers.

use crate::{Continuation, ProgramRef, SyscallKind};
use core::fmt;
use misp_types::{Cycles, LockId, SequencerId, ShredId, VirtAddr};
use serde::{Deserialize, Serialize};

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A load (read) access.
    Load,
    /// A store (write) access.
    Store,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => f.write_str("load"),
            AccessKind::Store => f.write_str("store"),
        }
    }
}

/// A user-level runtime operation serviced by ShredLib rather than by the
/// architecture directly.
///
/// The paper's ShredLib implements these primitives over shared memory using
/// ordinary Ring 3 instructions (Section 4.2); in the simulator they are
/// interpreted by the runtime attached to the execution engine, which charges
/// the appropriate user-level costs and never requires a ring transition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeOp {
    /// Create a new shred whose code is `program`; the shred continuation is
    /// pushed onto the runtime's work queue (Figure 3's `Shred_create`).
    ShredCreate {
        /// The program the new shred will execute.
        program: ProgramRef,
    },
    /// Terminate the current shred.  The sequencer returns to the gang
    /// scheduler, which pops the next ready shred from the work queue.
    ShredExit,
    /// Voluntarily yield the sequencer: the current shred is placed back on
    /// the work queue and the next ready shred (possibly the same one) runs.
    ShredYield,
    /// Block until the shred identified by `target` has exited.
    ShredJoin {
        /// The shred to wait for.
        target: ShredId,
    },
    /// Acquire a mutex, blocking (yielding the sequencer) if it is held.
    MutexLock(LockId),
    /// Release a mutex previously acquired by this shred.
    MutexUnlock(LockId),
    /// Decrement a counting semaphore, blocking while its value is zero.
    SemWait(LockId),
    /// Increment a counting semaphore, waking one waiter if any.
    SemPost(LockId),
    /// Atomically release `mutex` and wait on condition variable `cond`.
    CondWait {
        /// The condition variable to wait on.
        cond: LockId,
        /// The mutex released while waiting and re-acquired before returning.
        mutex: LockId,
    },
    /// Wake one waiter of a condition variable.
    CondSignal(LockId),
    /// Wake all waiters of a condition variable.
    CondBroadcast(LockId),
    /// Wait at a barrier until all participants have arrived.
    BarrierWait(LockId),
    /// Block until an event object becomes signaled.
    EventWait(LockId),
    /// Signal an event object, releasing all current and future waiters.
    EventSet(LockId),
    /// Reset an event object to the non-signaled state.
    EventReset(LockId),
}

impl fmt::Display for RuntimeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeOp::ShredCreate { program } => write!(f, "shred_create({program})"),
            RuntimeOp::ShredExit => f.write_str("shred_exit"),
            RuntimeOp::ShredYield => f.write_str("shred_yield"),
            RuntimeOp::ShredJoin { target } => write!(f, "shred_join({target})"),
            RuntimeOp::MutexLock(id) => write!(f, "mutex_lock({id})"),
            RuntimeOp::MutexUnlock(id) => write!(f, "mutex_unlock({id})"),
            RuntimeOp::SemWait(id) => write!(f, "sem_wait({id})"),
            RuntimeOp::SemPost(id) => write!(f, "sem_post({id})"),
            RuntimeOp::CondWait { cond, mutex } => write!(f, "cond_wait({cond}, {mutex})"),
            RuntimeOp::CondSignal(id) => write!(f, "cond_signal({id})"),
            RuntimeOp::CondBroadcast(id) => write!(f, "cond_broadcast({id})"),
            RuntimeOp::BarrierWait(id) => write!(f, "barrier_wait({id})"),
            RuntimeOp::EventWait(id) => write!(f, "event_wait({id})"),
            RuntimeOp::EventSet(id) => write!(f, "event_set({id})"),
            RuntimeOp::EventReset(id) => write!(f, "event_reset({id})"),
        }
    }
}

/// One operation in a shred's instruction stream.
///
/// An `Op` is deliberately coarse: a single `Compute` may stand for millions
/// of arithmetic instructions.  Only behaviours the MISP architecture reacts
/// to — memory touches, Ring 0 traps, inter-sequencer signaling, and runtime
/// calls — are modeled as distinct operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Execute for the given number of cycles without touching memory or the
    /// OS.
    Compute(Cycles),
    /// Access memory at `addr`.  The first access by a process to a page
    /// raises a compulsory page fault; on an AMS that fault triggers proxy
    /// execution.
    Touch {
        /// The virtual address accessed.
        addr: VirtAddr,
        /// Whether the access is a load or a store.
        kind: AccessKind,
    },
    /// Trap to the OS for a system-call service.  On the OMS this is a direct
    /// Ring 3 → Ring 0 transition; on an AMS it triggers proxy execution.
    Syscall(SyscallKind),
    /// The MISP `SIGNAL` instruction: deliver `continuation` to the sequencer
    /// identified by `target` within the current MISP processor.
    Signal {
        /// Destination sequencer (the SID operand).
        target: SequencerId,
        /// The shred continuation (EIP/ESP pair plus its program).
        continuation: Continuation,
    },
    /// Register a trigger→response mapping via the YIELD-CONDITIONAL
    /// mechanism, e.g. the proxy handler the OMS installs before starting any
    /// shreds (Figure 3, "Register Proxy Handler").
    RegisterHandler,
    /// A user-level runtime (ShredLib) operation.
    Runtime(RuntimeOp),
    /// Terminate the instruction stream.  Every program implicitly ends with
    /// `Halt`; streams may also contain it explicitly for early exits.
    Halt,
}

/// The engine-facing classification of an operation, used by the macro-step
/// fast path to decide whether an upcoming operation can be executed inline
/// (without re-entering the event queue) or marks a batch boundary.
///
/// The classification is purely syntactic: a [`OpClass::Memory`] access may
/// still be a boundary at runtime (it page-faults), which the engine decides
/// with the access peeked but not consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Pure local computation with no architectural side effects beyond the
    /// executing sequencer's busy time.  Always safe to execute inline.
    Local,
    /// A memory access.  Chargeable inline when the access does not
    /// page-fault, with the cache model on or off; otherwise a boundary.
    Memory,
    /// Everything the platform or the user-level runtime observes: ring
    /// transitions, signals, handler registration, synchronization and
    /// scheduling operations, and stream termination.  Always a boundary.
    Boundary,
}

impl Op {
    /// Classifies this operation for the engine's macro-step fast path; see
    /// [`OpClass`].
    #[must_use]
    pub const fn classify(&self) -> OpClass {
        match self {
            Op::Compute(_) => OpClass::Local,
            Op::Touch { .. } => OpClass::Memory,
            Op::Syscall(_)
            | Op::Signal { .. }
            | Op::RegisterHandler
            | Op::Runtime(_)
            | Op::Halt => OpClass::Boundary,
        }
    }

    /// Convenience constructor for a load access.
    #[must_use]
    pub const fn load(addr: VirtAddr) -> Self {
        Op::Touch {
            addr,
            kind: AccessKind::Load,
        }
    }

    /// Convenience constructor for a store access.
    #[must_use]
    pub const fn store(addr: VirtAddr) -> Self {
        Op::Touch {
            addr,
            kind: AccessKind::Store,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Compute(c) => write!(f, "compute({c})"),
            Op::Touch { addr, kind } => write!(f, "{kind}({addr})"),
            Op::Syscall(kind) => write!(f, "syscall({kind})"),
            Op::Signal { target, .. } => write!(f, "signal({target})"),
            Op::RegisterHandler => f.write_str("register_handler"),
            Op::Runtime(op) => write!(f, "{op}"),
            Op::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_constructors() {
        let addr = VirtAddr::new(0x4000);
        assert_eq!(
            Op::load(addr),
            Op::Touch {
                addr,
                kind: AccessKind::Load
            }
        );
        assert_eq!(
            Op::store(addr),
            Op::Touch {
                addr,
                kind: AccessKind::Store
            }
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Op::Compute(Cycles::new(5)).to_string(), "compute(5 cycles)");
        assert_eq!(Op::load(VirtAddr::new(0x1000)).to_string(), "load(0x1000)");
        assert_eq!(Op::Syscall(SyscallKind::Io).to_string(), "syscall(io)");
        assert_eq!(Op::Halt.to_string(), "halt");
        assert_eq!(
            Op::Runtime(RuntimeOp::MutexLock(LockId::new(1))).to_string(),
            "mutex_lock(LCK1)"
        );
        assert_eq!(
            Op::Runtime(RuntimeOp::CondWait {
                cond: LockId::new(2),
                mutex: LockId::new(3)
            })
            .to_string(),
            "cond_wait(LCK2, LCK3)"
        );
    }

    #[test]
    fn runtime_op_display_covers_all_variants() {
        let id = LockId::new(0);
        let ops = vec![
            RuntimeOp::ShredCreate {
                program: ProgramRef::new(0),
            },
            RuntimeOp::ShredExit,
            RuntimeOp::ShredYield,
            RuntimeOp::ShredJoin {
                target: ShredId::new(1),
            },
            RuntimeOp::MutexLock(id),
            RuntimeOp::MutexUnlock(id),
            RuntimeOp::SemWait(id),
            RuntimeOp::SemPost(id),
            RuntimeOp::CondSignal(id),
            RuntimeOp::CondBroadcast(id),
            RuntimeOp::BarrierWait(id),
            RuntimeOp::EventWait(id),
            RuntimeOp::EventSet(id),
            RuntimeOp::EventReset(id),
        ];
        for op in ops {
            assert!(!op.to_string().is_empty());
        }
    }
}
