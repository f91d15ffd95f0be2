//! The user-level runtime extension trait.

use crate::core::EngineCore;
use misp_isa::{ProgramRef, RuntimeOp};
use misp_types::{Cycles, MispError, OsThreadId, Result, SequencerId, ShredId};

/// What the runtime decided about the shred that executed a runtime
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeOutcome {
    /// The operation completed; the shred keeps the sequencer and continues
    /// after `cost` cycles of user-level runtime work.
    Continue {
        /// User-level cycles charged for the operation.
        cost: Cycles,
    },
    /// The shred blocked (the runtime has recorded it as a waiter); the
    /// sequencer is released after `cost` cycles and will ask for other work.
    Block {
        /// User-level cycles charged before blocking.
        cost: Cycles,
    },
}

/// A user-level scheduling runtime (the role ShredLib plays in the paper).
///
/// One runtime instance serves one process.  The engine calls into the runtime
/// when a sequencer needs work, when a shred executes a
/// [`RuntimeOp`], and when a shred's program halts.  The runtime manipulates
/// engine state (creating shreds, waking sequencers) through the
/// [`EngineCore`] handle it is given.
pub trait Runtime: std::fmt::Debug {
    /// Called once at simulation start for every OS thread of the runtime's
    /// process, in thread-creation order.  Typical implementations create the
    /// thread's initial shred(s) here.
    fn on_thread_start(&mut self, core: &mut EngineCore, thread: OsThreadId, now: Cycles);

    /// The sequencer `seq`, currently serving OS thread `thread`, is idle and
    /// asks for the next shred to run.  Returning `None` leaves it idle.
    fn next_shred(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        thread: OsThreadId,
        now: Cycles,
    ) -> Option<ShredId>;

    /// A shred executed a runtime operation.
    ///
    /// # Errors
    ///
    /// An operation the simulated program may not perform, such as
    /// [`MispError::SynchronizationMisuse`] for unlocking a mutex the shred
    /// does not hold.  The engine stops the run and returns the error.
    fn on_runtime_op(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        shred: ShredId,
        op: &RuntimeOp,
        now: Cycles,
    ) -> Result<RuntimeOutcome>;

    /// A shred's program reached its end (implicit `Halt`).
    fn on_shred_halt(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        shred: ShredId,
        now: Cycles,
    );

    /// Returns `true` when all work of this runtime's process is complete.
    fn is_finished(&self, core: &EngineCore) -> bool;

    /// Request-serving statistics, if this runtime drives a service model
    /// (open-loop scenarios).  The engine folds these into
    /// [`SimStats::service`](crate::SimStats) when the report is assembled.
    /// The default — for runtimes without a service model — is `None`.
    fn service_stats(&self) -> Option<&crate::ServiceStats> {
        None
    }
}

/// A minimal runtime that gives each OS thread exactly one shred running a
/// fixed program and performs no user-level scheduling.
///
/// It is used for the single-threaded "competing processes" of the Figure 7
/// multi-programming experiment and as a light-weight runtime for unit tests.
/// It supports no runtime operation: a program for this runtime creates,
/// joins and synchronizes with no other shred, and ends by halting.  A
/// runtime operation ends the run with [`MispError::InvalidWorkload`].
#[derive(Debug)]
pub struct SingleShredRuntime {
    program: ProgramRef,
    created: Vec<ShredId>,
}

impl SingleShredRuntime {
    /// Creates a runtime whose threads each run `program` once.
    #[must_use]
    pub fn new(program: ProgramRef) -> Self {
        SingleShredRuntime {
            program,
            created: Vec::new(),
        }
    }

    /// The shreds created so far (one per started thread).
    #[must_use]
    pub fn shreds(&self) -> &[ShredId] {
        &self.created
    }
}

impl Runtime for SingleShredRuntime {
    fn on_thread_start(&mut self, core: &mut EngineCore, thread: OsThreadId, now: Cycles) {
        let process = core
            .kernel()
            .thread(thread)
            .expect("thread must exist")
            .process();
        let shred = core.create_shred(process, thread, self.program, now);
        self.created.push(shred);
        core.wake_thread_sequencers(thread, now);
    }

    fn next_shred(
        &mut self,
        core: &mut EngineCore,
        _seq: SequencerId,
        thread: OsThreadId,
        _now: Cycles,
    ) -> Option<ShredId> {
        // The only candidate is the thread's own shred, if it is still ready.
        self.created.iter().copied().find(|id| {
            core.shred(*id)
                .map(|s| s.thread() == thread && s.status() == crate::ShredStatus::Ready)
                .unwrap_or(false)
        })
    }

    fn on_runtime_op(
        &mut self,
        _core: &mut EngineCore,
        _seq: SequencerId,
        _shred: ShredId,
        op: &RuntimeOp,
        _now: Cycles,
    ) -> Result<RuntimeOutcome> {
        Err(MispError::InvalidWorkload(format!(
            "SingleShredRuntime does not support runtime op `{op}`"
        )))
    }

    fn on_shred_halt(
        &mut self,
        _core: &mut EngineCore,
        _seq: SequencerId,
        _shred: ShredId,
        _now: Cycles,
    ) {
    }

    fn is_finished(&self, core: &EngineCore) -> bool {
        !self.created.is_empty()
            && self.created.iter().all(|id| {
                core.shred(*id)
                    .map(|s| s.status() == crate::ShredStatus::Done)
                    .unwrap_or(false)
            })
    }
}
