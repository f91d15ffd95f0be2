//! The engine core: all mutable simulation state shared with platforms and
//! runtimes.

use crate::{
    Event, EventLog, EventQueue, SequencerTable, ShredMut, ShredPool, ShredView, SimConfig,
    SimStats,
};
use misp_isa::{OwnedCursor, ProgramLibrary, ProgramRef, ShredProgram};
use misp_mem::MemorySystem;
use misp_os::Kernel;
use misp_trace::TraceKind;
use misp_types::{CostModel, Cycles, OsThreadId, ProcessId, SequencerId, ShredId};
use std::sync::Arc;

/// The execution context of an OS thread saved across a context switch: which
/// shred it was running on the CPU and how much of that shred's in-flight
/// operation remained.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SavedContext {
    /// The shred that was installed on the CPU, if any.
    pub current_shred: Option<ShredId>,
    /// Remaining cycles of the interrupted operation.
    pub remaining: Cycles,
}

/// All simulation state except the platform and the runtimes.
///
/// Platforms and runtimes receive `&mut EngineCore` so they can inspect and
/// manipulate sequencers, shreds, memory, the kernel, statistics and the event
/// queue without borrowing conflicts against themselves.
#[derive(Debug)]
pub struct EngineCore {
    config: SimConfig,
    now: Cycles,
    queue: EventQueue,
    sequencers: SequencerTable,
    shreds: ShredPool,
    memory: MemorySystem,
    kernel: Kernel,
    stats: SimStats,
    log: EventLog,
    programs: Vec<Arc<ShredProgram>>,
}

impl EngineCore {
    /// Creates the core for a machine with `sequencer_count` sequencers.
    /// The core takes ownership of `library`'s programs without copying them.
    #[must_use]
    pub fn new(config: SimConfig, sequencer_count: usize, library: ProgramLibrary) -> Self {
        let mut log = EventLog::default();
        if config.trace.enabled {
            // The whole ring is allocated here, before the run starts, so an
            // enabled trace preserves the zero-alloc steady state.
            log.enable_trace(config.trace.capacity);
        }
        // The cache hierarchy is deliberately NOT built here: its clustering
        // (which sequencers share an L2) is the platform's knowledge, so
        // every platform's `init` must call `MemorySystem::configure_caches`
        // — `Machine::start` asserts it happened when the config enables the
        // cache model.
        EngineCore {
            config,
            now: Cycles::ZERO,
            queue: EventQueue::new(),
            sequencers: SequencerTable::new(sequencer_count),
            shreds: ShredPool::new(),
            memory: MemorySystem::new(sequencer_count, config.tlb_capacity),
            kernel: Kernel::new(config.costs),
            stats: SimStats::new(sequencer_count),
            log,
            programs: library.into_iter().map(Arc::new).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The simulation configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The architectural cost model.
    #[must_use]
    pub fn costs(&self) -> &CostModel {
        &self.config.costs
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.now
    }

    pub(crate) fn set_now(&mut self, now: Cycles) {
        self.now = now;
    }

    /// Number of sequencers in the machine.
    #[must_use]
    pub fn sequencer_count(&self) -> usize {
        self.sequencers.len()
    }

    /// The per-sequencer state table (struct-of-arrays, keyed by
    /// [`SequencerId`]).
    #[must_use]
    pub fn sequencers(&self) -> &SequencerTable {
        &self.sequencers
    }

    /// Mutable access to the per-sequencer state table.
    pub fn sequencers_mut(&mut self) -> &mut SequencerTable {
        &mut self.sequencers
    }

    /// The shred pool.
    #[must_use]
    pub fn shreds(&self) -> &ShredPool {
        &self.shreds
    }

    /// A shred by identifier.
    #[must_use]
    pub fn shred(&self, id: ShredId) -> Option<ShredView<'_>> {
        self.shreds.get(id)
    }

    /// A shred by identifier, for a status change.
    pub fn shred_mut(&mut self, id: ShredId) -> Option<ShredMut<'_>> {
        self.shreds.get_mut(id)
    }

    /// The cursor-slab slot of live shred `id` (see [`ShredPool`]), or
    /// `None` once it has finished.  Slots are reused, so a runtime that
    /// keys a table by slot also stores the id it expects there.
    #[must_use]
    pub fn shred_slot(&self, id: ShredId) -> Option<usize> {
        self.shreds.slot(id)
    }

    /// The program cursor in cursor-slab slot `slot`.
    #[inline]
    pub(crate) fn cursor_mut(&mut self, slot: usize) -> &mut OwnedCursor {
        self.shreds.cursor_mut(slot)
    }

    /// The memory system.
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Mutable access to the memory system.
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }

    /// The OS kernel model.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the OS kernel model.
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// Simulation statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Mutable access to the statistics.
    pub fn stats_mut(&mut self) -> &mut SimStats {
        &mut self.stats
    }

    /// The event log.
    #[must_use]
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Records an event in the log at the current simulation time.
    pub fn log_event(&mut self, seq: SequencerId, kind: TraceKind) {
        let now = self.now;
        self.log.record(now, seq, kind);
    }

    /// The program referenced by `r`, if it exists in the library.
    #[must_use]
    pub fn program(&self, r: ProgramRef) -> Option<&Arc<ShredProgram>> {
        self.programs.get(r.as_usize())
    }

    // ------------------------------------------------------------------
    // Shred management
    // ------------------------------------------------------------------

    /// Creates a new shred for `process`, owned by `thread`, running the
    /// program referenced by `program`.
    ///
    /// # Panics
    ///
    /// Panics if `program` is not in the library.
    pub fn create_shred(
        &mut self,
        process: ProcessId,
        thread: OsThreadId,
        program: ProgramRef,
        now: Cycles,
    ) -> ShredId {
        let program = Arc::clone(
            self.programs
                .get(program.as_usize())
                .expect("program reference must be valid"),
        );
        self.create_shred_from(process, thread, program, now)
    }

    /// Like [`EngineCore::create_shred`], but runs `program` directly instead
    /// of a library entry: the path for code built per shred at run time,
    /// such as a service request's ops.  The shred shares `program` until it
    /// finishes and then releases it.
    pub fn create_shred_from(
        &mut self,
        process: ProcessId,
        thread: OsThreadId,
        program: Arc<ShredProgram>,
        now: Cycles,
    ) -> ShredId {
        let id = self.shreds.create(process, thread, program);
        self.log
            .record(now, SequencerId::new(0), TraceKind::ShredStart);
        id
    }

    /// Marks shred `id` finished, releasing its program and its cursor-slab
    /// slot.
    pub(crate) fn finish_shred(&mut self, id: ShredId) {
        self.shreds.finish(id);
    }

    /// Restarts live shred `id` at the start of `program` and returns the
    /// program it was running (see [`ShredPool::continue_at`]): a runtime
    /// that builds a long-running shred's code piece by piece installs the
    /// next piece from inside [`Runtime::on_runtime_op`](crate::Runtime),
    /// where no peeked operation is pending.
    pub fn continue_shred(
        &mut self,
        id: ShredId,
        program: Arc<ShredProgram>,
    ) -> Option<Arc<ShredProgram>> {
        self.shreds.continue_at(id, program)
    }

    /// Takes the program of shred `id`, which has run to completion, so a
    /// runtime can reuse it (see [`ShredPool::release`]).
    pub fn release_program(&mut self, id: ShredId) -> Option<Arc<ShredProgram>> {
        self.shreds.release(id)
    }

    // ------------------------------------------------------------------
    // Event scheduling
    // ------------------------------------------------------------------

    #[cfg(test)]
    pub(crate) fn queue_mut(&mut self) -> &mut EventQueue {
        &mut self.queue
    }

    pub(crate) fn pop_event(&mut self) -> Option<crate::ScheduledEvent> {
        self.queue.pop()
    }

    /// Current event-queue occupancy (the sampler's queue-depth gauge).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The event queue's self-profiling counters accumulated so far.
    #[must_use]
    pub fn queue_profile(&self) -> misp_trace::QueueProfile {
        self.queue.profile()
    }

    /// Schedules the interval metrics sampler to fire at `at`.  Sampler
    /// events have no supersede slot and draw their `seqno` from the shared
    /// counter like every other event.
    pub(crate) fn schedule_sample(&mut self, at: Cycles) {
        self.queue.push(at, Event::Sample);
    }

    /// Removes and returns the trace ring for end-of-run reporting.
    pub(crate) fn take_trace(&mut self) -> Option<Box<misp_trace::TraceBuffer>> {
        self.log.take_trace()
    }

    /// The time of the earliest pending event, if any.  This is the engine's
    /// macro-step *batch horizon*: operations whose completion lands strictly
    /// before it can be executed inline, because no queued event can observe
    /// or perturb the executing sequencer in the meantime.
    #[must_use]
    pub fn next_event_time(&self) -> Option<Cycles> {
        self.queue.peek().map(|e| e.time)
    }

    /// Schedules the next `SeqReady` for `seq` at absolute time `at`,
    /// invalidating any previously scheduled event for that sequencer.
    pub fn schedule_ready(&mut self, seq: SequencerId, at: Cycles) {
        let generation = self.sequencers.bump_generation(seq);
        self.sequencers.set_pending(seq, Some(at));
        self.queue.push(at, Event::SeqReady { seq, generation });
    }

    /// Schedules a timer tick for the OS-visible CPU `cpu` at `at`.
    pub fn schedule_timer(&mut self, cpu: SequencerId, at: Cycles, tick: u64) {
        self.queue.push(at, Event::TimerTick { cpu, tick });
    }

    /// Wakes `seq` at time `now` if it is idle (no shred installed, not
    /// suspended): the sequencer will ask its runtime for work.
    pub fn wake(&mut self, seq: SequencerId, now: Cycles) {
        if self.sequencers.is_idle(seq) {
            self.schedule_ready(seq, now);
        }
    }

    /// Wakes every idle sequencer currently bound to `thread`.
    pub fn wake_thread_sequencers(&mut self, thread: OsThreadId, now: Cycles) {
        for id in self.sequencers.ids() {
            if self.sequencers.bound_thread(id) == Some(thread) && self.sequencers.is_idle(id) {
                self.schedule_ready(id, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Suspension / stall primitives used by platforms
    // ------------------------------------------------------------------

    /// Suspends `seq` indefinitely at `now`, capturing the remainder of its
    /// in-flight operation.  A later call to [`EngineCore::resume`] restarts
    /// it.  Any timed stall window currently open on the sequencer is
    /// subsumed: pending stall-end events will be ignored.
    pub fn suspend(&mut self, seq: SequencerId, now: Cycles) {
        if !self.sequencers.is_suspended(seq) {
            self.sequencers.suspend(seq, now);
            self.log.record(now, seq, TraceKind::Suspend);
        }
        self.sequencers.set_stall_end(seq, None);
    }

    /// Resumes a suspended sequencer at time `at`, scheduling the completion
    /// of its interrupted operation (if any) or a work request.
    pub fn resume(&mut self, seq: SequencerId, at: Cycles) {
        if let Some(remaining) = self.sequencers.clear_suspension(seq) {
            let resume_at = at + remaining;
            self.log.record(at, seq, TraceKind::Resume);
            self.schedule_ready(seq, resume_at);
        }
    }

    /// Stalls `seq` over the window `[now, until]`: the sequencer performs no
    /// work during the window and its in-flight operation is pushed out by the
    /// window's length.  Overlapping stall windows are merged: issuing a stall
    /// that ends later than the current one extends it, and the lost cycles
    /// are accounted only once.  A stall issued while the sequencer is
    /// indefinitely suspended is ignored (the indefinite suspension already
    /// covers it).
    pub fn stall(&mut self, seq: SequencerId, now: Cycles, until: Cycles) {
        if until <= now {
            return;
        }
        if self.sequencers.is_suspended(seq) {
            self.merge_stall_window(seq, until);
            return;
        }

        // Macro-step fast path for single-sequencer machines: with only one
        // simulated actor plus its timer, nothing can observe or extend the
        // window [now, until] before it elapses — the only mid-window pops
        // are stale `SeqReady`/leftover `StallEnd` no-ops, and every timer
        // tick lies on the configured grid, so `until` strictly before the
        // next grid point guarantees no tick lands inside the window.  The
        // stall, its `StallEnd` event and the resume can then be collapsed
        // into the resume's `SeqReady` alone, with identical accounting and
        // identical (adjacent) Suspend/Resume log records.  The second guard
        // excludes the one seqno tie that could reorder equal-time pops: the
        // eagerly scheduled resume must not collide with the next tick,
        // which the event-per-operation loop would have pushed first.
        if self.config.batch && self.sequencers.len() == 1 {
            let rem = self
                .sequencers
                .pending_at(seq)
                .map_or(Cycles::ZERO, |at| at.saturating_sub(now));
            let next_tick = self.config.timer.next_tick_after(now);
            if until < next_tick && until + rem != next_tick {
                self.open_stall_window(seq, now, until);
                let captured = self
                    .sequencers
                    .clear_suspension(seq)
                    .expect("just suspended");
                debug_assert_eq!(captured, rem);
                self.log.record(until, seq, TraceKind::Resume);
                self.schedule_ready(seq, until + captured);
                return;
            }
        }

        self.open_stall_window(seq, now, until);
        self.queue.push(until, Event::StallEnd { seq });
    }

    /// Opens a fresh stall window on a non-suspended sequencer: suspends it
    /// (capturing its in-flight work), accounts the lost cycles once, and
    /// records the Suspend log entry.  Scheduling the window's end event is
    /// the caller's business ([`EngineCore::stall`] pushes a `StallEnd` or
    /// resumes eagerly; [`EngineCore::stall_many`] batches group events) —
    /// keeping the accounting in one place is what guarantees the paths stay
    /// byte-identical.
    fn open_stall_window(&mut self, seq: SequencerId, now: Cycles, until: Cycles) {
        self.sequencers.suspend(seq, now);
        self.sequencers.set_stall_end(seq, Some(until));
        let lost = until - now;
        self.sequencers.add_stalled(seq, lost);
        self.stats.suspension_cycles += lost;
        self.log.record(now, seq, TraceKind::Suspend);
    }

    /// Merges a stall request into an already-suspended sequencer's state:
    /// extends a timed window that ends earlier (accounting only the extra
    /// cycles and scheduling the new end), and leaves indefinite or covering
    /// suspensions alone.
    fn merge_stall_window(&mut self, seq: SequencerId, until: Cycles) {
        match self.sequencers.stall_end(seq) {
            // Indefinitely suspended: the owner resumes it explicitly.
            None => {}
            Some(end) if until > end => {
                let extra = until - end;
                self.sequencers.add_stalled(seq, extra);
                self.sequencers.set_stall_end(seq, Some(until));
                self.stats.suspension_cycles += extra;
                self.queue.push(until, Event::StallEnd { seq });
            }
            Some(_) => {} // fully covered by the existing window
        }
    }

    /// Stalls every sequencer in `seqs` (in order) over the shared window
    /// `[now, until]`, with exactly the per-sequencer semantics of
    /// [`EngineCore::stall`] — merged overlapping windows, single-counted
    /// lost cycles, indefinite suspensions left alone.
    ///
    /// With [`SimConfig::batch`] enabled, runs of sequencers opening a
    /// *fresh* window are covered by a single [`Event::StallEndGroup`] queue
    /// entry instead of one `StallEnd` each; window extensions keep their
    /// own `StallEnd` events, pushed in the same relative order as the
    /// per-sequencer loop would have pushed them, so resume processing is
    /// byte-identical either way.
    pub fn stall_many(&mut self, seqs: &[SequencerId], now: Cycles, until: Cycles) {
        if until <= now {
            return;
        }
        if !self.config.batch {
            for &seq in seqs {
                self.stall(seq, now, until);
            }
            return;
        }
        // A segment is a run of consecutive fresh windows whose events can
        // share one queue entry.  An extension event breaks the segment so
        // the queue's equal-time pop order (push order) matches the
        // per-sequencer loop exactly.
        let mut seg: Option<(u32, u32)> = None; // (base sequencer index, mask)
        for &seq in seqs {
            if self.sequencers.is_suspended(seq) {
                // An extension pushes its own StallEnd; flush the current
                // segment first so equal-time pop order matches the
                // per-sequencer loop's push order.
                let extends = matches!(self.sequencers.stall_end(seq), Some(end) if until > end);
                if extends {
                    if let Some((base, mask)) = seg.take() {
                        self.push_stall_group(base, mask, until);
                    }
                }
                self.merge_stall_window(seq, until);
                continue;
            }
            self.open_stall_window(seq, now, until);
            let idx = seq.index();
            seg = match seg {
                None => Some((idx, 1)),
                Some((base, mask)) if idx > base && idx - base < 32 => {
                    Some((base, mask | (1 << (idx - base))))
                }
                Some((base, mask)) => {
                    self.push_stall_group(base, mask, until);
                    Some((idx, 1))
                }
            };
        }
        if let Some((base, mask)) = seg {
            self.push_stall_group(base, mask, until);
        }
    }

    /// Pushes the queue entry for one stall segment: a plain `StallEnd` for a
    /// single sequencer, a `StallEndGroup` for several.
    fn push_stall_group(&mut self, base: u32, mask: u32, until: Cycles) {
        if mask == 1 {
            self.queue.push(
                until,
                Event::StallEnd {
                    seq: SequencerId::new(base),
                },
            );
        } else {
            self.queue.push(until, Event::StallEndGroup { base, mask });
        }
    }

    /// Handles the end of a timed stall window (called by the engine loop).
    /// Returns `true` if the sequencer was actually resumed.
    pub(crate) fn handle_stall_end(&mut self, seq: SequencerId, now: Cycles) -> bool {
        match (
            self.sequencers.is_suspended(seq),
            self.sequencers.stall_end(seq),
        ) {
            (true, Some(end)) if end <= now => {
                self.resume(seq, now);
                true
            }
            _ => false,
        }
    }

    /// Captures and clears the execution context of the OS thread currently
    /// installed on `seq` (used by platforms when the OS preempts a thread).
    ///
    /// If the sequencer is suspended at the time of the save, the remaining
    /// work captured at suspension is transferred into the saved context and
    /// the suspension is cleared (the context now owns that state).
    pub fn save_context(&mut self, seq: SequencerId, now: Cycles) -> SavedContext {
        let remaining = if self.sequencers.is_suspended(seq) {
            self.sequencers
                .clear_suspension(seq)
                .unwrap_or(Cycles::ZERO)
        } else {
            match self.sequencers.pending_at(seq) {
                Some(at) => at.saturating_sub(now),
                None => Cycles::ZERO,
            }
        };
        let ctx = SavedContext {
            current_shred: self.sequencers.current_shred(seq),
            remaining,
        };
        self.sequencers.set_current_shred(seq, None);
        self.sequencers.set_pending(seq, None);
        self.sequencers.bump_generation(seq);
        ctx
    }

    /// Installs a previously saved execution context on `seq`, scheduling its
    /// continuation at `at` (plus any remaining in-flight work).
    pub fn restore_context(&mut self, seq: SequencerId, ctx: SavedContext, at: Cycles) {
        self.sequencers.set_current_shred(seq, ctx.current_shred);
        let resume_at = at + ctx.remaining;
        self.schedule_ready(seq, resume_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShredStatus;
    use misp_isa::ProgramBuilder;

    fn core_with(programs: usize, sequencers: usize) -> EngineCore {
        let mut lib = ProgramLibrary::new();
        for i in 0..programs {
            lib.insert(
                ProgramBuilder::new(format!("p{i}"))
                    .compute(Cycles::new(100))
                    .build(),
            );
        }
        EngineCore::new(SimConfig::default(), sequencers, lib)
    }

    #[test]
    fn construction_sizes() {
        let core = core_with(2, 4);
        assert_eq!(core.sequencer_count(), 4);
        assert!(core.program(ProgramRef::new(1)).is_some());
        assert!(core.program(ProgramRef::new(2)).is_none());
        assert_eq!(core.memory().sequencer_count(), 4);
        assert!(core.shreds().is_empty());
        assert_eq!(core.now(), Cycles::ZERO);
    }

    #[test]
    fn create_shred_resolves_program() {
        let mut core = core_with(1, 1);
        let pid = core.kernel_mut().spawn_process("p");
        let tid = core.kernel_mut().spawn_thread(pid);
        let id = core.create_shred(pid, tid, ProgramRef::new(0), Cycles::ZERO);
        assert_eq!(core.shred(id).unwrap().program_name(), "p0");
        assert_eq!(core.shred(id).unwrap().process(), pid);
    }

    /// A program built for one shred lives only as long as that shred: once
    /// the shred finishes, the caller's handle is the last one.
    #[test]
    fn a_finished_shred_releases_its_program() {
        let mut core = core_with(0, 1);
        let pid = core.kernel_mut().spawn_process("p");
        let tid = core.kernel_mut().spawn_thread(pid);
        let request = Arc::new(
            ProgramBuilder::new("request")
                .compute(Cycles::new(100))
                .build(),
        );
        let id = core.create_shred_from(pid, tid, Arc::clone(&request), Cycles::ZERO);
        assert_eq!(Arc::strong_count(&request), 2);
        assert_eq!(core.shred(id).unwrap().program_name(), "request");
        core.finish_shred(id);
        assert_eq!(Arc::strong_count(&request), 1);
        let done = core.shred(id).unwrap();
        assert_eq!(done.status(), ShredStatus::Done);
        assert_eq!(done.program_name(), "", "a finished shred holds no program");

        // A runtime may take the program back first; finishing then leaves
        // the runtime's handle as the only one.
        let id = core.create_shred_from(pid, tid, Arc::clone(&request), Cycles::ZERO);
        let taken = core.release_program(id).unwrap();
        assert!(Arc::ptr_eq(&taken, &request));
        core.finish_shred(id);
        assert_eq!(
            Arc::strong_count(&request),
            2,
            "the test's and the runtime's"
        );
        assert_eq!(core.shred(id).unwrap().program_name(), "");
    }

    #[test]
    #[should_panic(expected = "program reference must be valid")]
    fn create_shred_with_bad_ref_panics() {
        let mut core = core_with(1, 1);
        let pid = core.kernel_mut().spawn_process("p");
        let tid = core.kernel_mut().spawn_thread(pid);
        let _ = core.create_shred(pid, tid, ProgramRef::new(7), Cycles::ZERO);
    }

    #[test]
    fn schedule_ready_invalidates_older_events() {
        let mut core = core_with(1, 1);
        let seq = SequencerId::new(0);
        core.schedule_ready(seq, Cycles::new(10));
        let gen1 = core.sequencers().generation(seq);
        core.schedule_ready(seq, Cycles::new(20));
        let gen2 = core.sequencers().generation(seq);
        assert!(gen2 > gen1);
        // The superseded event was replaced in place: one live event remains,
        // carrying the latest generation and the latest time.
        assert_eq!(core.queue_mut().len(), 1);
        let only = core.pop_event().unwrap();
        assert_eq!(only.time, Cycles::new(20));
        match only.event {
            Event::SeqReady { generation, .. } => assert_eq!(generation, gen2),
            other => panic!("unexpected event {other:?}"),
        }
        assert!(core.pop_event().is_none());
    }

    #[test]
    fn wake_only_affects_idle_sequencers() {
        let mut core = core_with(1, 2);
        let s0 = SequencerId::new(0);
        let s1 = SequencerId::new(1);
        // Give s1 a shred so it is not idle.
        let pid = core.kernel_mut().spawn_process("p");
        let tid = core.kernel_mut().spawn_thread(pid);
        let shred = core.create_shred(pid, tid, ProgramRef::new(0), Cycles::ZERO);
        core.sequencers_mut().set_current_shred(s1, Some(shred));
        core.wake(s0, Cycles::new(5));
        core.wake(s1, Cycles::new(5));
        assert_eq!(
            core.queue_mut().len(),
            1,
            "only the idle sequencer is woken"
        );
    }

    #[test]
    fn wake_thread_sequencers_filters_by_binding() {
        let mut core = core_with(1, 3);
        let t = OsThreadId::new(0);
        core.sequencers_mut()
            .set_bound_thread(SequencerId::new(0), Some(t));
        core.sequencers_mut()
            .set_bound_thread(SequencerId::new(1), Some(OsThreadId::new(1)));
        core.wake_thread_sequencers(t, Cycles::ZERO);
        assert_eq!(core.queue_mut().len(), 1);
    }

    /// A single-sequencer core with the macro-step fast paths disabled, for
    /// tests that pin the event-per-operation stall mechanism.
    fn queued_core() -> EngineCore {
        let mut lib = ProgramLibrary::new();
        lib.insert(ProgramBuilder::new("p0").compute(Cycles::new(100)).build());
        let config = SimConfig {
            batch: false,
            ..SimConfig::default()
        };
        EngineCore::new(config, 1, lib)
    }

    #[test]
    fn stall_accumulates_statistics_and_reschedules() {
        let mut core = queued_core();
        let seq = SequencerId::new(0);
        // Pretend an op completes at t=100.
        core.schedule_ready(seq, Cycles::new(100));
        core.stall(seq, Cycles::new(40), Cycles::new(90));
        assert_eq!(core.sequencers().stalled(seq), Cycles::new(50));
        assert_eq!(core.stats().suspension_cycles, Cycles::new(50));
        assert!(core.sequencers().is_suspended(seq));
        assert_eq!(core.sequencers().stall_end(seq), Some(Cycles::new(90)));
        // Processing the stall end resumes the sequencer and re-schedules the
        // interrupted completion at 90 + (100 - 40) = 150.
        assert!(core.handle_stall_end(seq, Cycles::new(90)));
        assert!(!core.sequencers().is_suspended(seq));
        assert_eq!(core.sequencers().pending_at(seq), Some(Cycles::new(150)));
    }

    #[test]
    fn overlapping_stalls_extend_without_double_counting() {
        let mut core = queued_core();
        let seq = SequencerId::new(0);
        core.schedule_ready(seq, Cycles::new(1_000));
        core.stall(seq, Cycles::new(100), Cycles::new(200));
        // A longer overlapping window extends the stall by only the extra part.
        core.stall(seq, Cycles::new(150), Cycles::new(300));
        // A shorter overlapping window changes nothing.
        core.stall(seq, Cycles::new(160), Cycles::new(250));
        assert_eq!(core.sequencers().stalled(seq), Cycles::new(200));
        assert_eq!(core.sequencers().stall_end(seq), Some(Cycles::new(300)));
        // The first stall-end event (at 200) must not resume the sequencer.
        assert!(!core.handle_stall_end(seq, Cycles::new(200)));
        assert!(core.sequencers().is_suspended(seq));
        assert!(core.handle_stall_end(seq, Cycles::new(300)));
        // Remaining work was captured at the first suspension (1000 - 100).
        assert_eq!(core.sequencers().pending_at(seq), Some(Cycles::new(1_200)));
    }

    #[test]
    fn single_sequencer_stall_resumes_eagerly_with_identical_accounting() {
        // With batching on and one sequencer, stall() collapses the
        // StallEnd/resume round trip: the sequencer is left running with its
        // continuation scheduled at the same time, the same lost cycles and
        // the same Suspend/Resume log counts as the queued path produces.
        let mut core = core_with(1, 1);
        let seq = SequencerId::new(0);
        core.schedule_ready(seq, Cycles::new(100));
        core.stall(seq, Cycles::new(40), Cycles::new(90));
        assert!(
            !core.sequencers().is_suspended(seq),
            "eager path resumes immediately"
        );
        assert_eq!(core.sequencers().stalled(seq), Cycles::new(50));
        assert_eq!(core.stats().suspension_cycles, Cycles::new(50));
        // 90 (window end) + 60 (remaining work) — exactly where the queued
        // path's StallEnd-then-resume would land.
        assert_eq!(core.sequencers().pending_at(seq), Some(Cycles::new(150)));
        assert_eq!(core.log().count(TraceKind::Suspend), 1);
        assert_eq!(core.log().count(TraceKind::Resume), 1);
        // Only the rescheduled SeqReady is queued; no StallEnd round trip.
        let only = core.pop_event().unwrap();
        assert_eq!(only.time, Cycles::new(150));
        assert!(matches!(only.event, Event::SeqReady { .. }));
        assert!(core.pop_event().is_none());
    }

    #[test]
    fn stall_with_zero_window_is_noop() {
        let mut core = core_with(1, 1);
        let seq = SequencerId::new(0);
        core.stall(seq, Cycles::new(10), Cycles::new(10));
        assert_eq!(core.sequencers().stalled(seq), Cycles::ZERO);
        assert!(!core.sequencers().is_suspended(seq));
    }

    #[test]
    fn nested_stall_keeps_first_suspension() {
        let mut core = core_with(1, 1);
        let seq = SequencerId::new(0);
        core.suspend(seq, Cycles::new(10));
        // A stall while already suspended must not resume the sequencer.
        core.stall(seq, Cycles::new(20), Cycles::new(30));
        assert!(core.sequencers().is_suspended(seq));
    }

    #[test]
    fn save_and_restore_context_round_trips() {
        let mut core = core_with(1, 1);
        let seq = SequencerId::new(0);
        let pid = core.kernel_mut().spawn_process("p");
        let tid = core.kernel_mut().spawn_thread(pid);
        let shred = core.create_shred(pid, tid, ProgramRef::new(0), Cycles::ZERO);
        core.sequencers_mut().set_current_shred(seq, Some(shred));
        core.schedule_ready(seq, Cycles::new(100));
        let ctx = core.save_context(seq, Cycles::new(30));
        assert_eq!(ctx.current_shred, Some(shred));
        assert_eq!(ctx.remaining, Cycles::new(70));
        assert_eq!(core.sequencers().current_shred(seq), None);
        core.restore_context(seq, ctx, Cycles::new(500));
        assert_eq!(core.sequencers().current_shred(seq), Some(shred));
        assert_eq!(core.sequencers().pending_at(seq), Some(Cycles::new(570)));
    }

    #[test]
    fn log_event_records_with_current_time() {
        let mut core = core_with(1, 1);
        core.set_now(Cycles::new(77));
        core.log_event(SequencerId::new(0), TraceKind::RingEnter);
        assert_eq!(core.log().count(TraceKind::RingEnter), 1);
    }
}
