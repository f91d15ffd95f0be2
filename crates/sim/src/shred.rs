//! Shred lifecycle records and the shred pool.
//!
//! The pool splits a shred's state by lifetime.  Every shred ever created
//! keeps a 16-byte record (process, thread, status, slab slot),
//! indexed by its dense, never-reused [`ShredId`], so a join on a
//! long-finished shred still reads [`ShredStatus::Done`].  Only live shreds
//! hold a program cursor: cursors sit in a slab whose slots a finished shred
//! hands back on a free list and the next [`ShredPool::create`] reuses, so
//! the slab's length is the peak number of live shreds, not the number of
//! shreds ever created.
//!
//! The pool also keeps a per-process count of unfinished shreds and a count
//! of ready shreds.  [`ShredPool::process_done`] and [`ShredPool::ready`] are
//! counter reads.  Status changes go through [`ShredMut`], and only
//! [`ShredPool::finish`] marks a shred done, so the counts cannot drift.

use misp_isa::{OwnedCursor, ShredProgram};
use misp_types::{OsThreadId, ProcessId, ShredId};
use std::sync::Arc;

/// Lifecycle state of a shred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShredStatus {
    /// Ready to run (waiting in a runtime queue).
    Ready,
    /// Currently installed on a sequencer.
    Running,
    /// Blocked on a synchronization object or a join.
    Blocked,
    /// Finished execution.
    Done,
}

/// The slot of a finished shred: it owns no cursor.
const NO_SLOT: u32 = u32::MAX;

/// What the pool keeps for every shred ever created.
#[derive(Debug, Clone, Copy)]
struct ShredRecord {
    process: ProcessId,
    thread: OsThreadId,
    /// Index of the shred's cursor in the slab, or [`NO_SLOT`] once done.
    slot: u32,
    status: ShredStatus,
}

const _: () = assert!(std::mem::size_of::<ShredRecord>() == 16);

/// A read-only view of one shred.
#[derive(Debug, Clone, Copy)]
pub struct ShredView<'a> {
    record: &'a ShredRecord,
    cursor: Option<&'a OwnedCursor>,
}

impl ShredView<'_> {
    /// The process this shred belongs to.
    #[must_use]
    pub fn process(&self) -> ProcessId {
        self.record.process
    }

    /// The OS thread that owns this shred.
    #[must_use]
    pub fn thread(&self) -> OsThreadId {
        self.record.thread
    }

    /// The current lifecycle status.
    #[must_use]
    pub fn status(&self) -> ShredStatus {
        self.record.status
    }

    /// The shred's program name.
    ///
    /// A finished shred holds no program, so it reports the empty string.
    /// So does a live shred whose program was taken with
    /// [`ShredPool::release`].
    #[must_use]
    pub fn program_name(&self) -> &str {
        self.cursor.map_or("", |c| c.program().name())
    }
}

/// Mutable access to one shred's status.
#[derive(Debug)]
pub struct ShredMut<'a> {
    record: &'a mut ShredRecord,
    ready: &'a mut usize,
}

impl ShredMut<'_> {
    /// The current lifecycle status.
    #[must_use]
    pub fn status(&self) -> ShredStatus {
        self.record.status
    }

    /// Moves the shred between ready, running and blocked.
    ///
    /// # Panics
    ///
    /// Panics if `status` is [`ShredStatus::Done`] (only
    /// [`ShredPool::finish`] ends a shred) or if the shred already finished.
    pub fn set_status(&mut self, status: ShredStatus) {
        assert!(
            status != ShredStatus::Done,
            "only ShredPool::finish marks a shred done"
        );
        assert!(
            self.record.status != ShredStatus::Done,
            "a finished shred never changes status"
        );
        if self.record.status == ShredStatus::Ready {
            *self.ready -= 1;
        }
        if status == ShredStatus::Ready {
            *self.ready += 1;
        }
        self.record.status = status;
    }
}

/// The pool of all shreds created during a simulation, across all processes.
#[derive(Debug)]
pub struct ShredPool {
    /// One record per shred ever created, indexed by [`ShredId`].
    records: Vec<ShredRecord>,
    /// The cursor slab: one slot per live shred, plus free slots.
    cursors: Vec<OwnedCursor>,
    /// Slab slots handed back by finished shreds, reused last-in first-out.
    free: Vec<u32>,
    /// Unfinished shreds per process, indexed by [`ProcessId`].
    unfinished: Vec<u32>,
    /// Shreds in [`ShredStatus::Ready`].
    ready: usize,
    /// The empty program a freed slot's cursor points at until reuse, and a
    /// released shred's cursor points at until it finishes.
    released: Arc<ShredProgram>,
}

impl Default for ShredPool {
    fn default() -> Self {
        ShredPool {
            records: Vec::new(),
            cursors: Vec::new(),
            free: Vec::new(),
            unfinished: Vec::new(),
            ready: 0,
            released: Arc::new(ShredProgram::empty("")),
        }
    }
}

impl ShredPool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        ShredPool::default()
    }

    /// Creates a new shred in the [`ShredStatus::Ready`] state and returns its
    /// identifier.  The shred's cursor takes a free slab slot if there is
    /// one.
    pub fn create(
        &mut self,
        process: ProcessId,
        thread: OsThreadId,
        program: Arc<ShredProgram>,
    ) -> ShredId {
        let id = ShredId::new(self.records.len() as u32);
        let cursor = OwnedCursor::new(program);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.cursors[slot as usize] = cursor;
                slot
            }
            None => {
                self.cursors.push(cursor);
                (self.cursors.len() - 1) as u32
            }
        };
        let p = process.as_usize();
        if p >= self.unfinished.len() {
            self.unfinished.resize(p + 1, 0);
        }
        self.unfinished[p] += 1;
        self.ready += 1;
        self.records.push(ShredRecord {
            process,
            thread,
            slot,
            status: ShredStatus::Ready,
        });
        id
    }

    /// Marks shred `id` finished and frees its slab slot for the next
    /// shred.  The slot's cursor moves to the pool's shared empty program,
    /// so a program built for one shred is freed as soon as that shred is
    /// done.  Finishing a finished shred does nothing.
    pub fn finish(&mut self, id: ShredId) {
        let Some(record) = self.records.get_mut(id.as_usize()) else {
            return;
        };
        if record.status == ShredStatus::Done {
            return;
        }
        if record.status == ShredStatus::Ready {
            self.ready -= 1;
        }
        record.status = ShredStatus::Done;
        self.unfinished[record.process.as_usize()] -= 1;
        let slot = std::mem::replace(&mut record.slot, NO_SLOT);
        let cursor = &mut self.cursors[slot as usize];
        // A runtime that reuses programs has usually taken this one already
        // (`release`); skipping the swap then saves two atomic
        // reference-count updates per shred.
        if !Arc::ptr_eq(cursor.program(), &self.released) {
            *cursor = OwnedCursor::new(Arc::clone(&self.released));
        }
        self.free.push(slot);
    }

    /// Takes live shred `id`'s program, leaving the shared empty program in
    /// its place: the hand-back for a runtime that reuses the program once
    /// the shred has run it to completion.  The shred must not execute
    /// again.  Returns `None` for an unknown or finished shred.
    pub fn release(&mut self, id: ShredId) -> Option<Arc<ShredProgram>> {
        let slot = self.slot(id)?;
        let released = OwnedCursor::new(Arc::clone(&self.released));
        let taken = std::mem::replace(&mut self.cursors[slot], released);
        Some(taken.into_program())
    }

    /// Restarts live shred `id`'s cursor, in the same slab slot, at the
    /// start of `program`, and returns the program it was running: the way
    /// a runtime hands a running shred its next stretch of code.  Returns
    /// `None` for an unknown or finished shred.
    ///
    /// # Panics
    ///
    /// Panics if the cursor holds a peeked operation, which the restart
    /// would drop.  The engine peeks only after an inline operation, so a
    /// runtime op handler never sees one pending.
    pub fn continue_at(
        &mut self,
        id: ShredId,
        program: Arc<ShredProgram>,
    ) -> Option<Arc<ShredProgram>> {
        let slot = self.slot(id)?;
        let cursor = &mut self.cursors[slot];
        assert!(
            !cursor.has_peeked(),
            "a shred with a peeked operation cannot be continued"
        );
        let old = std::mem::replace(cursor, OwnedCursor::new(program));
        Some(old.into_program())
    }

    /// Looks up a shred.
    #[must_use]
    pub fn get(&self, id: ShredId) -> Option<ShredView<'_>> {
        let record = self.records.get(id.as_usize())?;
        Some(ShredView {
            record,
            cursor: self.cursors.get(record.slot as usize),
        })
    }

    /// Looks up a shred for a status change.
    pub fn get_mut(&mut self, id: ShredId) -> Option<ShredMut<'_>> {
        Some(ShredMut {
            record: self.records.get_mut(id.as_usize())?,
            ready: &mut self.ready,
        })
    }

    /// The slab slot of live shred `id`: the engine resolves it once per
    /// step and then fetches every operation with [`ShredPool::cursor_mut`].
    pub(crate) fn slot(&self, id: ShredId) -> Option<usize> {
        self.records
            .get(id.as_usize())
            .filter(|r| r.slot != NO_SLOT)
            .map(|r| r.slot as usize)
    }

    /// The program cursor in slab slot `slot`.
    #[inline]
    pub(crate) fn cursor_mut(&mut self, slot: usize) -> &mut OwnedCursor {
        &mut self.cursors[slot]
    }

    /// Total number of shreds ever created.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when no shreds have been created.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of shreds in [`ShredStatus::Ready`], across all processes.
    #[must_use]
    pub fn ready(&self) -> usize {
        self.ready
    }

    /// Length of the cursor slab: the peak number of live shreds so far.
    #[must_use]
    pub fn slab_len(&self) -> usize {
        self.cursors.len()
    }

    /// Heap bytes the pool's own tables hold, at capacity (the programs
    /// the cursors share are not counted).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.records.capacity() * size_of::<ShredRecord>()
            + self.cursors.capacity() * size_of::<OwnedCursor>()
            + (self.free.capacity() + self.unfinished.capacity()) * size_of::<u32>()
    }

    /// Returns `true` when every shred belonging to `process` is done.
    /// A process with no shreds counts as done.
    #[must_use]
    pub fn process_done(&self, process: ProcessId) -> bool {
        self.unfinished
            .get(process.as_usize())
            .copied()
            .unwrap_or(0)
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_isa::{Op, ProgramBuilder};
    use misp_types::Cycles;

    fn program(name: &str) -> Arc<ShredProgram> {
        Arc::new(ProgramBuilder::new(name).compute(Cycles::new(1)).build())
    }

    #[test]
    fn create_and_lookup() {
        let mut pool = ShredPool::new();
        assert!(pool.is_empty());
        let a = pool.create(ProcessId::new(0), OsThreadId::new(0), program("a"));
        let b = pool.create(ProcessId::new(0), OsThreadId::new(1), program("b"));
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(a).unwrap().program_name(), "a");
        assert_eq!(pool.get(b).unwrap().thread(), OsThreadId::new(1));
        assert!(pool.get(ShredId::new(9)).is_none());
    }

    #[test]
    fn status_lifecycle() {
        let mut pool = ShredPool::new();
        let id = pool.create(ProcessId::new(0), OsThreadId::new(0), program("x"));
        assert_eq!(pool.get(id).unwrap().status(), ShredStatus::Ready);
        assert_eq!(pool.ready(), 1);
        pool.get_mut(id).unwrap().set_status(ShredStatus::Running);
        assert_eq!(pool.get(id).unwrap().status(), ShredStatus::Running);
        assert_eq!(pool.ready(), 0);
        pool.finish(id);
        assert_eq!(pool.get(id).unwrap().status(), ShredStatus::Done);
        pool.finish(id);
        assert_eq!(pool.get(id).unwrap().status(), ShredStatus::Done);
        assert_eq!(pool.ready(), 0);
    }

    #[test]
    #[should_panic(expected = "only ShredPool::finish marks a shred done")]
    fn status_changes_cannot_finish_a_shred() {
        let mut pool = ShredPool::new();
        let id = pool.create(ProcessId::new(0), OsThreadId::new(0), program("x"));
        pool.get_mut(id).unwrap().set_status(ShredStatus::Done);
    }

    #[test]
    fn process_done_tracks_per_process() {
        let mut pool = ShredPool::new();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let a = pool.create(p0, OsThreadId::new(0), program("a"));
        let _b = pool.create(p1, OsThreadId::new(1), program("b"));
        assert!(!pool.process_done(p0));
        pool.finish(a);
        assert!(pool.process_done(p0));
        assert!(!pool.process_done(p1));
        assert!(
            pool.process_done(ProcessId::new(9)),
            "no shreds counts as done"
        );
    }

    #[test]
    fn finished_slots_are_reused_and_ids_are_not() {
        let mut pool = ShredPool::new();
        let p = ProcessId::new(0);
        let t = OsThreadId::new(0);
        let a = pool.create(p, t, program("a"));
        let b = pool.create(p, t, program("b"));
        pool.finish(a);
        let c = pool.create(p, t, program("c"));
        assert_eq!(c, ShredId::new(2), "ids stay dense and monotone");
        assert_eq!(pool.slab_len(), 2, "c took a's slot");
        assert_eq!(pool.get(a).unwrap().status(), ShredStatus::Done);
        assert_eq!(pool.get(a).unwrap().program_name(), "");
        assert_eq!(pool.get(b).unwrap().program_name(), "b");
        assert_eq!(pool.get(c).unwrap().program_name(), "c");
        assert!(pool.release(a).is_none(), "a finished shred holds nothing");
    }

    #[test]
    fn continued_shred_keeps_its_slot_and_runs_the_new_program() {
        let mut pool = ShredPool::new();
        let first = program("first");
        let id = pool.create(ProcessId::new(0), OsThreadId::new(0), Arc::clone(&first));
        let slot = pool.slot(id).unwrap();
        assert_eq!(pool.cursor_mut(slot).next_op(), Op::Compute(Cycles::new(1)));
        let next = Arc::new(ProgramBuilder::new("next").compute(Cycles::new(5)).build());
        let old = pool.continue_at(id, next).unwrap();
        assert!(Arc::ptr_eq(&old, &first), "the old program is handed back");
        assert_eq!(pool.slot(id), Some(slot), "same slab slot");
        assert_eq!(pool.cursor_mut(slot).next_op(), Op::Compute(Cycles::new(5)));
        assert_eq!(pool.cursor_mut(slot).next_op(), Op::Halt);
        pool.finish(id);
        assert!(pool.continue_at(id, program("late")).is_none());
    }

    #[test]
    #[should_panic(expected = "peeked operation")]
    fn a_peeked_cursor_cannot_be_continued() {
        let mut pool = ShredPool::new();
        let id = pool.create(ProcessId::new(0), OsThreadId::new(0), program("p"));
        let slot = pool.slot(id).unwrap();
        let _ = pool.cursor_mut(slot).peek_op();
        let _ = pool.continue_at(id, program("q"));
    }

    #[test]
    fn cursor_is_usable_through_pool() {
        let mut pool = ShredPool::new();
        let id = pool.create(ProcessId::new(0), OsThreadId::new(0), program("c"));
        let slot = pool.slot(id).unwrap();
        let op = pool.cursor_mut(slot).next_op();
        assert_eq!(op, misp_isa::Op::Compute(Cycles::new(1)));
        pool.finish(id);
        assert!(pool.slot(id).is_none());
    }
}
