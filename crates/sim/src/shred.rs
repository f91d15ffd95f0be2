//! Shred execution state and the shred pool.

use misp_isa::{OwnedCursor, ShredProgram};
use misp_types::{Cycles, OsThreadId, ProcessId, ShredId};
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

/// The execution state of one shred.
#[derive(Debug, Clone)]
pub struct ShredExecState {
    id: ShredId,
    process: ProcessId,
    thread: OsThreadId,
    cursor: OwnedCursor,
    status: ShredStatus,
    created_at: Cycles,
    finished_at: Option<Cycles>,
}

impl ShredExecState {
    /// The shred identifier.
    #[must_use]
    pub fn id(&self) -> ShredId {
        self.id
    }

    /// The process this shred belongs to.
    #[must_use]
    pub fn process(&self) -> ProcessId {
        self.process
    }

    /// The OS thread that owns this shred.
    #[must_use]
    pub fn thread(&self) -> OsThreadId {
        self.thread
    }

    /// The shred's program name.
    ///
    /// A finished shred has released its program (see
    /// [`ShredPool::finish`]), so on a finished shred this reports the name
    /// of the pool's shared empty program, the empty string.  So does a
    /// shred whose program was taken with [`ShredPool::release`].
    #[must_use]
    pub fn program_name(&self) -> &str {
        self.cursor.program().name()
    }

    /// Mutable access to the program cursor (used by the engine to fetch the
    /// next operation).
    pub fn cursor_mut(&mut self) -> &mut OwnedCursor {
        &mut self.cursor
    }

    /// The current lifecycle status.
    #[must_use]
    pub fn status(&self) -> ShredStatus {
        self.status
    }

    /// Updates the lifecycle status.
    pub fn set_status(&mut self, status: ShredStatus) {
        self.status = status;
    }

    /// The time at which the shred was created.
    #[must_use]
    pub fn created_at(&self) -> Cycles {
        self.created_at
    }

    /// The time at which the shred finished, if it has.
    #[must_use]
    pub fn finished_at(&self) -> Option<Cycles> {
        self.finished_at
    }

    /// Swaps the shred's program for `released` and returns it.
    fn release(&mut self, released: &Arc<ShredProgram>) -> Arc<ShredProgram> {
        let cursor = std::mem::replace(&mut self.cursor, OwnedCursor::new(Arc::clone(released)));
        cursor.into_program()
    }

    /// Marks the shred finished at `now` and drops its hold on its program
    /// by swapping in `released`, so a program built for one shred is freed
    /// as soon as that shred is done.
    fn finish(&mut self, now: Cycles, released: &Arc<ShredProgram>) {
        self.status = ShredStatus::Done;
        self.finished_at = Some(now);
        // A runtime that reuses programs has usually taken this one already
        // (`ShredPool::release`); skipping the swap then saves two atomic
        // reference-count updates per shred.
        if !Arc::ptr_eq(self.cursor.program(), released) {
            drop(self.release(released));
        }
    }
}

/// The pool of all shreds created during a simulation, across all processes.
#[derive(Debug)]
pub struct ShredPool {
    shreds: Vec<ShredExecState>,
    /// The empty program every finished shred points at instead of its own.
    released: Arc<ShredProgram>,
}

impl Default for ShredPool {
    fn default() -> Self {
        ShredPool {
            shreds: Vec::new(),
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
    /// identifier.
    pub fn create(
        &mut self,
        process: ProcessId,
        thread: OsThreadId,
        program: Arc<ShredProgram>,
        now: Cycles,
    ) -> ShredId {
        let id = ShredId::new(self.shreds.len() as u32);
        self.shreds.push(ShredExecState {
            id,
            process,
            thread,
            cursor: OwnedCursor::new(program),
            status: ShredStatus::Ready,
            created_at: now,
            finished_at: None,
        });
        id
    }

    /// Marks shred `id` finished at `now` and releases its program: the
    /// shred's cursor moves to the pool's shared empty program, so peak
    /// memory tracks live shreds, not every shred ever created.
    pub fn finish(&mut self, id: ShredId, now: Cycles) {
        if let Some(shred) = self.shreds.get_mut(id.as_usize()) {
            shred.finish(now, &self.released);
        }
    }

    /// Takes shred `id`'s program, leaving the shared empty program in its
    /// place: the hand-back for a runtime that reuses the program once the
    /// shred has run it to completion.  The shred must not execute again.
    pub fn release(&mut self, id: ShredId) -> Option<Arc<ShredProgram>> {
        let shred = self.shreds.get_mut(id.as_usize())?;
        Some(shred.release(&self.released))
    }

    /// Looks up a shred.
    #[must_use]
    pub fn get(&self, id: ShredId) -> Option<&ShredExecState> {
        self.shreds.get(id.as_usize())
    }

    /// Looks up a shred mutably.
    pub fn get_mut(&mut self, id: ShredId) -> Option<&mut ShredExecState> {
        self.shreds.get_mut(id.as_usize())
    }

    /// Total number of shreds ever created.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shreds.len()
    }

    /// Returns `true` when no shreds have been created.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shreds.is_empty()
    }

    /// Iterates over all shreds.
    pub fn iter(&self) -> impl Iterator<Item = &ShredExecState> {
        self.shreds.iter()
    }

    /// Returns `true` when every shred belonging to `process` is done.
    /// A process with no shreds counts as done.
    #[must_use]
    pub fn process_done(&self, process: ProcessId) -> bool {
        self.shreds
            .iter()
            .filter(|s| s.process == process)
            .all(|s| s.status == ShredStatus::Done)
    }

    /// Number of shreds of `process` in the given status.
    #[must_use]
    pub fn count_by_status(&self, process: ProcessId, status: ShredStatus) -> usize {
        self.shreds
            .iter()
            .filter(|s| s.process == process && s.status == status)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_isa::ProgramBuilder;

    fn program(name: &str) -> Arc<ShredProgram> {
        Arc::new(ProgramBuilder::new(name).compute(Cycles::new(1)).build())
    }

    #[test]
    fn create_and_lookup() {
        let mut pool = ShredPool::new();
        assert!(pool.is_empty());
        let a = pool.create(
            ProcessId::new(0),
            OsThreadId::new(0),
            program("a"),
            Cycles::ZERO,
        );
        let b = pool.create(
            ProcessId::new(0),
            OsThreadId::new(1),
            program("b"),
            Cycles::new(5),
        );
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(a).unwrap().program_name(), "a");
        assert_eq!(pool.get(b).unwrap().created_at(), Cycles::new(5));
        assert_eq!(pool.get(b).unwrap().thread(), OsThreadId::new(1));
        assert!(pool.get(ShredId::new(9)).is_none());
    }

    #[test]
    fn status_lifecycle() {
        let mut pool = ShredPool::new();
        let id = pool.create(
            ProcessId::new(0),
            OsThreadId::new(0),
            program("x"),
            Cycles::ZERO,
        );
        assert_eq!(pool.get(id).unwrap().status(), ShredStatus::Ready);
        pool.get_mut(id).unwrap().set_status(ShredStatus::Running);
        assert_eq!(pool.get(id).unwrap().status(), ShredStatus::Running);
        pool.finish(id, Cycles::new(100));
        let s = pool.get(id).unwrap();
        assert_eq!(s.status(), ShredStatus::Done);
        assert_eq!(s.finished_at(), Some(Cycles::new(100)));
    }

    #[test]
    fn process_done_tracks_per_process() {
        let mut pool = ShredPool::new();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let a = pool.create(p0, OsThreadId::new(0), program("a"), Cycles::ZERO);
        let _b = pool.create(p1, OsThreadId::new(1), program("b"), Cycles::ZERO);
        assert!(!pool.process_done(p0));
        pool.finish(a, Cycles::new(1));
        assert!(pool.process_done(p0));
        assert!(!pool.process_done(p1));
        assert!(
            pool.process_done(ProcessId::new(9)),
            "no shreds counts as done"
        );
        assert_eq!(pool.count_by_status(p0, ShredStatus::Done), 1);
        assert_eq!(pool.count_by_status(p1, ShredStatus::Ready), 1);
    }

    #[test]
    fn cursor_is_usable_through_pool() {
        let mut pool = ShredPool::new();
        let id = pool.create(
            ProcessId::new(0),
            OsThreadId::new(0),
            program("c"),
            Cycles::ZERO,
        );
        let op = pool.get_mut(id).unwrap().cursor_mut().next_op();
        assert_eq!(op, misp_isa::Op::Compute(Cycles::new(1)));
    }
}
