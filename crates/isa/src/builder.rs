//! Fluent construction of shred programs.

use crate::{Op, ProgramItem, ProgramRef, RuntimeOp, ShredProgram, SyscallKind};
use misp_types::{Cycles, LockId, ShredId, VirtAddr};

/// Builder for [`ShredProgram`]s.
///
/// Workload generators use the builder to express each shred's behaviour as a
/// compact mixture of compute phases, memory touches, system calls and
/// ShredLib runtime calls.
///
/// # Examples
///
/// ```
/// use misp_isa::{ProgramBuilder, SyscallKind};
/// use misp_types::{Cycles, LockId, VirtAddr};
///
/// let queue_mutex = LockId::new(0);
/// let worker = ProgramBuilder::new("worker")
///     .repeat(100, |iter| {
///         iter.mutex_lock(queue_mutex)
///             .compute(Cycles::new(50))
///             .mutex_unlock(queue_mutex)
///             .compute(Cycles::new(10_000))
///             .load(VirtAddr::new(0x10_0000))
///     })
///     .syscall(SyscallKind::Io)
///     .build();
/// assert!(worker.flat_len() > 500);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    items: Vec<ProgramItem>,
}

impl ProgramBuilder {
    /// Starts building a program with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            items: Vec::new(),
        }
    }

    /// Appends a raw operation.
    #[must_use]
    pub fn op(mut self, op: Op) -> Self {
        self.items.push(ProgramItem::Op(op));
        self
    }

    /// Appends a compute phase of `cycles` cycles.
    #[must_use]
    pub fn compute(self, cycles: Cycles) -> Self {
        self.op(Op::Compute(cycles))
    }

    /// Appends a load from `addr`.
    #[must_use]
    pub fn load(self, addr: VirtAddr) -> Self {
        self.op(Op::load(addr))
    }

    /// Appends a store to `addr`.
    #[must_use]
    pub fn store(self, addr: VirtAddr) -> Self {
        self.op(Op::store(addr))
    }

    /// Appends a system call of the given kind.
    #[must_use]
    pub fn syscall(self, kind: SyscallKind) -> Self {
        self.op(Op::Syscall(kind))
    }

    /// Appends a shred-creation runtime call for `program`.
    #[must_use]
    pub fn shred_create(self, program: ProgramRef) -> Self {
        self.op(Op::Runtime(RuntimeOp::ShredCreate { program }))
    }

    /// Appends a join on `target`.
    #[must_use]
    pub fn shred_join(self, target: ShredId) -> Self {
        self.op(Op::Runtime(RuntimeOp::ShredJoin { target }))
    }

    /// Appends a mutex acquisition.
    #[must_use]
    pub fn mutex_lock(self, id: LockId) -> Self {
        self.op(Op::Runtime(RuntimeOp::MutexLock(id)))
    }

    /// Appends a mutex release.
    #[must_use]
    pub fn mutex_unlock(self, id: LockId) -> Self {
        self.op(Op::Runtime(RuntimeOp::MutexUnlock(id)))
    }

    /// Appends a barrier wait.
    #[must_use]
    pub fn barrier_wait(self, id: LockId) -> Self {
        self.op(Op::Runtime(RuntimeOp::BarrierWait(id)))
    }

    /// Appends a counted loop whose body is built by `f`.
    ///
    /// The closure receives a fresh builder for the loop body; its name is
    /// irrelevant and discarded.
    #[must_use]
    pub fn repeat(mut self, count: u64, f: impl FnOnce(ProgramBuilder) -> ProgramBuilder) -> Self {
        let body_builder = f(ProgramBuilder::new("body"));
        self.items.push(ProgramItem::Loop {
            count,
            body: body_builder.items,
        });
        self
    }

    /// Appends a sweep of load operations touching `pages` consecutive pages
    /// starting at `base`, one access per page.  This is the canonical way to
    /// express a working set that incurs compulsory page faults.
    #[must_use]
    pub fn touch_pages(mut self, base: VirtAddr, pages: u64) -> Self {
        for i in 0..pages {
            self.items.push(ProgramItem::Op(Op::load(
                base.offset(i * misp_types::PAGE_SIZE),
            )));
        }
        self
    }

    /// Number of items appended so far (top-level, not flattened).
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no items have been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Finishes the builder, producing the program.
    #[must_use]
    pub fn build(self) -> ShredProgram {
        ShredProgram::from_items(self.name, self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_types::PAGE_SIZE;

    #[test]
    fn builder_produces_expected_sequence() {
        let p = ProgramBuilder::new("t")
            .compute(Cycles::new(5))
            .load(VirtAddr::new(0x1000))
            .store(VirtAddr::new(0x2000))
            .syscall(SyscallKind::Time)
            .build();
        let ops: Vec<Op> = p.iter_flat().collect();
        assert_eq!(ops.len(), 5);
        assert_eq!(ops[0], Op::Compute(Cycles::new(5)));
        assert_eq!(ops[3], Op::Syscall(SyscallKind::Time));
    }

    #[test]
    fn repeat_builds_loops() {
        let p = ProgramBuilder::new("t")
            .repeat(4, |b| b.compute(Cycles::new(1)))
            .build();
        assert_eq!(p.flat_len(), 5);
    }

    #[test]
    fn touch_pages_touches_each_page_once() {
        let p = ProgramBuilder::new("t")
            .touch_pages(VirtAddr::new(0), 8)
            .build();
        let pages: Vec<u64> = p
            .iter_flat()
            .filter_map(|op| match op {
                Op::Touch { addr, .. } => Some(addr.page().number()),
                _ => None,
            })
            .collect();
        assert_eq!(pages, (0..8).collect::<Vec<u64>>());
        // Base not page aligned still advances by a page at a time.
        let p = ProgramBuilder::new("t")
            .touch_pages(VirtAddr::new(PAGE_SIZE / 2), 2)
            .build();
        let pages: Vec<u64> = p
            .iter_flat()
            .filter_map(|op| match op {
                Op::Touch { addr, .. } => Some(addr.page().number()),
                _ => None,
            })
            .collect();
        assert_eq!(pages, vec![0, 1]);
    }

    #[test]
    fn runtime_helpers() {
        let m = LockId::new(1);
        let p = ProgramBuilder::new("t")
            .mutex_lock(m)
            .mutex_unlock(m)
            .barrier_wait(LockId::new(3))
            .shred_create(ProgramRef::new(0))
            .shred_join(ShredId::new(0))
            .build();
        assert_eq!(p.flat_len(), 6);
        assert!(p.iter_flat().take(5).all(|op| matches!(op, Op::Runtime(_))));
    }

    #[test]
    fn len_and_is_empty() {
        let b = ProgramBuilder::new("t");
        assert!(b.is_empty());
        let b = b.compute(Cycles::new(1));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
