//! Owned, resumable cursors over shred programs.
//!
//! [`ProgramCursor`](crate::ProgramCursor) borrows its program, which is ideal
//! for analysis but awkward for the execution engine, where a shred's position
//! must outlive individual borrows and travel with the shred as it migrates
//! between sequencers.  [`OwnedCursor`] holds the program behind an [`Arc`]
//! and keeps its position as plain indices, so it is `Send`, cheap to clone,
//! and can be stored inside the simulator's shred table.

use crate::{Op, ProgramItem, ShredProgram};
use std::sync::Arc;

/// Position within a (possibly nested) program, stored as indices so it does
/// not borrow the program.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CursorState {
    /// Index of the next top-level item.
    top_index: usize,
    /// Stack of `(path, next_index, remaining_iterations)` for nested loops.
    /// `path` is the chain of item indices from the top level down to the loop
    /// whose body is being walked.
    frames: Vec<Frame>,
    exhausted: bool,
    executed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    /// Path of item indices leading to this loop (from the top level).
    path: Vec<usize>,
    /// Next item index within the loop body.
    index: usize,
    /// Remaining full iterations after the current one.
    remaining: u64,
}

impl CursorState {
    /// Creates a cursor positioned at the start of any program.
    #[must_use]
    pub fn new() -> Self {
        CursorState::default()
    }

    /// The number of operations yielded so far (the implicit trailing `Halt`
    /// counts once).
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Returns `true` once the program has been fully executed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    fn body_at<'p>(program: &'p ShredProgram, path: &[usize]) -> &'p [ProgramItem] {
        let mut items = program.items();
        for &idx in path {
            match &items[idx] {
                ProgramItem::Loop { body, .. } => items = body.as_slice(),
                ProgramItem::Op(_) => unreachable!("cursor path never points at an op"),
            }
        }
        items
    }

    /// Returns the next operation of `program`, advancing this cursor.
    ///
    /// The caller must pass the same program on every call; passing a
    /// different program results in unspecified (but memory-safe) traversal.
    pub fn next_op(&mut self, program: &ShredProgram) -> Op {
        loop {
            if self.exhausted {
                return Op::Halt;
            }
            if let Some(frame) = self.frames.last() {
                // Resolve the loop body through an immutable borrow first so
                // the frame can be advanced afterwards without cloning `path`
                // on every operation (this is the engine's hottest path).
                let body = Self::body_at(program, &frame.path);
                let item_index = frame.index;
                if item_index < body.len() {
                    match &body[item_index] {
                        ProgramItem::Op(op) => {
                            let op = op.clone();
                            self.frames.last_mut().expect("frame exists").index += 1;
                            self.executed += 1;
                            return op;
                        }
                        ProgramItem::Loop { count, body } => {
                            let enter = *count > 0 && !body.is_empty();
                            let remaining = count.saturating_sub(1);
                            let frame = self.frames.last_mut().expect("frame exists");
                            frame.index += 1;
                            if enter {
                                let mut new_path = frame.path.clone();
                                new_path.push(item_index);
                                self.frames.push(Frame {
                                    path: new_path,
                                    index: 0,
                                    remaining,
                                });
                            }
                            continue;
                        }
                    }
                }
                let frame = self.frames.last_mut().expect("frame exists");
                if frame.remaining > 0 {
                    frame.remaining -= 1;
                    frame.index = 0;
                } else {
                    self.frames.pop();
                }
                continue;
            }
            if self.top_index < program.items().len() {
                let item_index = self.top_index;
                self.top_index += 1;
                match &program.items()[item_index] {
                    ProgramItem::Op(op) => {
                        self.executed += 1;
                        return op.clone();
                    }
                    ProgramItem::Loop { count, body } => {
                        if *count > 0 && !body.is_empty() {
                            self.frames.push(Frame {
                                path: vec![item_index],
                                index: 0,
                                remaining: count - 1,
                            });
                        }
                        continue;
                    }
                }
            }
            self.exhausted = true;
            self.executed += 1;
            return Op::Halt;
        }
    }
}

/// A cursor that owns (shares) its program.
///
/// # Examples
///
/// ```
/// use misp_isa::{OwnedCursor, ProgramBuilder, Op};
/// use misp_types::Cycles;
/// use std::sync::Arc;
///
/// let program = Arc::new(ProgramBuilder::new("p").compute(Cycles::new(3)).build());
/// let mut cursor = OwnedCursor::new(program);
/// assert_eq!(cursor.next_op(), Op::Compute(Cycles::new(3)));
/// assert_eq!(cursor.next_op(), Op::Halt);
/// ```
#[derive(Debug, Clone)]
pub struct OwnedCursor {
    program: Arc<ShredProgram>,
    state: CursorState,
    /// One-operation lookahead buffer filled by [`OwnedCursor::peek_op`] and
    /// drained by the next [`OwnedCursor::next_op`] call.
    lookahead: Option<Op>,
}

impl OwnedCursor {
    /// Creates a cursor at the start of `program`.
    #[must_use]
    pub fn new(program: Arc<ShredProgram>) -> Self {
        OwnedCursor {
            program,
            state: CursorState::new(),
            lookahead: None,
        }
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Arc<ShredProgram> {
        &self.program
    }

    /// Consumes the cursor, handing back its share of the program.
    #[must_use]
    pub fn into_program(self) -> Arc<ShredProgram> {
        self.program
    }

    /// The number of operations yielded so far.  An operation that has only
    /// been peeked does not count until it is consumed by
    /// [`OwnedCursor::next_op`].
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.state.executed() - u64::from(self.lookahead.is_some())
    }

    /// Returns `true` once the program has been fully executed.  Peeking the
    /// trailing `Halt` does not exhaust the cursor; consuming it does.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.state.is_exhausted() && self.lookahead.is_none()
    }

    /// Returns the next operation, advancing the cursor.
    pub fn next_op(&mut self) -> Op {
        match self.lookahead.take() {
            Some(op) => op,
            None => self.state.next_op(&self.program),
        }
    }

    /// Returns the next operation *without* consuming it: the following
    /// [`OwnedCursor::next_op`] call returns the same operation.
    ///
    /// This is how the execution engine detects macro-step batch boundaries
    /// (see [`Op::classify`](crate::Op::classify)) before committing to
    /// executing an operation inline.
    pub fn peek_op(&mut self) -> &Op {
        if self.lookahead.is_none() {
            self.lookahead = Some(self.state.next_op(&self.program));
        }
        self.lookahead.as_ref().expect("lookahead just filled")
    }

    /// Returns `true` while an operation taken by [`OwnedCursor::peek_op`]
    /// waits for the next [`OwnedCursor::next_op`].
    #[must_use]
    pub fn has_peeked(&self) -> bool {
        self.lookahead.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;
    use misp_types::{Cycles, VirtAddr};

    fn program() -> ShredProgram {
        ProgramBuilder::new("t")
            .compute(Cycles::new(1))
            .repeat(3, |b| b.load(VirtAddr::new(0x1000)).compute(Cycles::new(2)))
            .compute(Cycles::new(9))
            .build()
    }

    #[test]
    fn owned_cursor_matches_borrowing_cursor() {
        let p = program();
        let borrowed: Vec<Op> = p.iter_flat().collect();
        let mut owned = OwnedCursor::new(Arc::new(p));
        let mut owned_ops = Vec::new();
        loop {
            let op = owned.next_op();
            let halt = matches!(op, Op::Halt);
            owned_ops.push(op);
            if halt {
                break;
            }
        }
        assert_eq!(borrowed, owned_ops);
        assert!(owned.is_exhausted());
        assert_eq!(owned.executed(), borrowed.len() as u64);
    }

    #[test]
    fn nested_loops_with_owned_cursor() {
        let p = ProgramBuilder::new("nested")
            .repeat(2, |outer| {
                outer
                    .compute(Cycles::new(1))
                    .repeat(3, |inner| inner.compute(Cycles::new(2)))
            })
            .build();
        let expected: Vec<Op> = p.iter_flat().collect();
        let mut cursor = OwnedCursor::new(Arc::new(p));
        let mut got = Vec::new();
        loop {
            let op = cursor.next_op();
            let halt = matches!(op, Op::Halt);
            got.push(op);
            if halt {
                break;
            }
        }
        assert_eq!(expected, got);
    }

    #[test]
    fn clone_preserves_position() {
        let p = Arc::new(program());
        let mut a = OwnedCursor::new(Arc::clone(&p));
        a.next_op();
        a.next_op();
        let mut b = a.clone();
        assert_eq!(a.next_op(), b.next_op());
        assert_eq!(a.executed(), b.executed());
    }

    #[test]
    fn halt_repeats_after_exhaustion() {
        let p = Arc::new(ProgramBuilder::new("e").build());
        let mut c = OwnedCursor::new(p);
        assert_eq!(c.next_op(), Op::Halt);
        assert_eq!(c.next_op(), Op::Halt);
        assert_eq!(c.executed(), 1);
    }

    #[test]
    fn peek_does_not_consume() {
        let p = Arc::new(program());
        let mut c = OwnedCursor::new(Arc::clone(&p));
        let mut plain = OwnedCursor::new(p);
        loop {
            let peeked = c.peek_op().clone();
            assert_eq!(c.executed(), plain.executed(), "peek must not count");
            let got = c.next_op();
            assert_eq!(peeked, got, "peek then next must agree");
            assert_eq!(got, plain.next_op(), "peeking must not change the stream");
            assert_eq!(c.executed(), plain.executed());
            assert_eq!(c.is_exhausted(), plain.is_exhausted());
            if matches!(got, Op::Halt) {
                break;
            }
        }
        assert!(c.is_exhausted());
    }

    #[test]
    fn peeking_trailing_halt_does_not_exhaust() {
        let p = Arc::new(ProgramBuilder::new("e").compute(Cycles::new(1)).build());
        let mut c = OwnedCursor::new(p);
        assert_eq!(c.next_op(), Op::Compute(Cycles::new(1)));
        assert_eq!(*c.peek_op(), Op::Halt);
        assert!(!c.is_exhausted(), "peeked Halt is not yet consumed");
        assert_eq!(c.executed(), 1);
        assert_eq!(c.next_op(), Op::Halt);
        assert!(c.is_exhausted());
        assert_eq!(c.executed(), 2);
    }

    #[test]
    fn clone_preserves_pending_peek() {
        let p = Arc::new(program());
        let mut a = OwnedCursor::new(p);
        a.next_op();
        let peeked = a.peek_op().clone();
        let mut b = a.clone();
        assert_eq!(a.next_op(), peeked);
        assert_eq!(b.next_op(), peeked);
    }

    #[test]
    fn cursor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<OwnedCursor>();
        assert_send::<CursorState>();
    }
}
