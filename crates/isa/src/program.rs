//! Shred programs and their cursors.

use crate::Op;
use core::fmt;

/// One item of a [`ShredProgram`]: either a single operation or a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramItem {
    /// A single operation.
    Op(Op),
    /// A counted loop over a nested body.  Loops keep programs compact: a
    /// dense matrix-multiply shred that touches the same working set millions
    /// of times is a few items, not millions.
    Loop {
        /// Number of iterations (zero is allowed and executes nothing).
        count: u64,
        /// The loop body.
        body: Vec<ProgramItem>,
    },
}

impl ProgramItem {
    /// The number of operations this item expands to when flattened.
    #[must_use]
    pub fn flat_len(&self) -> u64 {
        match self {
            ProgramItem::Op(_) => 1,
            ProgramItem::Loop { count, body } => {
                count * body.iter().map(ProgramItem::flat_len).sum::<u64>()
            }
        }
    }
}

/// The code of a shred: a loop-structured sequence of operations.
///
/// Programs are immutable once built (see
/// [`ProgramBuilder`](crate::ProgramBuilder)) and are executed by walking a
/// [`ProgramCursor`].  A program always behaves as if it ends with an implicit
/// [`Op::Halt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShredProgram {
    name: String,
    items: Vec<ProgramItem>,
}

impl ShredProgram {
    /// Creates a program from a name and item list.
    ///
    /// Most callers should use [`ProgramBuilder`](crate::ProgramBuilder)
    /// instead.
    #[must_use]
    pub fn from_items(name: impl Into<String>, items: Vec<ProgramItem>) -> Self {
        ShredProgram {
            name: name.into(),
            items,
        }
    }

    /// An empty program that immediately halts.
    #[must_use]
    pub fn empty(name: impl Into<String>) -> Self {
        ShredProgram {
            name: name.into(),
            items: Vec::new(),
        }
    }

    /// The program's human-readable name (used in logs and statistics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The top-level items of the program.
    #[must_use]
    pub fn items(&self) -> &[ProgramItem] {
        &self.items
    }

    /// The top-level items, for rewriting a program in place.  A program
    /// shared behind an `Arc` is only reachable this way through
    /// `Arc::get_mut`, that is once no shred runs it any more, so reusing
    /// its buffer never changes code a shred is executing.
    pub fn items_mut(&mut self) -> &mut Vec<ProgramItem> {
        &mut self.items
    }

    /// The total number of operations the program executes when run to
    /// completion, including the implicit final `Halt`.
    #[must_use]
    pub fn flat_len(&self) -> u64 {
        self.items.iter().map(ProgramItem::flat_len).sum::<u64>() + 1
    }

    /// Creates a cursor positioned at the first operation.
    #[must_use]
    pub fn cursor(&self) -> ProgramCursor<'_> {
        ProgramCursor::new(self)
    }

    /// Iterates over every operation of the program in execution order,
    /// ending with the implicit `Halt`.  Intended for tests and analysis of
    /// small programs; the per-cycle engine uses [`ShredProgram::cursor`].
    pub fn iter_flat(&self) -> impl Iterator<Item = Op> + '_ {
        let mut cursor = self.cursor();
        let mut done = false;
        core::iter::from_fn(move || {
            if done {
                return None;
            }
            let op = cursor.next_op();
            if matches!(op, Op::Halt) {
                done = true;
            }
            Some(op)
        })
    }
}

impl fmt::Display for ShredProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program `{}` ({} ops)", self.name, self.flat_len())
    }
}

/// One frame of the cursor's loop stack.
#[derive(Debug, Clone)]
struct Frame {
    /// Remaining full iterations of this loop *after* the current one.
    remaining: u64,
    /// Index of the next item to execute within the loop body.
    index: usize,
}

/// A lazy iterator over a [`ShredProgram`]'s operations.
///
/// The cursor borrows the program and maintains a small stack of loop frames,
/// so even programs that expand to billions of operations need O(depth)
/// memory.  After the program is exhausted the cursor yields [`Op::Halt`]
/// forever.
#[derive(Debug, Clone)]
pub struct ProgramCursor<'p> {
    program: &'p ShredProgram,
    /// Index of the next top-level item.
    top_index: usize,
    /// Stack of in-progress loops; each entry pairs a loop item reference
    /// (by path) with its frame.
    stack: Vec<(&'p [ProgramItem], Frame)>,
    exhausted: bool,
    executed: u64,
}

impl<'p> ProgramCursor<'p> {
    /// Creates a cursor at the beginning of `program`.
    #[must_use]
    pub fn new(program: &'p ShredProgram) -> Self {
        ProgramCursor {
            program,
            top_index: 0,
            stack: Vec::new(),
            exhausted: false,
            executed: 0,
        }
    }

    /// The number of operations the cursor has yielded so far (excluding the
    /// trailing implicit halts).
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Returns `true` once the program has been fully executed (the next call
    /// to [`ProgramCursor::next_op`] will return `Halt`).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Returns the next operation, advancing the cursor.  Once the program is
    /// exhausted this returns [`Op::Halt`] indefinitely.
    pub fn next_op(&mut self) -> Op {
        loop {
            if self.exhausted {
                return Op::Halt;
            }
            // Resolve the item list and index we are currently walking.
            if let Some((body, frame)) = self.stack.last_mut() {
                if frame.index < body.len() {
                    let item = &body[frame.index];
                    frame.index += 1;
                    match item {
                        ProgramItem::Op(op) => {
                            self.executed += 1;
                            return op.clone();
                        }
                        ProgramItem::Loop { count, body } => {
                            if *count > 0 && !body.is_empty() {
                                self.stack.push((
                                    body.as_slice(),
                                    Frame {
                                        remaining: count - 1,
                                        index: 0,
                                    },
                                ));
                            }
                            continue;
                        }
                    }
                }
                // Body finished: either repeat or pop.
                if frame.remaining > 0 {
                    frame.remaining -= 1;
                    frame.index = 0;
                } else {
                    self.stack.pop();
                }
                continue;
            }
            // Walking the top level.
            if self.top_index < self.program.items.len() {
                let item = &self.program.items[self.top_index];
                self.top_index += 1;
                match item {
                    ProgramItem::Op(op) => {
                        self.executed += 1;
                        return op.clone();
                    }
                    ProgramItem::Loop { count, body } => {
                        if *count > 0 && !body.is_empty() {
                            self.stack.push((
                                body.as_slice(),
                                Frame {
                                    remaining: count - 1,
                                    index: 0,
                                },
                            ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use misp_types::{Cycles, VirtAddr};

    fn compute(c: u64) -> ProgramItem {
        ProgramItem::Op(Op::Compute(Cycles::new(c)))
    }

    #[test]
    fn empty_program_halts_immediately() {
        let p = ShredProgram::empty("empty");
        let mut c = p.cursor();
        assert_eq!(c.next_op(), Op::Halt);
        assert!(c.is_exhausted());
        assert_eq!(c.next_op(), Op::Halt, "halt repeats forever");
        assert_eq!(p.flat_len(), 1);
    }

    #[test]
    fn sequential_ops_in_order() {
        let p = ShredProgram::from_items("seq", vec![compute(1), compute(2), compute(3)]);
        let ops: Vec<Op> = p.iter_flat().collect();
        assert_eq!(
            ops,
            vec![
                Op::Compute(Cycles::new(1)),
                Op::Compute(Cycles::new(2)),
                Op::Compute(Cycles::new(3)),
                Op::Halt
            ]
        );
        assert_eq!(p.flat_len(), 4);
    }

    #[test]
    fn loops_expand_correctly() {
        let p = ShredProgram::from_items(
            "loop",
            vec![ProgramItem::Loop {
                count: 3,
                body: vec![compute(7), ProgramItem::Op(Op::load(VirtAddr::new(0x1000)))],
            }],
        );
        let ops: Vec<Op> = p.iter_flat().collect();
        assert_eq!(ops.len(), 3 * 2 + 1);
        assert_eq!(ops[0], Op::Compute(Cycles::new(7)));
        assert_eq!(ops[1], Op::load(VirtAddr::new(0x1000)));
        assert_eq!(ops[4], Op::Compute(Cycles::new(7)));
        assert_eq!(*ops.last().unwrap(), Op::Halt);
        assert_eq!(p.flat_len(), 7);
    }

    #[test]
    fn nested_loops() {
        let p = ShredProgram::from_items(
            "nested",
            vec![
                compute(1),
                ProgramItem::Loop {
                    count: 2,
                    body: vec![
                        compute(2),
                        ProgramItem::Loop {
                            count: 3,
                            body: vec![compute(3)],
                        },
                    ],
                },
                compute(4),
            ],
        );
        // 1 + 2*(1 + 3*1) + 1 + halt = 1 + 8 + 1 + 1 = 11
        assert_eq!(p.flat_len(), 11);
        let ops: Vec<Op> = p.iter_flat().collect();
        assert_eq!(ops.len(), 11);
        let inner_count = ops
            .iter()
            .filter(|o| matches!(o, Op::Compute(c) if c.as_u64() == 3))
            .count();
        assert_eq!(inner_count, 6);
    }

    #[test]
    fn zero_count_loop_is_skipped() {
        let p = ShredProgram::from_items(
            "zero",
            vec![
                ProgramItem::Loop {
                    count: 0,
                    body: vec![compute(9)],
                },
                compute(1),
            ],
        );
        let ops: Vec<Op> = p.iter_flat().collect();
        assert_eq!(ops, vec![Op::Compute(Cycles::new(1)), Op::Halt]);
    }

    #[test]
    fn empty_loop_body_is_skipped() {
        let p = ShredProgram::from_items(
            "emptybody",
            vec![
                ProgramItem::Loop {
                    count: 1_000_000,
                    body: vec![],
                },
                compute(1),
            ],
        );
        let ops: Vec<Op> = p.iter_flat().collect();
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn executed_counter_tracks_progress() {
        let p = ShredProgram::from_items("count", vec![compute(1), compute(2)]);
        let mut c = p.cursor();
        assert_eq!(c.executed(), 0);
        c.next_op();
        assert_eq!(c.executed(), 1);
        c.next_op();
        c.next_op(); // halt
        assert_eq!(c.executed(), 3);
        c.next_op(); // extra halts do not count further
        assert_eq!(c.executed(), 3);
    }

    #[test]
    fn large_loop_is_lazy() {
        // A loop that would expand to 10^9 ops must not allocate memory
        // proportional to its length.
        let p = ShredProgram::from_items(
            "huge",
            vec![ProgramItem::Loop {
                count: 1_000_000_000,
                body: vec![compute(1)],
            }],
        );
        assert_eq!(p.flat_len(), 1_000_000_001);
        let mut c = p.cursor();
        for _ in 0..10 {
            assert_eq!(c.next_op(), Op::Compute(Cycles::new(1)));
        }
        assert!(!c.is_exhausted());
    }

    #[test]
    fn display() {
        let p = ShredProgram::from_items("disp", vec![compute(1)]);
        assert_eq!(p.to_string(), "program `disp` (2 ops)");
        assert_eq!(p.name(), "disp");
        assert_eq!(p.items().len(), 1);
    }
}
