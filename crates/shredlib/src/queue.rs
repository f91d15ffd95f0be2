//! The shared work queue of the gang scheduler.

use misp_types::ShredId;
use std::collections::VecDeque;

/// The mutex-protected shared work queue holding ready shred continuations,
/// dispatched first-in first-out: shreds run in creation order (the Figure 3
/// example).
///
/// In the real runtime the queue holds `<EIP, ESP>` pairs; in the simulator a
/// ready shred is identified by its [`ShredId`] (its continuation lives in the
/// engine's shred table).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkQueue {
    ready: VecDeque<ShredId>,
}

impl WorkQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a ready shred to the queue.
    pub fn push(&mut self, shred: ShredId) {
        self.ready.push_back(shred);
    }

    /// Removes and returns the oldest waiting shred.
    pub fn pop(&mut self) -> Option<ShredId> {
        self.ready.pop_front()
    }

    /// The shred [`pop`](WorkQueue::pop) would return, without removing it.
    /// Used by admission-gated dispatch (service pools), which must decide
    /// whether the head may start *before* taking it off the queue so a
    /// blocked head preserves FIFO order instead of being skipped.
    #[must_use]
    pub fn peek(&self) -> Option<ShredId> {
        self.ready.front().copied()
    }

    /// Number of shreds currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// Returns `true` when no shreds are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> ShredId {
        ShredId::new(i)
    }

    #[test]
    fn fifo_order() {
        let mut q = WorkQueue::new();
        for i in 0..3 {
            q.push(s(i));
        }
        assert_eq!(q.pop(), Some(s(0)));
        assert_eq!(q.pop(), Some(s(1)));
        assert_eq!(q.pop(), Some(s(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = WorkQueue::new();
        assert_eq!(q.peek(), None);
        for i in 0..3 {
            q.push(s(i));
        }
        assert_eq!(q.len(), 3);
        while !q.is_empty() {
            let peeked = q.peek();
            assert_eq!(peeked, q.pop());
        }
        assert_eq!(q.peek(), None);
    }
}
