//! Model-based test of the radix-heap event queue.
//!
//! The reference model is a plain `BinaryHeap<ScheduledEvent>` (whose `Ord`
//! is reversed so it pops earliest-first) with *lazy deletion* for the two
//! superseding kinds: the model remembers the latest seqno pushed for each
//! `(kind, sequencer)` slot and skips stale entries on pop.  Both structures
//! assign seqnos sequentially per push, so a correct radix heap must pop the
//! byte-identical `(time, seqno, event)` sequence for any monotone schedule
//! of pushes, supersedes and pops.

#![allow(
    clippy::disallowed_types,
    reason = "the reference model never iterates its std HashMap, and the model's own determinism is irrelevant to the property checked"
)]

use misp::sim::{Event, EventQueue, ScheduledEvent};
use misp::types::{Cycles, SequencerId};
use proptest::prelude::*;
use std::collections::{BinaryHeap, HashMap};

/// The reference: comparison heap + lazy supersede.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<ScheduledEvent>,
    /// Latest live seqno per supersede slot `(kind_bit, sequencer)`.
    live: HashMap<(u8, u32), u64>,
    next_seqno: u64,
}

impl ModelQueue {
    fn slot(event: &Event) -> Option<(u8, u32)> {
        match event {
            Event::SeqReady { seq, .. } => Some((0, seq.as_usize() as u32)),
            Event::StallEnd { seq } => Some((1, seq.as_usize() as u32)),
            Event::TimerTick { .. } | Event::StallEndGroup { .. } | Event::Sample => None,
        }
    }

    fn push(&mut self, time: Cycles, event: Event) {
        let seqno = self.next_seqno;
        self.next_seqno += 1;
        if let Some(slot) = Self::slot(&event) {
            self.live.insert(slot, seqno);
        }
        self.heap.push(ScheduledEvent { time, seqno, event });
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        while let Some(e) = self.heap.pop() {
            match Self::slot(&e.event) {
                Some(slot) if self.live.get(&slot) != Some(&e.seqno) => continue,
                Some(slot) => {
                    self.live.remove(&slot);
                    return Some(e);
                }
                None => return Some(e),
            }
        }
        None
    }
}

/// One scripted queue operation, decoded from a generated tuple.
fn apply(
    queue: &mut EventQueue,
    model: &mut ModelQueue,
    now: &mut u64,
    (op, delta, seq, extra): (u64, u64, u64, u64),
) {
    let seq_id = SequencerId::new(seq as u32);
    let event = match op {
        0..=2 => Event::SeqReady {
            seq: seq_id,
            generation: extra,
        },
        3 => Event::TimerTick {
            cpu: seq_id,
            tick: extra + 1,
        },
        4 => Event::StallEnd { seq: seq_id },
        5 => Event::StallEndGroup {
            base: seq as u32,
            mask: (extra as u32) | 1,
        },
        6 => Event::Sample,
        _ => {
            // Pop from both; the popped entries must be identical and time
            // must never go backwards.
            let a = queue.pop();
            let b = model.pop();
            prop_assert_eq!(a, b, "pop mismatch at now={}", now);
            if let Some(e) = a {
                prop_assert!(e.time.as_u64() >= *now, "time went backwards");
                *now = e.time.as_u64();
            }
            return;
        }
    };
    // Pushes are always at or after the last popped time (the engine's
    // monotonicity invariant the radix heap relies on).
    let time = Cycles::new(*now + delta);
    queue.push(time, event);
    model.push(time, event);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any monotone schedule mixing all four event kinds, supersedes and
    /// pops, the radix heap pops the exact `(time, seqno, event)` sequence of
    /// the comparison-heap reference — including the full drain at the end.
    #[test]
    fn radix_heap_matches_binary_heap_reference(
        ops in proptest::collection::vec(
            (0u64..9, 0u64..(1 << 40), 0u64..6, 0u64..64),
            0..200,
        )
    ) {
        let mut queue = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut now = 0u64;
        for op in ops {
            apply(&mut queue, &mut model, &mut now, op);
            prop_assert_eq!(queue.len(), model_live_len(&model), "live-entry count diverged");
        }
        // Drain: every remaining live event pops in identical order.
        loop {
            let a = queue.pop();
            let b = model.pop();
            prop_assert_eq!(a, b, "drain mismatch");
            if a.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }
}

/// Number of live (non-superseded) entries in the model.
fn model_live_len(model: &ModelQueue) -> usize {
    model
        .heap
        .iter()
        .filter(|e| match ModelQueue::slot(&e.event) {
            Some(slot) => model.live.get(&slot) == Some(&e.seqno),
            None => true,
        })
        .count()
}
