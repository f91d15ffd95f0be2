//! Model-based test of the radix-heap event queue.
//!
//! The reference model is a plain `BinaryHeap<ScheduledEvent>` (whose `Ord`
//! is reversed so it pops earliest-first) with *lazy deletion* for the two
//! superseding kinds: the model remembers the latest seqno pushed for each
//! `(kind, sequencer)` slot and skips stale entries on pop.  Both structures
//! assign seqnos sequentially per push, so a correct radix heap must pop the
//! byte-identical `(time, seqno, event)` sequence for any monotone schedule
//! of pushes, supersedes and pops.
//!
//! A second property drives the coalescing pushes (`push_tick`,
//! `push_stall_end`) and `cancel_ready` against the same reference fed
//! plain pushes: every group the radix heap pops, expanded member by
//! member, must equal the next events the reference pops.

#![allow(
    clippy::disallowed_types,
    reason = "the reference model never iterates its std HashMap, and the model's own determinism is irrelevant to the property checked"
)]

use misp::sim::{Event, EventQueue, ScheduledEvent};
use misp::types::{Cycles, SequencerId};
use proptest::prelude::*;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// The reference: comparison heap + lazy supersede.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<ScheduledEvent>,
    /// Latest live seqno per supersede slot `(kind_bit, sequencer)`.
    live: HashMap<(u8, u32), u64>,
    /// Stall ends that joined a group in the radix heap: a group holds no
    /// slot, so these are never superseded and always pop.
    slotless: BTreeSet<u64>,
    next_seqno: u64,
}

impl ModelQueue {
    fn slot(event: &Event) -> Option<(u8, u32)> {
        match event {
            Event::SeqReady { seq, .. } => Some((0, seq.as_usize() as u32)),
            Event::StallEnd { seq } => Some((1, seq.as_usize() as u32)),
            Event::TimerTick { .. }
            | Event::TimerTickGroup { .. }
            | Event::StallEndGroup { .. }
            | Event::Sample => None,
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

    /// Pushes a stall end that holds no slot (one that joined a group).
    fn push_slotless(&mut self, time: Cycles, event: Event) {
        let seqno = self.next_seqno;
        self.next_seqno += 1;
        self.slotless.insert(seqno);
        self.heap.push(ScheduledEvent { time, seqno, event });
    }

    /// The live entry of `slot` gives up its slot (a plain stall end that
    /// became a group) or, for a cancelled ready, is dropped.
    fn release(&mut self, slot: (u8, u32), keep: bool) {
        if let Some(seqno) = self.live.remove(&slot) {
            if keep {
                self.slotless.insert(seqno);
            }
        }
    }

    fn pop(&mut self) -> Option<ScheduledEvent> {
        while let Some(e) = self.heap.pop() {
            if self.slotless.remove(&e.seqno) {
                return Some(e);
            }
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

/// The per-event sequence one popped entry stands for: a group expands to
/// its members in ascending order.
fn expand(e: ScheduledEvent) -> Vec<(Cycles, Event)> {
    let members = |base: u32, mask: u32| {
        (0..32u32)
            .filter(move |i| mask & (1 << i) != 0)
            .map(move |i| SequencerId::new(base + i))
    };
    match e.event {
        Event::TimerTickGroup { base, mask, tick } => members(base, mask)
            .map(|cpu| (e.time, Event::TimerTick { cpu, tick }))
            .collect(),
        Event::StallEndGroup { base, mask } => members(base, mask)
            .map(|seq| (e.time, Event::StallEnd { seq }))
            .collect(),
        other => vec![(e.time, other)],
    }
}

/// Pops one entry from the radix heap and as many events as it expands to
/// from the reference; both sides must agree event for event.
/// Returns whether the heap had an entry.
fn pop_expanded(queue: &mut EventQueue, model: &mut ModelQueue) -> bool {
    let Some(e) = queue.pop() else {
        prop_assert_eq!(model.pop(), None, "the reference holds more events");
        return false;
    };
    for (time, event) in expand(e) {
        let m = model.pop().map(|m| (m.time, m.event));
        prop_assert_eq!(Some((time, event)), m, "expanded pop mismatch");
    }
    true
}

/// One scripted operation of the coalescing property.  `open_stall` is the
/// sequencer of the newest stall end pushed as an entry of its own, while
/// it is still a plain `StallEnd`: a join turns it into a group.
fn apply_coalescing(
    queue: &mut EventQueue,
    model: &mut ModelQueue,
    now: &mut u64,
    open_stall: &mut Option<u32>,
    (op, delta, seq, tick): (u64, u64, u32, u64),
) {
    let time = Cycles::new(*now + delta);
    let id = SequencerId::new(seq);
    match op {
        0 | 1 => {
            let event = Event::SeqReady {
                seq: id,
                generation: tick,
            };
            queue.push(time, event);
            model.push(time, event);
        }
        2 | 3 => {
            queue.push_tick(time, id, tick);
            model.push(time, Event::TimerTick { cpu: id, tick });
        }
        4 | 5 => {
            let entries = queue.profile().pushes;
            queue.push_stall_end(time, id);
            let event = Event::StallEnd { seq: id };
            if queue.profile().pushes == entries {
                // A plain push would have superseded a live entry, so a
                // stall end whose slot is live may not join a group.
                prop_assert!(
                    !model.live.contains_key(&(1, seq)),
                    "a stall end joined a group while its own slot was live"
                );
                if let Some(first) = open_stall.take() {
                    model.release((1, first), true);
                }
                model.push_slotless(time, event);
            } else {
                model.push(time, event);
                *open_stall = Some(seq);
            }
        }
        6 => {
            // A plain stall end: the supersede path.
            queue.push(time, Event::StallEnd { seq: id });
            model.push(time, Event::StallEnd { seq: id });
        }
        7 => {
            queue.cancel_ready(id);
            model.release((0, seq), false);
        }
        8 => {
            queue.push(time, Event::Sample);
            model.push(time, Event::Sample);
        }
        _ => {
            let before = queue.peek().map(|e| e.time.as_u64());
            pop_expanded(queue, model);
            if let Some(t) = before {
                prop_assert!(t >= *now, "time went backwards");
                *now = t;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any monotone schedule of coalescing pushes, plain pushes,
    /// supersedes, cancels and pops, each popped group expands to exactly
    /// the events the plain-push reference pops next, in the same order —
    /// including the full drain at the end.  Times repeat often (a zero
    /// delay is one of three delay classes) so same-instant groups form.
    #[test]
    fn coalescing_pushes_expand_to_the_reference_sequence(
        ops in proptest::collection::vec(
            (
                0u64..12,
                prop_oneof![Just(0u64), 1u64..4, 0u64..(1 << 20)],
                0u32..6,
                1u64..3,
            ),
            0..200,
        )
    ) {
        let mut queue = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut now = 0u64;
        let mut open_stall = None;
        for op in ops {
            apply_coalescing(&mut queue, &mut model, &mut now, &mut open_stall, op);
        }
        while pop_expanded(&mut queue, &mut model) {}
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
