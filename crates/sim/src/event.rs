//! The discrete-event queue.

use misp_trace::QueueProfile;
use misp_types::{Cycles, SequencerId};
use std::cmp::Ordering;

/// An event processed by the engine's main loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The sequencer finished its current operation (or was woken) and is
    /// ready to proceed.  `generation` guards against stale events: the
    /// sequencer ignores events whose generation does not match its own.
    SeqReady {
        /// The sequencer concerned.
        seq: SequencerId,
        /// Generation counter captured when the event was scheduled.
        generation: u64,
    },
    /// A timer interrupt fires on the OS-visible CPU whose sequencer is
    /// `cpu`.  `tick` is the 1-based tick number on that CPU.
    TimerTick {
        /// The sequencer acting as the OS-visible CPU.
        cpu: SequencerId,
        /// The 1-based tick number.
        tick: u64,
    },
    /// The end of a timed stall window for `seq`.  The engine resumes the
    /// sequencer if (and only if) its stall window has actually elapsed; stale
    /// resume events from superseded, shorter windows are ignored.
    StallEnd {
        /// The stalled sequencer.
        seq: SequencerId,
    },
    /// The end of one shared stall window covering several sequencers (a
    /// serialization window suspending every AMS of a MISP processor at
    /// once).  Equivalent to consecutive [`Event::StallEnd`] events for
    /// `base + i` over the set bits of `mask` in ascending order, collapsed
    /// into one queue entry; like `StallEnd`, each covered sequencer is only
    /// resumed if its own window has actually elapsed.
    StallEndGroup {
        /// Sequencer index of bit 0 of `mask`.
        base: u32,
        /// Bit `i` covers sequencer `base + i`.
        mask: u32,
    },
    /// The interval metrics sampler fires: the engine records one
    /// [`misp_trace::IntervalSample`] and (conditionally) reschedules the
    /// next firing.  Scheduled only when `SimConfig::trace.metrics_interval`
    /// is non-zero, and drawing its `seqno` from the same shared counter as
    /// every other event, so samples land at deterministic points of the
    /// queue's total order.
    Sample,
}

/// An event tagged with its scheduled time and a monotonic tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Absolute simulation time at which the event fires.
    pub time: Cycles,
    /// Monotonic sequence number assigned at insertion; earlier insertions
    /// fire first among events with equal time, making the simulation
    /// deterministic.
    pub seqno: u64,
    /// The event payload.
    pub event: Event,
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so that BinaryHeap (a max-heap) pops the earliest event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seqno.cmp(&self.seqno))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Marks the absence of a queue position in the slot index.
const NO_POS: u64 = u64::MAX;
/// Marks an event kind that has no replacement slot.
const NO_SLOT: u32 = u32::MAX;
/// One bucket per possible length of the common bit-prefix with `last`
/// (64-bit keys ⇒ prefix lengths 0..=64 ⇒ 65 buckets).
const BUCKETS: usize = 65;

/// A deterministic time-ordered event queue.
///
/// # Total order
///
/// Events pop in ascending `(time, seqno)` order, nothing else.  Every event —
/// timer ticks included — draws its `seqno` from the single shared counter at
/// push time, so the pair is globally unique and the order is *total*: an
/// event's kind never participates in a tie-break, and two events at the same
/// time pop in the order they were pushed, whatever mix of kinds they are.
/// (Earlier revisions kept timer ticks in a side array scanned separately
/// from the heap, which left the tick-vs-heap tie at equal `(time, seqno)`
/// formally unspecified; merging both into one structure under one key makes
/// the order a definition rather than a coincidence of scan order.)
///
/// # Monotone radix heap
///
/// Simulation time never goes backwards: every push is at a time `>=` the
/// last popped event's time (asserted).  That monotonicity admits a *radix
/// heap* — cheaper than a comparison heap because entries are only examined
/// when time actually advances past them:
///
/// * `last` is the time of the most recently popped event; every queued
///   entry's time is `>= last`.
/// * Entry `t` lives in bucket `64 - leading_zeros(t XOR last)`: bucket 0
///   holds entries with `t == last` (due now), bucket `b >= 1` holds entries
///   whose highest bit of difference from `last` is bit `b - 1`.  Buckets are
///   ordered: every entry in a lower bucket precedes every entry in a higher
///   one, so the global minimum always lives in the first non-empty bucket.
/// * Push appends to the entry's bucket: O(1), no sifting.
/// * Pop removes the minimum from the first non-empty bucket `b`.  When
///   `b > 0`, time advances (`last` becomes the popped time) and the
///   remaining entries of bucket `b` are redistributed; each lands in a
///   strictly lower bucket (their prefix agreement with the new `last`
///   strictly grows), which is what bounds the total redistribution work —
///   each entry can only move down through the 65 buckets, giving O(64)
///   amortized moves per entry instead of O(log n) comparisons per
///   operation.  Entries in buckets other than `b` are untouched: `last`
///   only changes in bits below their differing bit, so their bucket index
///   is unchanged.
///
/// The earliest entry is cached, making `peek` (the macro-step batching
/// horizon) a field read.
///
/// # Supersede slot index
///
/// The queue is *indexed* for the two event kinds the engine supersedes:
/// each sequencer has at most one live `SeqReady` (a reschedule invalidates
/// the previous one) and at most one live stall window.  `pos` maps each
/// slot (`2 * sequencer + kind_bit`) to the bucket and in-bucket index of its
/// live entry.  Pushing a new event for an occupied slot removes the
/// superseded entry and inserts the successor under its own fresh
/// `(time, seqno)` key — exactly the key it would have had as a separate
/// push — so live events pop in the identical order while stale traffic
/// disappears.  Removal restores the slot to `NO_POS` before the successor
/// claims it (asserted), so a stale position can never alias a live entry.
#[derive(Debug)]
pub struct EventQueue {
    /// `buckets[b]` holds entries whose common bit-prefix with `last` is
    /// `64 - b` bits long; order within a bucket is arbitrary.
    buckets: Vec<Vec<ScheduledEvent>>,
    /// Bit `b` set iff `buckets[b]` is non-empty (`trailing_zeros` finds the
    /// first non-empty bucket in one instruction).
    occupied: u128,
    /// Queue position of each slot's live entry, packed as
    /// `(bucket << 32) | in-bucket index`, or `NO_POS` when absent; indexed
    /// by `2 * sequencer + kind_bit`, see [`EventQueue::slot_of`].
    pos: Vec<u64>,
    /// Cached copy of the earliest entry (the minimum `(time, seqno)`).
    min: Option<ScheduledEvent>,
    /// Time of the most recently popped event; the floor for every push.
    last: u64,
    /// Scratch space for bucket redistribution, retained across pops so the
    /// steady-state step path never allocates.
    scratch: Vec<ScheduledEvent>,
    /// Number of queued entries.
    len: usize,
    next_seqno: u64,
    /// Always-on self-profiling counters (plain integer adds on paths that
    /// already write adjacent fields); read out via [`EventQueue::profile`].
    profile: QueueProfile,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[inline]
fn pack(bucket: usize, idx: usize) -> u64 {
    ((bucket as u64) << 32) | idx as u64
}

#[inline]
fn unpack(p: u64) -> (usize, usize) {
    ((p >> 32) as usize, (p & u32::MAX as u64) as usize)
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            pos: Vec::new(),
            min: None,
            last: 0,
            scratch: Vec::new(),
            len: 0,
            next_seqno: 0,
            profile: QueueProfile::default(),
        }
    }

    #[inline]
    fn precedes(a: &ScheduledEvent, b: &ScheduledEvent) -> bool {
        (a.time, a.seqno) < (b.time, b.seqno)
    }

    /// The bucket `time` lives in, relative to the current `last`.
    #[inline]
    fn bucket_index(&self, time: Cycles) -> usize {
        (64 - (time.as_u64() ^ self.last).leading_zeros()) as usize
    }

    /// The replacement slot of an event: `SeqReady` and `StallEnd` events are
    /// per-sequencer singletons (a newer push supersedes the queued one);
    /// timer ticks and group stall-ends are never superseded.
    #[inline]
    fn slot_of(event: &Event) -> u32 {
        match event {
            Event::SeqReady { seq, .. } => seq.index() * 2,
            Event::StallEnd { seq } => seq.index() * 2 + 1,
            Event::TimerTick { .. } | Event::StallEndGroup { .. } | Event::Sample => NO_SLOT,
        }
    }

    /// Records `(bucket, idx)` as the position of `event`'s slot, if any.
    #[inline]
    fn note_pos(&mut self, event: &Event, bucket: usize, idx: usize) {
        let slot = Self::slot_of(event);
        if slot != NO_SLOT {
            self.pos[slot as usize] = pack(bucket, idx);
        }
    }

    /// Appends `ev` to its bucket, maintaining the slot index and occupancy
    /// mask.  Does not touch `len` or the cached minimum.
    #[inline]
    fn place(&mut self, ev: ScheduledEvent) {
        let b = self.bucket_index(ev.time);
        let idx = self.buckets[b].len();
        self.buckets[b].push(ev);
        self.occupied |= 1 << b;
        self.note_pos(&ev.event, b, idx);
    }

    /// Removes and returns the entry at `(bucket, idx)`, fixing up the slot
    /// index for both the removed entry and the entry `swap_remove` moved
    /// into its place.
    fn remove_at(&mut self, bucket: usize, idx: usize) -> ScheduledEvent {
        let removed = self.buckets[bucket].swap_remove(idx);
        let slot = Self::slot_of(&removed.event);
        if slot != NO_SLOT {
            self.pos[slot as usize] = NO_POS;
        }
        if idx < self.buckets[bucket].len() {
            let moved = self.buckets[bucket][idx];
            self.note_pos(&moved.event, bucket, idx);
        }
        if self.buckets[bucket].is_empty() {
            self.occupied &= !(1u128 << bucket);
        }
        self.len -= 1;
        removed
    }

    /// The minimum `(time, seqno)` entry, found by scanning the first
    /// non-empty bucket (buckets are ordered by time, so the minimum cannot
    /// live anywhere else).
    fn scan_min(&self) -> Option<ScheduledEvent> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        let mut best = self.buckets[b][0];
        for e in &self.buckets[b][1..] {
            if Self::precedes(e, &best) {
                best = *e;
            }
        }
        Some(best)
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the most recently popped event's time: the
    /// radix layout relies on simulation time being monotone non-decreasing.
    pub fn push(&mut self, time: Cycles, event: Event) {
        assert!(
            time.as_u64() >= self.last,
            "event at {time} scheduled before already-popped time {}",
            self.last
        );
        let seqno = self.next_seqno;
        self.next_seqno += 1;
        let slot = Self::slot_of(&event);
        let mut lost_min = false;
        if slot != NO_SLOT {
            if slot as usize >= self.pos.len() {
                self.pos.resize(slot as usize + 1, NO_POS);
            }
            let p = self.pos[slot as usize];
            if p != NO_POS {
                self.profile.supersessions += 1;
                // Supersede: drop the queued entry for this slot (it can
                // never fire — the engine would discard it on pop) and let
                // the successor claim the slot under its own fresh key.
                let (b, i) = unpack(p);
                let removed = self.remove_at(b, i);
                debug_assert_eq!(Self::slot_of(&removed.event), slot);
                assert_eq!(
                    self.pos[slot as usize], NO_POS,
                    "superseded slot must be cleared before its successor lands"
                );
                if self.min == Some(removed) {
                    lost_min = true;
                }
            }
        }
        let ev = ScheduledEvent { time, seqno, event };
        self.place(ev);
        self.len += 1;
        self.profile.pushes += 1;
        self.profile.max_len = self.profile.max_len.max(self.len as u64);
        if lost_min {
            // The superseded entry was the cached minimum; recompute from
            // the (possibly different) first non-empty bucket.
            self.min = self.scan_min();
        } else if self.min.is_none_or(|m| Self::precedes(&ev, &m)) {
            self.min = Some(ev);
        }
    }

    /// Removes and returns the earliest event (minimum `(time, seqno)`).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let m = self.min?;
        let b = self.bucket_index(m.time);
        // Locate the minimum inside its bucket: O(1) via the slot index for
        // superseded kinds, a scan for unique seqno otherwise.
        let slot = Self::slot_of(&m.event);
        let idx = if slot != NO_SLOT {
            unpack(self.pos[slot as usize]).1
        } else {
            self.buckets[b]
                .iter()
                .position(|e| e.seqno == m.seqno)
                .expect("cached minimum must be queued")
        };
        let popped = self.remove_at(b, idx);
        debug_assert_eq!(popped, m);
        self.profile.pops += 1;
        if b != 0 {
            // Time advances: re-anchor the radix layout on the popped time
            // and redistribute the minimum's former bucket.  Each remaining
            // entry agrees with the new `last` on strictly more leading bits
            // than it did with the old one (both share the old prefix up to
            // bit b-1, and the entry agrees with the popped minimum at bit
            // b-1 too), so each lands in a strictly lower bucket.  All other
            // buckets are unaffected.
            self.last = m.time.as_u64();
            if !self.buckets[b].is_empty() {
                std::mem::swap(&mut self.buckets[b], &mut self.scratch);
                self.occupied &= !(1u128 << b);
                self.profile.redistributions += self.scratch.len() as u64;
                for i in 0..self.scratch.len() {
                    let ev = self.scratch[i];
                    debug_assert!(self.bucket_index(ev.time) < b);
                    self.place(ev);
                }
                self.scratch.clear();
            }
        }
        self.min = self.scan_min();
        Some(popped)
    }

    /// Peeks at the earliest event without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&ScheduledEvent> {
        self.min.as_ref()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Self-profiling counters accumulated so far: pushes, pops, high-water
    /// occupancy, redistribution moves and superseded-slot replacements.
    ///
    /// These describe the *simulator's* data structure, not the simulation:
    /// they are deterministic for a fixed configuration but differ between
    /// the macro-step and event-per-operation engines, so they are surfaced
    /// via `sweep --profile` and the engine bench rather than the results
    /// schema.
    #[must_use]
    pub fn profile(&self) -> QueueProfile {
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(seq: u32) -> Event {
        Event::SeqReady {
            seq: SequencerId::new(seq),
            generation: 0,
        }
    }

    fn tick(cpu: u32, n: u64) -> Event {
        Event::TimerTick {
            cpu: SequencerId::new(cpu),
            tick: n,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(30), ready(3));
        q.push(Cycles::new(10), ready(1));
        q.push(Cycles::new(20), ready(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.time.as_u64())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(Cycles::new(100), ready(i));
        }
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            (0..5).map(ready).collect::<Vec<Event>>(),
            "equal-time events must pop in insertion order"
        );
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycles::new(5), ready(0));
        q.push(Cycles::new(1), ready(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().time, Cycles::new(1));
        assert_eq!(q.len(), 2, "peek does not remove");
        q.pop();
        q.pop();
        assert!(q.pop().is_none());
    }

    #[test]
    fn timer_and_ready_interleave_correctly() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(50), tick(0, 1));
        q.push(Cycles::new(25), ready(2));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        assert!(matches!(q.pop().unwrap().event, Event::TimerTick { .. }));
    }

    #[test]
    fn equal_time_tick_and_ready_pop_in_push_order_both_ways() {
        // The tie-break satellite: a timer tick and a heap event at the same
        // time must have one pinned total order — `(time, seqno)`, i.e. push
        // order — regardless of which kind was pushed first.
        let mut q = EventQueue::new();
        q.push(Cycles::new(100), tick(0, 1));
        q.push(Cycles::new(100), ready(1));
        assert!(matches!(q.pop().unwrap().event, Event::TimerTick { .. }));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        assert!(q.is_empty());

        let mut q = EventQueue::new();
        q.push(Cycles::new(100), ready(1));
        q.push(Cycles::new(100), tick(0, 1));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        assert!(matches!(q.pop().unwrap().event, Event::TimerTick { .. }));
        assert!(q.is_empty());
    }

    #[test]
    fn supersede_replaces_queued_entry_with_fresh_key() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10), ready(0));
        q.push(Cycles::new(30), ready(1));
        // Supersede sequencer 0's ready: the old t=10 entry must vanish.
        q.push(Cycles::new(20), ready(0));
        assert_eq!(q.len(), 2);
        let a = q.pop().unwrap();
        assert_eq!(a.time, Cycles::new(20));
        assert!(matches!(a.event, Event::SeqReady { seq, .. } if seq.index() == 0));
        let b = q.pop().unwrap();
        assert_eq!(b.time, Cycles::new(30));
        assert!(q.pop().is_none());
    }

    #[test]
    fn supersede_keeps_slot_index_coherent_under_churn() {
        // Regression for slot-index staleness: supersede entries repeatedly,
        // interleaved with unrelated traffic that forces bucket compaction
        // (swap_remove) and redistribution, then verify the queue still pops
        // exactly the live set in `(time, seqno)` order.
        let mut q = EventQueue::new();
        let mut now = 0u64;
        let mut expected: Vec<u64> = Vec::new();
        for round in 0..50u64 {
            let t = now + 1 + (round * 7919) % 97;
            q.push(Cycles::new(t), ready((round % 4) as u32));
            q.push(Cycles::new(t + 3), tick(0, round + 1));
            // Supersede the same sequencer immediately: only the second
            // event survives.
            q.push(Cycles::new(t + 1), ready((round % 4) as u32));
            expected.push(t + 1);
            expected.push(t + 3);
            // Drain both live events, advancing time.
            let a = q.pop().unwrap();
            let b = q.pop().unwrap();
            now = b.time.as_u64();
            assert!(a.time <= b.time);
            assert!(q.is_empty(), "stale superseded entries must not linger");
        }
        assert_eq!(expected.len(), 100);
    }

    #[test]
    fn stall_end_and_seq_ready_slots_are_independent() {
        let mut q = EventQueue::new();
        let seq = SequencerId::new(3);
        q.push(Cycles::new(10), Event::SeqReady { seq, generation: 1 });
        q.push(Cycles::new(20), Event::StallEnd { seq });
        // Superseding the stall window must not disturb the SeqReady entry.
        q.push(Cycles::new(15), Event::StallEnd { seq });
        assert_eq!(q.len(), 2);
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
        let e = q.pop().unwrap();
        assert_eq!(e.time, Cycles::new(15));
        assert!(matches!(e.event, Event::StallEnd { .. }));
    }

    #[test]
    fn monotone_pop_across_wide_time_range() {
        // Exercise refills across many radix buckets: times spanning from
        // single cycles up past 2^40.
        let mut q = EventQueue::new();
        let mut times: Vec<u64> = (0..60).map(|i| 1u64 << i).collect();
        times.extend([3, 5, 1000, 999_999, (1 << 40) + 12345]);
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycles::new(t), tick((i % 3) as u32, i as u64 + 1));
        }
        times.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.time.as_u64())).collect();
        assert_eq!(popped, times);
    }

    #[test]
    fn profile_counts_pushes_pops_supersessions_and_high_water() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10), ready(0));
        q.push(Cycles::new(30), ready(1));
        // Supersede sequencer 0's entry: counted, and len stays at 2.
        q.push(Cycles::new(20), ready(0));
        while q.pop().is_some() {}
        let p = q.profile();
        assert_eq!(p.pushes, 3);
        assert_eq!(p.pops, 2, "the superseded entry is never popped");
        assert_eq!(p.supersessions, 1);
        assert_eq!(p.max_len, 2);
    }

    #[test]
    fn profile_counts_redistribution_moves() {
        // Two entries far from `last` share a high bucket; popping the first
        // advances time and must redistribute the second downward.
        let mut q = EventQueue::new();
        q.push(Cycles::new(1 << 20), tick(0, 1));
        q.push(Cycles::new((1 << 20) + 1), tick(0, 2));
        q.pop();
        assert_eq!(q.profile().redistributions, 1);
        q.pop();
        assert_eq!(q.profile().pops, 2);
    }

    #[test]
    fn sample_events_have_no_slot_and_pop_in_push_order() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(100), Event::Sample);
        q.push(Cycles::new(100), Event::Sample);
        q.push(Cycles::new(100), ready(0));
        assert_eq!(q.len(), 3, "samples are never superseded");
        assert!(matches!(q.pop().unwrap().event, Event::Sample));
        assert!(matches!(q.pop().unwrap().event, Event::Sample));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { .. }));
    }

    #[test]
    #[should_panic(expected = "scheduled before")]
    fn pushing_into_the_past_is_rejected() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(100), ready(0));
        q.pop();
        q.push(Cycles::new(99), ready(0));
    }
}
