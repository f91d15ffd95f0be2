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
    /// Timer tick number `tick` on several OS-visible CPUs at one instant.
    /// Equivalent to consecutive [`Event::TimerTick`] events for CPU
    /// `base + i` over the set bits of `mask` in ascending order, collapsed
    /// into one queue entry by [`EventQueue::push_tick`]; the engine
    /// dispatches the members one by one in that order.
    TimerTickGroup {
        /// Sequencer index of bit 0 of `mask`.
        base: u32,
        /// Bit `i` covers the CPU whose sequencer index is `base + i`.
        mask: u32,
        /// The 1-based tick number, the same on every member.
        tick: u64,
    },
    /// The end of a timed stall window for `seq`.  The engine resumes the
    /// sequencer if (and only if) its stall window has actually elapsed; stale
    /// resume events from superseded, shorter windows are ignored.
    StallEnd {
        /// The stalled sequencer.
        seq: SequencerId,
    },
    /// The end of stall windows of several sequencers at one instant: a
    /// serialization window suspending every AMS of a MISP processor at once
    /// (pushed whole by `EngineCore::stall_many`), or same-instant
    /// [`Event::StallEnd`]s merged by [`EventQueue::push_stall_end`] (the
    /// windows every SMP core opens on one timer tick).  Equivalent to
    /// consecutive [`Event::StallEnd`] events for `base + i` over the set
    /// bits of `mask` in ascending order, collapsed into one queue entry;
    /// like `StallEnd`, each covered sequencer is only resumed if its own
    /// window has actually elapsed.  A group holds no supersede slot: a
    /// later window end pushed for a member leaves the member in place, and
    /// the member then pops as a no-op, because that sequencer's window
    /// has not elapsed yet.
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
/// # Coalesced entries
///
/// Two pushes share one queue entry when their events would pop back to
/// back anyway.  [`EventQueue::push_tick`] adds a tick to the newest tick
/// entry, and [`EventQueue::push_stall_end`] adds a stall end to the newest
/// stall-end entry, when all of these hold:
///
/// * the push is for the same time;
/// * it is for a sequencer with a higher index than every member, within
///   32 of the lowest (the entry's mask is 32 bits wide);
/// * for a tick, it carries the same tick number; for a stall end, its own
///   slot holds no live entry (otherwise the push supersedes that entry
///   as usual and starts a new group);
/// * no other push at that time came in between, and the entry has not
///   popped.
///
/// Each group is exact.  Had the joining event been pushed separately, it
/// would have had the same time and a higher seqno than the entry.  Any
/// entry that would have sorted between the two must have the same time
/// and must have been pushed in between, which the rule excludes; entries
/// pushed later sort after both.  So the separate event would have popped
/// right after the entry, and a group dispatched member by member in
/// ascending index order ([`Event::TimerTickGroup`],
/// [`Event::StallEndGroup`]) replays the same sequence.  A joining push
/// draws no seqno and is not counted in [`QueueProfile::pushes`].  The
/// first member keeps its plain [`Event::TimerTick`] or
/// [`Event::StallEnd`] form until a second one joins; a stall end that
/// becomes a group gives up its supersede slot (see
/// [`Event::StallEndGroup`]).
///
/// [`EventQueue::push`] never coalesces, and [`EventQueue::cancel_ready`]
/// removes a sequencer's queued `SeqReady`, so a caller that keeps the
/// event-per-push reference (the engine with `SimConfig::batch` off) uses
/// `push` alone.
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
    /// The tick entry the next same-instant [`EventQueue::push_tick`] may
    /// join, if any (see "Coalesced entries").
    tick_join: Option<Join>,
    /// The stall-end entry the next same-instant
    /// [`EventQueue::push_stall_end`] may join, if any.
    stall_join: Option<Join>,
    /// Always-on self-profiling counters (plain integer adds on paths that
    /// already write adjacent fields); read out via [`EventQueue::profile`].
    profile: QueueProfile,
}

/// The newest entry a same-instant tick or stall end may join.
#[derive(Debug, Clone, Copy)]
struct Join {
    /// The entry's time.
    time: Cycles,
    /// The entry's seqno, which locates it in its bucket.
    seqno: u64,
    /// Sequencer index of bit 0 of `mask`.
    base: u32,
    /// The members so far: bit `i` covers sequencer `base + i`.
    mask: u32,
    /// The tick number of a tick entry (0 for a stall-end entry).
    tick: u64,
}

impl Join {
    /// Whether `seq` may join a same-time entry with these members: its
    /// index is above every member's and within the mask's 32 bits.
    #[inline]
    fn admits(&self, seq: u32) -> bool {
        let top = self.base + (31 - self.mask.leading_zeros());
        seq > top && seq - self.base < 32
    }
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
            tick_join: None,
            stall_join: None,
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
    /// timer ticks and groups are never superseded.
    #[inline]
    fn slot_of(event: &Event) -> u32 {
        match event {
            Event::SeqReady { seq, .. } => seq.index() * 2,
            Event::StallEnd { seq } => seq.index() * 2 + 1,
            Event::TimerTick { .. }
            | Event::TimerTickGroup { .. }
            | Event::StallEndGroup { .. }
            | Event::Sample => NO_SLOT,
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
    /// into its place.  A removed join target can take no more members.
    fn remove_at(&mut self, bucket: usize, idx: usize) -> ScheduledEvent {
        let removed = self.buckets[bucket].swap_remove(idx);
        let slot = Self::slot_of(&removed.event);
        if slot != NO_SLOT {
            self.pos[slot as usize] = NO_POS;
        }
        if self.tick_join.is_some_and(|j| j.seqno == removed.seqno) {
            self.tick_join = None;
        }
        if self.stall_join.is_some_and(|j| j.seqno == removed.seqno) {
            self.stall_join = None;
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
        // An entry pushed at a group's time sorts after it, so a later
        // same-time member may no longer join the group.
        if self.tick_join.is_some_and(|j| j.time == time) {
            self.tick_join = None;
        }
        if self.stall_join.is_some_and(|j| j.time == time) {
            self.stall_join = None;
        }
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

    /// Schedules timer tick number `tick` for CPU `cpu` at `time`, joining
    /// the newest tick entry when the rule in "Coalesced entries" admits it
    /// (the entry becomes or stays an [`Event::TimerTickGroup`]), and
    /// pushing a plain [`Event::TimerTick`] otherwise.
    ///
    /// # Panics
    ///
    /// As [`EventQueue::push`].
    pub fn push_tick(&mut self, time: Cycles, cpu: SequencerId, tick: u64) {
        let idx = cpu.index();
        if let Some(j) = &mut self.tick_join {
            if j.time == time && j.tick == tick && j.admits(idx) {
                j.mask |= 1 << (idx - j.base);
                let (seqno, base, mask) = (j.seqno, j.base, j.mask);
                self.amend(time, seqno, Event::TimerTickGroup { base, mask, tick });
                return;
            }
        }
        self.push(time, Event::TimerTick { cpu, tick });
        self.tick_join = Some(Join {
            time,
            seqno: self.next_seqno - 1,
            base: idx,
            mask: 1,
            tick,
        });
    }

    /// Schedules the end of `seq`'s stall window at `time`, joining the
    /// newest stall-end entry when the rule in "Coalesced entries" admits
    /// it (the entry becomes or stays an [`Event::StallEndGroup`]), and
    /// pushing a plain [`Event::StallEnd`] otherwise.
    ///
    /// # Panics
    ///
    /// As [`EventQueue::push`].
    pub fn push_stall_end(&mut self, time: Cycles, seq: SequencerId) {
        let idx = seq.index();
        if let Some(j) = &mut self.stall_join {
            let live = self
                .pos
                .get(seq.as_usize() * 2 + 1)
                .is_some_and(|&p| p != NO_POS);
            if j.time == time && !live && j.admits(idx) {
                let first = j.mask == 1;
                j.mask |= 1 << (idx - j.base);
                let (seqno, base, mask) = (j.seqno, j.base, j.mask);
                if first {
                    // The plain StallEnd becomes a group, which holds no slot.
                    self.pos[base as usize * 2 + 1] = NO_POS;
                }
                self.amend(time, seqno, Event::StallEndGroup { base, mask });
                return;
            }
        }
        self.push(time, Event::StallEnd { seq });
        self.stall_join = Some(Join {
            time,
            seqno: self.next_seqno - 1,
            base: idx,
            mask: 1,
            tick: 0,
        });
    }

    /// Replaces the event of the queued entry `(time, seqno)` in place,
    /// keeping its key, and the cached minimum's copy if it is that entry.
    fn amend(&mut self, time: Cycles, seqno: u64, event: Event) {
        let b = self.bucket_index(time);
        // A join target was the newest push into its bucket unless later
        // traffic moved it, so the search from the back is usually one step.
        let entry = self.buckets[b]
            .iter_mut()
            .rev()
            .find(|e| e.seqno == seqno)
            .expect("a join target is queued");
        entry.event = event;
        if let Some(m) = &mut self.min {
            if m.seqno == seqno {
                m.event = event;
            }
        }
    }

    /// Removes `seq`'s queued [`Event::SeqReady`], if any.  The engine calls
    /// this when it invalidates the event (bumps the sequencer's
    /// generation) without scheduling a successor, so the stale entry
    /// neither pops as a no-op nor holds the macro-step horizon back.
    pub fn cancel_ready(&mut self, seq: SequencerId) {
        let Some(&p) = self.pos.get(seq.as_usize() * 2) else {
            return;
        };
        if p == NO_POS {
            return;
        }
        let (b, i) = unpack(p);
        let removed = self.remove_at(b, i);
        debug_assert!(matches!(removed.event, Event::SeqReady { seq: s, .. } if s == seq));
        if self.min == Some(removed) {
            self.min = self.scan_min();
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

    fn stall_end(seq: u32) -> Event {
        Event::StallEnd {
            seq: SequencerId::new(seq),
        }
    }

    /// Expands a popped entry into the per-event sequence it stands for.
    fn expand(e: ScheduledEvent) -> Vec<(u64, Event)> {
        let members = |base: u32, mask: u32| {
            (0..32)
                .filter(move |i| mask & (1 << i) != 0)
                .map(move |i| base + i)
        };
        let t = e.time.as_u64();
        match e.event {
            Event::TimerTickGroup { base, mask, tick } => members(base, mask)
                .map(|c| (t, self::tick(c, tick)))
                .collect(),
            Event::StallEndGroup { base, mask } => {
                members(base, mask).map(|s| (t, stall_end(s))).collect()
            }
            other => vec![(t, other)],
        }
    }

    #[test]
    fn same_time_ticks_from_ascending_cpus_pop_as_one_entry() {
        let mut q = EventQueue::new();
        // Stall ends at another time in between do not split the group.
        for cpu in [0, 1, 3, 7] {
            q.push_stall_end(Cycles::new(40), SequencerId::new(cpu));
            q.push_tick(Cycles::new(100), SequencerId::new(cpu), 5);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.profile().pushes, 2, "a joining push adds no entry");
        let ends = q.pop().unwrap();
        assert_eq!(
            ends.event,
            Event::StallEndGroup {
                base: 0,
                mask: 0b1000_1011
            }
        );
        let ticks = q.pop().unwrap();
        assert_eq!(ticks.time, Cycles::new(100));
        assert_eq!(
            ticks.event,
            Event::TimerTickGroup {
                base: 0,
                mask: 0b1000_1011,
                tick: 5
            }
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_lone_tick_or_stall_end_keeps_its_plain_form() {
        let mut q = EventQueue::new();
        q.push_tick(Cycles::new(100), SequencerId::new(2), 1);
        q.push_stall_end(Cycles::new(50), SequencerId::new(4));
        assert_eq!(q.pop().unwrap().event, stall_end(4));
        assert_eq!(q.pop().unwrap().event, tick(2, 1));
    }

    #[test]
    fn intervening_pushes_descending_cpus_and_other_ticks_split_groups() {
        let at = Cycles::new(100);
        type Split = (&'static str, fn(&mut EventQueue));
        let splits: [Split; 6] = [
            ("a ready at the same time", |q| {
                q.push(Cycles::new(100), ready(9))
            }),
            ("a sample at the same time", |q| {
                q.push(Cycles::new(100), Event::Sample)
            }),
            ("a plain push of a tick", |q| {
                q.push(Cycles::new(100), tick(8, 1))
            }),
            ("a stall end at the same time", |q| {
                q.push_stall_end(Cycles::new(100), SequencerId::new(9));
            }),
            ("a descending cpu", |q| {
                q.push_tick(Cycles::new(100), SequencerId::new(0), 1)
            }),
            ("another tick number", |q| {
                q.push_tick(Cycles::new(100), SequencerId::new(6), 2)
            }),
        ];
        for (what, split) in splits {
            let mut q = EventQueue::new();
            q.push_tick(at, SequencerId::new(1), 1);
            split(&mut q);
            q.push_tick(at, SequencerId::new(7), 1);
            // CPU 1's tick pops first and alone.
            assert_eq!(
                q.pop().unwrap().event,
                tick(1, 1),
                "{what} must split the group"
            );
        }
        // A cpu more than 31 above the group's base starts a new entry.
        let mut q = EventQueue::new();
        q.push_tick(at, SequencerId::new(0), 1);
        q.push_tick(at, SequencerId::new(32), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn stall_ends_split_on_a_live_slot_and_ticks_do_not_join_popped_entries() {
        let mut q = EventQueue::new();
        let t = Cycles::new(100);
        // Sequencer 3 already has a queued window end: its push supersedes
        // that entry and starts a new group instead of joining.
        q.push_stall_end(Cycles::new(200), SequencerId::new(3));
        q.push_stall_end(t, SequencerId::new(1));
        q.push_stall_end(t, SequencerId::new(3));
        q.push_stall_end(t, SequencerId::new(4));
        assert_eq!(q.profile().supersessions, 1);
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(
            order,
            vec![
                stall_end(1),
                Event::StallEndGroup {
                    base: 3,
                    mask: 0b11
                }
            ]
        );

        // A group that popped takes no further member.
        let mut q = EventQueue::new();
        q.push_tick(t, SequencerId::new(0), 1);
        assert_eq!(q.pop().unwrap().event, tick(0, 1));
        q.push_tick(t, SequencerId::new(1), 1);
        assert_eq!(q.pop().unwrap().event, tick(1, 1));
    }

    #[test]
    fn a_stall_end_that_becomes_a_group_gives_up_its_slot() {
        let mut q = EventQueue::new();
        let t = Cycles::new(100);
        q.push_stall_end(t, SequencerId::new(0));
        q.push_stall_end(t, SequencerId::new(1));
        // A later window end for sequencer 0 is a fresh entry; the group's
        // member stays (the engine ignores it, the window has not elapsed).
        q.push(Cycles::new(300), stall_end(0));
        assert_eq!(q.profile().supersessions, 0);
        assert_eq!(
            q.pop().unwrap().event,
            Event::StallEndGroup {
                base: 0,
                mask: 0b11
            }
        );
        assert_eq!(q.pop().unwrap().event, stall_end(0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn coalesced_pops_expand_to_the_per_event_sequence() {
        // The same script through the coalescing pushes and through plain
        // pushes: the expanded pops must match event for event.
        let mut grouped = EventQueue::new();
        let mut plain = EventQueue::new();
        let mut now = 0u64;
        for round in 0..40u64 {
            let tick_at = Cycles::new((round + 1) * 1_000);
            let end_at = Cycles::new(now + 10 + round % 3);
            for cpu in 0..6u32 {
                // Rotate which cpus tick, and break the run now and then.
                if (cpu as u64 + round) % 4 == 3 {
                    continue;
                }
                let seq = SequencerId::new(cpu);
                grouped.push_stall_end(end_at, seq);
                plain.push(end_at, stall_end(cpu));
                if round % 5 == 0 && cpu == 2 {
                    grouped.push(end_at, ready(cpu));
                    plain.push(end_at, ready(cpu));
                }
                grouped.push_tick(tick_at, seq, round + 1);
                plain.push(tick_at, tick(cpu, round + 1));
            }
            let mut a = Vec::new();
            let mut b = Vec::new();
            for _ in 0..3 {
                if let Some(e) = grouped.pop() {
                    now = e.time.as_u64();
                    a.extend(expand(e));
                }
            }
            while b.len() < a.len() {
                let e = plain.pop().unwrap();
                b.push((e.time.as_u64(), e.event));
            }
            assert_eq!(a, b, "round {round}");
        }
        let rest: Vec<(u64, Event)> = std::iter::from_fn(|| grouped.pop())
            .flat_map(expand)
            .collect();
        let plain_rest: Vec<(u64, Event)> =
            std::iter::from_fn(|| plain.pop().map(|e| (e.time.as_u64(), e.event))).collect();
        assert_eq!(rest, plain_rest);
        assert!(grouped.profile().pops < plain.profile().pops);
    }

    #[test]
    fn cancel_ready_removes_only_that_sequencers_ready() {
        let mut q = EventQueue::new();
        q.push(Cycles::new(10), ready(0));
        q.push(Cycles::new(20), ready(1));
        q.push(Cycles::new(15), stall_end(0));
        q.cancel_ready(SequencerId::new(0));
        q.cancel_ready(SequencerId::new(5)); // never queued: no-op
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.peek().unwrap().time,
            Cycles::new(15),
            "the minimum moves on"
        );
        assert_eq!(q.pop().unwrap().event, stall_end(0));
        assert!(matches!(q.pop().unwrap().event, Event::SeqReady { seq, .. } if seq.index() == 1));
        assert!(q.pop().is_none());
        // The slot is free again: a new ready is a push, not a supersession.
        q.push(Cycles::new(30), ready(0));
        assert_eq!(q.profile().supersessions, 0);
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
