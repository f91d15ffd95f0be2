//! Queue replay: `misp_sim::EventQueue` (the radix heap) against a
//! `BinaryHeap` + lazy-deletion reference, driven by the same hold-model
//! stream.
//!
//! The stream is built from a workload's own inputs: one lane per
//! sequencer holds for the compute-op lengths of the workload's generated
//! programs, a timer lane ticks at the configuration's period, and after a
//! share of the lane pushes a second push supersedes the first, matching
//! the supersede ratio the workload's real queues showed.  The script is
//! recorded once (pushes depend only on what was popped) and replayed
//! against both queues, which must pop identical `(time, seqno)` sequences.

use crate::host::{now, ns};
use crate::stats::median;
use misp_sim::{Event, EventQueue, ScheduledEvent};
use misp_types::{Cycles, SequencerId, SplitMix64};
use std::collections::BinaryHeap;
use std::hint::black_box;

/// One queue operation of a recorded script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(Cycles, Event),
    Pop,
}

/// Timed passes per queue; the median is reported.
const PASSES: usize = 5;

/// Parameters of the hold-model stream.
#[derive(Debug, Clone)]
pub struct HoldModel {
    /// Hold times a lane draws in turn (compute-op lengths, in cycles).
    pub gaps: Vec<u64>,
    /// Sequencer lanes.
    pub lanes: u32,
    /// Timer tick period, in cycles.
    pub tick_period: u64,
    /// Share of pushes that supersede a queued entry.
    pub supersede_ratio: f64,
    /// Pops in the script.
    pub pops: usize,
    /// Seed of the supersede draws.
    pub seed: u64,
}

/// What one replay measured.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Pushes plus pops in the script.
    pub ops: usize,
    /// Radix heap, host ns per operation.
    pub radix_ns_per_op: f64,
    /// Binary-heap reference, host ns per operation.
    pub reference_ns_per_op: f64,
    /// Whether both queues popped the identical `(time, seqno)` sequence.
    pub identical: bool,
}

fn ready(lane: u32, generation: u64) -> Event {
    Event::SeqReady {
        seq: SequencerId::new(lane),
        generation,
    }
}

impl HoldModel {
    /// Records the script by running the hold model on the radix heap.
    fn script(&self) -> Vec<Op> {
        let mut queue = EventQueue::new();
        let mut ops = Vec::with_capacity(self.pops * 3);
        let mut rng = SplitMix64::new(self.seed);
        // A supersede adds a push without a pop: `extra` per lane pop gives
        // supersessions / pushes = extra / (1 + extra) = the ratio.
        let ratio = self.supersede_ratio.clamp(0.0, 0.5);
        let extra = ratio / (1.0 - ratio);
        let mut gaps = self.gaps.iter().map(|&g| g.max(1)).cycle();
        let mut next_gap = || Cycles::new(gaps.next().unwrap_or(1));
        let push = |queue: &mut EventQueue, ops: &mut Vec<Op>, time: Cycles, event| {
            queue.push(time, event);
            ops.push(Op::Push(time, event));
        };
        for lane in 0..self.lanes {
            push(&mut queue, &mut ops, next_gap(), ready(lane, 0));
        }
        let tick = |n| Event::TimerTick {
            cpu: SequencerId::new(0),
            tick: n,
        };
        push(
            &mut queue,
            &mut ops,
            Cycles::new(self.tick_period.max(1)),
            tick(1),
        );
        for _ in 0..self.pops {
            let e = queue.pop().expect("every pop pushes a successor");
            ops.push(Op::Pop);
            match e.event {
                Event::TimerTick { tick: n, .. } => {
                    let at = e.time + Cycles::new(self.tick_period.max(1));
                    push(&mut queue, &mut ops, at, tick(n + 1));
                }
                Event::SeqReady { seq, generation } => {
                    let lane = seq.index();
                    push(
                        &mut queue,
                        &mut ops,
                        e.time + next_gap(),
                        ready(lane, generation + 1),
                    );
                    if rng.next_f64() < extra {
                        push(
                            &mut queue,
                            &mut ops,
                            e.time + next_gap(),
                            ready(lane, generation + 2),
                        );
                    }
                }
                other => unreachable!("the hold model pushes no {other:?}"),
            }
        }
        ops
    }

    /// Records the script, checks both queues pop it identically, and times
    /// [`PASSES`] alternating passes of each.
    #[must_use]
    pub fn run(&self) -> Replay {
        let script = self.script();
        let mut radix_out = Vec::with_capacity(self.pops);
        let mut reference_out = Vec::with_capacity(self.pops);
        let mut radix = Vec::with_capacity(PASSES);
        let mut reference = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            radix.push(time_pass(|| replay_radix(&script, &mut radix_out)));
            reference.push(time_pass(|| replay_reference(&script, &mut reference_out)));
        }
        let per_op = |v: &[u64]| {
            median(&v.iter().map(|&t| t as f64).collect::<Vec<_>>()) / script.len() as f64
        };
        Replay {
            ops: script.len(),
            radix_ns_per_op: per_op(&radix),
            reference_ns_per_op: per_op(&reference),
            identical: radix_out == reference_out,
        }
    }
}

fn time_pass(f: impl FnOnce()) -> u64 {
    let t = now();
    f();
    ns(t, now())
}

fn replay_radix(script: &[Op], out: &mut Vec<(u64, u64)>) {
    out.clear();
    let mut queue = EventQueue::new();
    for &op in script {
        match op {
            Op::Push(time, event) => queue.push(time, event),
            Op::Pop => {
                let e = queue.pop().expect("the script pops only a non-empty queue");
                out.push((e.time.as_u64(), e.seqno));
            }
        }
    }
    black_box(&queue);
}

/// The reference of `tests/event_queue_model.rs`: a comparison heap whose
/// superseded `SeqReady` entries are skipped on pop (lazy deletion), with
/// the live seqno of each lane in a vector instead of a map.
fn replay_reference(script: &[Op], out: &mut Vec<(u64, u64)>) {
    const NONE: u64 = u64::MAX;
    out.clear();
    let mut heap: BinaryHeap<ScheduledEvent> = BinaryHeap::new();
    let mut live: Vec<u64> = Vec::new();
    let mut next_seqno = 0u64;
    for &op in script {
        match op {
            Op::Push(time, event) => {
                let seqno = next_seqno;
                next_seqno += 1;
                if let Event::SeqReady { seq, .. } = event {
                    let lane = seq.as_usize();
                    if lane >= live.len() {
                        live.resize(lane + 1, NONE);
                    }
                    live[lane] = seqno;
                }
                heap.push(ScheduledEvent { time, seqno, event });
            }
            Op::Pop => loop {
                let e = heap.pop().expect("the script pops only a non-empty queue");
                if let Event::SeqReady { seq, .. } = e.event {
                    let lane = seq.as_usize();
                    if live[lane] != e.seqno {
                        continue;
                    }
                    live[lane] = NONE;
                }
                out.push((e.time.as_u64(), e.seqno));
                break;
            },
        }
    }
    black_box(&heap);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_heap_and_reference_pop_identically() {
        let model = HoldModel {
            gaps: vec![5, 1_000, 3, 250_000, 7, 40],
            lanes: 8,
            tick_period: 3_000,
            supersede_ratio: 0.3,
            pops: 20_000,
            seed: 7,
        };
        let script = model.script();
        let supersedes = script.len() - 2 * model.pops - (model.lanes as usize + 1);
        assert!(supersedes > 0, "the model supersedes");
        let replay = model.run();
        assert!(replay.identical);
        assert_eq!(replay.ops, script.len());
        assert!(replay.radix_ns_per_op > 0.0 && replay.reference_ns_per_op > 0.0);
    }
}
