//! Property tests for the ShredLib synchronization primitives.
//!
//! A randomized cooperative executor drives random shred counts through the
//! mutex + work-queue + barrier pattern every shredded workload uses: each
//! shred repeatedly acquires the mutex, completes one chunk of work,
//! releases, and finally arrives at the barrier.  The schedule — which ready
//! shred runs next, the oldest or an arbitrary one brought to the head by a
//! random rotation of the queue — is randomized per case.  For every
//! schedule:
//!
//! * the system terminates (no deadlock, no livelock) within a step bound,
//! * completed-chunk counts are conserved (every shred did exactly its
//!   share; the mutex-protected counter saw every increment),
//! * the mutex ends free, the barrier releases exactly once, and the work
//!   queue drains.
//!
//! Misuse of the primitives by a simulated program ends the run with a
//! `MispError` on every machine.

use misp::core::{MispMachine, MispTopology};
use misp::isa::{ProgramBuilder, ProgramLibrary};
use misp::shredlib::{GangScheduler, SyncTable, WorkQueue};
use misp::sim::{SimConfig, SingleShredRuntime};
use misp::smp::SmpMachine;
use misp::types::{Cycles, LockId, MispError, ShredId};
use proptest::prelude::*;
use std::collections::VecDeque;

const MUTEX: LockId = LockId::new(0);
const BARRIER: LockId = LockId::new(1);

/// What a shred does next in the mutex/chunk/barrier state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Must acquire the mutex before touching the shared counter.
    NeedLock,
    /// Holds the mutex; will complete one chunk and release.
    HoldLock,
    /// All chunks done; must arrive at the barrier.
    AtBarrier,
    /// Passed the barrier.
    Done,
}

/// A deterministic xorshift generator: the schedule is a pure function of
/// the proptest-chosen seed, so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

struct Executor {
    table: SyncTable,
    queue: WorkQueue,
    /// Mirror of the queue contents, checked against every pop.
    ready: VecDeque<ShredId>,
    /// Ready shreds handed to the queue (rotations not counted).
    enqueued: u64,
    /// The deepest the queue has been.
    max_depth: usize,
    phase: Vec<Phase>,
    chunks_left: Vec<u64>,
    completed_chunks: u64,
    barrier_releases: u64,
}

impl Executor {
    fn new(shreds: usize, chunks: u64) -> Self {
        let mut table = SyncTable::new();
        table.create_barrier(BARRIER, shreds);
        let mut executor = Executor {
            table,
            queue: WorkQueue::new(),
            ready: VecDeque::new(),
            enqueued: 0,
            max_depth: 0,
            phase: vec![Phase::NeedLock; shreds],
            chunks_left: vec![chunks; shreds],
            completed_chunks: 0,
            barrier_releases: 0,
        };
        for i in 0..shreds {
            executor.enqueue(ShredId::new(i as u32));
        }
        executor
    }

    fn enqueue(&mut self, shred: ShredId) {
        self.queue.push(shred);
        self.ready.push_back(shred);
        self.enqueued += 1;
        self.max_depth = self.max_depth.max(self.ready.len());
    }

    /// Picks the next shred: usually the oldest, sometimes an arbitrary one
    /// brought to the head by rotating the queue (heads popped and pushed
    /// back).
    fn pick(&mut self, rng: &mut Rng) -> Option<ShredId> {
        if self.ready.is_empty() {
            assert!(self.queue.is_empty(), "mirror diverged from the queue");
            return None;
        }
        if rng.below(4) == 0 {
            let turns = rng.below(self.ready.len());
            for _ in 0..turns {
                let head = self
                    .queue
                    .pop()
                    .expect("mirror says the queue is non-empty");
                self.queue.push(head);
            }
            self.ready.rotate_left(turns);
        }
        let shred = self
            .queue
            .pop()
            .expect("mirror says the queue is non-empty");
        assert_eq!(
            self.ready.pop_front(),
            Some(shred),
            "mirror diverged from the queue"
        );
        Some(shred)
    }

    /// Runs one step of `shred`'s state machine.  Returns the shreds to make
    /// ready (wake-ups plus the shred itself when it can keep running).
    fn step(&mut self, shred: ShredId) {
        let index = shred.as_usize();
        match self.phase[index] {
            Phase::NeedLock => {
                let outcome = self.table.mutex_lock(MUTEX, shred).expect("lock");
                assert!(outcome.wake.is_empty(), "locking wakes no one");
                if outcome.block {
                    // Parked on the mutex; mutex_unlock will hand ownership
                    // over and wake it straight into HoldLock.
                    self.phase[index] = Phase::HoldLock;
                } else {
                    self.phase[index] = Phase::HoldLock;
                    self.enqueue(shred);
                }
            }
            Phase::HoldLock => {
                // The critical section: one chunk of the shared tally.
                self.completed_chunks += 1;
                self.chunks_left[index] -= 1;
                self.phase[index] = if self.chunks_left[index] == 0 {
                    Phase::AtBarrier
                } else {
                    Phase::NeedLock
                };
                let outcome = self.table.mutex_unlock(MUTEX, shred).expect("unlock");
                assert!(!outcome.block, "unlock never blocks");
                for woken in outcome.wake {
                    // Ownership transferred: the woken waiter holds the mutex.
                    assert_eq!(self.phase[woken.as_usize()], Phase::HoldLock);
                    self.enqueue(woken);
                }
                self.enqueue(shred);
            }
            Phase::AtBarrier => {
                let outcome = self.table.barrier_wait(BARRIER, shred).expect("barrier");
                if outcome.block {
                    return; // parked until the last arrival
                }
                self.barrier_releases += 1;
                self.phase[index] = Phase::Done;
                for woken in outcome.wake {
                    assert_eq!(self.phase[woken.as_usize()], Phase::AtBarrier);
                    self.phase[woken.as_usize()] = Phase::Done;
                }
            }
            Phase::Done => panic!("a finished shred must never be scheduled"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shred counts and schedules through mutex + barrier + work
    /// queue terminate without deadlock and conserve chunk counts.
    #[test]
    fn random_schedules_terminate_and_conserve_chunks(
        case in (1usize..12, 1u64..8, any::<u64>())
    ) {
        let (shreds, chunks, seed) = case;
        let mut executor = Executor::new(shreds, chunks);
        let mut rng = Rng(seed);

        // Each shred takes 2 steps per chunk (lock, then work+unlock) plus a
        // barrier arrival; anything past a generous multiple is a livelock.
        let step_bound = (shreds as u64 * (2 * chunks + 2) + 8) * 4;
        let mut steps = 0u64;
        while let Some(shred) = executor.pick(&mut rng) {
            executor.step(shred);
            steps += 1;
            prop_assert!(
                steps <= step_bound,
                "no forward progress after {steps} steps ({shreds} shreds x {chunks} chunks)"
            );
        }

        // Termination: every shred passed the barrier.
        for (i, phase) in executor.phase.iter().enumerate() {
            prop_assert_eq!(*phase, Phase::Done, "shred {} did not finish", i);
        }
        // Conservation: the mutex-protected tally saw exactly every chunk.
        prop_assert_eq!(executor.completed_chunks, shreds as u64 * chunks);
        prop_assert!(executor.chunks_left.iter().all(|c| *c == 0));
        // The barrier released exactly once and the queue drained.
        prop_assert_eq!(executor.barrier_releases, 1);
        prop_assert!(executor.queue.is_empty());
        // The mutex ends free: a fresh shred can take it without blocking.
        let mut table = executor.table;
        let probe = ShredId::new(shreds as u32);
        prop_assert!(!table.mutex_lock(MUTEX, probe).expect("probe lock").block);
    }

    /// The queue's bookkeeping is consistent under random schedules: what
    /// was enqueued equals what was drained, and the observed high-water
    /// mark never exceeds the shred count.
    #[test]
    fn queue_accounting_is_conserved(
        case in (1usize..12, 1u64..6, any::<u64>())
    ) {
        let (shreds, chunks, seed) = case;
        let mut executor = Executor::new(shreds, chunks);
        let mut rng = Rng(seed);
        while let Some(shred) = executor.pick(&mut rng) {
            executor.step(shred);
        }
        prop_assert!(executor.max_depth <= shreds);
        // Every shred is enqueued once at start, once per lock acquisition
        // that did not block plus once per wake, and once per unlock —
        // whatever the schedule, the total must match what the mutex
        // actually admitted: one grant per chunk.
        let grants = shreds as u64 * chunks;
        prop_assert_eq!(executor.enqueued, shreds as u64 + 2 * grants);
        prop_assert_eq!(executor.completed_chunks, grants);
    }
}

/// A program whose shred unlocks a mutex it never locked.
fn unlock_without_lock() -> (ProgramLibrary, GangScheduler) {
    let mut library = ProgramLibrary::new();
    let main = library.insert(
        ProgramBuilder::new("main")
            .compute(Cycles::new(1_000))
            .mutex_unlock(LockId::new(2))
            .compute(Cycles::new(1_000))
            .build(),
    );
    let scheduler = GangScheduler::builder().main_program(main).build();
    (library, scheduler)
}

/// Synchronization misuse in a simulated program is an error of the run,
/// not a panic of the simulator: the MISP and the SMP machine both stop
/// and return the sync table's `SynchronizationMisuse`.
#[test]
fn unlocking_a_mutex_never_locked_ends_the_run_with_an_error() {
    let expected = MispError::SynchronizationMisuse(format!(
        "shred {} released mutex {} it does not hold",
        ShredId::new(0),
        LockId::new(2)
    ));

    let (library, scheduler) = unlock_without_lock();
    let mut misp = MispMachine::new(
        MispTopology::uniprocessor(3).unwrap(),
        SimConfig::default(),
        library,
    );
    misp.add_process("misuse", Box::new(scheduler), Some(0));
    assert_eq!(misp.run().unwrap_err(), expected);

    let (library, scheduler) = unlock_without_lock();
    let mut smp = SmpMachine::new(2, SimConfig::default(), library);
    smp.add_process("misuse", Box::new(scheduler), Some(0));
    assert_eq!(smp.run().unwrap_err(), expected);
}

/// `SingleShredRuntime` supports no runtime operation; a program that
/// executes one ends the run with an error instead of a panic.
#[test]
fn a_runtime_op_under_the_single_shred_runtime_is_an_error() {
    let mut library = ProgramLibrary::new();
    let program = library.insert(
        ProgramBuilder::new("lone")
            .mutex_lock(LockId::new(0))
            .build(),
    );
    let mut smp = SmpMachine::new(1, SimConfig::default(), library);
    smp.add_process("lone", Box::new(SingleShredRuntime::new(program)), Some(0));
    assert!(matches!(
        smp.run().unwrap_err(),
        MispError::InvalidWorkload(msg) if msg.contains("does not support runtime op")
    ));
}
