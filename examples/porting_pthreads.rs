//! Porting a legacy Pthreads application to shreds (the Table 2 workflow).
//!
//! A legacy producer/consumer program written against Pthreads is (1) analysed
//! with ShredLib's thread-to-shred compatibility mapping, which names a
//! ShredLib counterpart for every Pthreads call, then (2) ported to a shredded
//! program and executed on a MISP processor.  The simulated ShredLib executes
//! shred creation, mutexes and barriers, so the port replaces the buffer's
//! semaphores with a barrier between rounds; every operation it runs is an
//! ordinary Ring 3 operation.
//!
//! Run with `cargo run --release --example porting_pthreads`.

use misp::core::{MispMachine, MispTopology};
use misp::isa::{Op, ProgramBuilder, ProgramLibrary};
use misp::shredlib::{compat, GangScheduler};
use misp::sim::SimConfig;
use misp::types::{Cycles, LockId};

fn main() {
    // ------------------------------------------------------------------
    // Step 1: analyse the legacy application's threading-API surface.
    // ------------------------------------------------------------------
    let legacy_api_calls = [
        "pthread_create",
        "pthread_join",
        "pthread_mutex_lock",
        "pthread_mutex_unlock",
        "pthread_cond_wait",
        "pthread_cond_signal",
        "sem_init",
        "sem_wait",
        "sem_post",
    ];
    println!("legacy Pthreads producer/consumer - thread-to-shred mapping:");
    for call in &legacy_api_calls {
        match compat::lookup(call) {
            Some(entry) => println!("  {:<24} -> {}", call, entry.shredlib),
            None => println!("  {:<24} -> (no mapping)", call),
        }
    }
    let coverage = compat::coverage(legacy_api_calls.iter().copied());
    println!(
        "\n{} of {} API uses translate mechanically ({:.0}%)\n",
        coverage.mechanical.len(),
        coverage.total(),
        coverage.mechanical_fraction() * 100.0
    );

    // ------------------------------------------------------------------
    // Step 2: the same program, expressed with shreds and executed.
    // ShredLib's model executes mutexes and barriers, so the bounded buffer
    // of capacity 4 runs in rounds: the producer fills it under the mutex,
    // the consumers drain it under the mutex, and two barriers per round
    // ("filled", "drained") take the place of the slots/items semaphores.
    // ------------------------------------------------------------------
    let buffer_mutex = LockId::new(10);
    let filled = LockId::new(11);
    let drained = LockId::new(12);
    let done_barrier = LockId::new(13);
    const CAPACITY: u64 = 4;
    const CONSUMERS: u64 = 2;
    const ROUNDS: u64 = 50; // 200 items in all

    let mut library = ProgramLibrary::new();
    let producer = library.insert(
        ProgramBuilder::new("producer")
            .repeat(ROUNDS, |round| {
                round
                    .repeat(CAPACITY, |item| {
                        item.mutex_lock(buffer_mutex)
                            .compute(Cycles::new(2_000)) // produce into the buffer
                            .mutex_unlock(buffer_mutex)
                            .compute(Cycles::new(20_000)) // prepare the next item
                    })
                    .barrier_wait(filled) // was: sem_post(items) x4
                    .barrier_wait(drained) // was: sem_wait(slots) x4
            })
            .barrier_wait(done_barrier)
            .build(),
    );
    let consumer = library.insert(
        ProgramBuilder::new("consumer")
            .repeat(ROUNDS, |round| {
                round
                    .barrier_wait(filled) // was: sem_wait(items)
                    .repeat(CAPACITY / CONSUMERS, |item| {
                        item.mutex_lock(buffer_mutex)
                            .compute(Cycles::new(2_000)) // remove from the buffer
                            .mutex_unlock(buffer_mutex)
                            .compute(Cycles::new(35_000)) // consume the item
                    })
                    .barrier_wait(drained) // was: sem_post(slots)
            })
            .barrier_wait(done_barrier)
            .build(),
    );
    let main = library.insert(
        ProgramBuilder::new("main")
            .op(Op::RegisterHandler)
            .shred_create(producer) // was: pthread_create
            .shred_create(consumer)
            .shred_create(consumer)
            .barrier_wait(done_barrier) // was: pthread_join x3
            .build(),
    );

    let parties = 1 + CONSUMERS as usize;
    let scheduler = GangScheduler::builder()
        .main_program(main)
        .barrier(filled, parties)
        .barrier(drained, parties)
        .barrier(done_barrier, parties + 1)
        .build();

    let topology = MispTopology::uniprocessor(3).expect("valid topology");
    let mut machine = MispMachine::new(topology, SimConfig::default(), library);
    machine.add_process("producer-consumer", Box::new(scheduler), Some(0));
    let report = machine.run().expect("simulation completes");

    println!("shredded producer/consumer executed on 1 OMS + 3 AMS:");
    println!(
        "  completion time      : {} cycles",
        report.total_cycles.as_u64()
    );
    println!("  proxy executions     : {}", report.stats.proxy_executions);
    println!(
        "  serializing events   : {}",
        report.stats.total_serializing_events()
    );
    println!("  user-level sync ops ran entirely in Ring 3 - no OS thread API was needed.");
}
