//! The shred pool reuses a finished shred's cursor slot but never its id.
//!
//! A join names its target by `ShredId`, possibly long after the target
//! finished and a later shred took over its cursor slot.  These tests pin
//! that such a join still reads `Done`, and that the pool's per-process and
//! ready counters agree with a scan of every shred's record under random
//! create, status, release and finish sequences.

use misp::core::{MispMachine, MispTopology};
use misp::isa::{Op, ProgramBuilder, ProgramLibrary};
use misp::os::TimerConfig;
use misp::shredlib::GangScheduler;
use misp::sim::{ShredPool, ShredStatus, SimConfig};
use misp::types::{Cycles, OsThreadId, ProcessId, ShredId};
use proptest::prelude::*;
use std::sync::Arc;

/// A main shred creates a short shred, outlives it, creates a long shred
/// that takes the short one's cursor slot, and then joins the short one.
/// The join must see `Done` and continue; reading the long shred's state
/// through the reused slot would block it forever, and the run would end in
/// a deadlock error.
#[test]
fn a_join_on_a_finished_shred_sees_done_after_its_slot_is_reused() {
    let mut library = ProgramLibrary::new();
    let short = library.insert(
        ProgramBuilder::new("short")
            .compute(Cycles::new(1_000))
            .build(),
    );
    let long = library.insert(
        ProgramBuilder::new("long")
            .compute(Cycles::new(2_000_000))
            .build(),
    );
    // Ids are dense and in creation order: main 0, short 1, long 2.
    let (main_id, short_id, long_id) = (ShredId::new(0), ShredId::new(1), ShredId::new(2));
    let main = library.insert(
        ProgramBuilder::new("main")
            .op(Op::RegisterHandler)
            .shred_create(short)
            .compute(Cycles::new(500_000))
            .shred_create(long)
            .shred_join(short_id)
            .shred_join(long_id)
            .build(),
    );
    let config = SimConfig {
        timer: TimerConfig::disabled(),
        ..SimConfig::default()
    };
    let mut machine = MispMachine::new(MispTopology::uniprocessor(1).unwrap(), config, library);
    let scheduler = GangScheduler::builder().main_program(main).build();
    let pid = machine.add_process("aliasing", Box::new(scheduler), Some(0));
    let report = machine
        .run()
        .expect("the join on a finished shred continues");
    assert!(report.total_cycles >= Cycles::new(2_000_000));

    let core = machine.engine().core();
    let pool = core.shreds();
    assert_eq!(pool.len(), 3);
    assert_eq!(
        pool.slab_len(),
        2,
        "the long shred reused the short one's slot"
    );
    let main_thread = core.shred(main_id).unwrap().thread();
    for id in [main_id, short_id, long_id] {
        let view = core.shred(id).unwrap();
        assert_eq!(view.process(), pid, "{id} keeps its process");
        assert_eq!(view.thread(), main_thread, "{id} keeps its thread");
        assert_eq!(view.status(), ShredStatus::Done, "{id} finished");
        assert_eq!(view.program_name(), "", "{id} holds no program");
    }
    assert!(pool.process_done(pid));
}

/// The old `process_done`: a scan of every record ever created.
fn scanned_process_done(pool: &ShredPool, process: ProcessId) -> bool {
    (0..pool.len() as u32)
        .map(|i| pool.get(ShredId::new(i)).unwrap())
        .filter(|s| s.process() == process)
        .all(|s| s.status() == ShredStatus::Done)
}

/// Shreds in `Ready`, by a scan of every record.
fn scanned_ready(pool: &ShredPool) -> usize {
    (0..pool.len() as u32)
        .filter(|&i| pool.get(ShredId::new(i)).unwrap().status() == ShredStatus::Ready)
        .count()
}

const PROCESSES: u32 = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any sequence of creates across processes, status changes,
    /// releases and finishes, the pool's counters match a scan of the
    /// records, the slab never outgrows the peak count of live shreds, and a
    /// finished shred keeps its process, thread and `Done` status.
    #[test]
    fn live_counts_match_a_scan_of_the_records(
        ops in proptest::collection::vec((0u32..6, 0u32..64), 0..200)
    ) {
        let program = Arc::new(ProgramBuilder::new("p").compute(Cycles::new(1)).build());
        let mut pool = ShredPool::new();
        let mut created: Vec<(ProcessId, OsThreadId)> = Vec::new();
        let (mut live, mut peak_live) = (0usize, 0usize);
        for (kind, pick) in ops {
            let target = (!created.is_empty())
                .then(|| ShredId::new(pick % created.len() as u32));
            match (kind, target) {
                (0 | 1, _) | (_, None) => {
                    let process = ProcessId::new(pick % PROCESSES);
                    let thread = OsThreadId::new(pick);
                    let id = pool.create(process, thread, Arc::clone(&program));
                    prop_assert_eq!(id, ShredId::new(created.len() as u32));
                    created.push((process, thread));
                    live += 1;
                    peak_live = peak_live.max(live);
                }
                (2, Some(id)) => {
                    let status = [ShredStatus::Ready, ShredStatus::Running, ShredStatus::Blocked]
                        [pick as usize % 3];
                    let mut shred = pool.get_mut(id).unwrap();
                    if shred.status() != ShredStatus::Done {
                        shred.set_status(status);
                    }
                }
                (3, Some(id)) => {
                    let taken = pool.release(id);
                    let was_live = pool.get(id).unwrap().status() != ShredStatus::Done;
                    prop_assert_eq!(taken.is_some(), was_live);
                    prop_assert_eq!(pool.get(id).unwrap().program_name(), "");
                }
                (_, Some(id)) => {
                    if pool.get(id).unwrap().status() != ShredStatus::Done {
                        live -= 1;
                    }
                    pool.finish(id);
                }
            }
            for p in 0..PROCESSES + 1 {
                let p = ProcessId::new(p);
                prop_assert_eq!(pool.process_done(p), scanned_process_done(&pool, p));
            }
            prop_assert_eq!(pool.ready(), scanned_ready(&pool));
            prop_assert!(pool.slab_len() <= peak_live);
        }
        for (i, &(process, thread)) in created.iter().enumerate() {
            let view = pool.get(ShredId::new(i as u32)).unwrap();
            prop_assert_eq!(view.process(), process);
            prop_assert_eq!(view.thread(), thread);
            if view.status() == ShredStatus::Done {
                prop_assert_eq!(view.program_name(), "");
            }
        }
        // The program is shared by the live shreds' cursors only.
        let holding = created
            .iter()
            .enumerate()
            .filter(|(i, _)| pool.get(ShredId::new(*i as u32)).unwrap().program_name() == "p")
            .count();
        prop_assert_eq!(Arc::strong_count(&program), 1 + holding);
    }
}
