//! The work-queue gang scheduler (Figure 3 of the paper).

use crate::service::{Admission, ServiceState};
use crate::{ServiceModel, SyncTable, WorkQueue};
use misp_isa::{ProgramRef, RuntimeOp, ShredProgram};
use misp_sim::{EngineCore, Runtime, RuntimeOutcome, ShredStatus};
use misp_types::{ArenaMap, Cycles, LockId, OsThreadId, ProcessId, Result, SequencerId, ShredId};
use std::sync::Arc;

/// Builder for [`GangScheduler`].
#[derive(Debug, Default, Clone)]
pub struct GangSchedulerBuilder {
    main_program: Option<ProgramRef>,
    thread_program: Option<ProgramRef>,
    initial_shreds: Vec<ProgramRef>,
    barriers: Vec<(LockId, usize)>,
    service: Option<ServiceModel>,
}

impl GangSchedulerBuilder {
    /// The program run by the process's first OS thread (the "main" shred that
    /// typically registers the proxy handler and creates worker shreds).
    #[must_use]
    pub fn main_program(mut self, program: ProgramRef) -> Self {
        self.main_program = Some(program);
        self
    }

    /// The program run by each *additional* OS thread of the process (for
    /// multi-threaded MISP MP applications where each thread drives one MISP
    /// processor).  If unset, additional threads simply pull shreds from the
    /// shared work queue.
    #[must_use]
    pub fn thread_program(mut self, program: ProgramRef) -> Self {
        self.thread_program = Some(program);
        self
    }

    /// Adds a shred to the work queue before execution starts.
    #[must_use]
    pub fn initial_shred(mut self, program: ProgramRef) -> Self {
        self.initial_shreds.push(program);
        self
    }

    /// Pre-registers a barrier.
    #[must_use]
    pub fn barrier(mut self, id: LockId, parties: usize) -> Self {
        self.barriers.push((id, parties));
        self
    }

    /// Attaches an open-loop [`ServiceModel`]: every `ShredCreate` becomes a
    /// request admission measured against the model's arrival schedule, and
    /// an admitted request's shred runs the ops the model builds for it
    /// rather than the program the create names.  The main program's shred
    /// is the generator: each of its creates that consumes an arrival
    /// continues it with the next arrival's `compute` + `shred_create` (see
    /// [`ServiceModel::generator`]).
    #[must_use]
    pub fn service(mut self, model: ServiceModel) -> Self {
        self.service = Some(model);
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> GangScheduler {
        let mut sync = SyncTable::new();
        for &(id, parties) in &self.barriers {
            sync.create_barrier(id, parties);
        }
        GangScheduler {
            main_program: self.main_program,
            thread_program: self.thread_program,
            initial_shreds: self.initial_shreds,
            queue: WorkQueue::new(),
            sync,
            joiners: ArenaMap::new(),
            process: None,
            threads: Vec::new(),
            shreds_created: 0,
            generator: None,
            service: self.service.map(ServiceState::new),
        }
    }
}

/// The ShredLib M:N gang scheduler.
///
/// The scheduler owns the process's mutex-protected work queue of ready shred
/// continuations and its synchronization objects.  Every sequencer that runs
/// out of work asks the scheduler for the next ready shred — exactly the
/// `Run_shred` loop of Figure 3 — and every runtime operation a shred performs
/// (create, join, mutex lock and unlock, barrier wait) is interpreted here.
/// A shred ends by halting, which completes its request and wakes its
/// joiners.
///
/// The same scheduler runs unchanged on the SMP baseline, where it plays the
/// role of a conventional user-level thread-pool runtime; this mirrors the
/// paper's methodology of running the same shredded workload on both machines.
#[derive(Debug)]
pub struct GangScheduler {
    main_program: Option<ProgramRef>,
    thread_program: Option<ProgramRef>,
    initial_shreds: Vec<ProgramRef>,
    queue: WorkQueue,
    sync: SyncTable,
    joiners: ArenaMap<ShredId, Vec<ShredId>>,
    process: Option<ProcessId>,
    threads: Vec<OsThreadId>,
    shreds_created: u64,
    /// The shred the service model continues: the main shred, when a
    /// service model is attached.
    generator: Option<ShredId>,
    service: Option<ServiceState>,
}

impl GangScheduler {
    /// Starts building a gang scheduler.
    #[must_use]
    pub fn builder() -> GangSchedulerBuilder {
        GangSchedulerBuilder::default()
    }

    /// Length of the service model's request table, which is indexed by
    /// cursor-slab slot: it never exceeds
    /// [`ShredPool::slab_len`](misp_sim::ShredPool::slab_len).  Zero
    /// without a service model.
    #[must_use]
    pub fn request_table_len(&self) -> usize {
        self.service.as_ref().map_or(0, ServiceState::table_len)
    }

    /// Wakes the idle sequencers of every thread of the process.  Threads
    /// are read by index, not copied out, so a wake on every request create
    /// and completion costs no allocation.
    fn wake_all(&self, core: &mut EngineCore, now: Cycles) {
        let Some(pid) = self.process else { return };
        let thread_at = |core: &EngineCore, i: usize| {
            core.kernel()
                .process(pid)
                .and_then(|p| p.threads().get(i).copied())
        };
        let mut i = 0;
        while let Some(t) = thread_at(core, i) {
            core.wake_thread_sequencers(t, now);
            i += 1;
        }
    }

    fn create_and_queue(
        &mut self,
        core: &mut EngineCore,
        thread: OsThreadId,
        program: Arc<ShredProgram>,
        now: Cycles,
    ) -> ShredId {
        let pid = self.process.expect("process recorded at thread start");
        let shred = core.create_shred_from(pid, thread, program, now);
        self.shreds_created += 1;
        self.queue.push(shred);
        shred
    }

    fn make_ready(&mut self, core: &mut EngineCore, shreds: &[ShredId], now: Cycles) {
        for &id in shreds {
            if let Some(mut s) = core.shred_mut(id) {
                s.set_status(ShredStatus::Ready);
            }
            self.queue.push(id);
        }
        if !shreds.is_empty() {
            self.wake_all(core, now);
        }
    }
}

impl Runtime for GangScheduler {
    fn on_thread_start(&mut self, core: &mut EngineCore, thread: OsThreadId, now: Cycles) {
        let pid = core
            .kernel()
            .thread(thread)
            .expect("thread must exist")
            .process();
        if self.process.is_none() {
            self.process = Some(pid);
        }
        debug_assert_eq!(self.process, Some(pid), "one scheduler serves one process");
        let first_thread = self.threads.is_empty();
        self.threads.push(thread);

        if first_thread {
            if let Some(main) = self.main_program {
                let shred = self.create_and_queue(core, thread, library_program(core, main), now);
                if self.service.is_some() {
                    self.generator = Some(shred);
                }
            }
            let initial = std::mem::take(&mut self.initial_shreds);
            for program in initial {
                self.create_and_queue(core, thread, library_program(core, program), now);
            }
        } else if let Some(program) = self.thread_program {
            self.create_and_queue(core, thread, library_program(core, program), now);
        }
        self.wake_all(core, now);
    }

    fn next_shred(
        &mut self,
        core: &mut EngineCore,
        _seq: SequencerId,
        _thread: OsThreadId,
        _now: Cycles,
    ) -> Option<ShredId> {
        // Peek-then-pop until a genuinely ready shred is found (shreds started
        // directly via SIGNAL may already be running).  A ready request shred
        // gated out by a full service pool stays at the head — head-of-line
        // FIFO blocking — so the sequencer idles until a slot frees.
        while let Some(candidate) = self.queue.peek() {
            match core.shred(candidate).map(|s| s.status()) {
                Some(ShredStatus::Ready) => {
                    if let Some(service) = &mut self.service {
                        let slot = core.shred_slot(candidate).expect("a ready shred is live");
                        if !service.may_dispatch(candidate, slot) {
                            return None;
                        }
                        service.dispatched(candidate, slot);
                    }
                    let popped = self.queue.pop();
                    debug_assert_eq!(popped, Some(candidate));
                    return Some(candidate);
                }
                _ => {
                    self.queue.pop();
                }
            }
        }
        None
    }

    fn on_runtime_op(
        &mut self,
        core: &mut EngineCore,
        _seq: SequencerId,
        shred: ShredId,
        op: &RuntimeOp,
        now: Cycles,
    ) -> Result<RuntimeOutcome> {
        let lock_cost = core.costs().queue_lock;
        Ok(match op {
            RuntimeOp::ShredCreate { program } => {
                // Under a service model the create is an admission decision:
                // a full bounded queue drops the request without a shred.
                let admission = match &mut self.service {
                    Some(service) => service.admit(now),
                    None => Admission::Untracked,
                };
                if admission != Admission::Untracked && self.generator == Some(shred) {
                    self.continue_generator(core, shred, *program);
                }
                if admission == Admission::Drop {
                    return Ok(RuntimeOutcome::Continue { cost: lock_cost });
                }
                let thread = core
                    .shred(shred)
                    .map(|s| s.thread())
                    .expect("executing shred exists");
                let program = match (&mut self.service, admission) {
                    (Some(service), Admission::Admit { index }) => service.request_program(index),
                    _ => library_program(core, *program),
                };
                let created = self.create_and_queue(core, thread, program, now);
                if let (Some(service), Admission::Admit { index }) = (&mut self.service, admission)
                {
                    let slot = core.shred_slot(created).expect("a new shred is live");
                    service.register(created, slot, index);
                }
                self.wake_all(core, now);
                RuntimeOutcome::Continue { cost: lock_cost }
            }
            RuntimeOp::ShredJoin { target } => {
                let done = core
                    .shred(*target)
                    .map(|s| s.status() == ShredStatus::Done)
                    .unwrap_or(false);
                if done {
                    RuntimeOutcome::Continue { cost: lock_cost }
                } else {
                    self.joiners
                        .get_or_insert_with(*target, Vec::new)
                        .push(shred);
                    RuntimeOutcome::Block { cost: lock_cost }
                }
            }
            RuntimeOp::MutexLock(id) => {
                self.apply_sync(core, now, lock_cost, |sync| sync.mutex_lock(*id, shred))?
            }
            RuntimeOp::MutexUnlock(id) => {
                self.apply_sync(core, now, lock_cost, |sync| sync.mutex_unlock(*id, shred))?
            }
            RuntimeOp::BarrierWait(id) => {
                self.apply_sync(core, now, lock_cost, |sync| sync.barrier_wait(*id, shred))?
            }
        })
    }

    fn on_shred_halt(
        &mut self,
        core: &mut EngineCore,
        _seq: SequencerId,
        shred: ShredId,
        now: Cycles,
    ) {
        self.complete_request(core, shred, now);
        let joiners = self.joiners.remove(shred).unwrap_or_default();
        self.make_ready(core, &joiners, now);
    }

    fn is_finished(&self, core: &EngineCore) -> bool {
        match self.process {
            Some(pid) => self.shreds_created > 0 && core.shreds().process_done(pid),
            None => false,
        }
    }

    fn service_stats(&self) -> Option<&misp_sim::ServiceStats> {
        self.service.as_ref().map(ServiceState::stats)
    }
}

/// The library program `r` names.
///
/// # Panics
///
/// Panics if `r` is not in the machine's library.
fn library_program(core: &EngineCore, r: ProgramRef) -> Arc<ShredProgram> {
    Arc::clone(core.program(r).expect("program reference must be valid"))
}

impl GangScheduler {
    /// If `shred` is a tracked request, records its completion, keeps its
    /// program for reuse, and wakes all sequencers: a freed pool slot may
    /// unblock the head of the ready queue on a sequencer that went idle
    /// under head-of-line gating.
    fn complete_request(&mut self, core: &mut EngineCore, shred: ShredId, now: Cycles) {
        if let Some(service) = &mut self.service {
            let slot = core.shred_slot(shred).expect("an ending shred is live");
            if service.complete(shred, slot, now) {
                if let Some(program) = core.release_program(shred) {
                    service.reclaim(program);
                }
                self.wake_all(core, now);
            }
        }
    }

    /// Hands the generator shred the next arrival's `compute` +
    /// `shred_create` of `request` once its create consumed an arrival.
    /// After the last arrival nothing is installed and the generator runs
    /// on to its end.  Sound here because the engine never leaves a peeked
    /// operation pending when it calls the runtime.
    fn continue_generator(
        &mut self,
        core: &mut EngineCore,
        generator: ShredId,
        request: ProgramRef,
    ) {
        let Some(service) = &mut self.service else {
            return;
        };
        if let Some(next) = service.continuation(request) {
            let old = core
                .continue_shred(generator, next)
                .expect("the generator is live while it creates");
            service.reclaim_generator(old);
        }
    }

    /// Applies one synchronization operation and readies the shreds it
    /// wakes.
    ///
    /// # Errors
    ///
    /// The [`MispError::SynchronizationMisuse`](misp_types::MispError) the
    /// sync table reports, such as unlocking a mutex the shred does not hold.
    fn apply_sync(
        &mut self,
        core: &mut EngineCore,
        now: Cycles,
        cost: Cycles,
        f: impl FnOnce(&mut SyncTable) -> Result<crate::sync::SyncOutcome>,
    ) -> Result<RuntimeOutcome> {
        let outcome = f(&mut self.sync)?;
        self.make_ready(core, &outcome.wake, now);
        Ok(if outcome.block {
            RuntimeOutcome::Block { cost }
        } else {
            RuntimeOutcome::Continue { cost }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_core::{MispMachine, MispTopology};
    use misp_isa::{Op, ProgramBuilder, ProgramLibrary};
    use misp_os::TimerConfig;
    use misp_sim::SimConfig;
    use misp_smp::SmpMachine;
    use misp_types::VirtAddr;

    fn quiet() -> SimConfig {
        SimConfig {
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        }
    }

    /// Builds a fork/join workload: a main shred creates `workers` shreds that
    /// each compute `work` cycles, then joins them via a barrier that includes
    /// the main shred.
    fn fork_join_library(workers: u32, work: u64) -> ProgramLibrary {
        let mut lib = ProgramLibrary::new();
        let barrier = LockId::new(0);
        // Worker program is inserted first so its ProgramRef is 0..workers.
        let worker = lib.insert(
            ProgramBuilder::new("worker")
                .compute(Cycles::new(work))
                .barrier_wait(barrier)
                .build(),
        );
        let mut main = ProgramBuilder::new("main").op(Op::RegisterHandler);
        for _ in 0..workers {
            main = main.shred_create(worker);
        }
        main = main.compute(Cycles::new(work)).barrier_wait(barrier);
        lib.insert(main.build());
        lib
    }

    fn fork_join_scheduler(workers: u32) -> GangScheduler {
        GangScheduler::builder()
            .main_program(ProgramRef::new(1))
            .barrier(LockId::new(0), workers as usize + 1)
            .build()
    }

    #[test]
    fn fork_join_scales_on_misp_uniprocessor() {
        let workers = 7u32;
        let work = 1_000_000u64;
        // Serial reference: everything on one sequencer.
        let mut serial = MispMachine::new(
            MispTopology::uniprocessor(0).unwrap(),
            quiet(),
            fork_join_library(workers, work),
        );
        serial.add_process("app", Box::new(fork_join_scheduler(workers)), Some(0));
        let serial_cycles = serial.run().unwrap().total_cycles;

        // Parallel: 1 OMS + 7 AMS.
        let mut parallel = MispMachine::new(
            MispTopology::uniprocessor(7).unwrap(),
            quiet(),
            fork_join_library(workers, work),
        );
        parallel.add_process("app", Box::new(fork_join_scheduler(workers)), Some(0));
        let parallel_cycles = parallel.run().unwrap().total_cycles;

        let speedup = serial_cycles.as_f64() / parallel_cycles.as_f64();
        assert!(
            speedup > 6.0,
            "expected near-linear speedup on 8 sequencers, got {speedup:.2} \
             (serial {serial_cycles}, parallel {parallel_cycles})"
        );
    }

    #[test]
    fn fork_join_behaves_identically_on_smp() {
        let workers = 3u32;
        let work = 500_000u64;
        let mut smp = SmpMachine::new(4, quiet(), fork_join_library(workers, work));
        let pid = smp.add_process("app", Box::new(fork_join_scheduler(workers)), Some(0));
        for core in 1..4 {
            smp.add_thread(pid, Some(core));
        }
        let report = smp.run().unwrap();
        let speedup = (work * 2) as f64 / report.total_cycles.as_f64();
        assert!(
            speedup > 1.5,
            "SMP fork/join should overlap main and workers, got {speedup:.2}"
        );
        assert_eq!(report.stats.proxy_executions, 0);
    }

    #[test]
    fn mutex_protected_counter_serializes_critical_sections() {
        let mut lib = ProgramLibrary::new();
        let mutex = LockId::new(1);
        let barrier = LockId::new(0);
        let worker = lib.insert(
            ProgramBuilder::new("locker")
                .repeat(50, |b| {
                    b.mutex_lock(mutex)
                        .compute(Cycles::new(100))
                        .mutex_unlock(mutex)
                        .compute(Cycles::new(100))
                })
                .barrier_wait(barrier)
                .build(),
        );
        let main = lib.insert(
            ProgramBuilder::new("main")
                .shred_create(worker)
                .shred_create(worker)
                .shred_create(worker)
                .barrier_wait(barrier)
                .build(),
        );
        let mut machine = MispMachine::new(MispTopology::uniprocessor(3).unwrap(), quiet(), lib);
        machine.add_process(
            "app",
            Box::new(
                GangScheduler::builder()
                    .main_program(main)
                    .barrier(barrier, 4)
                    .build(),
            ),
            Some(0),
        );
        let report = machine.run().unwrap();
        // All 3 workers of 50 iterations complete without deadlock.
        assert!(report.total_cycles > Cycles::new(3 * 50 * 100));
    }

    #[test]
    fn join_waits_for_target_completion() {
        let mut lib = ProgramLibrary::new();
        let worker = lib.insert(
            ProgramBuilder::new("worker")
                .compute(Cycles::new(200_000))
                .build(),
        );
        let main = lib.insert(
            ProgramBuilder::new("main")
                .shred_create(worker)
                // The worker created above is shred id 1 (main is 0).
                .shred_join(ShredId::new(1))
                .compute(Cycles::new(10_000))
                .build(),
        );
        let mut machine = MispMachine::new(MispTopology::uniprocessor(1).unwrap(), quiet(), lib);
        machine.add_process(
            "app",
            Box::new(GangScheduler::builder().main_program(main).build()),
            Some(0),
        );
        let report = machine.run().unwrap();
        assert!(
            report.total_cycles >= Cycles::new(210_000),
            "main must wait for the worker before its final compute"
        );
    }

    /// Builds an open-loop generator: the main shred alternates
    /// `compute(gap)` and `shred_create(request)`, so requests are created at
    /// the scheduled arrival times (plus queue-lock costs, the open-loop
    /// drift).  The library holds the model's generator, which carries the
    /// first pair only; the scheduler continues it pair by pair.  The
    /// `request` template the creates name is empty; each admitted request
    /// runs the model's `Compute(service_cycles)` instead.  Returns the
    /// library and the model.
    fn service_library(gaps: &[u64], service_cycles: u64) -> (ProgramLibrary, ServiceModel) {
        let mut lib = ProgramLibrary::new();
        let request = lib.insert(misp_isa::ShredProgram::empty("request"));
        let arrivals = gaps
            .iter()
            .scan(0u64, |at, &gap| {
                *at += gap;
                Some(Cycles::new(*at))
            })
            .collect();
        let compute_only = crate::RequestShape {
            session_base: VirtAddr::new(0),
            session_pages: 0,
            touches: 0,
            syscall_every: 0,
        };
        let demands = vec![Cycles::new(service_cycles); gaps.len()];
        let model = ServiceModel::new(arrivals, demands, compute_only);
        lib.insert(model.generator("generator", request));
        (lib, model)
    }

    #[test]
    fn service_model_measures_every_request() {
        let gaps = [10_000u64; 6];
        let (lib, model) = service_library(&gaps, 5_000);
        let mut machine = MispMachine::new(MispTopology::uniprocessor(3).unwrap(), quiet(), lib);
        machine.add_process(
            "svc",
            Box::new(
                GangScheduler::builder()
                    .main_program(ProgramRef::new(1))
                    .service(model)
                    .build(),
            ),
            Some(0),
        );
        let report = machine.run().unwrap();
        let service = report.stats.service.as_ref().expect("service stats");
        assert_eq!(service.admitted, 6);
        assert_eq!(service.completed, 6);
        assert_eq!(service.dropped, 0);
        assert_eq!(service.latency.count(), 6);
        // Each request takes at least its own service time, which only the
        // model's ops hold: the template the generator names is empty.
        assert!(service.latency.min() >= 5_000, "{}", service.latency.min());
        assert_eq!(service.queue_depth.len(), 12, "one edge per admit/complete");
    }

    #[test]
    fn pool_of_one_serializes_requests_even_with_idle_sequencers() {
        // Arrivals all at ~0 but service is long: with a pool of one the
        // requests run back-to-back, so the last one's latency is about
        // 6 * service even though 3 AMSs sit idle.
        let gaps = [1u64; 6];
        let (lib, model) = service_library(&gaps, 100_000);
        let wide = |pool| {
            let (lib, model) = (lib.clone(), model.clone());
            let mut machine =
                MispMachine::new(MispTopology::uniprocessor(3).unwrap(), quiet(), lib);
            machine.add_process(
                "svc",
                Box::new(
                    GangScheduler::builder()
                        .main_program(ProgramRef::new(1))
                        .service(model.with_pool_width(pool))
                        .build(),
                ),
                Some(0),
            );
            let report = machine.run().unwrap();
            report.stats.service.clone().expect("service stats")
        };
        let narrow = wide(1);
        let broad = wide(3);
        assert_eq!(narrow.completed, 6);
        assert_eq!(broad.completed, 6);
        assert!(
            narrow.latency.max() >= 6 * 100_000,
            "pool of one must serialize: p100 = {}",
            narrow.latency.max()
        );
        assert!(
            broad.latency.max() < narrow.latency.max() / 2,
            "three slots must overlap service: {} vs {}",
            broad.latency.max(),
            narrow.latency.max()
        );
    }

    #[test]
    fn queue_bound_drops_overflow_arrivals() {
        // Six near-simultaneous arrivals into a bound of two outstanding:
        // at least one must be dropped, and drops + completions = arrivals.
        let gaps = [1u64; 6];
        let (lib, model) = service_library(&gaps, 200_000);
        let mut machine = MispMachine::new(MispTopology::uniprocessor(1).unwrap(), quiet(), lib);
        machine.add_process(
            "svc",
            Box::new(
                GangScheduler::builder()
                    .main_program(ProgramRef::new(1))
                    .service(model.with_queue_bound(2))
                    .build(),
            ),
            Some(0),
        );
        let report = machine.run().unwrap();
        let service = report.stats.service.as_ref().expect("service stats");
        assert_eq!(service.admitted + service.dropped, 6);
        assert!(
            service.dropped >= 1,
            "bound of 2 must drop some of 6 bursts"
        );
        assert_eq!(service.completed, service.admitted);
        assert!(service.max_outstanding <= 2);
    }

    #[test]
    fn ams_page_faults_trigger_proxy_execution() {
        let mut lib = ProgramLibrary::new();
        let barrier = LockId::new(0);
        let toucher = lib.insert(
            ProgramBuilder::new("toucher")
                .touch_pages(VirtAddr::new(0x4000_0000), 20)
                .compute(Cycles::new(10_000))
                .barrier_wait(barrier)
                .build(),
        );
        let main = lib.insert(
            ProgramBuilder::new("main")
                .op(Op::RegisterHandler)
                .shred_create(toucher)
                .compute(Cycles::new(1_000_000))
                .barrier_wait(barrier)
                .build(),
        );
        let mut machine = MispMachine::new(MispTopology::uniprocessor(1).unwrap(), quiet(), lib);
        machine.add_process(
            "app",
            Box::new(
                GangScheduler::builder()
                    .main_program(main)
                    .barrier(barrier, 2)
                    .build(),
            ),
            Some(0),
        );
        let report = machine.run().unwrap();
        // The toucher runs on the AMS (the OMS is busy with the long compute),
        // so its 20 compulsory page faults become proxy executions.
        assert_eq!(report.stats.ams_events.page_faults, 20);
        assert_eq!(report.stats.proxy_executions, 20);
        assert!(report.stats.serializations >= 20);
    }
}
