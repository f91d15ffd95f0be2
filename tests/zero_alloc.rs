//! Allocation audit of the engine's steady-state hot loop.
//!
//! A counting global allocator wraps the system allocator.  The workload and
//! machine are fully constructed *before* counting starts, so the measurement
//! covers only `MispMachine::run` — the event loop and `step_sequencer`.  We
//! run the same machine shape twice, with the second run executing twice the
//! operations; if anything on the per-operation path allocated, the second
//! run would allocate more by an amount proportional to the extra operations
//! (hundreds of thousands).  A small fixed tolerance covers amortized
//! container growth (a retained buffer doubling once more in the longer run
//! is O(log n) events per run, not O(ops)).
//!
//! The allocator is `misp_harness::alloc_count`'s, which `sweep --profile`
//! uses too.  It counts allocations per thread, and each audit reads the
//! count of the thread it runs on, so audits that the test harness runs in
//! parallel never see each other's allocations.
//!
//! These audits are what keeps the hot-path functions allocation-free.  One
//! allocation per call (a `std::hint::black_box(vec![0u8; 1])` as the first
//! statement) in any of them fails the audits named:
//!
//! | Function | Failing audits |
//! |---|---|
//! | `step_sequencer` (`crates/sim/src/machine.rs`) | the four `*step_loop*` audits and `service_requests_allocate_less_than_once_each` |
//! | the radix heap's `EventQueue::{push, pop, place, remove_at, scan_min}` (`crates/sim/src/event.rs`) | the same five |
//! | `EventQueue::{push_tick, push_stall_end}` (`crates/sim/src/event.rs`) | `smp_ticking_step_loop_does_not_allocate` |
//! | `EventQueue::cancel_ready` (`crates/sim/src/event.rs`) | `smp_ticking_step_loop_does_not_allocate` and `service_requests_allocate_less_than_once_each` |
//! | `ShredPool::{finish, release, continue_at, process_done}` (`crates/sim/src/shred.rs`) | `service_requests_allocate_less_than_once_each` |
//! | `ServiceState::{may_dispatch, dispatched, complete}` (`crates/shredlib/src/service.rs`) | `service_requests_allocate_less_than_once_each` |

use misp::core::{MispMachine, MispTopology};
use misp::harness::alloc_count::{thread_allocations, thread_bytes, CountingAllocator};
use misp::isa::{ProgramLibrary, RuntimeOp};
use misp::os::TimerConfig;
use misp::shredlib::GangScheduler;
use misp::sim::{
    EngineCore, FleetEngine, Runtime, RuntimeOutcome, ServiceStats, SimConfig, TraceConfig,
};
use misp::smp::SmpMachine;
use misp::types::{Cycles, OsThreadId, Result, SequencerId, ShredId};
use misp::workloads::{scenario, LocalityProfile, Suite, Workload, WorkloadParams};
use std::cell::Cell;
use std::rc::Rc;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn params(chunks: u64) -> WorkloadParams {
    WorkloadParams {
        total_work: 200_000_000,
        serial_fraction: 0.05,
        main_pages: 16,
        worker_pages: 8,
        chunks_per_worker: chunks,
        main_syscalls: 2,
        worker_syscalls: 0,
        access_pattern: misp::mem::AccessPattern::Sequential,
        lock_contention: false,
        locality: LocalityProfile::Revisit,
    }
}

/// Builds the machine outside the measurement, then runs it and returns
/// (allocations during the run only, executed ops).
fn measured_run(chunks: u64) -> (u64, u64) {
    measured_run_with_trace(chunks, TraceConfig::default())
}

fn measured_run_with_trace(chunks: u64, trace: TraceConfig) -> (u64, u64) {
    let workload = Workload::new("alloc-audit", Suite::Rms, params(chunks));
    let topo = MispTopology::uniprocessor(3).unwrap();
    let config = SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        trace,
        ..SimConfig::default()
    };
    let mut library = ProgramLibrary::new();
    let scheduler = workload.build(&mut library, 4);
    let mut machine = MispMachine::new(topo, config, library);
    machine.add_process(workload.name(), Box::new(scheduler), Some(0));

    let before = thread_allocations();
    let report = machine.run().unwrap();
    let during = thread_allocations() - before;
    let ops = report.stats.per_sequencer.iter().map(|s| s.ops).sum();
    (during, ops)
}

#[test]
fn steady_state_step_loop_does_not_allocate() {
    // Warm up allocator internals and any lazily-initialized state so both
    // measured runs start from the same baseline.  The default config has
    // tracing compiled in but disabled — the configuration every figure and
    // golden run uses — so this audit also pins the "off means free" claim.
    assert!(
        TraceConfig::default().is_off(),
        "the audited default must be the tracing-off configuration"
    );
    let _ = measured_run(1_000);

    let (alloc_1x, ops_1x) = measured_run(100_000);
    let (alloc_2x, ops_2x) = measured_run(200_000);

    assert!(
        ops_2x > ops_1x + 100_000,
        "doubling the chunks must add real operations (got {ops_1x} vs {ops_2x})"
    );
    // Allocations may not scale with operations.  The slack absorbs one-off
    // amortized growth (a retained Vec doubling once more in the longer run);
    // a single allocation per operation would blow past it ten-thousand-fold.
    let delta = alloc_2x.abs_diff(alloc_1x);
    assert!(
        delta <= 64,
        "steady-state hot loop allocated: {alloc_1x} allocations for {ops_1x} ops vs \
         {alloc_2x} for {ops_2x} ops (delta {delta})"
    );
}

/// Builds a 4-core SMP machine outside the measurement, runs it and returns
/// (allocations during the run only, executed ops).  The work grows with
/// `chunks` and the timer ticks every 100k cycles, so the number of ticks
/// grows with the operations too: every core ticks at the same instants,
/// and the batched queue coalesces the ticks and the stall windows they
/// open.
fn measured_smp_run(chunks: u64) -> (u64, u64) {
    let workload = Workload::new(
        "alloc-audit",
        Suite::Rms,
        WorkloadParams {
            total_work: 2_000 * chunks,
            ..params(chunks)
        },
    );
    let config = SimConfig {
        timer: TimerConfig::new(Cycles::new(100_000), 10),
        ..SimConfig::default()
    };
    let mut library = ProgramLibrary::new();
    let scheduler = workload.build(&mut library, 4);
    let mut machine = SmpMachine::new(4, config, library);
    let pid = machine.add_process(workload.name(), Box::new(scheduler), Some(0));
    for core in 1..4 {
        machine.add_thread(pid, Some(core));
    }

    let before = thread_allocations();
    let report = machine.run().unwrap();
    let during = thread_allocations() - before;
    let ops = report.stats.per_sequencer.iter().map(|s| s.ops).sum();
    let ticks = report.stats.total_serializing_events();
    assert!(
        ticks > chunks / 100,
        "the audit needs ticks in proportion to the work (got {ticks} events)"
    );
    (during, ops)
}

/// The SMP steady state with the timer on: per-core ticks, the stall
/// windows they open and the stale-ready cancellations they make grow with
/// the work, and none of them may allocate.
#[test]
fn smp_ticking_step_loop_does_not_allocate() {
    let _ = measured_smp_run(1_000);

    let (alloc_1x, ops_1x) = measured_smp_run(100_000);
    let (alloc_2x, ops_2x) = measured_smp_run(200_000);

    assert!(
        ops_2x > ops_1x + 100_000,
        "doubling the chunks must add real operations (got {ops_1x} vs {ops_2x})"
    );
    let delta = alloc_2x.abs_diff(alloc_1x);
    assert!(
        delta <= 64,
        "SMP ticking hot loop allocated: {alloc_1x} allocations for {ops_1x} ops vs \
         {alloc_2x} for {ops_2x} ops (delta {delta})"
    );
}

/// Builds a 2-machine fleet outside the measurement, runs it and returns
/// (allocations during the run only, executed ops across the fleet).
fn measured_fleet_run(chunks: u64) -> (u64, u64) {
    let topo = MispTopology::uniprocessor(3).unwrap();
    let config = SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    };
    let mut fleet = FleetEngine::new(Cycles::new(1_000));
    for _ in 0..2 {
        let workload = Workload::new("alloc-audit", Suite::Rms, params(chunks));
        let mut library = ProgramLibrary::new();
        let scheduler = workload.build(&mut library, 4);
        let mut machine = MispMachine::new(topo.clone(), config, library);
        machine.add_process(workload.name(), Box::new(scheduler), Some(0));
        fleet.add_machine(machine.into_sim_machine());
    }

    let before = thread_allocations();
    let report = fleet.run_fleet().unwrap();
    let during = thread_allocations() - before;
    let ops = report
        .reports
        .iter()
        .flat_map(|r| r.stats.per_sequencer.iter())
        .map(|s| s.ops)
        .sum();
    (during, ops)
}

/// The fleet steady state is as allocation-free as the solo engine: each
/// member steps through its own preallocated queue.  Doubling every
/// machine's work must not move the allocation count by more than the
/// amortized-growth slack.
#[test]
fn fleet_steady_state_step_loop_does_not_allocate() {
    let _ = measured_fleet_run(1_000);

    let (alloc_1x, ops_1x) = measured_fleet_run(100_000);
    let (alloc_2x, ops_2x) = measured_fleet_run(200_000);

    assert!(
        ops_2x > ops_1x + 200_000,
        "doubling the chunks must add real operations on both shards \
         (got {ops_1x} vs {ops_2x})"
    );
    let delta = alloc_2x.abs_diff(alloc_1x);
    assert!(
        delta <= 64,
        "fleet steady-state loop allocated: {alloc_1x} allocations for {ops_1x} ops vs \
         {alloc_2x} for {ops_2x} ops (delta {delta})"
    );
}

/// The same audit with the trace ring *enabled*: the ring is preallocated at
/// machine construction and records by overwriting its oldest slot, so even
/// a traced run must not allocate per operation or per trace event.
#[test]
fn steady_state_step_loop_does_not_allocate_while_tracing() {
    let traced = TraceConfig {
        enabled: true,
        ..TraceConfig::default()
    };
    let _ = measured_run_with_trace(1_000, traced);

    let (alloc_1x, ops_1x) = measured_run_with_trace(100_000, traced);
    let (alloc_2x, ops_2x) = measured_run_with_trace(200_000, traced);

    assert!(
        ops_2x > ops_1x + 100_000,
        "doubling the chunks must add real operations (got {ops_1x} vs {ops_2x})"
    );
    let delta = alloc_2x.abs_diff(alloc_1x);
    assert!(
        delta <= 64,
        "traced hot loop allocated: {alloc_1x} allocations for {ops_1x} ops vs \
         {alloc_2x} for {ops_2x} ops (delta {delta})"
    );
}

/// What one measured poisson service run left behind.
struct ServiceRun {
    /// Allocations during the run only.
    allocations: u64,
    /// Shreds ever created (the generator plus one per admitted request).
    shreds: usize,
    /// The shred pool's cursor-slab length after the run.
    slab_len: usize,
    /// The shred pool's heap bytes after the run.
    pool_bytes: usize,
    /// The service's high-water mark of outstanding requests.
    max_outstanding: u64,
    /// The longest the scheduler's request table grew during the run.
    table_peak: usize,
}

/// Forwards every call to a gang scheduler and, after each runtime op and
/// each halt, checks that the scheduler's request table is no longer than
/// the shred pool's cursor slab.  Records the table's peak length.
#[derive(Debug)]
struct TableAudit {
    inner: GangScheduler,
    peak: Rc<Cell<usize>>,
}

impl TableAudit {
    fn check(&self, core: &EngineCore) {
        let table = self.inner.request_table_len();
        let slab = core.shreds().slab_len();
        assert!(
            table <= slab,
            "request table holds {table} entries for a cursor slab of {slab}"
        );
        self.peak.set(self.peak.get().max(table));
    }
}

impl Runtime for TableAudit {
    fn on_thread_start(&mut self, core: &mut EngineCore, thread: OsThreadId, now: Cycles) {
        self.inner.on_thread_start(core, thread, now);
    }

    fn next_shred(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        thread: OsThreadId,
        now: Cycles,
    ) -> Option<ShredId> {
        self.inner.next_shred(core, seq, thread, now)
    }

    fn on_runtime_op(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        shred: ShredId,
        op: &RuntimeOp,
        now: Cycles,
    ) -> Result<RuntimeOutcome> {
        let outcome = self.inner.on_runtime_op(core, seq, shred, op, now);
        self.check(core);
        outcome
    }

    fn on_shred_halt(
        &mut self,
        core: &mut EngineCore,
        seq: SequencerId,
        shred: ShredId,
        now: Cycles,
    ) {
        self.inner.on_shred_halt(core, seq, shred, now);
        self.check(core);
    }

    fn is_finished(&self, core: &EngineCore) -> bool {
        self.inner.is_finished(core)
    }

    fn service_stats(&self) -> Option<&ServiceStats> {
        self.inner.service_stats()
    }
}

/// Builds a poisson service machine outside the measurement and runs it.
fn measured_service_run(requests: usize) -> ServiceRun {
    let scenario = scenario::by_name("poisson")
        .unwrap()
        .with_requests(requests);
    let config = SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    };
    let mut library = ProgramLibrary::new();
    let peak = Rc::new(Cell::new(0));
    let scheduler = TableAudit {
        inner: scenario.build(&mut library, 7),
        peak: Rc::clone(&peak),
    };
    let mut machine = MispMachine::new(MispTopology::uniprocessor(7).unwrap(), config, library);
    machine.add_process(scenario.name(), Box::new(scheduler), Some(0));

    let before = thread_allocations();
    let report = machine.run().unwrap();
    let allocations = thread_allocations() - before;
    let service = report.stats.service.as_ref().expect("a service run");
    assert_eq!(
        service.completed, requests as u64,
        "every request must complete"
    );
    let pool = machine.engine().core().shreds();
    ServiceRun {
        allocations,
        shreds: pool.len(),
        slab_len: pool.slab_len(),
        pool_bytes: pool.heap_bytes(),
        max_outstanding: service.max_outstanding,
        table_peak: peak.get(),
    }
}

/// Requests are data: a request's ops are built when it is admitted, into
/// the program of a completed request whose shred has released it, so the
/// steady state allocates nothing per request.  Doubling the stream from 2k
/// to 4k requests must add less than one allocation per extra request (the
/// slack is amortized container growth); a per-request name, builder or
/// fresh program coming back would add at least one.
#[test]
fn service_requests_allocate_less_than_once_each() {
    let _ = measured_service_run(500);

    let at_2k = measured_service_run(2_000).allocations;
    let at_4k = measured_service_run(4_000).allocations;
    let per_request = at_4k.saturating_sub(at_2k) as f64 / 2_000.0;
    assert!(
        per_request < 1.0,
        "service run allocated {per_request:.2} times per extra request \
         ({at_2k} allocations at 2k requests, {at_4k} at 4k)"
    );
}

/// The shred pool holds live shreds only.  A finished shred keeps a 16-byte
/// record and hands its cursor slot to the next shred, so the cursor slab
/// never outgrows the peak count of live shreds (the generator plus the
/// outstanding requests), and each extra request adds one record to the
/// pool.  The slack on the bytes is `Vec` growth: 2 001 and 4 001 records
/// sit in capacities of 2 048 and 4 096, and the slab may gain a few slots
/// on the longer stream.  A pool that kept every shred's cursor would hold
/// a slab slot per request and well over 100 bytes per extra request.
#[test]
fn shred_pool_footprint_tracks_live_shreds() {
    let short = measured_service_run(2_000);
    let long = measured_service_run(4_000);
    for run in [&short, &long] {
        let peak_live = run.max_outstanding as usize + 1;
        assert!(
            run.slab_len <= peak_live,
            "cursor slab holds {} slots for a peak of {peak_live} live shreds \
             ({} shreds created)",
            run.slab_len,
            run.shreds
        );
    }
    let extra = (long.shreds - short.shreds) as f64;
    let per_request = long.pool_bytes.saturating_sub(short.pool_bytes) as f64 / extra;
    assert!(
        per_request <= 16.0 * 1.1,
        "shred pool grew {per_request:.1} bytes per extra request \
         ({} bytes for {} shreds, {} bytes for {})",
        short.pool_bytes,
        short.shreds,
        long.pool_bytes,
        long.shreds
    );
}

/// The scheduler's request table is indexed by cursor-slab slot, so it is
/// never longer than the slab, which tracks live shreds; a table with a
/// slot per request ever admitted would outgrow it within the first few
/// hundred requests.  `TableAudit` checks the bound after every runtime op
/// and halt.
#[test]
fn request_table_tracks_live_shreds() {
    for requests in [2_000, 4_000] {
        let run = measured_service_run(requests);
        assert!(run.table_peak > 0, "the audit saw tracked requests");
        assert!(
            run.table_peak <= run.slab_len,
            "request table peaked at {} entries for a cursor slab of {} \
             ({} shreds created)",
            run.table_peak,
            run.slab_len,
            run.shreds
        );
    }
}

/// What `Scenario::build_from_stream` allocates for a poisson stream of
/// `requests`: (allocations, bytes), on this thread only.  The stream is
/// recorded before the measurement.
fn measured_build(requests: usize) -> (u64, u64) {
    let scenario = scenario::by_name("poisson")
        .unwrap()
        .with_requests(requests);
    let stream = scenario.stream(7);
    let mut library = ProgramLibrary::new();
    let (allocations, bytes) = (thread_allocations(), thread_bytes());
    let scheduler = scenario.build_from_stream(&mut library, &stream);
    let measured = (thread_allocations() - allocations, thread_bytes() - bytes);
    drop(scheduler);
    measured
}

/// The build holds no per-request program: the generator and the request
/// template have a fixed size, so what a build allocates per extra request
/// is the service model's copies of the arrival and the demand, 16 bytes,
/// within a bound of 32.  A generator with a `compute` + `shred_create`
/// pair per request allocates at least two 40-byte items more.  The number
/// of allocations does not depend on the stream's length at all.
#[test]
fn service_build_allocates_only_the_stream_data() {
    let _ = measured_build(500);
    let (allocs_2k, bytes_2k) = measured_build(2_000);
    let (allocs_4k, bytes_4k) = measured_build(4_000);
    let per_request = bytes_4k.saturating_sub(bytes_2k) as f64 / 2_000.0;
    assert!(
        per_request <= 32.0,
        "building the service allocated {per_request:.1} bytes per extra request \
         ({bytes_2k} bytes at 2k requests, {bytes_4k} at 4k)"
    );
    assert_eq!(
        allocs_2k, allocs_4k,
        "the number of allocations grew with the stream"
    );
}
