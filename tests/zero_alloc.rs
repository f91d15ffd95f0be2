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
//! Allocations are counted per thread, and each audit reads the count of the
//! thread it runs on, so audits that the test harness runs in parallel never
//! see each other's allocations.

use misp::core::{MispMachine, MispTopology};
use misp::isa::ProgramLibrary;
use misp::os::TimerConfig;
use misp::sim::{FleetEngine, SimConfig, TraceConfig};
use misp::types::Cycles;
use misp::workloads::{LocalityProfile, Suite, Workload, WorkloadParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // `const`-initialized, so the first touch on a thread neither allocates
    // nor registers a destructor — safe to use from inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's count.  `try_with` never allocates and is a
/// no-op while the thread's locals are being torn down.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards the caller's arguments to `System` unchanged
// after bumping a thread-local counter that neither allocates nor panics, so
// `GlobalAlloc`'s contract is exactly `System`'s own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

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

    let before = allocations();
    let report = machine.run().unwrap();
    let during = allocations() - before;
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

    let before = allocations();
    let report = fleet.run_fleet().unwrap();
    let during = allocations() - before;
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
