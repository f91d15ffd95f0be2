//! Property-based integration tests: invariants that must hold for *any*
//! workload shape, checked with proptest over randomized parameters.

use misp::cache::CacheConfig;
use misp::core::MispMachine;
use misp::core::{MispTopology, RingPolicy};
use misp::isa::{ProgramBuilder, ProgramLibrary};
use misp::mem::AccessPattern;
use misp::os::TimerConfig;
use misp::sim::{SimConfig, SingleShredRuntime};
use misp::smp::SmpPlatform;
use misp::types::{CostModel, Cycles, SignalCost, VirtAddr, PAGE_SIZE};
use misp::workloads::{LocalityProfile, Machine, Run, Suite, Workload, WorkloadParams};
use proptest::prelude::*;

fn arbitrary_params() -> impl Strategy<Value = WorkloadParams> {
    (
        50_000_000u64..400_000_000,
        0.0f64..0.3,
        0u64..64,
        0u64..16,
        1u64..16,
        0u64..6,
        prop_oneof![
            Just(AccessPattern::Sequential),
            (1u64..8).prop_map(|stride| AccessPattern::Strided { stride }),
            any::<u64>().prop_map(|seed| AccessPattern::Shuffled { seed }),
        ],
        any::<bool>(),
    )
        .prop_map(
            |(
                total_work,
                serial_fraction,
                main_pages,
                worker_pages,
                chunks,
                syscalls,
                pattern,
                contention,
            )| {
                WorkloadParams {
                    total_work,
                    serial_fraction,
                    main_pages,
                    worker_pages,
                    chunks_per_worker: chunks,
                    main_syscalls: syscalls,
                    worker_syscalls: 0,
                    access_pattern: pattern,
                    lock_contention: contention,
                    locality: LocalityProfile::Revisit,
                }
            },
        )
}

fn quick_config() -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    }
}

/// Asserts that two reports agree on everything the results schema can see:
/// completion times, the full statistics block and the event-log digest.
fn assert_identical(a: &misp::sim::SimReport, b: &misp::sim::SimReport, context: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{context}: total cycles");
    assert_eq!(a.completions, b.completions, "{context}: completions");
    assert_eq!(a.stats, b.stats, "{context}: statistics");
    assert_eq!(a.log_digest, b.log_digest, "{context}: log digest");
}

/// Runs `workload` on `machine` with 8 workers under `config`.
fn run(workload: &Workload, machine: Machine, config: SimConfig) -> misp::sim::SimReport {
    Run::workload(workload)
        .machine(machine)
        .config(config)
        .execute()
        .unwrap()
}

/// A locality profile for the batch-equivalence proptest: every profile the
/// workloads support, so stores to a shared hot set reach the batched cache
/// path as well as the paper's load-only revisits.
fn arbitrary_locality() -> impl Strategy<Value = LocalityProfile> {
    prop_oneof![
        Just(LocalityProfile::Revisit),
        (1u64..8).prop_map(|pages_per_chunk| LocalityProfile::Streaming { pages_per_chunk }),
        (1u64..6, 1u64..12).prop_map(|(block_pages, touches_per_chunk)| {
            LocalityProfile::Blocked {
                block_pages,
                touches_per_chunk,
            }
        }),
        (1u64..8, 1u64..12).prop_map(|(pages, touches_per_chunk)| {
            LocalityProfile::SharedHotSet {
                pages,
                touches_per_chunk,
            }
        }),
    ]
}

/// Runs `threads` threads of one process, one per core of a
/// [`SmpPlatform`] with the cache model on and the timer off, each running
/// the program `steps` once: a step `(n, Some((page, store)))` touches a
/// shared page, and `(n, None)` computes `2 × (n mod 8)` cycles.
fn run_tied_threads(
    steps: &[(u64, Option<(u64, bool)>)],
    threads: usize,
    batch: bool,
) -> misp::sim::SimReport {
    let config = SimConfig {
        timer: TimerConfig::disabled(),
        batch,
        ..SimConfig::default()
    }
    .with_cache(CacheConfig::enabled_default());
    let mut builder = ProgramBuilder::new("tied");
    for &(n, access) in steps {
        builder = match access {
            Some((page, true)) => builder.store(VirtAddr::new(page * PAGE_SIZE)),
            Some((page, false)) => builder.load(VirtAddr::new(page * PAGE_SIZE)),
            None => builder.compute(Cycles::new(2 * (n % 8))),
        };
    }
    let mut library = ProgramLibrary::new();
    let program = library.insert(builder.build());
    let platform = SmpPlatform::new(threads);
    let mut machine = misp::sim::Machine::new(config, threads, library, platform);
    let process = machine.core_mut().kernel_mut().spawn_process("tied");
    for core in 0..threads {
        let thread = machine.core_mut().kernel_mut().spawn_thread(process);
        machine.platform_mut().pin_thread(thread, core);
    }
    machine.add_runtime(process, Box::new(SingleShredRuntime::new(program)));
    machine.run().unwrap()
}

/// Runs `workload` on `machine` with 4 workers under `config`.
fn run4(workload: &Workload, machine: Machine, config: SimConfig) -> misp::sim::SimReport {
    Run::workload(workload)
        .machine(machine)
        .config(config)
        .workers(4)
        .execute()
        .unwrap()
}

/// The macro-step fast path must be invisible on the cache-modeled path too:
/// the locality variants behind `cache_sensitivity` (streaming, blocked and
/// the shared hot set, whose stores invalidate peer L1s) with the cache on
/// at the largest and the smallest L2 point produce identical statistics and
/// log digests with batching on and off.
#[test]
fn macro_stepping_is_byte_identical_for_cache_variants() {
    let topo = MispTopology::uniprocessor(7).unwrap();
    for (label, sets, ways) in [("l2_2m", 64, 8), ("l2_128k", 16, 2)] {
        let base = quick_config().with_cache(CacheConfig::enabled_default().with_l2(sets, ways));
        let batched = SimConfig {
            batch: true,
            ..base
        };
        let reference = SimConfig {
            batch: false,
            ..base
        };
        for w in misp::workloads::catalog::cache_variants() {
            let context = format!("{} ({label})", w.name());
            for (machine_label, machine) in [
                ("MISP", Machine::Misp(topo.clone())),
                ("SMP", Machine::smp(8)),
                ("serial", Machine::Serial),
            ] {
                let on = run(&w, machine.clone(), batched);
                let off = run(&w, machine, reference);
                assert_identical(&on, &off, &format!("{context} on {machine_label}"));
            }
        }
    }
}

/// The macro-step fast path must be invisible: every catalog workload, with
/// the cache model off and on, produces identical statistics and event-log
/// digests whether batching is enabled (the default) or force-disabled (the
/// event-per-operation reference loop).
#[test]
fn macro_stepping_is_byte_identical_for_every_catalog_workload() {
    let topo = MispTopology::uniprocessor(7).unwrap();
    for cache in [CacheConfig::disabled(), CacheConfig::enabled_default()] {
        let base = quick_config().with_cache(cache);
        let batched = SimConfig {
            batch: true,
            ..base
        };
        let reference = SimConfig {
            batch: false,
            ..base
        };
        for w in misp::workloads::catalog::all() {
            let context = format!(
                "{} (cache {})",
                w.name(),
                if cache.enabled { "on" } else { "off" }
            );
            let on = run(&w, Machine::Misp(topo.clone()), batched);
            let off = run(&w, Machine::Misp(topo.clone()), reference);
            assert_identical(&on, &off, &format!("{context} on MISP"));

            let on = run(&w, Machine::smp(8), batched);
            let off = run(&w, Machine::smp(8), reference);
            assert_identical(&on, &off, &format!("{context} on SMP"));

            let on = run(&w, Machine::Serial, batched);
            let off = run(&w, Machine::Serial, reference);
            assert_identical(&on, &off, &format!("{context} serial"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any workload completes on MISP, is deterministic, and never beats the
    /// ideal linear speedup over its own serial run.
    #[test]
    fn random_workloads_complete_deterministically(params in arbitrary_params()) {
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let a = run4(&w, Machine::Misp(topo.clone()), quick_config());
        let b = run4(&w, Machine::Misp(topo.clone()), quick_config());
        prop_assert_eq!(a.total_cycles, b.total_cycles);
        prop_assert_eq!(a.stats.total_serializing_events(), b.stats.total_serializing_events());

        let serial = run4(&w, Machine::Serial, quick_config());
        prop_assert!(serial.total_cycles >= a.total_cycles.saturating_sub(Cycles::new(1_000)) || serial.total_cycles >= a.total_cycles,
            "parallel must not exceed serial by more than rounding");
        let speedup = serial.total_cycles.as_f64() / a.total_cycles.as_f64();
        prop_assert!(speedup <= 4.05, "speedup {} exceeds sequencer count", speedup);
    }

    /// Macro-stepping is byte-identical on arbitrary workload shapes too —
    /// any locality profile, with the cache model off or on (then on SMP as
    /// well, whose per-core L2s send shared-line stores across clusters),
    /// and with the trace ring enabled, whose digest covers every
    /// individual event (TLB and cache misses too) and its timestamp.
    #[test]
    fn macro_stepping_is_byte_identical_on_random_workloads(
        input in (
            arbitrary_params(),
            arbitrary_locality(),
            prop_oneof![Just(None), Just(Some((64u32, 8u32))), Just(Some((16, 2)))],
            any::<bool>(),
        )
    ) {
        let (mut params, locality, l2, traced) = input;
        params.locality = locality;
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let mut base = quick_config();
        base.trace.enabled = traced;
        let mut machines = vec![Machine::Misp(topo), Machine::Serial];
        if let Some((sets, ways)) = l2 {
            base = base.with_cache(CacheConfig::enabled_default().with_l2(sets, ways));
            machines.push(Machine::smp(4));
        }
        let batched = SimConfig { batch: true, ..base };
        let reference = SimConfig { batch: false, ..base };

        for machine in machines {
            let on = run4(&w, machine.clone(), batched);
            let off = run4(&w, machine, reference);
            prop_assert_eq!(on.total_cycles, off.total_cycles);
            prop_assert_eq!(&on.completions, &off.completions);
            prop_assert_eq!(&on.stats, &off.stats);
            prop_assert_eq!(on.log_digest, off.log_digest);
            prop_assert_eq!(on.trace.is_some(), traced);
            if let (Some(on), Some(off)) = (&on.trace, &off.trace) {
                prop_assert_eq!(on.digest, off.digest);
                prop_assert_eq!(on.events.len(), off.events.len());
                prop_assert_eq!(on.dropped, off.dropped);
            }
        }
    }

    /// Cache-modeled accesses to shared lines at equal times.  Every cost on
    /// this path is even and small (computes of 0–14 cycles, 2-cycle L1
    /// hits, 14-cycle L2 hits), so the sequencers' operations keep completing
    /// at the same instant — exactly when an inline access must yield to the
    /// equal-time event already queued, whose access to the same line would
    /// otherwise see a different coherence state.
    #[test]
    fn macro_stepping_is_byte_identical_on_tied_shared_accesses(
        input in (
            proptest::collection::vec(
                (any::<u64>(), prop_oneof![Just(None), (0u64..3, any::<bool>()).prop_map(Some)]),
                1..80,
            ),
            2usize..5,
        )
    ) {
        let (steps, threads) = input;
        let on = run_tied_threads(&steps, threads, true);
        let off = run_tied_threads(&steps, threads, false);
        prop_assert_eq!(on.total_cycles, off.total_cycles);
        prop_assert_eq!(&on.stats, &off.stats);
        prop_assert_eq!(on.log_digest, off.log_digest);
    }

    /// The total number of page faults equals the number of distinct pages
    /// touched, independent of machine and access pattern.
    #[test]
    fn fault_count_is_exactly_the_working_set(params in arbitrary_params()) {
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let report = run4(&w, Machine::Misp(topo.clone()), quick_config());
        let expected = params.main_pages + params.worker_pages * 4;
        let measured = report.stats.oms_events.page_faults + report.stats.ams_events.page_faults;
        prop_assert_eq!(measured, expected);
        let smp = run4(&w, Machine::smp(4), quick_config());
        let smp_faults = smp.stats.oms_events.page_faults + smp.stats.ams_events.page_faults;
        prop_assert_eq!(smp_faults, expected);
    }

    /// Cheaper signaling never makes a workload slower, and the speculative
    /// ring policy never loses to the suspend-all policy.
    #[test]
    fn overheads_are_monotone(params in arbitrary_params()) {
        let w = Workload::new("prop", Suite::Rms, params);
        let topo = MispTopology::uniprocessor(3).unwrap();
        let with_signal = |signal: SignalCost| {
            let cfg = quick_config().with_costs(CostModel::builder().signal(signal).build());
            run4(&w, Machine::Misp(topo.clone()), cfg).total_cycles
        };
        let ideal = with_signal(SignalCost::Ideal);
        let microcode = with_signal(SignalCost::Microcode5000);
        prop_assert!(ideal <= microcode);

        // Ring-policy ablation: speculative pass-through can only help.
        let run_policy = |policy: RingPolicy| {
            let mut library = ProgramLibrary::new();
            let scheduler = w.build(&mut library, 4);
            let mut machine = MispMachine::new(topo.clone(), quick_config(), library);
            machine.engine_mut().platform_mut().set_policy(policy);
            machine.add_process("prop", Box::new(scheduler), Some(0));
            machine.run().unwrap().total_cycles
        };
        let suspend_all = run_policy(RingPolicy::SuspendAll);
        let speculative = run_policy(RingPolicy::Speculative);
        prop_assert!(speculative <= suspend_all);
    }
}
