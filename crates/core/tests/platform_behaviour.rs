//! Behavioural tests of the MISP platform: exact costs and effects of proxy
//! execution, Ring 0 serialization, user-level signaling and the ring-policy
//! ablation, measured through small, fully-controlled machines.

use misp_core::{MispMachine, MispTopology, RingPolicy};
use misp_isa::{Continuation, Op, ProgramBuilder, ProgramLibrary, SyscallKind};
use misp_os::TimerConfig;
use misp_sim::{SimConfig, SimReport, SingleShredRuntime, TraceKind};
use misp_types::{CostModel, Cycles, SequencerId, SignalCost, VirtAddr};

/// A configuration with the timer disabled and round numbers for every cost,
/// so the expected stall windows can be asserted exactly.
fn exact_config() -> SimConfig {
    SimConfig {
        costs: CostModel::builder()
            .signal(SignalCost::Microcode5000)
            .page_fault_service(Cycles::new(8_000))
            .syscall_service(Cycles::new(3_000))
            .yield_transfer(Cycles::new(200))
            .build(),
        timer: TimerConfig::disabled(),
        ..SimConfig::default()
    }
}

/// Runs `machine` and checks that each `SimStats` counter mirroring an
/// event-log kind equals that kind's tally in the machine's log.
fn run_checked(machine: &mut MispMachine) -> SimReport {
    let report = machine.run().unwrap();
    let log = machine.engine().core().log();
    for (counter, kind) in [
        (report.stats.signals_sent, TraceKind::SignalSent),
        (report.stats.proxy_executions, TraceKind::ProxyRequest),
        (report.stats.context_switches, TraceKind::ContextSwitch),
    ] {
        assert_eq!(counter, log.count(kind), "counter vs {kind:?} tally");
    }
    report
}

/// Builds and runs a machine in which the main shred (on the OMS) registers
/// the proxy handler, starts the given programs on AMSs via `SIGNAL`, and
/// computes for a long time so it never needs the AMSs' sequencers.
fn run_with_signalled_shreds(
    ams_count: usize,
    programs: Vec<misp_isa::ShredProgram>,
    policy: RingPolicy,
) -> SimReport {
    let mut library = ProgramLibrary::new();
    let mut refs = Vec::new();
    for p in programs {
        refs.push(library.insert(p));
    }
    let mut main = ProgramBuilder::new("main").op(Op::RegisterHandler);
    for (i, r) in refs.iter().enumerate() {
        main = main.op(Op::Signal {
            target: SequencerId::new(i as u32 + 1),
            continuation: Continuation::for_program(*r),
        });
    }
    main = main.compute(Cycles::new(50_000_000));
    let main_ref = library.insert(main.build());

    let topology = MispTopology::uniprocessor(ams_count).unwrap();
    let mut machine = MispMachine::new(topology, exact_config(), library);
    machine.engine_mut().platform_mut().set_policy(policy);
    machine.add_process("test", Box::new(SingleShredRuntime::new(main_ref)), Some(0));
    run_checked(&mut machine)
}

#[test]
fn proxy_execution_charges_the_paper_equations_exactly() {
    // One AMS touches a fresh page (a single proxy execution); a second AMS
    // computes throughout and observes exactly one serialization window.
    let toucher = ProgramBuilder::new("toucher")
        .compute(Cycles::new(100_000))
        .load(VirtAddr::new(0x7000_0000))
        .compute(Cycles::new(100_000))
        .build();
    let computer = ProgramBuilder::new("computer")
        .compute(Cycles::new(30_000_000))
        .build();
    let report = run_with_signalled_shreds(2, vec![toucher, computer], RingPolicy::SuspendAll);

    assert_eq!(report.stats.proxy_executions, 1);
    assert_eq!(report.stats.ams_events.page_faults, 1);
    assert_eq!(report.stats.oms_events.page_faults, 0);

    // Equation 3 (+ the fly-weight handler transfer): the OMS is occupied for
    // signal + yield + 2*signal + priv = 5000 + 200 + 10000 + 8000 = 23,200.
    assert_eq!(
        report.stats.per_sequencer[0].stalled,
        Cycles::new(23_200),
        "OMS proxy-ingress overhead must match Equation 3"
    );
    // Equation 1: the *other* AMS is suspended for 2*signal + priv = 18,000.
    assert_eq!(
        report.stats.per_sequencer[2].stalled,
        Cycles::new(18_000),
        "bystander AMS serialization must match Equation 1"
    );
    // The faulting AMS is not double-counted as stalled; its delay shows up in
    // its completion time instead.
    assert_eq!(report.stats.per_sequencer[1].stalled, Cycles::ZERO);
    assert_eq!(report.stats.serializations, 1);
}

#[test]
fn oms_syscall_suspends_running_ams_for_the_serialization_window() {
    // The AMS computes while the OMS performs one system call.
    let worker = ProgramBuilder::new("worker")
        .compute(Cycles::new(30_000_000))
        .build();
    let mut library = ProgramLibrary::new();
    let worker_ref = library.insert(worker);
    let main = library.insert(
        ProgramBuilder::new("main")
            .op(Op::RegisterHandler)
            .op(Op::Signal {
                target: SequencerId::new(1),
                continuation: Continuation::for_program(worker_ref),
            })
            .compute(Cycles::new(1_000_000))
            .syscall(SyscallKind::Io)
            .compute(Cycles::new(1_000_000))
            .build(),
    );
    let topology = MispTopology::uniprocessor(1).unwrap();
    let mut machine = MispMachine::new(topology, exact_config(), library);
    machine.add_process("test", Box::new(SingleShredRuntime::new(main)), Some(0));
    let report = run_checked(&mut machine);

    assert_eq!(report.stats.oms_events.syscalls, 1);
    // Equation 1 with priv = syscall service (3,000): 2*5000 + 3000 = 13,000.
    assert_eq!(report.stats.per_sequencer[1].stalled, Cycles::new(13_000));
    assert_eq!(report.stats.serializations, 1);
    assert_eq!(report.stats.proxy_executions, 0);
}

#[test]
fn speculative_ring_policy_eliminates_bystander_stalls() {
    let toucher = ProgramBuilder::new("toucher")
        .load(VirtAddr::new(0x7100_0000))
        .compute(Cycles::new(1_000_000))
        .build();
    let computer = ProgramBuilder::new("computer")
        .compute(Cycles::new(30_000_000))
        .build();
    let report = run_with_signalled_shreds(2, vec![toucher, computer], RingPolicy::Speculative);
    // Proxy execution still happens (the AMS cannot run Ring 0 code), but the
    // bystander AMS is never suspended and no serialization is recorded.
    assert_eq!(report.stats.proxy_executions, 1);
    assert_eq!(report.stats.per_sequencer[2].stalled, Cycles::ZERO);
    assert_eq!(report.stats.serializations, 0);
}

#[test]
fn signal_starts_shreds_and_stats_count_every_message() {
    let a = ProgramBuilder::new("a")
        .compute(Cycles::new(1_000_000))
        .build();
    let b = ProgramBuilder::new("b")
        .load(VirtAddr::new(0x7200_0000))
        .compute(Cycles::new(1_000_000))
        .build();
    let report = run_with_signalled_shreds(2, vec![a, b], RingPolicy::SuspendAll);
    assert_eq!(
        report.stats.signals_sent, 2,
        "two user-level SIGNALs issued"
    );
    // Both signalled shreds ran to completion on their AMSs.
    assert!(report.stats.per_sequencer[1].busy >= Cycles::new(1_000_000));
    assert!(report.stats.per_sequencer[2].busy >= Cycles::new(1_000_000));
}

#[test]
fn event_log_records_proxy_and_shred_start_traffic() {
    let toucher = ProgramBuilder::new("toucher")
        .load(VirtAddr::new(0x7300_0000))
        .build();
    let mut library = ProgramLibrary::new();
    let toucher_ref = library.insert(toucher);
    let main = library.insert(
        ProgramBuilder::new("main")
            .op(Op::RegisterHandler)
            .op(Op::Signal {
                target: SequencerId::new(1),
                continuation: Continuation::for_program(toucher_ref),
            })
            .compute(Cycles::new(10_000_000))
            .build(),
    );
    let topology = MispTopology::uniprocessor(3).unwrap();
    let mut machine = MispMachine::new(topology, exact_config(), library);
    machine.add_process("test", Box::new(SingleShredRuntime::new(main)), Some(0));
    let report = run_checked(&mut machine);
    let log = machine.engine().core().log();
    assert_eq!(log.count(TraceKind::SignalSent), 1);
    assert_eq!(log.count(TraceKind::ProxyRequest), 1);
    assert_eq!(log.count(TraceKind::ProxyStart), 1);
    assert_eq!(log.count(TraceKind::ProxyDone), 1);
    // Suspended and resumed: the two bystander AMSs, plus the OMS for its
    // proxy occupancy.
    assert_eq!(log.count(TraceKind::Suspend), 3);
    assert_eq!(log.count(TraceKind::Resume), 3);
    assert_eq!(report.stats.proxy_executions, 1);
}

#[test]
fn cross_processor_signal_is_dropped() {
    let worker = ProgramBuilder::new("worker")
        .compute(Cycles::new(1_000))
        .build();
    let mut library = ProgramLibrary::new();
    let worker_ref = library.insert(worker);
    // Sequencer 2 is the OMS of the *second* MISP processor: an invalid SID
    // for a SIGNAL issued on processor 0.
    let main = library.insert(
        ProgramBuilder::new("main")
            .op(Op::Signal {
                target: SequencerId::new(2),
                continuation: Continuation::for_program(worker_ref),
            })
            .compute(Cycles::new(100_000))
            .build(),
    );
    let topology = MispTopology::uniform(2, 1).unwrap();
    let mut machine = MispMachine::new(topology, exact_config(), library);
    machine.add_process("test", Box::new(SingleShredRuntime::new(main)), Some(0));
    let report = run_checked(&mut machine);
    assert_eq!(
        report.stats.signals_sent, 1,
        "the SIGNAL instruction executed"
    );
    assert_eq!(
        machine.engine().core().log().count(TraceKind::SignalSent),
        1,
        "a dropped SIGNAL is logged once"
    );
    // ...but no shred was created or run anywhere else.
    assert_eq!(machine.engine().core().shreds().len(), 1);
    assert_eq!(report.stats.per_sequencer[2].busy, Cycles::ZERO);
}

#[test]
fn handler_registration_costs_one_yield_transfer() {
    let run = |register: bool| {
        let mut main = ProgramBuilder::new("main");
        if register {
            main = main.op(Op::RegisterHandler);
        }
        let mut library = ProgramLibrary::new();
        let main = library.insert(main.compute(Cycles::new(1_000)).build());
        let topology = MispTopology::uniprocessor(1).unwrap();
        let mut machine = MispMachine::new(topology, exact_config(), library);
        machine.add_process("test", Box::new(SingleShredRuntime::new(main)), Some(0));
        run_checked(&mut machine).total_cycles
    };
    assert_eq!(run(false), Cycles::new(1_300));
    assert_eq!(
        run(true),
        Cycles::new(1_500),
        "RegisterHandler adds exactly yield_transfer (200 cycles)"
    );
}

#[test]
fn larger_signal_costs_stretch_every_window_proportionally() {
    let toucher = ProgramBuilder::new("toucher")
        .load(VirtAddr::new(0x7600_0000))
        .compute(Cycles::new(100_000))
        .build();
    let computer = ProgramBuilder::new("computer")
        .compute(Cycles::new(30_000_000))
        .build();

    let run = |signal: SignalCost| {
        let mut library = ProgramLibrary::new();
        let t = library.insert(toucher.clone());
        let c = library.insert(computer.clone());
        let main = library.insert(
            ProgramBuilder::new("main")
                .op(Op::RegisterHandler)
                .op(Op::Signal {
                    target: SequencerId::new(1),
                    continuation: Continuation::for_program(t),
                })
                .op(Op::Signal {
                    target: SequencerId::new(2),
                    continuation: Continuation::for_program(c),
                })
                .compute(Cycles::new(50_000_000))
                .build(),
        );
        let config = SimConfig {
            costs: CostModel::builder()
                .signal(signal)
                .page_fault_service(Cycles::new(8_000))
                .yield_transfer(Cycles::new(200))
                .build(),
            timer: TimerConfig::disabled(),
            ..SimConfig::default()
        };
        let mut machine = MispMachine::new(MispTopology::uniprocessor(2).unwrap(), config, library);
        machine.add_process("test", Box::new(SingleShredRuntime::new(main)), Some(0));
        run_checked(&mut machine)
    };

    let r500 = run(SignalCost::Aggressive500);
    let r5000 = run(SignalCost::Microcode5000);
    // Bystander AMS window: 2*signal + priv.
    assert_eq!(r500.stats.per_sequencer[2].stalled, Cycles::new(9_000));
    assert_eq!(r5000.stats.per_sequencer[2].stalled, Cycles::new(18_000));
    // OMS window: 3*signal + yield + priv.
    assert_eq!(r500.stats.per_sequencer[0].stalled, Cycles::new(9_700));
    assert_eq!(r5000.stats.per_sequencer[0].stalled, Cycles::new(23_200));
}

#[test]
fn mp_machine_isolates_ring_transitions_to_their_own_processor() {
    // Two MISP processors, each with one AMS.  A syscall-heavy process on
    // processor 0 must never stall the AMS of processor 1.
    let mut library = ProgramLibrary::new();
    let noisy_worker = library.insert(
        ProgramBuilder::new("noisy-worker")
            .compute(Cycles::new(20_000_000))
            .build(),
    );
    let noisy = library.insert(
        ProgramBuilder::new("noisy")
            .op(Op::RegisterHandler)
            .op(Op::Signal {
                target: SequencerId::new(1),
                continuation: Continuation::for_program(noisy_worker),
            })
            .repeat(50, |b| {
                b.compute(Cycles::new(10_000)).syscall(SyscallKind::Io)
            })
            .build(),
    );
    let quiet_worker = library.insert(
        ProgramBuilder::new("quiet-worker")
            .compute(Cycles::new(20_000_000))
            .build(),
    );
    let quiet = library.insert(
        ProgramBuilder::new("quiet")
            .op(Op::RegisterHandler)
            .op(Op::Signal {
                target: SequencerId::new(3),
                continuation: Continuation::for_program(quiet_worker),
            })
            .compute(Cycles::new(20_000_000))
            .build(),
    );

    let topology = MispTopology::uniform(2, 1).unwrap();
    let mut machine = MispMachine::new(topology, exact_config(), library);
    machine.add_process("noisy", Box::new(SingleShredRuntime::new(noisy)), Some(0));
    machine.add_process("quiet", Box::new(SingleShredRuntime::new(quiet)), Some(1));
    let report = run_checked(&mut machine);

    assert_eq!(report.stats.oms_events.syscalls, 50);
    // Processor 0's AMS (sequencer 1) was stalled by every syscall ...
    assert_eq!(
        report.stats.per_sequencer[1].stalled,
        Cycles::new(50 * 13_000)
    );
    // ... while processor 1's AMS (sequencer 3) was never disturbed.
    assert_eq!(report.stats.per_sequencer[3].stalled, Cycles::ZERO);
}
