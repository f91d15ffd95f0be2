//! Determinism property tests.
//!
//! The engine promises strict determinism: given the same configuration,
//! workload and platform, two runs produce identical cycle counts,
//! statistics and event logs.  The parallel sweep harness additionally
//! promises that fanning runs out across OS threads changes nothing.  These
//! tests pin both promises for **every** catalog workload on both machines.

use misp::core::MispTopology;
use misp::harness::{
    artifacts, grids, run_grid, run_grid_with_artifacts, GridSpec, MachineSpec, RunSpec, SimSpec,
    SweepOptions, TopologySpec, VerifyMode,
};
use misp::os::TimerConfig;
use misp::sim::{SimConfig, SimReport};
use misp::types::Cycles;
use misp::workloads::{catalog, Machine, Run};

fn quick_config() -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    }
}

/// Asserts two reports are fully identical: completion times, every Table 1
/// statistic, per-sequencer utilization, and the event-log digest.
fn assert_reports_identical(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{context}: total cycles");
    assert_eq!(
        a.stats.process_completion, b.stats.process_completion,
        "{context}: completions"
    );
    assert_eq!(a.log_digest, b.log_digest, "{context}: event-log digest");
    assert_eq!(
        a.stats.oms_events, b.stats.oms_events,
        "{context}: OMS events"
    );
    assert_eq!(
        a.stats.ams_events, b.stats.ams_events,
        "{context}: AMS events"
    );
    assert_eq!(
        a.stats.proxy_executions, b.stats.proxy_executions,
        "{context}: proxy executions"
    );
    assert_eq!(
        a.stats.serializations, b.stats.serializations,
        "{context}: serializations"
    );
    assert_eq!(
        a.stats.context_switches, b.stats.context_switches,
        "{context}: context switches"
    );
    assert_eq!(
        a.stats.signals_sent, b.stats.signals_sent,
        "{context}: signals"
    );
    assert_eq!(
        a.stats.suspension_cycles, b.stats.suspension_cycles,
        "{context}: suspension cycles"
    );
    assert_eq!(
        a.stats.per_sequencer, b.stats.per_sequencer,
        "{context}: per-sequencer utilization"
    );
    assert_eq!(
        a.stats.per_sequencer_events, b.stats.per_sequencer_events,
        "{context}: per-sequencer events"
    );
}

/// Every catalog workload runs twice on MISP and twice on SMP; each pair
/// must be identical down to the event-log digest.
#[test]
fn every_workload_is_deterministic_on_both_machines() {
    let topology = MispTopology::uniprocessor(7).unwrap();
    let on_misp = |workload: &misp::workloads::Workload| {
        Run::workload(workload)
            .topology(topology.clone())
            .config(quick_config())
            .execute()
            .unwrap()
    };
    let on_smp = |workload: &misp::workloads::Workload| {
        Run::workload(workload)
            .machine(Machine::smp(8))
            .config(quick_config())
            .execute()
            .unwrap()
    };
    for workload in catalog::all() {
        let name = workload.name();
        let misp_a = on_misp(&workload);
        let misp_b = on_misp(&workload);
        assert_reports_identical(&misp_a, &misp_b, &format!("{name} on MISP"));

        let smp_a = on_smp(&workload);
        let smp_b = on_smp(&workload);
        assert_reports_identical(&smp_a, &smp_b, &format!("{name} on SMP"));

        // MISP and SMP are different platforms and must not be conflated by
        // the digest: their logs differ (MISP suspends and proxies).
        assert_ne!(
            misp_a.log_digest, smp_a.log_digest,
            "{name}: MISP and SMP runs must have distinct event logs"
        );
    }
}

/// A grid covering every workload on MISP and SMP, swept serially and with
/// parallel fan-out: the aggregated documents must be byte-identical, and
/// each parallel record must match a direct (harness-free) run.
#[test]
fn parallel_harness_matches_serial_execution_for_every_workload() {
    let mut grid = GridSpec::new("determinism", "every workload on MISP and SMP");
    for workload in catalog::all() {
        let name = workload.name();
        grid.push(RunSpec::sim(
            format!("{name}/misp"),
            SimSpec::workload(
                name,
                MachineSpec::Misp(TopologySpec::Uniprocessor { ams: 7 }),
                8,
            ),
        ));
        grid.push(RunSpec::sim(
            format!("{name}/smp"),
            SimSpec::workload(name, MachineSpec::Smp { cores: 8 }, 8),
        ));
    }

    let serial = run_grid(
        &grid,
        &SweepOptions {
            threads: 1,
            verify: VerifyMode::Off,
        },
    )
    .unwrap();
    // VerifyMode::Full additionally re-executes every point on the main
    // thread inside run_grid and asserts record equality there.
    let parallel = run_grid(
        &grid,
        &SweepOptions {
            threads: 8,
            verify: VerifyMode::Full,
        },
    )
    .unwrap();

    assert_eq!(serial, parallel);
    assert_eq!(
        serial.to_canonical_json().unwrap(),
        parallel.to_canonical_json().unwrap(),
        "aggregated JSON must be byte-identical across thread counts"
    );

    // Cross-check the harness against direct runner invocations: the sweep
    // must report exactly what a hand-rolled run loop sees.
    let topology = MispTopology::uniprocessor(7).unwrap();
    for workload in catalog::all() {
        let name = workload.name();
        let direct = Run::workload(&workload)
            .topology(topology.clone())
            .config(misp::harness::experiment_config())
            .execute()
            .unwrap();
        let record = parallel.sim(&format!("{name}/misp")).unwrap();
        assert_eq!(record.total_cycles, direct.total_cycles.as_u64(), "{name}");
        assert_eq!(
            record.log_digest,
            format!("{:016x}", direct.log_digest),
            "{name}: digest mismatch between harness and direct run"
        );
    }
}

/// The predefined fig4 grid — the one CI smokes — is itself reproducible
/// end-to-end: two full sweeps at different thread counts serialize
/// identically.
/// The open-loop scenario grid is as reproducible as the closed-loop ones:
/// the seeded arrival streams, queue admission and latency histograms all
/// replay exactly, so two sweeps at different thread counts serialize
/// identically.
#[test]
fn service_load_grid_sweeps_identically_at_different_thread_counts() {
    let grid = grids::service_load();
    let one = run_grid(
        &grid,
        &SweepOptions {
            threads: 1,
            verify: VerifyMode::Off,
        },
    )
    .unwrap();
    let eight = run_grid(
        &grid,
        &SweepOptions {
            threads: 8,
            verify: VerifyMode::Full,
        },
    )
    .unwrap();
    assert_eq!(
        one.to_canonical_json().unwrap(),
        eight.to_canonical_json().unwrap(),
        "scenario sweeps must be byte-identical across thread counts"
    );
}

/// The fleet grid is byte-identical across thread counts too: every machine
/// runs on its own, so its event order is a pure function of the spec, and
/// the per-machine records, fleet digests and merged latency histograms all
/// replay exactly under 8-way fan-out.
#[test]
fn fleet_service_grid_sweeps_identically_at_different_thread_counts() {
    let grid = grids::fleet_service();
    let one = run_grid(
        &grid,
        &SweepOptions {
            threads: 1,
            verify: VerifyMode::Off,
        },
    )
    .unwrap();
    let eight = run_grid(
        &grid,
        &SweepOptions {
            threads: 8,
            verify: VerifyMode::Full,
        },
    )
    .unwrap();
    assert_eq!(
        one.to_canonical_json().unwrap(),
        eight.to_canonical_json().unwrap(),
        "fleet sweeps must be byte-identical across thread counts"
    );
}

/// Observability artifacts obey the same thread-count invariance as the
/// results document: a traced, sampled grid swept serially and with 8-way
/// fan-out produces byte-identical trace exports, trace digests and
/// interval-metrics JSONL streams.
#[test]
fn trace_and_metrics_artifacts_are_identical_at_any_thread_count() {
    let mut grid = GridSpec::new("traced", "observability determinism grid");
    for (name, workers) in [("dense_mvm", 4), ("kmeans", 4)] {
        grid.push(RunSpec::sim(
            format!("{name}/misp"),
            SimSpec::workload(
                name,
                MachineSpec::Misp(TopologySpec::Uniprocessor { ams: 3 }),
                workers,
            )
            .with_trace(true)
            .with_metrics_interval(250_000),
        ));
        grid.push(RunSpec::sim(
            format!("{name}/smp"),
            SimSpec::workload(name, MachineSpec::Smp { cores: 4 }, workers)
                .with_trace(true)
                .with_metrics_interval(250_000),
        ));
    }

    let (serial, serial_artifacts) = run_grid_with_artifacts(
        &grid,
        &SweepOptions {
            threads: 1,
            verify: VerifyMode::Off,
        },
    )
    .unwrap();
    let (parallel, parallel_artifacts) = run_grid_with_artifacts(
        &grid,
        &SweepOptions {
            threads: 8,
            verify: VerifyMode::Full,
        },
    )
    .unwrap();

    assert_eq!(
        serial.to_canonical_json().unwrap(),
        parallel.to_canonical_json().unwrap(),
        "results with observability summaries must stay byte-identical"
    );
    for (record, (a, b)) in serial
        .records
        .iter()
        .zip(serial_artifacts.iter().zip(&parallel_artifacts))
    {
        let id = &record.id;
        let ta = a.trace.as_ref().expect("serial trace");
        let tb = b.trace.as_ref().expect("parallel trace");
        assert_eq!(ta.digest, tb.digest, "{id}: trace digest");
        assert_eq!(ta.events, tb.events, "{id}: trace events");
        assert_eq!(
            artifacts::trace_json(ta),
            artifacts::trace_json(tb),
            "{id}: Perfetto export bytes"
        );
        let ma = a.metrics.as_ref().expect("serial metrics");
        let mb = b.metrics.as_ref().expect("parallel metrics");
        assert_eq!(ma.digest, mb.digest, "{id}: metrics digest");
        assert_eq!(ma.samples, mb.samples, "{id}: metrics samples");
        assert!(!ma.samples.is_empty(), "{id}: sampler must have fired");
    }
    assert_eq!(
        artifacts::metrics_jsonl(&serial.records, &serial_artifacts).unwrap(),
        artifacts::metrics_jsonl(&parallel.records, &parallel_artifacts).unwrap(),
        "interval-metrics JSONL stream must be byte-identical across thread counts"
    );
}

#[test]
fn fig4_grid_sweeps_identically_at_different_thread_counts() {
    let grid = grids::fig4();
    let two = run_grid(
        &grid,
        &SweepOptions {
            threads: 2,
            verify: VerifyMode::Off,
        },
    )
    .unwrap();
    let eight = run_grid(
        &grid,
        &SweepOptions {
            threads: 8,
            verify: VerifyMode::Off,
        },
    )
    .unwrap();
    assert_eq!(
        two.to_canonical_json().unwrap(),
        eight.to_canonical_json().unwrap()
    );
}
