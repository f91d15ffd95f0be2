//! Execution of individual grid points.

use crate::results::{
    FleetMetrics, IntervalMetricsSummary, MachineMetrics, PortMetrics, RunRecord, ServiceMetrics,
    SimMetrics, TopologyMetrics, TraceMetrics,
};
use crate::spec::{FleetSpec, MachineSpec, RunKind, RunSpec, SimSpec, TopologySpec, WorkSource};
use misp_core::RingPolicy;
use misp_os::TimerConfig;
use misp_sim::{FleetReport, SimConfig, SimReport, TraceConfig};
use misp_trace::{merge_machine_traces, metrics_digest, MetricsReport, QueueProfile, TraceReport};
use misp_types::{CostModel, Cycles, MispError, Result, SignalCost};
use misp_workloads::{catalog, scenario, Machine, Run, RunOptions, Scenario};
use shredlib::compat;

/// The observability by-products of one grid point, kept *outside* the
/// aggregated [`RunRecord`] so the versioned results schema stays free of
/// bulk data.  Simulation runs always carry the queue profile; the trace and
/// metrics sections are present exactly when the spec enabled them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunArtifacts {
    /// The full trace ring, when [`SimSpec::trace`] was set.
    pub trace: Option<TraceReport>,
    /// The interval-metrics samples, when [`SimSpec::metrics_interval`] was
    /// non-zero.
    pub metrics: Option<MetricsReport>,
    /// Event-queue self-profiling counters (simulation runs only).
    pub queue: Option<QueueProfile>,
}

impl RunArtifacts {
    /// Moves the observability sections out of a finished report.
    fn from_report(report: &mut SimReport) -> Self {
        RunArtifacts {
            trace: report.trace.take(),
            metrics: report.metrics.take(),
            queue: Some(report.queue),
        }
    }
}

/// The simulation configuration shared by all paper experiments: the paper's
/// 5000-cycle microcode signal estimate and a 1 ms (at 3 GHz) timer tick.
#[must_use]
pub fn experiment_config() -> SimConfig {
    SimConfig {
        costs: CostModel::default(),
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    }
}

/// The experiment configuration with a specific signal cost (Figure 5 sweep).
#[must_use]
pub fn config_with_signal(signal: SignalCost) -> SimConfig {
    experiment_config().with_costs(CostModel::builder().signal(signal).build())
}

fn ring_policy_label(policy: RingPolicy) -> &'static str {
    match policy {
        RingPolicy::SuspendAll => "suspend-all",
        RingPolicy::Speculative => "speculative",
    }
}

fn empty_record(index: usize, spec: &RunSpec, kind: &str) -> RunRecord {
    RunRecord {
        index: index as u64,
        id: spec.id.clone(),
        kind: kind.to_string(),
        workload: None,
        machine: None,
        workers: None,
        signal_cycles: None,
        pretouch: false,
        ring_policy: None,
        competitors: 0,
        ams_span_only: false,
        cache: None,
        seed: spec.seed,
        baseline: spec.baseline.clone(),
        sim: None,
        topology: None,
        port: None,
        scenario: None,
        offered_load: None,
        fleet: None,
    }
}

/// Maps the declarative machine spec onto the runner's machine.
fn build_machine(spec: &MachineSpec) -> Machine {
    match spec {
        MachineSpec::Serial => Machine::Serial,
        MachineSpec::Misp(topo) => Machine::Misp(topo.build()),
        MachineSpec::Smp { cores } => Machine::smp(*cores),
    }
}

/// Per-machine sequencer count — the track stride that keeps every fleet
/// machine's sequencers on distinct Perfetto process tracks when merging
/// traces.
fn sequencer_stride(machine: &Machine) -> u32 {
    match machine {
        Machine::Serial => 1,
        Machine::Misp(topology) => topology.total_sequencers() as u32,
        Machine::Smp { cores } => *cores as u32,
    }
}

/// Folds a fleet's per-machine reports into the record's aggregate `sim`
/// section: counters sum, the cycle count is the fleet's end-to-end span,
/// the digest is the fleet digest, and service percentiles merge across
/// machines.  The observability summaries are filled in by the caller from
/// the merged artifacts.
fn fleet_sim_metrics(report: &FleetReport) -> SimMetrics {
    let total_cycles = report.total_cycles().as_u64();
    let mut agg: Option<SimMetrics> = None;
    let mut cache: Option<misp_cache::CacheStats> = None;
    for machine in &report.reports {
        let m = SimMetrics::from_report(machine);
        if let Some(c) = machine.stats.cache {
            match &mut cache {
                Some(acc) => acc.merge(&c),
                None => cache = Some(c),
            }
        }
        match &mut agg {
            None => agg = Some(m),
            Some(a) => {
                a.oms_syscalls += m.oms_syscalls;
                a.oms_page_faults += m.oms_page_faults;
                a.oms_timer += m.oms_timer;
                a.oms_other_interrupts += m.oms_other_interrupts;
                a.ams_syscalls += m.ams_syscalls;
                a.ams_page_faults += m.ams_page_faults;
                a.proxy_executions += m.proxy_executions;
                a.serializations += m.serializations;
                a.context_switches += m.context_switches;
                a.signals_sent += m.signals_sent;
                a.suspension_cycles += m.suspension_cycles;
                a.tlb_hits += m.tlb_hits;
                a.tlb_misses += m.tlb_misses;
                a.tlb_flushes += m.tlb_flushes;
            }
        }
    }
    let mut a = agg.expect("a fleet report carries at least one machine");
    a.total_cycles = total_cycles;
    a.log_digest = format!("{:016x}", report.fleet_digest);
    a.cache = cache;
    a.speedup_vs_baseline = None;
    a.service = report
        .aggregate_service()
        .map(|svc| ServiceMetrics::from_stats(&svc, total_cycles));
    a.trace = None;
    a.interval_metrics = None;
    a
}

/// Executes a fleet scenario grid point: one independent machine per fleet
/// slot, the aggregate `sim` section, the per-machine `fleet` section, and
/// merged observability artifacts (fleet traces keep one track per
/// machine×sequencer pair; interval samples concatenate in machine order).
#[allow(
    clippy::too_many_arguments,
    reason = "one fleet grid point needs its record, scenario, fleet, machine and observability inputs"
)]
fn execute_fleet_sim(
    mut record: RunRecord,
    s: &Scenario,
    fleet_spec: FleetSpec,
    machine: Machine,
    config: SimConfig,
    options: RunOptions,
    seed: u64,
) -> Result<(RunRecord, RunArtifacts)> {
    let fleet = fleet_spec.build();
    let stride = sequencer_stride(&machine);
    let mut report = Run::scenario(s)
        .machine(machine)
        .config(config)
        .options(options)
        .seed(seed)
        .execute_fleet(&fleet)?;
    // The balancer is a pure function of (scenario, seed, fleet shape), so
    // re-deriving the dispatch here replays the decisions the run used.
    let dispatch = s.fleet_streams(seed, &fleet).dispatch_counts();

    let mut traces = Vec::new();
    let mut samples = Vec::new();
    let mut interval = 0;
    let mut queue = QueueProfile::default();
    for machine_report in &mut report.reports {
        if let Some(t) = machine_report.trace.take() {
            traces.push(t);
        }
        if let Some(m) = machine_report.metrics.take() {
            interval = m.interval;
            samples.extend(m.samples);
        }
        queue.absorb(&machine_report.queue);
    }
    let trace = (!traces.is_empty()).then(|| merge_machine_traces(&traces, stride));
    let metrics = (interval > 0).then(|| {
        let digest = metrics_digest(&samples);
        MetricsReport {
            interval,
            samples,
            digest,
        }
    });

    let mut sim_metrics = fleet_sim_metrics(&report);
    sim_metrics.trace = trace.as_ref().map(TraceMetrics::from_report);
    sim_metrics.interval_metrics = metrics.as_ref().map(IntervalMetricsSummary::from_report);
    record.sim = Some(sim_metrics);
    record.fleet = Some(FleetMetrics {
        machines: fleet.machines() as u64,
        network_latency: fleet.network_latency().as_u64(),
        policy: fleet.policy().label().to_string(),
        fleet_digest: format!("{:016x}", report.fleet_digest),
        per_machine: report
            .reports
            .iter()
            .enumerate()
            .map(|(i, r)| MachineMetrics {
                machine: i as u64,
                total_cycles: r.total_cycles.as_u64(),
                log_digest: format!("{:016x}", r.log_digest),
                requests_dispatched: dispatch[i] as u64,
                service: r
                    .stats
                    .service
                    .as_ref()
                    .map(|svc| ServiceMetrics::from_stats(svc, r.total_cycles.as_u64())),
            })
            .collect(),
    });
    Ok((
        record,
        RunArtifacts {
            trace,
            metrics,
            queue: Some(queue),
        },
    ))
}

fn execute_sim(index: usize, spec: &RunSpec, sim: &SimSpec) -> Result<(RunRecord, RunArtifacts)> {
    let mut config = match sim.signal {
        Some(signal) => config_with_signal(signal),
        None => experiment_config(),
    };
    if let Some(cache) = sim.cache {
        config = config.with_cache(cache);
    }
    if sim.trace || sim.metrics_interval > 0 {
        config.trace = TraceConfig {
            enabled: sim.trace,
            metrics_interval: sim.metrics_interval,
            ..TraceConfig::default()
        };
    }
    let options = RunOptions {
        pretouch: sim.pretouch,
        ring_policy: sim.ring_policy,
        competitors: sim.competitors,
        ams_span_only: sim.ams_span_only,
        ..RunOptions::default()
    };
    let machine = build_machine(&sim.machine);

    let mut record = empty_record(index, spec, "sim");
    record.machine = Some(sim.machine.label());
    record.signal_cycles = sim.signal.map(|s| s.cycles().as_u64());
    record.pretouch = sim.pretouch;
    record.ring_policy = sim.ring_policy.map(|p| ring_policy_label(p).to_string());
    record.competitors = sim.competitors as u64;
    record.ams_span_only = sim.ams_span_only;
    record.cache = sim.cache.filter(|c| c.enabled).map(|c| c.label());

    let mut report = match &sim.source {
        WorkSource::Workload(name) => {
            let workload = catalog::by_name(name).ok_or_else(|| {
                MispError::InvalidConfiguration(format!(
                    "grid point {}: unknown workload {name:?}",
                    spec.id
                ))
            })?;
            if sim.fleet.is_some() {
                return Err(MispError::InvalidConfiguration(format!(
                    "grid point {}: fleet runs serve request scenarios, not catalog workloads",
                    spec.id
                )));
            }
            record.workload = Some(name.clone());
            record.workers = Some(sim.workers as u64);
            Run::workload(&workload)
                .machine(machine)
                .config(config)
                .workers(sim.workers)
                .options(options)
                .execute()?
        }
        WorkSource::Scenario(sc) => {
            let mut s = scenario::by_name(&sc.name).ok_or_else(|| {
                MispError::InvalidConfiguration(format!(
                    "grid point {}: unknown scenario {:?}",
                    spec.id, sc.name
                ))
            })?;
            if let Some(requests) = sc.requests {
                s = s.with_requests(requests);
            }
            if let Some(pct) = sc.offered_load {
                s = s.with_offered_load(pct);
            }
            if let Some(width) = sc.pool_width {
                s = s.with_pool_width(width);
            }
            if let Some(bound) = sc.queue_bound {
                s = s.with_queue_bound(bound);
            }
            record.scenario = Some(sc.name.clone());
            record.offered_load = Some(s.offered_load_pct());
            if let Some(fleet_spec) = sim.fleet {
                return execute_fleet_sim(
                    record, &s, fleet_spec, machine, config, options, spec.seed,
                );
            }
            Run::scenario(&s)
                .machine(machine)
                .config(config)
                .options(options)
                .seed(spec.seed)
                .execute()?
        }
    };

    record.sim = Some(SimMetrics::from_report(&report));
    Ok((record, RunArtifacts::from_report(&mut report)))
}

fn execute_topology(index: usize, spec: &RunSpec, topo: TopologySpec) -> RunRecord {
    let topology = topo.build();
    let mut record = empty_record(index, spec, "topology");
    record.machine = Some(MachineSpec::Misp(topo).label());
    record.topology = Some(TopologyMetrics {
        description: topology.describe(),
        processors: topology.processors().len() as u64,
        total_sequencers: topology.total_sequencers() as u64,
        oms_count: topology.all_oms().len() as u64,
        ams_count: topology.total_ams() as u64,
        per_processor_ams: topology
            .processors()
            .iter()
            .map(|p| p.ams().len() as u64)
            .collect(),
    });
    record
}

fn execute_port_analysis(index: usize, spec: &RunSpec, application: &str) -> Result<RunRecord> {
    let app = catalog::table2_applications()
        .into_iter()
        .find(|a| a.name == application)
        .ok_or_else(|| {
            MispError::InvalidConfiguration(format!(
                "grid point {}: unknown Table 2 application {application:?}",
                spec.id
            ))
        })?;
    let coverage = compat::coverage(app.functions.iter().copied());
    let mut record = empty_record(index, spec, "port-analysis");
    record.port = Some(PortMetrics {
        description: app.description.to_string(),
        api_calls: coverage.total() as u64,
        mechanical: coverage.mechanical.len() as u64,
        structural: coverage.structural.len() as u64,
        unmapped: coverage.unmapped.len() as u64,
        mechanical_percent: coverage.mechanical_fraction() * 100.0,
        paper_effort_days: app.paper_days,
        paper_structural_changes: app.structural_changes,
    });
    Ok(record)
}

/// Executes one grid point and returns its aggregated record.
///
/// Execution is a pure function of the spec: the engine is strictly
/// deterministic, so calling this twice — from any thread — produces equal
/// records.  [`crate::run_grid`] relies on exactly that property.
///
/// # Errors
///
/// Returns an error if the spec references an unknown workload or
/// application, or if the simulation itself fails (budget exhaustion,
/// deadlock).
pub fn execute_run(index: usize, spec: &RunSpec) -> Result<RunRecord> {
    execute_run_with_artifacts(index, spec).map(|(record, _)| record)
}

/// [`execute_run`] plus the run's observability by-products (trace ring,
/// interval-metrics samples, queue profile).  Non-simulation grid points
/// return empty artifacts.
///
/// # Errors
///
/// Same failure modes as [`execute_run`].
pub fn execute_run_with_artifacts(
    index: usize,
    spec: &RunSpec,
) -> Result<(RunRecord, RunArtifacts)> {
    match &spec.kind {
        RunKind::Sim(sim) => execute_sim(index, spec, sim),
        RunKind::Topology(topo) => Ok((
            execute_topology(index, spec, *topo),
            RunArtifacts::default(),
        )),
        RunKind::PortAnalysis { application } => {
            execute_port_analysis(index, spec, application).map(|r| (r, RunArtifacts::default()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_config_uses_paper_signal_estimate() {
        let c = experiment_config();
        assert_eq!(c.costs.signal_cycles(), Cycles::new(5_000));
        let ideal = config_with_signal(SignalCost::Ideal);
        assert_eq!(ideal.costs.signal_cycles(), Cycles::ZERO);
        assert_eq!(ideal.timer, c.timer);
    }

    #[test]
    fn unknown_workload_is_a_configuration_error() {
        let spec = RunSpec::sim(
            "x",
            SimSpec::workload("no-such-workload", MachineSpec::Serial, 4),
        );
        let err = execute_run(0, &spec).unwrap_err();
        assert!(matches!(err, MispError::InvalidConfiguration(_)));
    }

    #[test]
    fn unknown_scenario_is_a_configuration_error() {
        let spec = RunSpec::sim(
            "x",
            SimSpec::scenario(
                crate::ScenarioSpec::new("no-such-scenario"),
                MachineSpec::Serial,
            ),
        );
        let err = execute_run(0, &spec).unwrap_err();
        assert!(matches!(err, MispError::InvalidConfiguration(_)));
    }

    #[test]
    fn unknown_application_is_a_configuration_error() {
        let spec = RunSpec::port_analysis("no-such-app");
        let err = execute_run(0, &spec).unwrap_err();
        assert!(matches!(err, MispError::InvalidConfiguration(_)));
    }

    #[test]
    fn topology_record_describes_the_machine() {
        let spec = RunSpec::topology("4x2", crate::TopologySpec::Quad2);
        let record = execute_run(3, &spec).unwrap();
        assert_eq!(record.index, 3);
        assert_eq!(record.kind, "topology");
        let topo = record.topology.expect("topology metrics");
        assert_eq!(topo.processors, 4);
        assert_eq!(topo.total_sequencers, 8);
        assert_eq!(topo.per_processor_ams, vec![1, 1, 1, 1]);
    }

    #[test]
    fn sim_record_carries_metadata_and_metrics() {
        let spec = RunSpec::sim(
            "dense_mvm/misp",
            SimSpec::workload(
                "dense_mvm",
                MachineSpec::Misp(crate::TopologySpec::Uniprocessor { ams: 3 }),
                4,
            ),
        );
        let record = execute_run(0, &spec).unwrap();
        assert_eq!(record.kind, "sim");
        assert_eq!(record.machine.as_deref(), Some("misp:1x4"));
        assert_eq!(record.workers, Some(4));
        assert_eq!(record.scenario, None);
        assert_eq!(record.offered_load, None);
        let sim = record.sim.expect("sim metrics");
        assert!(sim.total_cycles > 0);
        assert_eq!(sim.log_digest.len(), 16, "digest is 16 hex digits");
        assert!(
            sim.service.is_none(),
            "workload runs carry no service stats"
        );
    }

    /// A scenario grid point produces a record with scenario metadata and a
    /// populated service-metrics section whose latency percentiles are
    /// ordered.
    #[test]
    fn scenario_record_carries_service_metrics() {
        let spec = RunSpec::sim(
            "poisson/misp",
            SimSpec::scenario(
                crate::ScenarioSpec::new("poisson")
                    .with_requests(40)
                    .with_offered_load(80),
                MachineSpec::Misp(crate::TopologySpec::Single8),
            ),
        )
        .with_seed(11);
        let record = execute_run(0, &spec).unwrap();
        assert_eq!(record.kind, "sim");
        assert_eq!(record.scenario.as_deref(), Some("poisson"));
        assert_eq!(record.offered_load, Some(80));
        assert_eq!(record.workload, None);
        assert_eq!(record.workers, None);
        assert_eq!(record.seed, 11);
        let service = record
            .sim
            .expect("sim metrics")
            .service
            .expect("scenario runs populate service metrics");
        assert_eq!(service.admitted, 40);
        assert_eq!(service.completed, 40);
        assert_eq!(service.dropped, 0);
        assert!(service.latency_p50 > 0);
        assert!(service.latency_p50 <= service.latency_p95);
        assert!(service.latency_p95 <= service.latency_p99);
        assert!(service.latency_p99 <= service.latency_p999);
        assert!(service.throughput_per_gcycle > 0.0);
    }

    /// The fig7 spanning rule: on an uneven topology at load 0 the measured
    /// application must occupy only the AMS-carrying processor, exactly as
    /// the paper's Figure 7 helper built the machine by hand.
    #[test]
    fn ams_span_only_matches_a_hand_built_figure7_machine() {
        let topo = TopologySpec::Uneven { ams: 3, singles: 4 };

        let spec_sim = SimSpec::workload(
            "RayTracer",
            MachineSpec::Misp(topo),
            crate::grids::RAYTRACER_SHREDS,
        )
        .with_ams_span_only();
        let record = execute_run(0, &RunSpec::sim("1x4+4/load0", spec_sim)).unwrap();
        let via_harness = record.sim.expect("sim metrics").total_cycles;

        // Hand-built machine, following the seed fig7 binary line for line.
        let workload = catalog::by_name("RayTracer").expect("catalog has RayTracer");
        let mut library = misp_isa::ProgramLibrary::new();
        let scheduler = workload.build(&mut library, crate::grids::RAYTRACER_SHREDS);
        let topology = topo.build();
        let mut machine =
            misp_core::MispMachine::new(topology.clone(), experiment_config(), library);
        let ray = machine.add_process("RayTracer", Box::new(scheduler), Some(0));
        for proc_idx in 1..topology.processors().len() {
            if !topology.processors()[proc_idx].ams().is_empty() {
                machine.add_thread(ray, Some(proc_idx));
            }
        }
        machine.set_measured(vec![ray]);
        let direct = machine.run().expect("direct run").total_cycles.as_u64();

        assert_eq!(via_harness, direct);
    }

    #[test]
    fn execution_is_deterministic_across_calls() {
        let spec = RunSpec::sim(
            "kmeans/smp",
            SimSpec::workload("kmeans", MachineSpec::Smp { cores: 4 }, 4),
        );
        let a = execute_run(0, &spec).unwrap();
        let b = execute_run(0, &spec).unwrap();
        assert_eq!(a, b);
    }

    /// Tracing and interval metrics are pure observers: enabling both leaves
    /// every simulation result (cycles, event-log digest) untouched, and the
    /// artifacts appear exactly when requested.
    #[test]
    fn tracing_and_metrics_are_observers_not_participants() {
        let plain = RunSpec::sim(
            "kmeans/smp",
            SimSpec::workload("kmeans", MachineSpec::Smp { cores: 4 }, 4),
        );
        let traced = RunSpec::sim(
            "kmeans/smp",
            SimSpec::workload("kmeans", MachineSpec::Smp { cores: 4 }, 4)
                .with_trace(true)
                .with_metrics_interval(100_000),
        );
        let (a, art_a) = execute_run_with_artifacts(0, &plain).unwrap();
        let (b, art_b) = execute_run_with_artifacts(0, &traced).unwrap();
        assert!(art_a.trace.is_none(), "no trace unless requested");
        assert!(art_a.metrics.is_none(), "no samples unless requested");
        assert!(art_a.queue.is_some(), "queue profile is always on");
        let trace = art_b.trace.as_ref().expect("trace ring");
        assert!(!trace.events.is_empty());
        let metrics = art_b.metrics.as_ref().expect("interval samples");
        assert!(!metrics.samples.is_empty());
        assert_eq!(metrics.interval, 100_000);
        let sa = a.sim.expect("sim metrics");
        let sb = b.sim.expect("sim metrics");
        assert_eq!(sa.total_cycles, sb.total_cycles);
        assert_eq!(
            sa.log_digest, sb.log_digest,
            "tracing must not perturb the run"
        );
    }

    /// Non-simulation grid points return empty artifacts.
    #[test]
    fn non_sim_points_carry_no_artifacts() {
        let spec = RunSpec::topology("4x2", crate::TopologySpec::Quad2);
        let (_, artifacts) = execute_run_with_artifacts(0, &spec).unwrap();
        assert_eq!(artifacts, RunArtifacts::default());
    }
}
