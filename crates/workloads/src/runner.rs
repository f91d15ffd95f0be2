//! The unified run API: one builder that executes catalog workloads and
//! open-loop scenarios on the MISP machine, the SMP baseline, or a single
//! sequencer.
//!
//! # Examples
//!
//! ```
//! use misp_workloads::{catalog, runner::{Machine, Run}};
//! use misp_core::MispTopology;
//!
//! let w = catalog::by_name("dense_mvm").unwrap();
//! let report = Run::workload(&w)
//!     .machine(Machine::misp(MispTopology::uniprocessor(7).unwrap()))
//!     .workers(8)
//!     .execute()
//!     .unwrap();
//! assert!(report.total_cycles.as_u64() > 0);
//! ```

use crate::{competitor, scenario::Scenario, Workload};
use misp_core::{FleetTopology, MispMachine, MispTopology, RingPolicy};
use misp_isa::ProgramLibrary;
use misp_sim::{FleetEngine, FleetReport, SimConfig, SimReport};
use misp_smp::SmpMachine;
use misp_types::{MispError, Result};

/// Options that select the non-default variants of a workload run: the page
/// pre-touch optimization, the ring-transition policy ablation, and the
/// multi-programming load of the paper's Figure 7.
///
/// The default options reproduce a plain dedicated-machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Enable the Section 5.3 page pre-touch optimization (the main shred
    /// probes every worker page during the serial region).  Ignored for
    /// scenario runs, which have no pre-touchable worker partitions.
    pub pretouch: bool,
    /// Override the MISP ring-transition policy (ignored on SMP).
    pub ring_policy: Option<RingPolicy>,
    /// Number of single-threaded competitor processes loaded alongside the
    /// measured application.  When non-zero, only the application process is
    /// measured, as in Figure 7.
    pub competitors: usize,
    /// Compute length of each competitor process, in cycles.  Competitors
    /// must outlast the measured application.
    pub competitor_cycles: u64,
    /// Restrict the application's OS threads to MISP processors that have
    /// AMSs, leaving plain single-sequencer CPUs to the OS (the Figure 7
    /// spanning rule, applied at every load including zero).  The default
    /// spans every processor, as the plain MP runs do.
    pub ams_span_only: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            pretouch: false,
            ring_policy: None,
            competitors: 0,
            competitor_cycles: 12_000_000_000,
            ams_span_only: false,
        }
    }
}

/// The machine a [`Run`] executes on.
#[derive(Debug, Clone, PartialEq)]
pub enum Machine {
    /// A MISP machine with the given topology.
    Misp(MispTopology),
    /// The SMP baseline with this many cores.
    Smp {
        /// Number of cores.
        cores: usize,
    },
    /// A single MISP sequencer (the "1P" baseline Figure 4 divides by).
    Serial,
}

impl Machine {
    /// A MISP machine (convenience constructor mirroring the variants).
    #[must_use]
    pub fn misp(topology: MispTopology) -> Self {
        Machine::Misp(topology)
    }

    /// The SMP baseline with `cores` cores.
    #[must_use]
    pub fn smp(cores: usize) -> Self {
        Machine::Smp { cores }
    }

    /// Rejects a machine that cannot be assembled: an SMP machine needs at
    /// least one core.  (A [`MispTopology`] is validated when it is built.)
    fn validate(&self) -> Result<()> {
        match self {
            Machine::Smp { cores: 0 } => Err(MispError::InvalidConfiguration(
                "an SMP machine needs at least one core".to_string(),
            )),
            _ => Ok(()),
        }
    }
}

/// What a [`Run`] executes: a catalog workload or an open-loop scenario.
#[derive(Debug, Clone)]
enum Source<'a> {
    Workload(&'a Workload),
    Scenario(&'a Scenario),
}

/// A single simulation run, assembled with a builder.
///
/// Start from [`Run::workload`] or [`Run::scenario`], chain the optional
/// pieces — [`machine`](Run::machine), [`config`](Run::config),
/// [`workers`](Run::workers), [`options`](Run::options),
/// [`seed`](Run::seed) — and call [`execute`](Run::execute).
///
/// Defaults: a [`Machine::Serial`] run of 8 workers with
/// [`SimConfig::default`], default [`RunOptions`], and seed 0.
///
/// The shredded application gets one OS thread per MISP processor (or SMP
/// core), as in the paper's MP experiments.  With
/// [`RunOptions::ams_span_only`] the application instead spans only the
/// processors that have AMSs, leaving plain single-sequencer CPUs (the
/// uneven Figure 7 configurations) to the OS for competitor processes.
#[derive(Debug, Clone)]
pub struct Run<'a> {
    source: Source<'a>,
    machine: Machine,
    config: SimConfig,
    workers: usize,
    options: RunOptions,
    seed: u64,
}

impl<'a> Run<'a> {
    /// Starts a run of a catalog workload.
    #[must_use]
    pub fn workload(workload: &'a Workload) -> Self {
        Run {
            source: Source::Workload(workload),
            machine: Machine::Serial,
            config: SimConfig::default(),
            workers: 8,
            options: RunOptions::default(),
            seed: 0,
        }
    }

    /// Starts a run of an open-loop request-serving scenario.  The seed (see
    /// [`Run::seed`]) selects the recorded customer stream; replaying the
    /// same seed against different machines gives paired comparisons.
    #[must_use]
    pub fn scenario(scenario: &'a Scenario) -> Self {
        Run {
            source: Source::Scenario(scenario),
            machine: Machine::Serial,
            config: SimConfig::default(),
            workers: 8,
            options: RunOptions::default(),
            seed: 0,
        }
    }

    /// Selects the machine (default: [`Machine::Serial`]).
    #[must_use]
    pub fn machine(mut self, machine: Machine) -> Self {
        self.machine = machine;
        self
    }

    /// Shorthand for `.machine(Machine::Misp(topology))`.
    #[must_use]
    pub fn topology(self, topology: MispTopology) -> Self {
        self.machine(Machine::Misp(topology))
    }

    /// Sets the simulation configuration (default: [`SimConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the number of worker shreds of a workload run (default: 8).
    /// Scenario runs size themselves from the recorded stream instead.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the run options (default: [`RunOptions::default`]).
    #[must_use]
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the stream seed of a scenario run (default: 0).  Ignored for
    /// workload runs, which are fully deterministic without one.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the programs and the scheduler, assembles the machine, and
    /// runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// [`MispError::InvalidConfiguration`] if a workload run has zero
    /// workers or the machine is an SMP machine with zero cores.  Propagates
    /// simulation errors (budget exhaustion, deadlock).
    pub fn execute(self) -> Result<SimReport> {
        self.machine.validate()?;
        if matches!(self.source, Source::Workload(_)) && self.workers == 0 {
            return Err(MispError::InvalidConfiguration(
                "a workload run needs at least one worker".to_string(),
            ));
        }
        let mut library = ProgramLibrary::new();
        let (name, scheduler) = match self.source {
            Source::Workload(w) => {
                let scheduler = if self.options.pretouch {
                    w.build_with_pretouch(&mut library, self.workers)
                } else {
                    w.build(&mut library, self.workers)
                };
                (w.name(), scheduler)
            }
            Source::Scenario(s) => (s.name(), s.build(&mut library, self.seed)),
        };
        let competitor_programs: Vec<_> = (0..self.options.competitors)
            .map(|i| {
                competitor::competitor_program(&mut library, i, self.options.competitor_cycles)
            })
            .collect();

        match self.machine {
            Machine::Misp(ref topology) => {
                let mut machine = MispMachine::new(topology.clone(), self.config, library);
                if let Some(policy) = self.options.ring_policy {
                    machine.engine_mut().platform_mut().set_policy(policy);
                }
                let pid = machine.add_process(name, Box::new(scheduler), Some(0));
                for proc_idx in 1..topology.processors().len() {
                    if !self.options.ams_span_only
                        || !topology.processors()[proc_idx].ams().is_empty()
                    {
                        machine.add_thread(pid, Some(proc_idx));
                    }
                }
                for program in competitor_programs {
                    machine.add_process(
                        "competitor",
                        Box::new(competitor::competitor_runtime(program)),
                        None,
                    );
                }
                if self.options.competitors > 0 {
                    machine.set_measured(vec![pid]);
                }
                machine.run()
            }
            Machine::Smp { cores } => {
                let mut machine = SmpMachine::new(cores, self.config, library);
                let pid = machine.add_process(name, Box::new(scheduler), Some(0));
                for core in 1..cores {
                    machine.add_thread(pid, Some(core));
                }
                for program in competitor_programs {
                    machine.add_process(
                        "competitor",
                        Box::new(competitor::competitor_runtime(program)),
                        None,
                    );
                }
                if self.options.competitors > 0 {
                    machine.set_measured(vec![pid]);
                }
                machine.run()
            }
            Machine::Serial => {
                let topology =
                    MispTopology::uniprocessor(0).expect("single-sequencer topology is valid");
                Run {
                    machine: Machine::Misp(topology),
                    ..self
                }
                .execute()
            }
        }
    }

    /// Runs the scenario against a whole fleet: the central customer stream
    /// is recorded at the fleet's aggregate arrival rate and dispatched across
    /// `fleet.machines()` identical copies of the selected machine by the
    /// topology's load-balancer policy, each arrival shifted by the
    /// topology's network latency (the dispatch hop).
    ///
    /// Each machine runs its own generator replaying its slice of the
    /// stream, independently of the others, so per-machine service
    /// statistics and the fleet aggregate both come out of one deterministic
    /// run.
    ///
    /// # Errors
    ///
    /// [`MispError::InvalidConfiguration`] if the run's source is a catalog
    /// workload rather than a scenario, if competitor processes were
    /// requested (fleet machines serve only their request stream), or if the
    /// machine is an SMP machine with zero cores.  Propagates simulation
    /// errors (budget exhaustion, deadlock).
    pub fn execute_fleet(self, fleet: &FleetTopology) -> Result<FleetReport> {
        self.machine.validate()?;
        let scenario = match self.source {
            Source::Scenario(s) => s,
            Source::Workload(_) => {
                return Err(MispError::InvalidConfiguration(
                    "fleet runs serve request scenarios; catalog workloads run on one machine"
                        .to_string(),
                ));
            }
        };
        if self.options.competitors > 0 {
            return Err(MispError::InvalidConfiguration(
                "competitor processes are not supported on fleet runs".to_string(),
            ));
        }
        let streams = scenario.fleet_streams(self.seed, fleet);

        match self.machine {
            Machine::Misp(ref topology) => {
                let mut engine = FleetEngine::new(fleet.network_latency());
                for stream in &streams.per_machine {
                    let mut library = ProgramLibrary::new();
                    let scheduler = scenario.build_from_stream(&mut library, stream);
                    let mut machine = MispMachine::new(topology.clone(), self.config, library);
                    if let Some(policy) = self.options.ring_policy {
                        machine.engine_mut().platform_mut().set_policy(policy);
                    }
                    let pid = machine.add_process(scenario.name(), Box::new(scheduler), Some(0));
                    for proc_idx in 1..topology.processors().len() {
                        if !self.options.ams_span_only
                            || !topology.processors()[proc_idx].ams().is_empty()
                        {
                            machine.add_thread(pid, Some(proc_idx));
                        }
                    }
                    engine.add_machine(machine.into_sim_machine());
                }
                engine.run_fleet()
            }
            Machine::Smp { cores } => {
                let mut engine = FleetEngine::new(fleet.network_latency());
                for stream in &streams.per_machine {
                    let mut library = ProgramLibrary::new();
                    let scheduler = scenario.build_from_stream(&mut library, stream);
                    let mut machine = SmpMachine::new(cores, self.config, library);
                    let pid = machine.add_process(scenario.name(), Box::new(scheduler), Some(0));
                    for core in 1..cores {
                        machine.add_thread(pid, Some(core));
                    }
                    engine.add_machine(machine.into_sim_machine());
                }
                engine.run_fleet()
            }
            Machine::Serial => {
                let topology =
                    MispTopology::uniprocessor(0).expect("single-sequencer topology is valid");
                Run {
                    machine: Machine::Misp(topology),
                    ..self
                }
                .execute_fleet(fleet)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, scenario};
    use misp_os::TimerConfig;

    fn quick_config() -> SimConfig {
        SimConfig {
            timer: TimerConfig::new(misp_types::Cycles::new(3_000_000), 10),
            ..SimConfig::default()
        }
    }

    fn misp8() -> Machine {
        Machine::misp(MispTopology::uniprocessor(7).unwrap())
    }

    #[test]
    fn dense_mvm_speeds_up_on_misp_and_smp() {
        let w = catalog::by_name("dense_mvm").unwrap();
        let serial = Run::workload(&w).config(quick_config()).execute().unwrap();
        let misp = Run::workload(&w)
            .machine(misp8())
            .config(quick_config())
            .execute()
            .unwrap();
        let smp = Run::workload(&w)
            .machine(Machine::smp(8))
            .config(quick_config())
            .execute()
            .unwrap();
        let misp_speedup = serial.total_cycles.as_f64() / misp.total_cycles.as_f64();
        let smp_speedup = serial.total_cycles.as_f64() / smp.total_cycles.as_f64();
        assert!(misp_speedup > 4.5, "MISP speedup {misp_speedup:.2}");
        assert!(smp_speedup > 4.5, "SMP speedup {smp_speedup:.2}");
        let relative = (misp_speedup - smp_speedup).abs() / smp_speedup;
        assert!(
            relative < 0.10,
            "MISP and SMP should be within a few percent, got {relative:.3}"
        );
    }

    #[test]
    fn worker_page_faults_become_proxy_events_on_misp() {
        let w = catalog::by_name("sparse_mvm_sym").unwrap();
        let report = Run::workload(&w)
            .machine(misp8())
            .config(quick_config())
            .execute()
            .unwrap();
        assert!(
            report.stats.ams_events.page_faults > 0,
            "workers on AMSs must fault via proxy execution"
        );
        assert_eq!(report.stats.ams_events.syscalls, 0);
        assert!(report.stats.oms_events.page_faults > 0);
        // On the SMP baseline the same workload has no proxy executions.
        let smp = Run::workload(&w)
            .machine(Machine::smp(8))
            .config(quick_config())
            .execute()
            .unwrap();
        assert_eq!(smp.stats.proxy_executions, 0);
    }

    #[test]
    fn competitors_slow_the_measured_application() {
        let w = catalog::by_name("dense_mvm").unwrap();
        let topo = MispTopology::config_uneven(3, 4);
        let loaded = Run::workload(&w)
            .topology(topo.clone())
            .config(quick_config())
            .options(RunOptions {
                competitors: 2,
                competitor_cycles: 4_000_000_000,
                ams_span_only: true,
                ..RunOptions::default()
            })
            .execute()
            .unwrap();
        let unloaded = Run::workload(&w)
            .topology(topo)
            .config(quick_config())
            .options(RunOptions {
                ams_span_only: true,
                ..RunOptions::default()
            })
            .execute()
            .unwrap();
        assert!(
            loaded.total_cycles >= unloaded.total_cycles,
            "competitor load must not speed the application up"
        );
        // Only the application is measured, so exactly one completion is
        // reported even though three processes ran.
        assert_eq!(loaded.stats.process_completion.len(), 1);
    }

    #[test]
    fn ring_policy_option_matches_direct_platform_configuration() {
        let w = catalog::by_name("kmeans").unwrap();
        let via_options = Run::workload(&w)
            .machine(misp8())
            .config(quick_config())
            .options(RunOptions {
                ring_policy: Some(misp_core::RingPolicy::Speculative),
                ..RunOptions::default()
            })
            .execute()
            .unwrap();
        let baseline = Run::workload(&w)
            .machine(misp8())
            .config(quick_config())
            .execute()
            .unwrap();
        assert!(via_options.total_cycles <= baseline.total_cycles);
    }

    #[test]
    fn pretouch_eliminates_ams_page_faults() {
        let w = catalog::by_name("sparse_mvm").unwrap();
        let base = Run::workload(&w)
            .machine(misp8())
            .config(quick_config())
            .execute()
            .unwrap();
        let pretouch = Run::workload(&w)
            .machine(misp8())
            .config(quick_config())
            .options(RunOptions {
                pretouch: true,
                ..RunOptions::default()
            })
            .execute()
            .unwrap();
        assert!(base.stats.ams_events.page_faults > 0);
        assert_eq!(
            pretouch.stats.ams_events.page_faults, 0,
            "pre-touching moves every fault into the serial region"
        );
        assert!(
            pretouch.stats.oms_events.page_faults > base.stats.oms_events.page_faults,
            "the faults move to the OMS rather than disappearing"
        );
    }

    #[test]
    fn scenario_run_reports_service_statistics() {
        let s = scenario::by_name("poisson").unwrap().with_requests(50);
        let report = Run::scenario(&s)
            .machine(misp8())
            .config(quick_config())
            .seed(42)
            .execute()
            .unwrap();
        let service = report.stats.service.as_ref().expect("service stats");
        assert_eq!(service.admitted, 50);
        assert_eq!(service.completed, 50);
        assert!(service.latency.value_at_quantile(50, 100) > 0);
    }

    #[test]
    fn crn_pairing_gives_identical_streams_across_machines() {
        // The same seed must replay the identical customer stream on MISP
        // and SMP: identical admission counts and identical scheduled
        // arrivals (the paired-comparison property).
        let s = scenario::by_name("bursty").unwrap().with_requests(40);
        let misp = Run::scenario(&s)
            .machine(misp8())
            .config(quick_config())
            .seed(7)
            .execute()
            .unwrap();
        let smp = Run::scenario(&s)
            .machine(Machine::smp(8))
            .config(quick_config())
            .seed(7)
            .execute()
            .unwrap();
        let a = misp.stats.service.as_ref().unwrap();
        let b = smp.stats.service.as_ref().unwrap();
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.dropped, b.dropped);
    }

    #[test]
    fn fleet_run_serves_every_dispatched_request() {
        let s = scenario::by_name("poisson").unwrap().with_requests(60);
        let fleet =
            misp_core::FleetTopology::new(4, misp_core::LoadBalancerPolicy::RoundRobin).unwrap();
        let report = Run::scenario(&s)
            .machine(misp8())
            .config(quick_config())
            .seed(11)
            .execute_fleet(&fleet)
            .unwrap();
        assert_eq!(report.reports.len(), 4);
        let aggregate = report.aggregate_service().expect("service stats");
        assert_eq!(aggregate.admitted, 60);
        assert_eq!(aggregate.completed, 60);
        assert_eq!(aggregate.dropped, 0);
        for machine in &report.reports {
            let service = machine.stats.service.as_ref().expect("per-machine stats");
            assert_eq!(service.admitted, 15, "round robin splits 60 four ways");
        }
    }

    #[test]
    fn fleet_runs_are_deterministic_and_paired_across_machine_types() {
        let s = scenario::by_name("bursty").unwrap().with_requests(40);
        let fleet =
            misp_core::FleetTopology::new(2, misp_core::LoadBalancerPolicy::Random).unwrap();
        let misp_a = Run::scenario(&s)
            .machine(misp8())
            .config(quick_config())
            .seed(3)
            .execute_fleet(&fleet)
            .unwrap();
        let misp_b = Run::scenario(&s)
            .machine(misp8())
            .config(quick_config())
            .seed(3)
            .execute_fleet(&fleet)
            .unwrap();
        assert_eq!(misp_a.fleet_digest, misp_b.fleet_digest);
        // Common random numbers: the SMP fleet under the same seed serves
        // the identical dispatch, machine by machine.
        let smp = Run::scenario(&s)
            .machine(Machine::smp(8))
            .config(quick_config())
            .seed(3)
            .execute_fleet(&fleet)
            .unwrap();
        for (m, (a, b)) in misp_a.reports.iter().zip(&smp.reports).enumerate() {
            let a = a.stats.service.as_ref().unwrap();
            let b = b.stats.service.as_ref().unwrap();
            assert_eq!(a.admitted, b.admitted, "machine {m}");
            assert_eq!(a.dropped, b.dropped, "machine {m}");
        }
    }

    #[test]
    fn fleet_rejects_workload_sources_and_competitors() {
        let w = catalog::by_name("dense_mvm").unwrap();
        let fleet =
            misp_core::FleetTopology::new(2, misp_core::LoadBalancerPolicy::RoundRobin).unwrap();
        assert!(Run::workload(&w).execute_fleet(&fleet).is_err());
        let s = scenario::by_name("poisson").unwrap().with_requests(10);
        let denied = Run::scenario(&s)
            .options(RunOptions {
                competitors: 1,
                ..RunOptions::default()
            })
            .execute_fleet(&fleet);
        assert!(denied.is_err());
    }

    #[test]
    fn zero_workers_is_a_configuration_error_not_a_panic() {
        let w = catalog::by_name("dense_mvm").unwrap();
        for machine in [Machine::Serial, misp8(), Machine::smp(8)] {
            let err = Run::workload(&w).machine(machine).workers(0).execute();
            assert!(
                matches!(err, Err(MispError::InvalidConfiguration(_))),
                "{err:?}"
            );
        }
    }

    #[test]
    fn zero_core_smp_is_a_configuration_error_not_a_panic() {
        let w = catalog::by_name("dense_mvm").unwrap();
        let err = Run::workload(&w)
            .machine(Machine::smp(0))
            .workers(1)
            .execute();
        assert!(
            matches!(err, Err(MispError::InvalidConfiguration(_))),
            "{err:?}"
        );
        let s = scenario::by_name("poisson").unwrap();
        let fleet = FleetTopology::new(2, misp_core::LoadBalancerPolicy::RoundRobin).unwrap();
        let err = Run::scenario(&s)
            .machine(Machine::smp(0))
            .execute_fleet(&fleet);
        assert!(
            matches!(err, Err(MispError::InvalidConfiguration(_))),
            "{err:?}"
        );
    }
}
