//! Declarative experiment-grid specifications.
//!
//! A [`GridSpec`] describes one sweep — the cross product of workloads,
//! platforms, topologies and configuration overrides behind one figure or
//! table — as plain data.  Every grid point is a [`RunSpec`]; the harness
//! executes grid points independently (they share no state), which is what
//! makes the fan-out in [`crate::run_grid`] embarrassingly parallel.

use misp_cache::CacheConfig;
use misp_core::{FleetTopology, LoadBalancerPolicy, MispTopology, RingPolicy};
use misp_types::{Cycles, SignalCost};

/// How the machine of one grid point is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineSpec {
    /// A single MISP sequencer (the "1P" baseline the figures divide by).
    Serial,
    /// A MISP machine with the given topology.
    Misp(TopologySpec),
    /// The SMP baseline with the given core count.
    Smp {
        /// Number of OS-visible cores.
        cores: usize,
    },
}

impl MachineSpec {
    /// A short machine label for run metadata (`"serial"`, `"misp:1x8"`,
    /// `"smp:8"`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MachineSpec::Serial => "serial".to_string(),
            MachineSpec::Misp(topo) => format!("misp:{}", topo.label()),
            MachineSpec::Smp { cores } => format!("smp:{cores}"),
        }
    }
}

/// The MISP machine partitionings the experiments use, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// One MISP processor: 1 OMS + `ams` AMSs.
    Uniprocessor {
        /// Number of application-managed sequencers.
        ams: usize,
    },
    /// Four MISP processors of 1 OMS + 1 AMS each (the paper's 4×2).
    Quad2,
    /// Two MISP processors of 1 OMS + 3 AMS each (the paper's 2×4).
    Dual4,
    /// One MISP processor of 1 OMS + 7 AMS (the paper's 1×8).
    Single8,
    /// One MISP processor of 1 OMS + `ams` AMSs plus `singles`
    /// single-sequencer CPUs (the paper's uneven partitionings).
    Uneven {
        /// AMS count of the MISP processor.
        ams: usize,
        /// Number of additional plain CPUs.
        singles: usize,
    },
}

impl TopologySpec {
    /// Builds the concrete topology.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniprocessor` spec exceeds the machine's sequencer
    /// budget; grid declarations are static data, so this is a programming
    /// error, not an input error.
    #[must_use]
    pub fn build(&self) -> MispTopology {
        match *self {
            TopologySpec::Uniprocessor { ams } => {
                MispTopology::uniprocessor(ams).expect("valid uniprocessor topology")
            }
            TopologySpec::Quad2 => MispTopology::config_4x2(),
            TopologySpec::Dual4 => MispTopology::config_2x4(),
            TopologySpec::Single8 => MispTopology::config_1x8(),
            TopologySpec::Uneven { ams, singles } => MispTopology::config_uneven(ams, singles),
        }
    }

    /// A short label for run metadata (`"1x8"`, `"4x2"`, `"1x4+4"`, …).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::Uniprocessor { ams } => format!("1x{}", ams + 1),
            TopologySpec::Quad2 => "4x2".to_string(),
            TopologySpec::Dual4 => "2x4".to_string(),
            TopologySpec::Single8 => "1x8".to_string(),
            TopologySpec::Uneven { ams, singles } => format!("1x{}+{singles}", ams + 1),
        }
    }
}

/// What a simulation grid point runs: a fixed-size catalog workload or an
/// open-loop request-serving scenario.  Grids declare both uniformly through
/// [`SimSpec::workload`] and [`SimSpec::scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkSource {
    /// A catalog workload, by name (`misp_workloads::catalog`).
    Workload(String),
    /// An open-loop request-serving scenario with optional overrides.
    Scenario(ScenarioSpec),
}

/// A request-serving scenario reference: a catalog name
/// (`misp_workloads::scenario`) plus the grid-level overrides.  Everything
/// left `None` keeps the scenario's catalog default.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario catalog name (`"poisson"`, `"bursty"`, `"diurnal"`).
    pub name: String,
    /// Override of the number of requests in the stream.
    pub requests: Option<usize>,
    /// Override of the offered load, in percent of pool capacity.
    pub offered_load: Option<u32>,
    /// Override of the dispatch-gate pool width (the arrival rate stays
    /// derived from the nominal width — the common-random-numbers handle).
    pub pool_width: Option<usize>,
    /// Bound on outstanding requests; arrivals beyond it are dropped.
    pub queue_bound: Option<usize>,
}

impl ScenarioSpec {
    /// References the named catalog scenario with no overrides.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            requests: None,
            offered_load: None,
            pool_width: None,
            queue_bound: None,
        }
    }

    /// Overrides the number of requests in the stream.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = Some(requests);
        self
    }

    /// Overrides the offered load (percent of pool capacity).
    #[must_use]
    pub fn with_offered_load(mut self, pct: u32) -> Self {
        self.offered_load = Some(pct);
        self
    }

    /// Overrides the dispatch-gate pool width.
    #[must_use]
    pub fn with_pool_width(mut self, width: usize) -> Self {
        self.pool_width = Some(width);
        self
    }

    /// Bounds outstanding requests.
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound);
        self
    }
}

/// The fleet shape of a scenario grid point: how many identical machines the
/// request stream is balanced across, under which policy, and how far apart
/// they sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of identical machines in the fleet.
    pub machines: usize,
    /// The load-balancer policy dispatching requests to machines.
    pub policy: LoadBalancerPolicy,
    /// Cross-machine network latency override, in cycles; `None` keeps
    /// [`FleetTopology::DEFAULT_NETWORK_LATENCY`].
    pub network_latency: Option<u64>,
}

impl FleetSpec {
    /// A fleet of `machines` boxes under `policy` with the default network
    /// latency.
    #[must_use]
    pub fn new(machines: usize, policy: LoadBalancerPolicy) -> Self {
        FleetSpec {
            machines,
            policy,
            network_latency: None,
        }
    }

    /// Overrides the cross-machine network latency, in cycles.
    #[must_use]
    pub fn with_network_latency(mut self, cycles: u64) -> Self {
        self.network_latency = Some(cycles);
        self
    }

    /// Builds the concrete fleet topology.
    ///
    /// # Panics
    ///
    /// Panics on a zero machine count or zero latency; grid declarations are
    /// static data, so either is a programming error, not an input error.
    #[must_use]
    pub fn build(&self) -> FleetTopology {
        match self.network_latency {
            Some(cycles) => {
                FleetTopology::with_network_latency(self.machines, self.policy, Cycles::new(cycles))
            }
            None => FleetTopology::new(self.machines, self.policy),
        }
        .expect("valid fleet spec")
    }

    /// A short label for run ids (`"fleet16-rr"`).
    #[must_use]
    pub fn label(&self) -> String {
        format!("fleet{}-{}", self.machines, self.policy.label())
    }
}

/// What one grid point computes.
#[derive(Debug, Clone, PartialEq)]
pub enum RunKind {
    /// A full simulation of a catalog workload on a machine.  Boxed: the
    /// spec dwarfs the other variants, and grid declarations are cold data.
    Sim(Box<SimSpec>),
    /// A structural description of a topology (Figure 6 has no runtime
    /// component).
    Topology(TopologySpec),
    /// A ShredLib porting-coverage analysis of a Table 2 application.
    PortAnalysis {
        /// The application name, as in `catalog::table2_applications`.
        application: String,
    },
}

/// The simulation parameters of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// What the point runs: a catalog workload or a scenario.
    pub source: WorkSource,
    /// The machine to run on.
    pub machine: MachineSpec,
    /// Number of worker shreds (workload runs; scenario runs size themselves
    /// from the recorded stream and carry 0 here).
    pub workers: usize,
    /// Signal-cost override; `None` uses the paper's 5000-cycle default.
    pub signal: Option<SignalCost>,
    /// Enable the Section 5.3 page pre-touch optimization.
    pub pretouch: bool,
    /// Ring-transition policy override (MISP machines only).
    pub ring_policy: Option<RingPolicy>,
    /// Number of single-threaded competitor processes (Figure 7 load).
    pub competitors: usize,
    /// Restrict the application's OS threads to MISP processors with AMSs
    /// (the Figure 7 spanning rule); plain single-sequencer CPUs are left to
    /// the OS.  Off by default: plain MP runs span every processor.
    pub ams_span_only: bool,
    /// Cache-hierarchy override; `None` keeps the default disabled cache
    /// model (the paper's flat memory cost).
    pub cache: Option<CacheConfig>,
    /// Record a structured trace ring during the run
    /// ([`misp_sim::TraceConfig::enabled`]).  Off by default; tracing never
    /// changes simulation results, only the artifacts attached to the run.
    pub trace: bool,
    /// Interval-metrics sampling period in simulated cycles; `0` (the
    /// default) disables the sampler.
    pub metrics_interval: u64,
    /// Fleet shape for scenario runs: the request stream is balanced across
    /// this many machines, each simulated independently.  `None` (the
    /// default) runs one machine.
    pub fleet: Option<FleetSpec>,
}

impl SimSpec {
    fn with_source(source: WorkSource, machine: MachineSpec, workers: usize) -> Self {
        SimSpec {
            source,
            machine,
            workers,
            signal: None,
            pretouch: false,
            ring_policy: None,
            competitors: 0,
            ams_span_only: false,
            cache: None,
            trace: false,
            metrics_interval: 0,
            fleet: None,
        }
    }

    /// A plain dedicated-machine run of the named catalog workload on
    /// `machine` with `workers` worker shreds; chain the `with_*` setters for
    /// the non-default variants.
    #[must_use]
    pub fn workload(name: impl Into<String>, machine: MachineSpec, workers: usize) -> Self {
        SimSpec::with_source(WorkSource::Workload(name.into()), machine, workers)
    }

    /// An open-loop scenario run on `machine`.  Scenario runs size themselves
    /// from the recorded request stream, so there is no worker count; the
    /// stream seed lives on the enclosing [`RunSpec`]
    /// ([`RunSpec::with_seed`]).
    #[must_use]
    pub fn scenario(scenario: ScenarioSpec, machine: MachineSpec) -> Self {
        SimSpec::with_source(WorkSource::Scenario(scenario), machine, 0)
    }

    /// Sets the signal-cost override (Figure 5 sweep).
    #[must_use]
    pub fn with_signal(mut self, signal: SignalCost) -> Self {
        self.signal = Some(signal);
        self
    }

    /// Enables the Section 5.3 page pre-touch optimization.
    #[must_use]
    pub fn with_pretouch(mut self) -> Self {
        self.pretouch = true;
        self
    }

    /// Sets the ring-transition policy override.
    #[must_use]
    pub fn with_ring_policy(mut self, policy: RingPolicy) -> Self {
        self.ring_policy = Some(policy);
        self
    }

    /// Loads `competitors` single-threaded competitor processes alongside
    /// the measured application (Figure 7).
    #[must_use]
    pub fn with_competitors(mut self, competitors: usize) -> Self {
        self.competitors = competitors;
        self
    }

    /// Restricts the application's OS threads to AMS-carrying processors
    /// (the Figure 7 spanning rule).
    #[must_use]
    pub fn with_ams_span_only(mut self) -> Self {
        self.ams_span_only = true;
        self
    }

    /// Enables the cache-hierarchy model with the given geometry.
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Records a structured trace ring during the run (off by default).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Samples interval metrics every `interval` simulated cycles (`0`
    /// disables the sampler, the default).
    #[must_use]
    pub fn with_metrics_interval(mut self, interval: u64) -> Self {
        self.metrics_interval = interval;
        self
    }

    /// Balances the scenario's request stream across a fleet of identical
    /// machines (scenario runs only; the executor rejects fleet workload
    /// runs).
    #[must_use]
    pub fn with_fleet(mut self, fleet: FleetSpec) -> Self {
        self.fleet = Some(fleet);
        self
    }
}

/// One grid point: an identifier, what to run, an optional baseline
/// reference, and a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Identifier, unique within the grid (e.g. `"dense_mvm/misp"`).
    pub id: String,
    /// What this point computes.
    pub kind: RunKind,
    /// The id of the run this point's speedup is measured against, if any.
    /// The aggregator resolves it after all runs complete.
    pub baseline: Option<String>,
    /// Deterministic seed recorded in the run metadata.  For scenario runs it
    /// selects the recorded request stream (the common-random-numbers
    /// object); the engine itself is strictly deterministic, so for workload
    /// runs it is metadata only.
    pub seed: u64,
}

impl RunSpec {
    /// Creates a simulation grid point.
    #[must_use]
    pub fn sim(id: impl Into<String>, spec: SimSpec) -> Self {
        RunSpec {
            id: id.into(),
            kind: RunKind::Sim(Box::new(spec)),
            baseline: None,
            seed: 0,
        }
    }

    /// Creates a topology-description grid point.
    #[must_use]
    pub fn topology(id: impl Into<String>, topo: TopologySpec) -> Self {
        RunSpec {
            id: id.into(),
            kind: RunKind::Topology(topo),
            baseline: None,
            seed: 0,
        }
    }

    /// Creates a porting-coverage grid point.
    #[must_use]
    pub fn port_analysis(application: impl Into<String>) -> Self {
        let application = application.into();
        RunSpec {
            id: application.clone(),
            kind: RunKind::PortAnalysis { application },
            baseline: None,
            seed: 0,
        }
    }

    /// Sets the baseline run id for speedup aggregation.
    #[must_use]
    pub fn with_baseline(mut self, baseline: impl Into<String>) -> Self {
        self.baseline = Some(baseline.into());
        self
    }

    /// Sets the stream seed (scenario runs; metadata-only for the rest).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A named experiment grid: an ordered list of grid points.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid name (also the default results file stem).
    pub name: String,
    /// One-line description of what the grid reproduces.
    pub description: String,
    /// Family label the CLI groups grids under (`"figures"`, `"tables"`,
    /// `"ablations"`, `"sensitivity"`, `"scenarios"`, …).
    pub family: String,
    /// The grid points, in presentation order.
    pub runs: Vec<RunSpec>,
}

impl GridSpec {
    /// Creates an empty grid in the default `"misc"` family.
    #[must_use]
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        GridSpec {
            name: name.into(),
            description: description.into(),
            family: "misc".to_string(),
            runs: Vec::new(),
        }
    }

    /// Sets the family label the CLI groups this grid under.
    #[must_use]
    pub fn with_family(mut self, family: impl Into<String>) -> Self {
        self.family = family.into();
        self
    }

    /// Appends a grid point.
    pub fn push(&mut self, run: RunSpec) {
        self.runs.push(run);
    }

    /// Appends a grid point, builder style.
    #[must_use]
    pub fn run(mut self, run: RunSpec) -> Self {
        self.runs.push(run);
        self
    }

    /// Asserts that every id is unique and every baseline reference resolves.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id or a dangling baseline; grids are static
    /// declarations, so either is a bug in the grid, not in user input.
    pub fn validate(&self) {
        let mut seen = std::collections::BTreeSet::new();
        for run in &self.runs {
            assert!(
                seen.insert(run.id.as_str()),
                "grid {}: duplicate run id {}",
                self.name,
                run.id
            );
        }
        for run in &self.runs {
            if let Some(baseline) = &run.baseline {
                assert!(
                    seen.contains(baseline.as_str()),
                    "grid {}: run {} references unknown baseline {}",
                    self.name,
                    run.id,
                    baseline
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_labels_match_the_paper() {
        assert_eq!(TopologySpec::Quad2.label(), "4x2");
        assert_eq!(TopologySpec::Dual4.label(), "2x4");
        assert_eq!(TopologySpec::Single8.label(), "1x8");
        assert_eq!(TopologySpec::Uneven { ams: 3, singles: 4 }.label(), "1x4+4");
        assert_eq!(TopologySpec::Uniprocessor { ams: 7 }.label(), "1x8");
    }

    #[test]
    fn topology_specs_build_the_expected_shapes() {
        assert_eq!(TopologySpec::Quad2.build().processors().len(), 4);
        assert_eq!(TopologySpec::Single8.build().total_sequencers(), 8);
        let uneven = TopologySpec::Uneven { ams: 3, singles: 4 }.build();
        assert_eq!(uneven.processors().len(), 5);
        assert_eq!(uneven.total_sequencers(), 8);
    }

    #[test]
    fn machine_labels() {
        assert_eq!(MachineSpec::Serial.label(), "serial");
        assert_eq!(MachineSpec::Smp { cores: 8 }.label(), "smp:8");
        assert_eq!(MachineSpec::Misp(TopologySpec::Single8).label(), "misp:1x8");
    }

    #[test]
    #[should_panic(expected = "duplicate run id")]
    fn validate_rejects_duplicate_ids() {
        let mut grid = GridSpec::new("g", "");
        grid.push(RunSpec::topology("a", TopologySpec::Single8));
        grid.push(RunSpec::topology("a", TopologySpec::Quad2));
        grid.validate();
    }

    #[test]
    #[should_panic(expected = "unknown baseline")]
    fn validate_rejects_dangling_baselines() {
        let mut grid = GridSpec::new("g", "");
        grid.push(RunSpec::topology("a", TopologySpec::Single8).with_baseline("missing"));
        grid.validate();
    }

    #[test]
    fn sim_spec_builders_set_the_fields() {
        let spec = SimSpec::workload("dense_mvm", MachineSpec::Serial, 4)
            .with_signal(SignalCost::Ideal)
            .with_pretouch()
            .with_ring_policy(RingPolicy::Speculative)
            .with_competitors(2)
            .with_ams_span_only()
            .with_trace(true)
            .with_metrics_interval(10_000);
        assert_eq!(spec.source, WorkSource::Workload("dense_mvm".to_string()));
        assert_eq!(spec.signal, Some(SignalCost::Ideal));
        assert!(spec.pretouch);
        assert_eq!(spec.ring_policy, Some(RingPolicy::Speculative));
        assert_eq!(spec.competitors, 2);
        assert!(spec.ams_span_only);
        assert!(spec.cache.is_none());
        assert!(spec.trace);
        assert_eq!(spec.metrics_interval, 10_000);
        let plain = SimSpec::workload("dense_mvm", MachineSpec::Serial, 4);
        assert!(!plain.trace, "tracing is off by default");
        assert_eq!(plain.metrics_interval, 0, "sampler is off by default");
    }

    #[test]
    fn scenario_spec_carries_overrides_and_defaults() {
        let plain = ScenarioSpec::new("poisson");
        assert_eq!(plain.offered_load, None);
        assert_eq!(plain.pool_width, None);
        let tuned = ScenarioSpec::new("poisson")
            .with_requests(200)
            .with_offered_load(90)
            .with_pool_width(1)
            .with_queue_bound(16);
        assert_eq!(tuned.requests, Some(200));
        assert_eq!(tuned.offered_load, Some(90));
        assert_eq!(tuned.pool_width, Some(1));
        assert_eq!(tuned.queue_bound, Some(16));
        let spec = SimSpec::scenario(tuned, MachineSpec::Smp { cores: 8 });
        assert_eq!(spec.workers, 0, "scenarios size themselves");
        assert!(matches!(spec.source, WorkSource::Scenario(_)));
    }

    #[test]
    fn grid_builder_sets_family_and_seed() {
        let grid = GridSpec::new("g", "d")
            .with_family("scenarios")
            .run(RunSpec::topology("a", TopologySpec::Single8).with_seed(7));
        assert_eq!(grid.family, "scenarios");
        assert_eq!(grid.runs[0].seed, 7);
        assert_eq!(GridSpec::new("h", "").family, "misc");
    }

    #[test]
    fn fleet_spec_builds_and_labels_the_topology() {
        let spec = FleetSpec::new(16, LoadBalancerPolicy::RoundRobin);
        assert_eq!(spec.label(), "fleet16-rr");
        let topo = spec.build();
        assert_eq!(topo.machines(), 16);
        assert_eq!(
            topo.network_latency(),
            FleetTopology::DEFAULT_NETWORK_LATENCY
        );
        let near = FleetSpec::new(2, LoadBalancerPolicy::LeastOutstanding)
            .with_network_latency(50_000)
            .build();
        assert_eq!(near.network_latency(), Cycles::new(50_000));
        let sim = SimSpec::scenario(ScenarioSpec::new("poisson"), MachineSpec::Serial)
            .with_fleet(FleetSpec::new(4, LoadBalancerPolicy::Random));
        assert_eq!(sim.fleet.unwrap().machines, 4);
    }
}
