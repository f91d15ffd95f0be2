//! The benchmark's workloads: inputs generated from the seed, and one grid
//! point executed through the layers' public calls.
//!
//! A point makes exactly the calls `Run::execute` / `Run::execute_fleet`
//! make, split so that each layer can be timed on its own: stream
//! generation, program build, machine assembly, then `Machine::start`,
//! `advance(None)` and `finish_report` (or `FleetEngine::run_fleet`), then
//! the harness's record and serialization.

use crate::host::{now, ns};
use crate::spans::{Recorder, MEMBERS, POINT};
use misp_cache::CacheStats;
use misp_core::{FleetTopology, LoadBalancerPolicy, MispMachine, MispTopology};
use misp_harness::{experiment_config, grids, MachineSpec, RunKind, SimMetrics};
use misp_isa::ProgramLibrary;
use misp_sim::{
    FleetEngine, FleetReport, Machine, MachineStatus, Platform, Runtime, SimConfig, SimReport,
};
use misp_smp::SmpMachine;
use misp_types::{Fnv64, MispError, Result, SplitMix64};
use misp_workloads::{
    catalog, scenario, Machine as RunMachine, RequestStream, Run, Scenario, Workload,
    WorkloadParams,
};
use std::hint::black_box;

/// Worker shreds of every catalog-workload point (one per hardware context).
const WORKERS: usize = grids::WORKERS;
/// Requests of the `service` stream.
const SERVICE_REQUESTS: usize = 100_000;
/// Offered load of the `service` stream, percent of pool capacity.
const SERVICE_LOAD: u32 = 90;
/// Machines of the `fleet16` fleet.
const FLEET_MACHINES: usize = 16;
/// Central requests of the `fleet16` stream.
const FLEET_REQUESTS: usize = 64_000;
/// Offered load of the `fleet16` stream, percent of per-machine capacity.
const FLEET_LOAD: u32 = 60;
/// The shared-L2 points of `grids::cache_sensitivity()` the cache workloads
/// run: the thrashing and the fully-fitting capacity.
const CACHE_L2: [&str; 2] = ["l2_128k", "l2_2m"];
/// Bounds of the seeded jitter, per mille: chunk and page counts are scaled
/// by a factor in ×[0.8, 1.25].
const JITTER_PER_MILLE: (u64, u64) = (800, 1250);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Figure 4 sweep.
    Fig4,
    /// One long open-loop service stream.
    Service,
    /// A 16-machine fleet through the windowed synchronizer.
    Fleet16,
    /// Read-only traffic through the cache model.
    CacheStream,
    /// Store traffic to a shared hot set through the cache model.
    CacheShared,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 5] = [
        Kind::Fig4,
        Kind::Service,
        Kind::Fleet16,
        Kind::CacheStream,
        Kind::CacheShared,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig4 => "fig4",
            Kind::Service => "service",
            Kind::Fleet16 => "fleet16",
            Kind::CacheStream => "cache_stream",
            Kind::CacheShared => "cache_shared",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The committed workload digest at [`crate::DEFAULT_SEED`] and full
    /// size (see [`workload_digest`]).  A pure performance change must
    /// leave every one of these unchanged.
    #[must_use]
    pub fn committed_digest(self) -> u64 {
        match self {
            Kind::Fig4 => 0x5712_469e_98ea_3f04,
            Kind::Service => 0xab46_ea69_327b_961b,
            Kind::Fleet16 => 0xf175_bfac_1668_8710,
            Kind::CacheStream => 0xfde5_e067_d3e6_5c74,
            Kind::CacheShared => 0x5032_058e_d6ba_1c49,
        }
    }
}

/// Input size: the benchmark's full size, or a reduced size for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small request streams, so the unit tests run in seconds.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// The machine a point runs on.
#[derive(Debug, Clone)]
enum Target {
    Misp(MispTopology),
    Smp(usize),
}

impl Target {
    fn from_spec(spec: &MachineSpec) -> Target {
        match spec {
            MachineSpec::Serial => Target::Misp(uniprocessor(0)),
            MachineSpec::Misp(topology) => Target::Misp(topology.build()),
            MachineSpec::Smp { cores } => Target::Smp(*cores),
        }
    }

    fn run_machine(&self) -> RunMachine {
        match self {
            Target::Misp(topology) => RunMachine::Misp(topology.clone()),
            Target::Smp(cores) => RunMachine::smp(*cores),
        }
    }
}

fn uniprocessor(ams: usize) -> MispTopology {
    MispTopology::uniprocessor(ams).expect("a uniprocessor topology is valid")
}

/// What a point simulates.
#[derive(Debug, Clone)]
enum Source {
    Workload(Workload),
    Scenario {
        scenario: Scenario,
        seed: u64,
    },
    Fleet {
        scenario: Scenario,
        seed: u64,
        fleet: FleetTopology,
    },
}

/// One grid point: a source on a machine under a configuration.
#[derive(Debug, Clone)]
pub struct Point {
    /// Stable identifier, part of the workload digest.
    pub id: String,
    source: Source,
    target: Target,
    config: SimConfig,
}

/// Simulated results of a point that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointDigest {
    /// Simulated cycles to completion (the fleet's span for fleets).
    pub cycles: u64,
    /// Event-log digest (the fleet digest for fleets).
    pub log: u64,
    /// Per-machine event-log digests (fleets only).
    pub machines: Vec<u64>,
}

impl PointDigest {
    fn single(report: &SimReport) -> Self {
        PointDigest {
            cycles: report.total_cycles.as_u64(),
            log: report.log_digest,
            machines: Vec::new(),
        }
    }

    fn fleet(report: &FleetReport) -> Self {
        PointDigest {
            cycles: report.total_cycles().as_u64(),
            log: report.fleet_digest,
            machines: report.reports.iter().map(|r| r.log_digest).collect(),
        }
    }
}

/// Deterministic counts of one point or repetition, per layer.  Simulated
/// statistics (events, faults, TLB, cache, service) are results; queue and
/// program counts are simulator work that an optimisation may move.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub programs: u64,
    pub program_ops: u64,
    pub ops: u64,
    pub pushes: u64,
    pub pops: u64,
    pub supersessions: u64,
    pub redistributions: u64,
    pub max_len: u64,
    pub proxy_executions: u64,
    pub serializations: u64,
    pub signals_sent: u64,
    pub page_faults: u64,
    pub syscalls: u64,
    pub context_switches: u64,
    pub tlb_hits: u64,
    pub tlb_misses: u64,
    pub cache: CacheStats,
    pub admitted: u64,
    pub completed: u64,
    pub dropped: u64,
}

impl Counts {
    fn add_library(&mut self, library: &ProgramLibrary) {
        self.programs += library.len() as u64;
        self.program_ops += library.iter().map(|(_, p)| p.flat_len()).sum::<u64>();
    }

    fn add_report(&mut self, report: &SimReport) {
        let s = &report.stats;
        self.ops += s.per_sequencer.iter().map(|u| u.ops).sum::<u64>();
        self.pushes += report.queue.pushes;
        self.pops += report.queue.pops;
        self.supersessions += report.queue.supersessions;
        self.redistributions += report.queue.redistributions;
        self.max_len = self.max_len.max(report.queue.max_len);
        self.proxy_executions += s.proxy_executions;
        self.serializations += s.serializations;
        self.signals_sent += s.signals_sent;
        self.page_faults += s.oms_events.page_faults + s.ams_events.page_faults;
        self.syscalls += s.oms_events.syscalls + s.ams_events.syscalls;
        self.context_switches += s.context_switches;
        self.tlb_hits += s.tlb.hits;
        self.tlb_misses += s.tlb.misses;
        if let Some(cache) = &s.cache {
            self.cache.merge(cache);
        }
        if let Some(service) = &s.service {
            self.admitted += service.admitted;
            self.completed += service.completed;
            self.dropped += service.dropped;
        }
    }

    /// Folds `other` (another point of the same repetition) into `self`.
    pub fn absorb(&mut self, other: &Counts) {
        self.programs += other.programs;
        self.program_ops += other.program_ops;
        self.ops += other.ops;
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.supersessions += other.supersessions;
        self.redistributions += other.redistributions;
        self.max_len = self.max_len.max(other.max_len);
        self.proxy_executions += other.proxy_executions;
        self.serializations += other.serializations;
        self.signals_sent += other.signals_sent;
        self.page_faults += other.page_faults;
        self.syscalls += other.syscalls;
        self.context_switches += other.context_switches;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.cache.merge(&other.cache);
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.dropped += other.dropped;
    }
}

/// The outcome of one point through the split calls.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Simulated results.
    pub digest: PointDigest,
    /// Host time before the first event: streams, build, assembly and
    /// `Machine::start` (up to `run_fleet` for fleets, whose machines start
    /// inside it).
    pub setup_ns: u64,
    /// Host time of `start` + `advance` + `finish_report` (`run_fleet`).
    pub sim_ns: u64,
    /// Deterministic counts; program counts only when tracing.
    pub counts: Counts,
}

/// Generates the points of `kind` from `seed`.  Equal arguments give equal
/// points; the simulator receives nothing else.
#[must_use]
pub fn generate(kind: Kind, seed: u64, size: Size) -> Vec<Point> {
    let config = experiment_config();
    match kind {
        Kind::Fig4 => {
            let mut rng = SplitMix64::new(seed);
            let mut points = Vec::new();
            for w in catalog::all() {
                for (tag, w) in jitter_pair(&w, &mut rng.fork()) {
                    for (label, target) in [
                        ("serial", Target::Misp(uniprocessor(0))),
                        ("misp", Target::Misp(uniprocessor(grids::SEQUENCERS - 1))),
                        ("smp", Target::Smp(grids::SEQUENCERS)),
                    ] {
                        points.push(Point {
                            id: format!("{}/{tag}/{label}", w.name()),
                            source: Source::Workload(w.clone()),
                            target,
                            config,
                        });
                    }
                }
            }
            points
        }
        Kind::CacheStream => cache_points(&["stream_walk", "blocked_walk"], seed),
        Kind::CacheShared => cache_points(&["hotset_update"], seed),
        Kind::Service => {
            let requests = match size {
                Size::Full => SERVICE_REQUESTS,
                Size::Smoke => SERVICE_REQUESTS / 50,
            };
            let scenario = poisson(SERVICE_LOAD, requests);
            machine_pair("service", config, |_| Source::Scenario {
                scenario: scenario.clone(),
                seed,
            })
        }
        Kind::Fleet16 => {
            let requests = match size {
                Size::Full => FLEET_REQUESTS,
                Size::Smoke => FLEET_REQUESTS / 20,
            };
            let scenario = poisson(FLEET_LOAD, requests);
            let fleet = FleetTopology::new(FLEET_MACHINES, LoadBalancerPolicy::RoundRobin)
                .expect("a 16-machine fleet is valid");
            machine_pair("fleet16", config, |_| Source::Fleet {
                scenario: scenario.clone(),
                seed,
                fleet: fleet.clone(),
            })
        }
    }
}

fn poisson(load: u32, requests: usize) -> Scenario {
    scenario::by_name("poisson")
        .expect("the catalog has a poisson scenario")
        .with_offered_load(load)
        .with_requests(requests)
}

/// The MISP (1 OMS + 7 AMS) and SMP (8 cores) points of one source, which
/// replay the identical inputs (common random numbers).
fn machine_pair(prefix: &str, config: SimConfig, source: impl Fn(()) -> Source) -> Vec<Point> {
    [
        ("misp", Target::Misp(uniprocessor(grids::SEQUENCERS - 1))),
        ("smp", Target::Smp(grids::SEQUENCERS)),
    ]
    .into_iter()
    .map(|(label, target)| Point {
        id: format!("{prefix}/{label}"),
        source: source(()),
        target,
        config,
    })
    .collect()
}

/// The `cache_sensitivity` grid points of `variants` at the [`CACHE_L2`]
/// capacities, each variant as a jittered pair (see [`jitter_pair`]).
fn cache_points(variants: &[&str], seed: u64) -> Vec<Point> {
    let grid = grids::cache_sensitivity();
    let mut rng = SplitMix64::new(seed);
    let mut points = Vec::new();
    for &variant in variants {
        let w = catalog::by_name(variant).expect("cache variant is in the catalog");
        for (tag, w) in jitter_pair(&w, &mut rng.fork()) {
            for machine in ["misp", "smp"] {
                for l2 in CACHE_L2 {
                    let grid_id = format!("{variant}/{machine}/{l2}");
                    let spec = grid
                        .runs
                        .iter()
                        .find_map(|r| match &r.kind {
                            RunKind::Sim(sim) if r.id == grid_id => Some(sim),
                            _ => None,
                        })
                        .expect("cache_sensitivity declares the point");
                    let cache = spec
                        .cache
                        .expect("cache_sensitivity points model the cache");
                    points.push(Point {
                        id: format!("{variant}/{tag}/{machine}/{l2}"),
                        source: Source::Workload(w.clone()),
                        target: Target::from_spec(&spec.machine),
                        config: experiment_config().with_cache(cache),
                    });
                }
            }
        }
    }
    points
}

/// Two variants of `w` with chunk and page counts scaled by seeded factors
/// in ×[0.8, 1.25]: variant `a` by the factors, variant `b` by their
/// reciprocals (also in range), so a pair simulates about the same work
/// whatever the seed.  Total work is unchanged in both.
fn jitter_pair(w: &Workload, rng: &mut SplitMix64) -> [(&'static str, Workload); 2] {
    let (lo, hi) = JITTER_PER_MILLE;
    let factors: [u64; 3] = std::array::from_fn(|_| lo + rng.next_u64() % (hi - lo + 1));
    let variant = |inverse: bool| {
        let scale = |count: u64, per_mille: u64| {
            let per_mille = if inverse {
                (1_000_000 + per_mille / 2) / per_mille
            } else {
                per_mille
            };
            if count == 0 {
                0
            } else {
                ((count * per_mille + 500) / 1000).max(1)
            }
        };
        let p = w.params();
        let params = WorkloadParams {
            chunks_per_worker: scale(p.chunks_per_worker, factors[0]),
            worker_pages: scale(p.worker_pages, factors[1]),
            main_pages: scale(p.main_pages, factors[2]),
            ..*p
        };
        Workload::new(w.name(), w.suite(), params)
    };
    [("a", variant(false)), ("b", variant(true))]
}

/// FNV-64 over each point's `(id, cycles, log digest)` plus its
/// per-machine digests, in point order.
#[must_use]
pub fn workload_digest(points: &[Point], digests: &[PointDigest]) -> u64 {
    let mut h = Fnv64::new();
    for (point, d) in points.iter().zip(digests) {
        for b in point.id.bytes() {
            h.write_u64(u64::from(b));
        }
        h.write_u64(d.cycles);
        h.write_u64(d.log);
        for &m in &d.machines {
            h.write_u64(m);
        }
    }
    h.finish()
}

/// The MISP machine `Run::execute` assembles: the application's first
/// thread on processor 0, one more thread per further processor.
fn misp_machine(
    topology: &MispTopology,
    config: SimConfig,
    library: ProgramLibrary,
    name: &str,
    runtime: Box<dyn Runtime>,
) -> Machine<misp_core::MispPlatform> {
    let mut machine = MispMachine::new(topology.clone(), config, library);
    let pid = machine.add_process(name, runtime, Some(0));
    for processor in 1..topology.processors().len() {
        machine.add_thread(pid, Some(processor));
    }
    machine.into_sim_machine()
}

/// The SMP machine `Run::execute` assembles: one thread per core.
fn smp_machine(
    cores: usize,
    config: SimConfig,
    library: ProgramLibrary,
    name: &str,
    runtime: Box<dyn Runtime>,
) -> Machine<misp_smp::SmpPlatform> {
    let mut machine = SmpMachine::new(cores, config, library);
    let pid = machine.add_process(name, runtime, Some(0));
    for core in 1..cores {
        machine.add_thread(pid, Some(core));
    }
    machine.into_sim_machine()
}

/// A machine's report and when its set-up ended.
struct Simulated {
    report: SimReport,
    setup_end: std::time::Instant,
    sim_ns: u64,
}

/// `start`, `advance(None)` and `finish_report` on an assembled machine,
/// exactly the single-machine loop of `Engine::run`.
fn simulate<P: Platform>(mut machine: Machine<P>, rec: &mut Recorder) -> Result<Simulated> {
    let begin = now();
    rec.span("sim.start", || machine.start())?;
    let setup_end = now();
    let status = rec.span("sim.advance", || machine.advance(None))?;
    if status != MachineStatus::Finished {
        return Err(machine.deadlock_error());
    }
    let report = rec.span("sim.report", || machine.finish_report());
    let sim_ns = ns(begin, now());
    rec.span("teardown", || drop(machine));
    Ok(Simulated {
        report,
        setup_end,
        sim_ns,
    })
}

/// The harness's per-record work: flatten a report and serialize it.
fn record(rec: &mut Recorder, report: &SimReport) {
    let metrics = rec.span("harness.record", || SimMetrics::from_report(report));
    let json = rec.span("harness.serialize", || {
        serde_json::to_string(&metrics).expect("SimMetrics serializes")
    });
    black_box(json);
}

impl Point {
    fn name(&self) -> &'static str {
        match &self.source {
            Source::Workload(w) => w.name(),
            Source::Scenario { scenario, .. } | Source::Fleet { scenario, .. } => scenario.name(),
        }
    }

    /// Runs the point through the split calls, inside a root span.
    ///
    /// # Errors
    ///
    /// Whatever the simulator returns: budget exhaustion or deadlock.
    pub fn run(&self, index: u32, rec: &mut Recorder) -> Result<PointRun> {
        let config = self.config;
        let name = self.name();
        rec.root(POINT, index, |rec| match &self.target {
            Target::Misp(topology) => self.run_on(rec, |library, runtime| {
                misp_machine(topology, config, library, name, runtime)
            }),
            Target::Smp(cores) => self.run_on(rec, |library, runtime| {
                smp_machine(*cores, config, library, name, runtime)
            }),
        })
    }

    fn run_on<P: Platform>(
        &self,
        rec: &mut Recorder,
        assemble: impl Fn(ProgramLibrary, Box<dyn Runtime>) -> Machine<P>,
    ) -> Result<PointRun> {
        let begin = now();
        let mut counts = Counts::default();
        let stream_programs =
            |rec: &mut Recorder, counts: &mut Counts, s: &Scenario, stream: &RequestStream| {
                let mut library = ProgramLibrary::new();
                let runtime = rec.span("workloads.build", || {
                    s.build_from_stream(&mut library, stream)
                });
                if rec.is_on() {
                    counts.add_library(&library);
                }
                (library, Box::new(runtime) as Box<dyn Runtime>)
            };
        if let Source::Fleet {
            scenario,
            seed,
            fleet,
        } = &self.source
        {
            let streams = rec.span("workloads.stream", || scenario.fleet_streams(*seed, fleet));
            let mut engine = FleetEngine::new(fleet.network_latency());
            for stream in &streams.per_machine {
                let (library, runtime) = stream_programs(rec, &mut counts, scenario, stream);
                let machine = rec.span("machine.assemble", || assemble(library, runtime));
                engine.add_machine(machine);
            }
            let sim_begin = now();
            let report = rec.span("fleet.run", || engine.run_fleet())?;
            let sim_end = now();
            rec.span("teardown", || drop(engine));
            for r in &report.reports {
                counts.add_report(r);
                record(rec, r);
            }
            return Ok(PointRun {
                digest: PointDigest::fleet(&report),
                setup_ns: ns(begin, sim_begin),
                sim_ns: ns(sim_begin, sim_end),
                counts,
            });
        }

        let (library, runtime) = match &self.source {
            Source::Workload(w) => {
                let mut library = ProgramLibrary::new();
                let runtime = rec.span("workloads.build", || w.build(&mut library, WORKERS));
                if rec.is_on() {
                    counts.add_library(&library);
                }
                (library, Box::new(runtime) as Box<dyn Runtime>)
            }
            Source::Scenario { scenario, seed } => {
                let stream = rec.span("workloads.stream", || scenario.stream(*seed));
                stream_programs(rec, &mut counts, scenario, &stream)
            }
            Source::Fleet { .. } => unreachable!("fleets returned above"),
        };
        let machine = rec.span("machine.assemble", || assemble(library, runtime));
        let sim = simulate(machine, rec)?;
        counts.add_report(&sim.report);
        record(rec, &sim.report);
        Ok(PointRun {
            digest: PointDigest::single(&sim.report),
            setup_ns: ns(begin, sim.setup_end),
            sim_ns: sim.sim_ns,
            counts,
        })
    }

    /// For a fleet point, runs each member machine standalone — the same
    /// streams and assembly, but `start`/`advance(None)`/`finish_report`
    /// without the synchronizer — and returns the members' log digests.
    /// `None` for single-machine points.
    ///
    /// Only the simulation calls get spans; the members' set-up is charged
    /// to the [`MEMBERS`] root so it never inflates the set-up layers.
    pub fn run_members(&self, index: u32, rec: &mut Recorder) -> Option<Result<Vec<u64>>> {
        let Source::Fleet {
            scenario,
            seed,
            fleet,
        } = &self.source
        else {
            return None;
        };
        let config = self.config;
        let name = self.name();
        let streams = scenario.fleet_streams(*seed, fleet);
        Some(rec.root(MEMBERS, index, |rec| {
            streams
                .per_machine
                .iter()
                .map(|stream| {
                    let mut library = ProgramLibrary::new();
                    let runtime = Box::new(scenario.build_from_stream(&mut library, stream));
                    let sim = match &self.target {
                        Target::Misp(topology) => {
                            simulate(misp_machine(topology, config, library, name, runtime), rec)
                        }
                        Target::Smp(cores) => {
                            simulate(smp_machine(*cores, config, library, name, runtime), rec)
                        }
                    }?;
                    Ok(sim.report.log_digest)
                })
                .collect()
        }))
    }

    /// Runs the point through `Run::execute` / `Run::execute_fleet`, the
    /// path every harness sweep takes: the reference the split calls must
    /// reproduce.
    ///
    /// # Errors
    ///
    /// Whatever the simulator returns.
    pub fn reference(&self) -> Result<PointDigest> {
        let machine = self.target.run_machine();
        match &self.source {
            Source::Workload(w) => Run::workload(w)
                .machine(machine)
                .config(self.config)
                .workers(WORKERS)
                .execute()
                .map(|r| PointDigest::single(&r)),
            Source::Scenario { scenario, seed } => Run::scenario(scenario)
                .machine(machine)
                .config(self.config)
                .seed(*seed)
                .execute()
                .map(|r| PointDigest::single(&r)),
            Source::Fleet {
                scenario,
                seed,
                fleet,
            } => Run::scenario(scenario)
                .machine(machine)
                .config(self.config)
                .seed(*seed)
                .execute_fleet(fleet)
                .map(|r| PointDigest::fleet(&r)),
        }
    }

    /// The compute-op lengths of the point's generated programs, in program
    /// order, up to `limit` of them (the queue replay's hold times).
    #[must_use]
    pub fn compute_gaps(&self, limit: usize) -> Vec<u64> {
        let mut library = ProgramLibrary::new();
        match &self.source {
            Source::Workload(w) => {
                let _ = w.build(&mut library, WORKERS);
            }
            Source::Scenario { scenario, seed } => {
                let _ = scenario.build(&mut library, *seed);
            }
            Source::Fleet {
                scenario,
                seed,
                fleet,
            } => {
                let streams = scenario.fleet_streams(*seed, fleet);
                let _ = scenario.build_from_stream(&mut library, &streams.per_machine[0]);
            }
        }
        library
            .iter()
            .flat_map(|(_, p)| p.iter_flat())
            .filter_map(|op| match op {
                misp_isa::Op::Compute(c) => Some(c.as_u64()),
                _ => None,
            })
            .take(limit)
            .collect()
    }

    /// The timer period of the point's configuration, in cycles.
    #[must_use]
    pub fn timer_period(&self) -> u64 {
        self.config.timer.interval().as_u64()
    }
}

/// Converts a caught panic payload into the simulator's error type.
#[must_use]
pub fn panic_error(payload: &(dyn std::any::Any + Send)) -> MispError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string());
    MispError::InvalidWorkload(format!("panicked: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(point: &Point) -> PointRun {
        point.run(0, &mut Recorder::off()).expect("point runs")
    }

    #[test]
    fn split_calls_reproduce_run_execute() {
        for kind in Kind::ALL {
            let points = generate(kind, 7, Size::Smoke);
            for point in [&points[0], &points[points.len() - 1]] {
                let split = run(point).digest;
                let reference = point.reference().expect("reference runs");
                assert_eq!(split, reference, "{} {}", kind.name(), point.id);
            }
        }
    }

    #[test]
    fn fleet_members_standalone_reproduce_the_fleet() {
        let points = generate(Kind::Fleet16, 7, Size::Smoke);
        for (i, point) in points.iter().enumerate() {
            let fleet = run(point).digest;
            assert_eq!(fleet.machines.len(), FLEET_MACHINES);
            let members = point
                .run_members(i as u32, &mut Recorder::off())
                .expect("a fleet point has members")
                .expect("members run");
            assert_eq!(
                members, fleet.machines,
                "{}: the mailbox carries nothing",
                point.id
            );
        }
        assert!(generate(Kind::Service, 7, Size::Smoke)[0]
            .run_members(0, &mut Recorder::off())
            .is_none());
    }

    #[test]
    fn jittered_params_stay_in_range_and_within_the_cycle_budget() {
        let originals: Vec<Workload> = catalog::all()
            .into_iter()
            .chain(catalog::cache_variants())
            .collect();
        for seed in 0..16 {
            for kind in [Kind::Fig4, Kind::CacheStream, Kind::CacheShared] {
                for point in generate(kind, seed, Size::Full) {
                    let Source::Workload(w) = &point.source else {
                        panic!("{} is a catalog workload", point.id);
                    };
                    let original = originals
                        .iter()
                        .find(|o| o.name() == w.name())
                        .expect("catalog");
                    let (p, o) = (w.params(), original.params());
                    assert_eq!(p.total_work, o.total_work);
                    for (got, base) in [
                        (p.chunks_per_worker, o.chunks_per_worker),
                        (p.worker_pages, o.worker_pages),
                        (p.main_pages, o.main_pages),
                    ] {
                        let (lo, hi) = (base as f64 * 0.8 - 0.5, base as f64 * 1.25 + 0.5);
                        assert!(
                            (lo.max(1.0)..=hi.max(1.0)).contains(&(got as f64)),
                            "{}: {got} from {base}",
                            point.id
                        );
                    }
                    // Every cache point, and of fig4 the serial points, which
                    // simulate longest, must finish inside the budget.
                    if kind != Kind::Fig4 || point.id.ends_with("/serial") {
                        let cycles = run(&point).digest.cycles;
                        assert!(cycles < point.config.cycle_budget.as_u64(), "{}", point.id);
                    }
                }
            }
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for kind in Kind::ALL {
            let ids = |seed| {
                generate(kind, seed, Size::Smoke)
                    .iter()
                    .map(|p| format!("{p:?}"))
                    .collect::<Vec<_>>()
            };
            assert_eq!(ids(3), ids(3), "{}", kind.name());
            assert_ne!(ids(3), ids(4), "{}", kind.name());
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
    }
}
