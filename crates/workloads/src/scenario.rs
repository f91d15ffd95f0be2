//! Open-loop request-serving scenarios.
//!
//! A [`Scenario`] describes a stream of service requests arriving at a
//! machine: an arrival process ([`ArrivalModel`]), an offered load relative
//! to the service pool's capacity, and the shape of each request (service
//! time, session working-set touches, occasional system calls).  From a seed
//! it records a [`RequestStream`] — the explicit list of arrival cycles and
//! per-request service times — and builds two programs of fixed size, the
//! generator and one request template, plus a [`GangScheduler`] carrying
//! the matching [`shredlib::ServiceModel`].  Requests and the generator's
//! schedule are data: the model holds the stream's arrivals, service
//! demands and the [`RequestShape`]; the scheduler builds each request's
//! ops when it admits that request, and the generator's next
//! `compute(gap)` + `shred_create` when the previous create is consumed.
//!
//! # Common random numbers
//!
//! The stream is a pure function of `(scenario parameters, seed)`.  Two
//! properties make comparisons paired and low-variance:
//!
//! * The *same* recorded stream replays against MISP, SMP and serial
//!   machines, so a MISP-vs-SMP latency delta is measured on identical
//!   customers.
//! * The arrival rate is always computed from the scenario's **nominal**
//!   pool width, so overriding the dispatch gate with
//!   [`Scenario::with_pool_width`] (an M/M/1-vs-M/M/k experiment) replays
//!   the identical stream against a differently shaped pool.
//!
//! # Examples
//!
//! ```
//! use misp_workloads::scenario;
//!
//! let s = scenario::by_name("poisson").unwrap();
//! let a = s.stream(42);
//! let b = s.stream(42);
//! assert_eq!(a, b, "the stream is a pure function of (params, seed)");
//! assert_eq!(a.arrivals.len(), s.requests());
//! ```

use misp_core::{FleetTopology, LoadBalancerPolicy};
use misp_isa::{ProgramLibrary, ShredProgram};
use misp_types::{Cycles, SplitMix64, VirtAddr};
use shredlib::{GangScheduler, RequestShape, ServiceModel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Base virtual address of the session working set shared by all requests.
const SESSION_BASE: u64 = 0xA000_0000;
/// Floor on generated inter-arrival gaps and service times, in cycles.
const MIN_CYCLES: u64 = 1_000;
/// Cap on generated gaps/service times (an exponential tail can in principle
/// produce astronomically large samples; this keeps runs bounded without
/// affecting any realistic percentile).
const MAX_CYCLES: u64 = 1 << 40;

/// The inter-arrival process of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalModel {
    /// Memoryless arrivals: i.i.d. exponential gaps (the M of M/M/k).
    Poisson,
    /// A two-state Markov-modulated Poisson process: the stream alternates
    /// between a quiet state (gaps stretched 3x) and a burst state (gaps
    /// compressed to 0.4x), switching state with probability 1/8 at each
    /// arrival.  The long-run rate matches the nominal offered load.
    Bursty,
    /// A piecewise-constant daily profile: the request sequence is divided
    /// into six equal phases whose rates are 0.5x, 0.8x, 1.3x, 1.8x, 1.2x
    /// and 0.6x of nominal — a trough-to-peak curve compressed into one run.
    Diurnal,
}

impl ArrivalModel {
    /// The model's name as used in grid labels and the CLI.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalModel::Poisson => "poisson",
            ArrivalModel::Bursty => "bursty",
            ArrivalModel::Diurnal => "diurnal",
        }
    }
}

/// Rate multipliers of the six [`ArrivalModel::Diurnal`] phases.
const DIURNAL_RATES: [f64; 6] = [0.5, 0.8, 1.3, 1.8, 1.2, 0.6];
/// Gap stretch of the bursty model's quiet state.
const BURSTY_SLOW: f64 = 3.0;
/// Gap compression of the bursty model's burst state.
const BURSTY_FAST: f64 = 0.4;

/// A recorded customer stream: the common-random-numbers object that replays
/// unchanged against every machine and pool shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestStream {
    /// Scheduled arrival cycle of each request, strictly increasing.
    pub arrivals: Vec<Cycles>,
    /// Service demand of each request, in compute cycles.
    pub service: Vec<Cycles>,
}

/// An open-loop request-serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: &'static str,
    model: ArrivalModel,
    requests: usize,
    mean_service: u64,
    offered_load_pct: u32,
    nominal_pool: usize,
    pool_override: Option<usize>,
    queue_bound: Option<usize>,
    session_pages: u64,
    touches_per_request: u64,
    syscall_every: u64,
}

impl Scenario {
    /// Creates a scenario with the catalog defaults: 1000 requests with a
    /// mean service demand of 1.2M cycles against a pool of seven servers at
    /// 60% offered load, touching a 64-page session working set.
    #[must_use]
    pub fn new(name: &'static str, model: ArrivalModel) -> Self {
        Scenario {
            name,
            model,
            requests: 1000,
            mean_service: 1_200_000,
            offered_load_pct: 60,
            nominal_pool: 7,
            pool_override: None,
            queue_bound: None,
            session_pages: 64,
            touches_per_request: 2,
            syscall_every: 16,
        }
    }

    /// The scenario's catalog name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The arrival model.
    #[must_use]
    pub fn model(&self) -> ArrivalModel {
        self.model
    }

    /// Number of requests in the stream.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// The offered load as a percentage of pool capacity.
    #[must_use]
    pub fn offered_load_pct(&self) -> u32 {
        self.offered_load_pct
    }

    /// The pool width the dispatch gate enforces: the override if set,
    /// otherwise the nominal width.
    #[must_use]
    pub fn pool_width(&self) -> usize {
        self.pool_override.unwrap_or(self.nominal_pool)
    }

    /// Overrides the offered load (percent of pool capacity).
    ///
    /// # Panics
    ///
    /// Panics if `pct` is zero.
    #[must_use]
    pub fn with_offered_load(mut self, pct: u32) -> Self {
        assert!(pct > 0, "offered load must be positive");
        self.offered_load_pct = pct;
        self
    }

    /// Overrides the number of requests in the stream.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is zero.
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        assert!(requests > 0, "a scenario needs at least one request");
        self.requests = requests;
        self
    }

    /// Overrides the *dispatch gate* pool width without touching the arrival
    /// rate, which stays derived from the nominal width — this is the
    /// common-random-numbers handle for M/M/1-vs-M/M/k comparisons.
    #[must_use]
    pub fn with_pool_width(mut self, width: usize) -> Self {
        assert!(width > 0, "a service pool needs at least one slot");
        self.pool_override = Some(width);
        self
    }

    /// Bounds outstanding requests; arrivals beyond the bound are dropped.
    #[must_use]
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        assert!(bound > 0, "a queue bound of zero drops everything");
        self.queue_bound = Some(bound);
        self
    }

    /// Mean inter-arrival gap, in cycles, at the nominal offered load:
    /// `offered load = (arrival rate x mean service) / nominal pool width`,
    /// solved for the gap.
    fn mean_gap(&self) -> f64 {
        self.mean_service as f64 * 100.0
            / (f64::from(self.offered_load_pct) * self.nominal_pool as f64)
    }

    /// Records the customer stream for `seed`.  Pure: equal parameters and
    /// seeds give bit-identical streams on every platform.
    #[must_use]
    pub fn stream(&self, seed: u64) -> RequestStream {
        self.stream_scaled(seed, 1)
    }

    /// Records the stream for `seed` with the arrival rate scaled up by
    /// `machines`: the central stream a fleet's load balancer partitions.
    /// The effective nominal pool is `nominal_pool x machines`, so each
    /// machine of a balanced fleet sees roughly the scenario's offered load.
    fn stream_scaled(&self, seed: u64, machines: usize) -> RequestStream {
        let mut rng = SplitMix64::new(seed);
        let mut arrival_rng = rng.fork();
        let mut service_rng = rng.fork();
        // The bursty state machine draws from its own stream so that adding
        // state transitions never perturbs the gap samples.
        let mut state_rng = rng.fork();
        // Division by 1.0 is exact, so a fleet of one replays the
        // single-machine stream bit for bit.
        let mean_gap = self.mean_gap() / machines as f64;

        let mut arrivals = Vec::with_capacity(self.requests);
        let mut service = Vec::with_capacity(self.requests);
        let mut at = 0u64;
        let mut burst = false;
        for i in 0..self.requests {
            let mean = match self.model {
                ArrivalModel::Poisson => mean_gap,
                ArrivalModel::Bursty => {
                    if state_rng.next_f64() < 0.125 {
                        burst = !burst;
                    }
                    mean_gap * if burst { BURSTY_FAST } else { BURSTY_SLOW }
                }
                ArrivalModel::Diurnal => {
                    let phase = (i * DIURNAL_RATES.len()) / self.requests;
                    mean_gap / DIURNAL_RATES[phase]
                }
            };
            let gap = clamp_cycles(arrival_rng.next_exp(mean));
            at += gap;
            arrivals.push(Cycles::new(at));
            service.push(Cycles::new(clamp_cycles(
                service_rng.next_exp(self.mean_service as f64),
            )));
        }
        RequestStream { arrivals, service }
    }

    /// Builds the generator and the request template for the stream
    /// recorded from `seed` into `library` and returns the gang scheduler
    /// with the matching service model attached.
    ///
    /// The generator is the main shred: it permanently occupies one
    /// sequencer (hence the nominal pool of seven on an eight-sequencer
    /// machine) and alternates `compute(gap)` with `shred_create` of the
    /// `{name}-request` template.  Its program holds only the first pair
    /// (see [`ServiceModel::generator`]); the scheduler continues it with
    /// the next pair each time a create consumes an arrival.  Each request
    /// touches its slice of the session working set, computes its recorded
    /// service demand, and every `syscall_every`-th request issues an I/O
    /// system call; the scheduler builds those ops from the service model
    /// when it admits the request.
    #[must_use]
    pub fn build(&self, library: &mut ProgramLibrary, seed: u64) -> GangScheduler {
        let stream = self.stream(seed);
        self.build_from_stream(library, &stream)
    }

    /// Like [`Scenario::build`], but replays an already-recorded stream
    /// (the common-random-numbers path).  Inserts exactly two programs into
    /// `library`, of a size fixed whatever the stream's length: a request
    /// template with no ops and a generator of at most three items (only
    /// `RegisterHandler` for an empty stream).
    ///
    /// # Panics
    ///
    /// Panics if the stream's arrivals decrease or its lengths differ (see
    /// [`ServiceModel::new`]).
    #[must_use]
    pub fn build_from_stream(
        &self,
        library: &mut ProgramLibrary,
        stream: &RequestStream,
    ) -> GangScheduler {
        let request = library.insert(ShredProgram::empty(format!("{}-request", self.name)));
        let model = self.service_model(stream);
        let generator =
            library.insert(model.generator(format!("{}-generator", self.name), request));
        GangScheduler::builder()
            .main_program(generator)
            .service(model)
            .build()
    }

    /// The service model replaying `stream`: its arrivals, its service
    /// demands with this scenario's request shape, and the pool and queue
    /// bounds.  [`Scenario::build_from_stream`] attaches this model.
    ///
    /// # Panics
    ///
    /// Panics if the stream's arrivals decrease or its lengths differ (see
    /// [`ServiceModel::new`]).
    #[must_use]
    pub fn service_model(&self, stream: &RequestStream) -> ServiceModel {
        let shape = RequestShape {
            session_base: VirtAddr::new(SESSION_BASE),
            session_pages: self.session_pages,
            touches: self.touches_per_request,
            syscall_every: self.syscall_every,
        };
        let model = ServiceModel::new(stream.arrivals.clone(), stream.service.clone(), shape)
            .with_pool_width(self.pool_width());
        match self.queue_bound {
            Some(bound) => model.with_queue_bound(bound),
            None => model,
        }
    }

    /// Records the central customer stream for `seed` at the fleet's
    /// aggregate arrival rate and dispatches it across the fleet's machines
    /// with the topology's load-balancer policy.
    ///
    /// Machine-local arrival cycles include the dispatch hop: each request
    /// reaches its machine one network latency after its central arrival.
    /// Dispatch decisions draw from a dedicated fork of the seed chain, so
    /// the recorded arrivals and service demands are identical across
    /// policies and machine types (common random numbers); only the
    /// partition changes.
    #[must_use]
    pub fn fleet_streams(&self, seed: u64, fleet: &FleetTopology) -> FleetStreams {
        let machines = fleet.machines();
        let central = self.stream_scaled(seed, machines);
        let latency = fleet.network_latency();
        // The balancer draws from the fourth fork of the seed chain — after
        // the arrival, service and burst-state forks — so dispatch never
        // perturbs the stream itself.
        let mut root = SplitMix64::new(seed);
        let _arrivals = root.fork();
        let _service = root.fork();
        let _state = root.fork();
        let mut lb_rng = root.fork();

        // LeastOutstanding's analytic model: the modeled completion (arrival
        // + network hop + service demand) of every request dispatched to
        // each machine so far, kept as min-heaps so expired entries pop off
        // the top.
        let mut outstanding: Vec<BinaryHeap<Reverse<u64>>> = vec![BinaryHeap::new(); machines];
        let mut assignments = Vec::with_capacity(central.arrivals.len());
        for (i, (&at, &demand)) in central.arrivals.iter().zip(&central.service).enumerate() {
            let m = match fleet.policy() {
                LoadBalancerPolicy::RoundRobin => i % machines,
                LoadBalancerPolicy::Random => (lb_rng.next_u64() % machines as u64) as usize,
                LoadBalancerPolicy::LeastOutstanding => {
                    for heap in &mut outstanding {
                        while heap.peek().is_some_and(|&Reverse(c)| c <= at.as_u64()) {
                            heap.pop();
                        }
                    }
                    (0..machines)
                        .min_by_key(|&m| (outstanding[m].len(), m))
                        .expect("fleet has at least one machine")
                }
            };
            outstanding[m].push(Reverse(at.as_u64() + latency.as_u64() + demand.as_u64()));
            assignments.push(m);
        }

        let mut per_machine = vec![
            RequestStream {
                arrivals: Vec::new(),
                service: Vec::new(),
            };
            machines
        ];
        for (i, &m) in assignments.iter().enumerate() {
            per_machine[m]
                .arrivals
                .push(Cycles::new(central.arrivals[i].as_u64() + latency.as_u64()));
            per_machine[m].service.push(central.service[i]);
        }
        FleetStreams {
            per_machine,
            assignments,
        }
    }
}

/// The load balancer's output: one replayable stream per fleet machine plus
/// the dispatch decisions that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStreams {
    /// The recorded stream each machine replays.  Arrival cycles already
    /// include the dispatch network hop.
    pub per_machine: Vec<RequestStream>,
    /// The machine index each central request was dispatched to, in central
    /// arrival order.
    pub assignments: Vec<usize>,
}

impl FleetStreams {
    /// Number of requests dispatched to each machine.
    #[must_use]
    pub fn dispatch_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.per_machine.len()];
        for &m in &self.assignments {
            counts[m] += 1;
        }
        counts
    }
}

/// Rounds a generated duration to whole cycles within the sane range.
fn clamp_cycles(x: f64) -> u64 {
    (x as u64).clamp(MIN_CYCLES, MAX_CYCLES)
}

/// The named scenarios of the catalog, one per arrival model.
#[must_use]
pub fn all() -> Vec<Scenario> {
    vec![
        Scenario::new("poisson", ArrivalModel::Poisson),
        Scenario::new("bursty", ArrivalModel::Bursty),
        Scenario::new("diurnal", ArrivalModel::Diurnal),
    ]
}

/// Looks a scenario up by catalog name.
#[must_use]
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed() {
        for s in all() {
            assert_eq!(s.stream(7), s.stream(7), "{}", s.name());
            assert_ne!(s.stream(7), s.stream(8), "{}", s.name());
        }
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        for s in all() {
            let stream = s.stream(1);
            for w in stream.arrivals.windows(2) {
                assert!(w[0] < w[1], "{}", s.name());
            }
        }
    }

    #[test]
    fn pool_override_preserves_the_stream() {
        let base = by_name("poisson").unwrap();
        let narrow = base.clone().with_pool_width(1);
        assert_eq!(
            base.stream(3),
            narrow.stream(3),
            "common random numbers: the gate must not perturb arrivals"
        );
        assert_eq!(narrow.pool_width(), 1);
        assert_eq!(base.pool_width(), 7);
    }

    #[test]
    fn offered_load_scales_the_mean_gap() {
        let light = by_name("poisson").unwrap().with_offered_load(30);
        let heavy = by_name("poisson").unwrap().with_offered_load(90);
        let light_span = light.stream(5).arrivals.last().unwrap().as_u64();
        let heavy_span = heavy.stream(5).arrivals.last().unwrap().as_u64();
        // Tripling the load should roughly third the span of the schedule.
        let ratio = light_span as f64 / heavy_span as f64;
        assert!(
            (2.0..4.5).contains(&ratio),
            "expected ~3x span ratio, got {ratio:.2}"
        );
    }

    #[test]
    fn diurnal_peak_phase_is_denser_than_the_trough() {
        let s = by_name("diurnal").unwrap();
        let stream = s.stream(11);
        let n = stream.arrivals.len();
        let span = |phase: usize| {
            let lo = phase * n / 6;
            let hi = (phase + 1) * n / 6 - 1;
            stream.arrivals[hi].as_u64() - stream.arrivals[lo].as_u64()
        };
        // Phase 3 runs at 1.8x nominal, phase 0 at 0.5x: the peak phase's
        // arrivals must be packed into a much shorter span.
        assert!(
            span(3) * 2 < span(0),
            "peak span {} vs trough span {}",
            span(3),
            span(0)
        );
    }

    #[test]
    fn build_emits_the_generator_and_one_request_template() {
        for requests in [10, 10_000] {
            let s = by_name("poisson").unwrap().with_requests(requests);
            let mut lib = ProgramLibrary::new();
            let _ = s.build(&mut lib, 9);
            assert_eq!(lib.len(), 2, "request template + generator at {requests}");
            let ops: u64 = lib.iter().map(|(_, p)| p.flat_len()).sum();
            assert_eq!(ops, 5, "program ops are constant in the stream length");
        }
    }

    #[test]
    #[should_panic(expected = "arrivals must not decrease")]
    fn a_decreasing_stream_fails_at_build_time() {
        let s = by_name("poisson").unwrap();
        let stream = RequestStream {
            arrivals: [3_000, 1_000].map(Cycles::new).to_vec(),
            service: vec![Cycles::new(1_000); 2],
        };
        let _ = s.build_from_stream(&mut ProgramLibrary::new(), &stream);
    }

    /// The ops the scheduler builds for request `i` are exactly the program
    /// the builder used to emit per request.  `0..=128` covers the syscall
    /// period (16) and the wrap of the 64-page session working set.
    #[test]
    fn request_ops_match_the_per_request_program() {
        use misp_isa::{ProgramBuilder, SyscallKind};
        use misp_types::PAGE_SIZE;

        let s = by_name("poisson").unwrap().with_requests(129);
        let stream = s.stream(9);
        let model = s.service_model(&stream);
        for (i, &demand) in stream.service.iter().enumerate() {
            // The per-request program `build_from_stream` used to insert.
            let mut b = ProgramBuilder::new(format!("{}-req{}", s.name, i));
            for t in 0..s.touches_per_request {
                let page = (i as u64 * s.touches_per_request + t) % s.session_pages;
                b = b.load(VirtAddr::new(SESSION_BASE + page * PAGE_SIZE));
            }
            b = b.compute(demand);
            if s.syscall_every > 0 && (i as u64).is_multiple_of(s.syscall_every) {
                b = b.syscall(SyscallKind::Io);
            }
            let reference = b.build();
            let ops = model.request_ops(i).expect("request data");
            assert_eq!(ops.as_slice(), reference.items(), "request {i}");
        }
        assert!(model.request_ops(129).is_none());
    }

    #[test]
    fn fleet_of_one_replays_the_single_machine_stream_shifted_by_the_hop() {
        let s = by_name("poisson").unwrap().with_requests(50);
        let fleet =
            FleetTopology::with_network_latency(1, LoadBalancerPolicy::RoundRobin, Cycles::new(1))
                .unwrap();
        let single = s.stream(13);
        let streams = s.fleet_streams(13, &fleet);
        assert_eq!(streams.per_machine.len(), 1);
        assert_eq!(streams.per_machine[0].service, single.service);
        let shifted: Vec<Cycles> = single
            .arrivals
            .iter()
            .map(|a| Cycles::new(a.as_u64() + 1))
            .collect();
        assert_eq!(streams.per_machine[0].arrivals, shifted);
    }

    #[test]
    fn every_policy_partitions_the_same_central_stream() {
        let s = by_name("bursty").unwrap().with_requests(120);
        for policy in LoadBalancerPolicy::all() {
            let fleet = FleetTopology::new(4, policy).unwrap();
            let streams = s.fleet_streams(21, &fleet);
            assert_eq!(streams.assignments.len(), 120, "{}", policy.label());
            assert_eq!(streams.dispatch_counts().iter().sum::<usize>(), 120);
            // Reassembling the partition in central order recovers one
            // stream: every request went somewhere exactly once.
            let total: usize = streams.per_machine.iter().map(|m| m.arrivals.len()).sum();
            assert_eq!(total, 120, "{}", policy.label());
            // Per-machine arrivals stay strictly increasing (subsequence of
            // a strictly increasing stream plus a constant hop).
            for m in &streams.per_machine {
                for w in m.arrivals.windows(2) {
                    assert!(w[0] < w[1], "{}", policy.label());
                }
            }
        }
    }

    #[test]
    fn round_robin_dispatch_is_even_and_least_outstanding_never_starves() {
        let s = by_name("poisson").unwrap().with_requests(100);
        let rr = s.fleet_streams(
            5,
            &FleetTopology::new(4, LoadBalancerPolicy::RoundRobin).unwrap(),
        );
        let counts = rr.dispatch_counts();
        assert!(counts.iter().all(|&c| c == 25), "{counts:?}");
        let least = s.fleet_streams(
            5,
            &FleetTopology::new(4, LoadBalancerPolicy::LeastOutstanding).unwrap(),
        );
        assert!(
            least.dispatch_counts().iter().all(|&c| c > 0),
            "the analytic balancer must spread load across all machines"
        );
    }

    #[test]
    fn fleet_dispatch_is_a_pure_function_of_seed_and_shape() {
        let s = by_name("diurnal").unwrap().with_requests(80);
        let fleet = FleetTopology::new(3, LoadBalancerPolicy::Random).unwrap();
        assert_eq!(s.fleet_streams(9, &fleet), s.fleet_streams(9, &fleet));
        assert_ne!(
            s.fleet_streams(9, &fleet).assignments,
            s.fleet_streams(10, &fleet).assignments
        );
    }

    #[test]
    fn catalog_lookup() {
        assert_eq!(all().len(), 3);
        assert!(by_name("bursty").is_some());
        assert!(by_name("nonexistent").is_none());
        for s in all() {
            assert_eq!(s.model().label(), s.name());
        }
    }
}
