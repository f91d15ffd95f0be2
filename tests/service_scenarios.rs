//! Integration tests of the open-loop request-serving scenarios: common
//! random numbers across the sweep harness, the service-metrics section of
//! the results schema, order-independence of histogram merging, and the
//! equivalence of the continued generator with the up-front one.

use misp::core::{FleetTopology, LoadBalancerPolicy, MispMachine, MispTopology};
use misp::harness::{grids, run_grid, SweepOptions, VerifyMode};
use misp::isa::{Op, ProgramBuilder, ProgramLibrary, ShredProgram};
use misp::os::TimerConfig;
use misp::shredlib::GangScheduler;
use misp::sim::{SimConfig, SimReport, SimStats, TraceConfig};
use misp::smp::SmpMachine;
use misp::types::{Cycles, Histogram};
use misp::workloads::scenario::{self, RequestStream, Scenario};
use misp::workloads::Run;
use proptest::prelude::*;

fn sweep_service_load() -> misp::harness::SweepResults {
    run_grid(
        &grids::service_load(),
        &SweepOptions {
            threads: 4,
            verify: VerifyMode::SpotCheck,
        },
    )
    .unwrap()
}

/// Every paired record of the service grid replays the identical customer
/// stream: same scenario, same offered load, same admission/drop totals.
/// This is the common-random-numbers contract surfaced through the harness.
#[test]
fn paired_service_records_share_the_customer_stream() {
    let results = sweep_service_load();
    let pairs: Vec<(&str, &str)> = vec![
        ("poisson/load30/misp", "poisson/load30/smp"),
        ("poisson/load60/misp", "poisson/load60/smp"),
        ("poisson/load90/misp", "poisson/load90/smp"),
        ("bursty/load60/misp", "bursty/load60/smp"),
        ("diurnal/load60/misp", "diurnal/load60/smp"),
        ("poisson/load10/pool7", "poisson/load10/pool1"),
    ];
    for (a_id, b_id) in pairs {
        let a = results.record(a_id).unwrap();
        let b = results.record(b_id).unwrap();
        assert_eq!(a.scenario, b.scenario, "{a_id} vs {b_id}");
        assert_eq!(a.offered_load, b.offered_load, "{a_id} vs {b_id}");
        assert_eq!(a.seed, b.seed, "{a_id} vs {b_id}: paired seeds");
        let a_svc = a.sim.as_ref().unwrap().service.as_ref().unwrap();
        let b_svc = b.sim.as_ref().unwrap().service.as_ref().unwrap();
        assert_eq!(
            a_svc.admitted + a_svc.dropped,
            b_svc.admitted + b_svc.dropped,
            "{a_id} vs {b_id}: the offered stream must be identical"
        );
    }
}

/// Scenario records carry the v3 metadata and an ordered percentile ladder;
/// closed-loop grids stay free of the service section.
#[test]
fn service_metrics_are_well_formed_and_scoped_to_scenarios() {
    let results = sweep_service_load();
    assert_eq!(results.run_count, 12);
    for record in &results.records {
        assert!(record.scenario.is_some(), "{}", record.id);
        assert!(record.offered_load.is_some(), "{}", record.id);
        assert!(record.workload.is_none(), "{}", record.id);
        let sim = record.sim.as_ref().unwrap();
        let svc = sim.service.as_ref().expect("scenario runs carry service");
        assert!(svc.completed > 0, "{}", record.id);
        assert!(
            svc.latency_p50 <= svc.latency_p95
                && svc.latency_p95 <= svc.latency_p99
                && svc.latency_p99 <= svc.latency_p999,
            "{}: percentile ladder must be ordered",
            record.id
        );
        assert!(svc.throughput_per_gcycle > 0.0, "{}", record.id);
    }

    let closed_loop = run_grid(
        &grids::table1(),
        &SweepOptions {
            threads: 2,
            verify: VerifyMode::Off,
        },
    )
    .unwrap();
    for record in &closed_loop.records {
        assert!(record.scenario.is_none(), "{}", record.id);
        assert!(record.offered_load.is_none(), "{}", record.id);
        if let Some(sim) = &record.sim {
            assert!(sim.service.is_none(), "{}", record.id);
        }
    }
}

/// The single-gate pool pays for its shape where queueing theory says it
/// must: with the identical lightly-loaded stream, M/M/1 tail latency
/// dominates M/M/7.
#[test]
fn narrow_pool_inflates_tail_latency_on_the_same_stream() {
    let results = sweep_service_load();
    let wide = results.sim("poisson/load10/pool7").unwrap();
    let narrow = results.sim("poisson/load10/pool1").unwrap();
    let wide_svc = wide.service.as_ref().unwrap();
    let narrow_svc = narrow.service.as_ref().unwrap();
    assert!(
        narrow_svc.latency_p99 > wide_svc.latency_p99,
        "single server must queue: p99 {} vs {}",
        narrow_svc.latency_p99,
        wide_svc.latency_p99
    );
}

/// The arrival generator is a pure function of (scenario parameters, seed) —
/// rebuilding the scenario from the catalog gives the identical stream, and
/// distinct seeds give distinct streams.
#[test]
fn arrival_streams_are_reproducible_from_the_catalog() {
    for name in ["poisson", "bursty", "diurnal"] {
        let a = scenario::by_name(name).unwrap().stream(2026);
        let b = scenario::by_name(name).unwrap().stream(2026);
        assert_eq!(a, b, "{name}: same seed, same stream");
        let c = scenario::by_name(name).unwrap().stream(2027);
        assert_ne!(a, c, "{name}: different seed, different stream");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Histogram merging is order-independent: recording all samples into
    /// one histogram, or partitioning them arbitrarily and folding the
    /// partial histograms in forward or reverse order, produces identical
    /// structures.  The parallel sweep harness relies on exactly this to
    /// keep scenario records byte-identical at any thread count.
    #[test]
    fn histogram_merge_is_order_independent(
        input in (
            proptest::collection::vec(0u64..1_000_000_000, 0..200),
            1usize..8,
        )
    ) {
        let (samples, parts) = input;
        let mut reference = Histogram::new();
        for &v in &samples {
            reference.record(v);
        }

        // Partition round-robin into `parts` histograms.
        let mut partials = vec![Histogram::new(); parts];
        for (i, &v) in samples.iter().enumerate() {
            partials[i % parts].record(v);
        }

        let mut forward = Histogram::new();
        for p in &partials {
            forward.merge(p);
        }
        let mut reverse = Histogram::new();
        for p in partials.iter().rev() {
            reverse.merge(p);
        }

        prop_assert_eq!(&forward, &reference);
        prop_assert_eq!(&reverse, &reference);
        prop_assert_eq!(forward.percentiles(), reference.percentiles());
    }
}

/// The service config of the equivalence runs: the quick timer, with the
/// trace ring on so its digest joins the comparison.
fn traced_config() -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        trace: TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        },
        ..SimConfig::default()
    }
}

/// The generator as it was built before the scheduler continued it: one
/// `compute(gap)` + `shred_create` pair per arrival, all up front, with the
/// same service model.  It is queued as an initial shred rather than the
/// main program, so the scheduler runs it as written and never continues
/// it; the creation order, and so every shred id, is the same.
fn upfront_build(
    s: &Scenario,
    library: &mut ProgramLibrary,
    stream: &RequestStream,
) -> GangScheduler {
    let request = library.insert(ShredProgram::empty(format!("{}-request", s.name())));
    let mut generator =
        ProgramBuilder::new(format!("{}-generator", s.name())).op(Op::RegisterHandler);
    let mut prev = Cycles::ZERO;
    for &arrival in &stream.arrivals {
        generator = generator.compute(arrival - prev).shred_create(request);
        prev = arrival;
    }
    let generator = library.insert(generator.build());
    GangScheduler::builder()
        .initial_shred(generator)
        .service(s.service_model(stream))
        .build()
}

/// Runs `scheduler` over `library` on the catalog's eight-sequencer MISP
/// uniprocessor or on an eight-core SMP, as `Run::execute` assembles them.
fn run_on(smp: bool, library: ProgramLibrary, scheduler: GangScheduler) -> SimReport {
    if smp {
        let mut machine = SmpMachine::new(8, traced_config(), library);
        let pid = machine.add_process("svc", Box::new(scheduler), Some(0));
        for core in 1..8 {
            machine.add_thread(pid, Some(core));
        }
        machine.run().unwrap()
    } else {
        let topology = MispTopology::uniprocessor(7).unwrap();
        let mut machine = MispMachine::new(topology, traced_config(), library);
        machine.add_process("svc", Box::new(scheduler), Some(0));
        machine.run().unwrap()
    }
}

/// Everything a run reports that a golden or digest could pin: the stats
/// (completion times included), the total, the event-log digest and the
/// trace.
fn fingerprint(report: &SimReport) -> (SimStats, Cycles, u64, u64, u64) {
    let trace = report.trace.as_ref().expect("tracing is on");
    (
        report.stats.clone(),
        report.total_cycles,
        report.log_digest,
        trace.digest,
        trace.dropped,
    )
}

/// The continued generator executes exactly the op sequence of the
/// up-front one, so every run is byte-identical to the reference: poisson,
/// bursty and diurnal on MISP and SMP, a queue bound that drops arrivals
/// (a drop continues the generator too) and a pool of one.
#[test]
fn continued_generator_replays_the_upfront_generator_exactly() {
    let base = |name| scenario::by_name(name).unwrap().with_requests(300);
    let cases = [
        (base("poisson"), false),
        (base("poisson"), true),
        (base("bursty"), false),
        (base("bursty"), true),
        (base("diurnal"), false),
        (base("diurnal"), true),
        (
            base("bursty").with_offered_load(150).with_queue_bound(3),
            false,
        ),
        (base("poisson").with_pool_width(1), true),
    ];
    let mut dropped = 0;
    for (s, smp) in cases {
        let context = format!(
            "{} on {} (load {}%, pool {})",
            s.name(),
            if smp { "smp" } else { "misp" },
            s.offered_load_pct(),
            s.pool_width()
        );
        let stream = s.stream(2026);
        let mut library = ProgramLibrary::new();
        let continued = s.build_from_stream(&mut library, &stream);
        let got = run_on(smp, library, continued);
        let mut library = ProgramLibrary::new();
        let reference = upfront_build(&s, &mut library, &stream);
        let want = run_on(smp, library, reference);
        assert_eq!(fingerprint(&got), fingerprint(&want), "{context}");
        let service = got.stats.service.as_ref().expect("service stats");
        assert_eq!(
            service.admitted + service.dropped,
            300,
            "{context}: every arrival is consumed"
        );
        dropped += service.dropped;
    }
    assert!(dropped > 0, "the queue-bound case must exercise drops");
}

/// A fleet with more machines than requests leaves some machines an empty
/// stream: their generator only registers the handler, and they run to an
/// empty service record beside the machines that serve.
#[test]
fn fleet_machines_with_empty_streams_run_a_handler_only_generator() {
    let s = scenario::by_name("poisson").unwrap().with_requests(3);
    let fleet = FleetTopology::new(5, LoadBalancerPolicy::RoundRobin).unwrap();
    let streams = s.fleet_streams(11, &fleet);
    assert_eq!(streams.dispatch_counts(), [1, 1, 1, 0, 0]);
    let report = Run::scenario(&s)
        .topology(MispTopology::uniprocessor(7).unwrap())
        .seed(11)
        .execute_fleet(&fleet)
        .unwrap();
    let admitted: Vec<u64> = report
        .reports
        .iter()
        .map(|r| r.stats.service.as_ref().expect("service stats").admitted)
        .collect();
    assert_eq!(admitted, [1, 1, 1, 0, 0]);
    for r in &report.reports[3..] {
        assert_eq!(r.stats.service.as_ref().unwrap().completed, 0);
    }
}
