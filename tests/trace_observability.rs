//! Observability regression and property tests: the committed Perfetto
//! golden, trace well-formedness, and interval-sampler invariants.
//!
//! The golden pins the exact Chrome-trace JSON a tiny fixed workload
//! produces.  To regenerate it after an intentional trace-format or engine
//! change:
//!
//! ```text
//! MISP_BLESS_TRACE=1 cargo test --test trace_observability tiny_trace
//! ```

use misp::core::MispTopology;
use misp::mem::AccessPattern;
use misp::os::TimerConfig;
use misp::sim::{chrome_trace_json, SimConfig, SimReport, TraceConfig, TraceEvent, TraceKind};
use misp::types::Cycles;
use misp::workloads::{LocalityProfile, Run, Suite, Workload, WorkloadParams};
use proptest::prelude::*;
use std::path::PathBuf;

fn quick_config(trace: bool, metrics_interval: u64) -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        trace: TraceConfig {
            enabled: trace,
            metrics_interval,
            ..TraceConfig::default()
        },
        ..SimConfig::default()
    }
}

fn tiny_params() -> WorkloadParams {
    WorkloadParams {
        total_work: 40_000,
        serial_fraction: 0.1,
        main_pages: 2,
        worker_pages: 2,
        chunks_per_worker: 4,
        main_syscalls: 1,
        worker_syscalls: 1,
        access_pattern: AccessPattern::Sequential,
        lock_contention: false,
        locality: LocalityProfile::Revisit,
    }
}

fn run_traced(params: WorkloadParams, workers: usize, ams: usize, interval: u64) -> SimReport {
    let workload = Workload::new("trace-fixture", Suite::Rms, params);
    Run::workload(&workload)
        .topology(MispTopology::uniprocessor(ams).unwrap())
        .config(quick_config(true, interval))
        .workers(workers)
        .execute()
        .unwrap()
}

/// The committed golden: a tiny fixed workload's Perfetto export,
/// byte-for-byte.
#[test]
fn tiny_trace_matches_the_committed_golden() {
    let report = run_traced(tiny_params(), 2, 1, 10_000);
    let trace = report.trace.as_ref().expect("trace requested");
    assert_eq!(trace.dropped, 0, "tiny run must fit the default ring");
    let actual = chrome_trace_json(&trace.events);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/trace_tiny.json");
    if std::env::var_os("MISP_BLESS_TRACE").is_some() {
        std::fs::write(&path, &actual).expect("golden written");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("could not read golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "trace export no longer matches its golden ({}).\n\
         If the change is intentional, regenerate with:\n  \
         MISP_BLESS_TRACE=1 cargo test --test trace_observability tiny_trace",
        path.display()
    );
}

/// The export is loadable JSON with the Chrome-trace shape: a `traceEvents`
/// array whose metadata names one process track per sequencer.
#[test]
fn trace_export_is_valid_chrome_trace_json() {
    let report = run_traced(tiny_params(), 2, 1, 0);
    let json = chrome_trace_json(&report.trace.as_ref().unwrap().events);
    let value: serde_json::Value = serde_json::from_str(&json).expect("export parses as JSON");
    let events = match value.get("traceEvents") {
        Some(serde_json::Value::Array(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    // One process-name metadata record per sequencer of the 1x2 machine.
    for seq in ["SEQ0", "SEQ1"] {
        assert!(
            json.contains(&format!("\"{seq}\"")),
            "missing per-sequencer track {seq}"
        );
    }
    // Spans carry matched phase markers.
    assert!(json.contains("\"ph\":\"B\""), "no span-begin events");
    assert!(json.contains("\"ph\":\"E\""), "no span-end events");
}

/// Tracing and sampling never perturb the simulation: the traced run's
/// results equal the untraced run's, field for field.
#[test]
fn observers_leave_results_identical() {
    let workload = Workload::new("trace-fixture", Suite::Rms, tiny_params());
    let run = |config: SimConfig| {
        Run::workload(&workload)
            .topology(MispTopology::uniprocessor(1).unwrap())
            .config(config)
            .workers(2)
            .execute()
            .unwrap()
    };
    let plain = run(quick_config(false, 0));
    let traced = run(quick_config(true, 5_000));
    assert_eq!(plain.total_cycles, traced.total_cycles);
    assert_eq!(plain.log_digest, traced.log_digest);
    assert_eq!(
        plain.stats.process_completion,
        traced.stats.process_completion
    );
    assert_eq!(plain.stats, traced.stats);
    assert!(plain.trace.is_none() && plain.metrics.is_none());
    assert!(traced.trace.is_some() && traced.metrics.is_some());
}

/// Scans one sequencer's events asserting begin/end pairing for the three
/// strictly-nested span lanes (Ring 0, proxy episodes, suspension windows):
/// an end without a live begin is a malformed trace.
fn assert_spans_pair_up(seq: u32, events: &[TraceEvent]) {
    let mut ring = 0i64;
    let mut proxy = 0i64;
    let mut suspended = 0i64;
    for ev in events.iter().filter(|e| e.seq == seq) {
        let depth = match ev.kind {
            TraceKind::RingEnter => {
                ring += 1;
                ring
            }
            TraceKind::RingExit => {
                ring -= 1;
                ring
            }
            TraceKind::ProxyStart => {
                proxy += 1;
                proxy
            }
            TraceKind::ProxyDone => {
                proxy -= 1;
                proxy
            }
            TraceKind::Suspend => {
                suspended += 1;
                suspended
            }
            TraceKind::Resume => {
                suspended -= 1;
                suspended
            }
            _ => continue,
        };
        assert!(
            depth >= 0,
            "seq {seq}: {:?} at t={} closes a span that never opened",
            ev.kind,
            ev.time
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For a family of small workloads: trace events are time-ordered, span
    /// begin/end events pair up per sequencer, shreds never end before they
    /// start, and interval samples ascend strictly in time on the sampling
    /// grid.
    #[test]
    fn trace_spans_nest_and_samples_ascend(
        case in (2u64..10, 2usize..5, 1usize..4, 0u64..3)
    ) {
        let (chunks, workers, ams, syscalls) = case;
        let params = WorkloadParams {
            chunks_per_worker: chunks,
            worker_syscalls: syscalls,
            ..tiny_params()
        };
        let interval = 7_500u64;
        let report = run_traced(params, workers, ams, interval);
        let trace = report.trace.as_ref().expect("trace requested");
        prop_assert_eq!(trace.dropped, 0, "fixture must fit the ring");

        // Chronological ring order.
        for pair in trace.events.windows(2) {
            prop_assert!(pair[0].time <= pair[1].time, "trace events out of order");
        }

        // Span pairing per sequencer; shred lifetime globally.
        for seq in 0..=(ams as u32) {
            assert_spans_pair_up(seq, &trace.events);
        }
        let mut live_shreds = 0i64;
        for ev in &trace.events {
            match ev.kind {
                TraceKind::ShredStart => live_shreds += 1,
                TraceKind::ShredEnd => live_shreds -= 1,
                _ => {}
            }
            prop_assert!(live_shreds >= 0, "a shred ended before any started");
        }

        // Samples strictly ascend on the sampling grid and stay within the
        // run.
        let metrics = report.metrics.as_ref().expect("sampler requested");
        prop_assert_eq!(metrics.interval, interval);
        let samples = &metrics.samples;
        prop_assert!(!samples.is_empty(), "run long enough to sample");
        for pair in samples.windows(2) {
            prop_assert!(pair[0].t < pair[1].t, "sample times must strictly ascend");
        }
        for s in samples {
            prop_assert_eq!(s.t % interval, 0, "samples land on the interval grid");
            prop_assert!(s.t <= report.total_cycles.as_u64() + interval);
        }
    }
}
