//! The versioned sweep-results schema.
//!
//! A sweep aggregates one [`RunRecord`] per grid point into a
//! [`SweepResults`] document.  The document is what the `sweep` binary
//! writes, what the golden-figure tests diff, and what downstream tooling
//! parses — so it is versioned ([`SCHEMA_VERSION`]) and contains only
//! deterministic data: no wall-clock times, no thread counts, no hash-map
//! iteration order.  Running the same grid with any `--threads` value
//! produces byte-identical JSON.

use misp_cache::CacheStats;
use misp_sim::SimReport;
use serde::Serialize;

/// Version of the results schema.  Bump when a field is added, removed or
/// reinterpreted so downstream consumers can dispatch on it.
///
/// Version history:
///
/// * **1** — initial schema.
/// * **2** — simulation records gained machine-wide TLB totals
///   (`tlb_hits`/`tlb_misses`/`tlb_flushes`), an optional `cache` metrics
///   section (present when the cache model is enabled), and the run
///   metadata gained an optional `cache` geometry label.
/// * **3** — open-loop scenario runs: simulation metrics gained a `service`
///   section (request counts, latency percentiles, throughput) and the run
///   metadata gained `scenario` and `offered_load` fields.  All three are
///   *omitted* — not serialized as `null` — when absent, so every version-2
///   field of a pre-existing record re-serializes byte-identically.
/// * **4** — observability: simulation metrics gained a `trace` summary
///   (event count, overwrite count, ring digest — present exactly when the
///   run was traced) and an `interval_metrics` summary (sampling period,
///   sample count, stream digest — present exactly when the sampler ran).
///   Like the version-3 additions both are *omitted* when absent, so a
///   default sweep re-serializes every version-3 field byte-identically; the
///   bulk data itself (trace events, JSONL samples) is written to sidecar
///   artifact files, never into this document.
/// * **5** — fleet simulation: records of fleet scenario runs gained a
///   `fleet` section (machine count, network latency, load-balancer policy,
///   fleet digest, and one per-machine entry with cycles, event-log digest,
///   dispatch count and service metrics); the top-level `sim` section of such
///   a record aggregates the whole fleet (max cycles, summed counters, merged
///   service percentiles, fleet digest as `log_digest`).  The section is
///   *omitted* for single-machine runs, so every version-4 record
///   re-serializes byte-identically.
pub const SCHEMA_VERSION: u32 = 5;

/// Request-serving metrics of one scenario run, flattened from
/// [`misp_sim::ServiceStats`].  Latencies are in cycles from *scheduled*
/// arrival to completion (the open-loop discipline: queueing and generator
/// lag count as latency); percentiles are integral bucket upper bounds
/// clamped to the observed maximum.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceMetrics {
    /// Requests admitted into the system.
    pub admitted: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests dropped at a full bounded queue.
    pub dropped: u64,
    /// Median request latency, in cycles.
    pub latency_p50: u64,
    /// 95th-percentile request latency, in cycles.
    pub latency_p95: u64,
    /// 99th-percentile request latency, in cycles.
    pub latency_p99: u64,
    /// 99.9th-percentile request latency, in cycles.
    pub latency_p999: u64,
    /// Arithmetic mean request latency, in cycles.
    pub latency_mean: f64,
    /// High-water mark of outstanding requests (queued + in service).
    pub max_outstanding: u64,
    /// Completed requests per billion cycles of measured runtime — the
    /// throughput the offered-load sweep plots.
    pub throughput_per_gcycle: f64,
}

impl ServiceMetrics {
    /// Flattens the engine's service statistics, using `total_cycles` (the
    /// run's end-to-end cycle count) for the throughput denominator.
    #[must_use]
    pub fn from_stats(stats: &misp_sim::ServiceStats, total_cycles: u64) -> Self {
        let (latency_p50, latency_p95, latency_p99, latency_p999) = stats.latency.percentiles();
        ServiceMetrics {
            admitted: stats.admitted,
            completed: stats.completed,
            dropped: stats.dropped,
            latency_p50,
            latency_p95,
            latency_p99,
            latency_p999,
            latency_mean: stats.latency.mean(),
            max_outstanding: stats.max_outstanding,
            throughput_per_gcycle: if total_cycles == 0 {
                0.0
            } else {
                stats.completed as f64 * 1.0e9 / total_cycles as f64
            },
        }
    }
}

/// Summary of the trace ring of one traced run.  The events themselves live
/// in the sidecar trace artifact; the record keeps just enough to check that
/// an artifact matches its run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceMetrics {
    /// Events retained in the ring at the end of the run.
    pub events: u64,
    /// Events overwritten after the ring filled (0 means the ring saw
    /// everything).
    pub dropped: u64,
    /// Hex-encoded deterministic digest of the retained events.
    pub digest: String,
}

impl TraceMetrics {
    /// Summarizes a trace report.
    #[must_use]
    pub fn from_report(report: &misp_sim::TraceReport) -> Self {
        TraceMetrics {
            events: report.events.len() as u64,
            dropped: report.dropped,
            digest: format!("{:016x}", report.digest),
        }
    }
}

/// Summary of the interval-metrics stream of one sampled run.  The samples
/// themselves live in the sidecar JSONL artifact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IntervalMetricsSummary {
    /// Sampling period, in simulated cycles.
    pub interval: u64,
    /// Number of samples taken.
    pub samples: u64,
    /// Hex-encoded deterministic digest of the sample stream.
    pub digest: String,
}

impl IntervalMetricsSummary {
    /// Summarizes a metrics report.
    #[must_use]
    pub fn from_report(report: &misp_sim::MetricsReport) -> Self {
        IntervalMetricsSummary {
            interval: report.interval,
            samples: report.samples.len() as u64,
            digest: format!("{:016x}", report.digest),
        }
    }
}

/// Metrics of one simulation run, flattened from the [`SimReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimMetrics {
    /// End-to-end cycles of the measured process(es).
    pub total_cycles: u64,
    /// Hex-encoded deterministic digest of the platform event log.
    pub log_digest: String,
    /// OMS-originated system calls.
    pub oms_syscalls: u64,
    /// OMS-originated page faults.
    pub oms_page_faults: u64,
    /// Timer interrupts taken on OMSs.
    pub oms_timer: u64,
    /// Other interrupts taken on OMSs.
    pub oms_other_interrupts: u64,
    /// AMS-originated system calls (proxy executions).
    pub ams_syscalls: u64,
    /// AMS-originated page faults (proxy executions).
    pub ams_page_faults: u64,
    /// Proxy-execution episodes.
    pub proxy_executions: u64,
    /// Serialization episodes (Ring 0 entries that suspended AMSs).
    pub serializations: u64,
    /// OS thread context switches.
    pub context_switches: u64,
    /// User-level `SIGNAL` instructions executed.
    pub signals_sent: u64,
    /// Total AMS cycles lost to suspension.
    pub suspension_cycles: u64,
    /// Machine-wide TLB hits.
    pub tlb_hits: u64,
    /// Machine-wide TLB misses.
    pub tlb_misses: u64,
    /// Machine-wide TLB flushes (CR3 writes).
    pub tlb_flushes: u64,
    /// Machine-wide cache totals; present exactly when the run modeled the
    /// cache hierarchy.
    pub cache: Option<CacheStats>,
    /// Speedup versus the run named by the spec's `baseline`
    /// (`baseline_cycles / total_cycles`); filled by the aggregator.
    pub speedup_vs_baseline: Option<f64>,
    /// Request-serving metrics; present exactly when the run drove an
    /// open-loop scenario (omitted from the JSON otherwise).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub service: Option<ServiceMetrics>,
    /// Trace-ring summary; present exactly when the run was traced (omitted
    /// from the JSON otherwise).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceMetrics>,
    /// Interval-metrics summary; present exactly when the sampler ran
    /// (omitted from the JSON otherwise).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub interval_metrics: Option<IntervalMetricsSummary>,
}

impl SimMetrics {
    /// Computes `baseline_cycles / total_cycles` for the
    /// `speedup_vs_baseline` field.
    ///
    /// Returns `None` — and logs a warning to stderr — when either side is
    /// zero: a zero-cycle run would otherwise serialize `inf` (or, with a
    /// zero baseline, a meaningless `0`) into the results JSON, which is not
    /// representable in strict JSON and poisons downstream tooling.
    #[must_use]
    pub fn speedup_vs_baseline(
        run_id: &str,
        baseline_cycles: u64,
        total_cycles: u64,
    ) -> Option<f64> {
        if baseline_cycles == 0 || total_cycles == 0 {
            eprintln!(
                "warning: run {run_id:?}: cannot compute speedup_vs_baseline \
                 (baseline_cycles = {baseline_cycles}, total_cycles = {total_cycles}); \
                 recording null"
            );
            return None;
        }
        Some(baseline_cycles as f64 / total_cycles as f64)
    }

    /// Flattens a [`SimReport`] into the schema's metrics record.
    #[must_use]
    pub fn from_report(report: &SimReport) -> Self {
        let s = &report.stats;
        SimMetrics {
            total_cycles: report.total_cycles.as_u64(),
            log_digest: format!("{:016x}", report.log_digest),
            oms_syscalls: s.oms_events.syscalls,
            oms_page_faults: s.oms_events.page_faults,
            oms_timer: s.oms_events.timer,
            oms_other_interrupts: s.oms_events.other_interrupts,
            ams_syscalls: s.ams_events.syscalls,
            ams_page_faults: s.ams_events.page_faults,
            proxy_executions: s.proxy_executions,
            serializations: s.serializations,
            context_switches: s.context_switches,
            signals_sent: s.signals_sent,
            suspension_cycles: s.suspension_cycles.as_u64(),
            tlb_hits: s.tlb.hits,
            tlb_misses: s.tlb.misses,
            tlb_flushes: s.tlb.flushes,
            cache: s.cache,
            speedup_vs_baseline: None,
            service: s
                .service
                .as_ref()
                .map(|svc| ServiceMetrics::from_stats(svc, report.total_cycles.as_u64())),
            trace: report.trace.as_ref().map(TraceMetrics::from_report),
            interval_metrics: report
                .metrics
                .as_ref()
                .map(IntervalMetricsSummary::from_report),
        }
    }

    /// Total serializing events, the Table 1 bottom line.
    #[must_use]
    pub fn total_serializing_events(&self) -> u64 {
        self.oms_syscalls
            + self.oms_page_faults
            + self.oms_timer
            + self.oms_other_interrupts
            + self.ams_syscalls
            + self.ams_page_faults
    }
}

/// One machine's slice of a fleet record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MachineMetrics {
    /// Machine index within the fleet (dispatch order).
    pub machine: u64,
    /// End-to-end cycles of this machine's measured process.
    pub total_cycles: u64,
    /// Hex-encoded deterministic digest of this machine's event log.
    pub log_digest: String,
    /// Requests the load balancer dispatched to this machine.
    pub requests_dispatched: u64,
    /// This machine's request-serving metrics; omitted when the machine's
    /// run carried no service model.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub service: Option<ServiceMetrics>,
}

/// Fleet-level metrics of one fleet scenario run (schema version 5).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetMetrics {
    /// Number of machines in the fleet.
    pub machines: u64,
    /// Cross-machine network latency, in cycles.
    pub network_latency: u64,
    /// Load-balancer policy label (`"rr"`, `"random"`, `"least"`).
    pub policy: String,
    /// Hex-encoded digest over every machine's event-log digest in machine
    /// order: the one number that proves two fleet runs identical.
    pub fleet_digest: String,
    /// One entry per machine, in machine order.
    pub per_machine: Vec<MachineMetrics>,
}

/// Structural metrics of one topology grid point (Figure 6).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TopologyMetrics {
    /// Human-readable shape, from `MispTopology::describe`.
    pub description: String,
    /// Number of MISP processors.
    pub processors: u64,
    /// Total sequencers across the machine.
    pub total_sequencers: u64,
    /// OS-visible CPUs (one per OMS).
    pub oms_count: u64,
    /// Application-managed sequencers.
    pub ams_count: u64,
    /// AMS count of each processor, in order.
    pub per_processor_ams: Vec<u64>,
}

/// Porting-coverage metrics of one Table 2 application.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PortMetrics {
    /// The paper's one-line description of the application.
    pub description: String,
    /// Threading-API calls analysed.
    pub api_calls: u64,
    /// Calls ShredLib's compatibility layer translates mechanically.
    pub mechanical: u64,
    /// Calls needing structural attention.
    pub structural: u64,
    /// Calls with no mapping at all.
    pub unmapped: u64,
    /// `mechanical / api_calls`, as a percentage.
    pub mechanical_percent: f64,
    /// Porting effort in days reported by the paper (reference only).
    pub paper_effort_days: f64,
    /// Whether the paper reports structural changes for this port.
    pub paper_structural_changes: bool,
}

/// One aggregated grid-point record: the run metadata plus exactly one of the
/// metric sections, depending on the run kind.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunRecord {
    /// Position of the point in the grid declaration.
    pub index: u64,
    /// Grid-point identifier.
    pub id: String,
    /// `"sim"`, `"topology"` or `"port-analysis"`.
    pub kind: String,
    /// Catalog workload name (simulation records only).
    pub workload: Option<String>,
    /// Machine label (simulation records only), e.g. `"misp:1x8"`.
    pub machine: Option<String>,
    /// Worker shred count (simulation records only).
    pub workers: Option<u64>,
    /// Signal cost in cycles (simulation records only; `None` means the
    /// default cost model).
    pub signal_cycles: Option<u64>,
    /// Whether page pre-touch was enabled.
    pub pretouch: bool,
    /// Ring-transition policy override, if any (`"suspend-all"` or
    /// `"speculative"`).
    pub ring_policy: Option<String>,
    /// Competitor-process load.
    pub competitors: u64,
    /// Whether the application spanned only AMS-carrying processors (the
    /// Figure 7 rule) rather than every processor.
    pub ams_span_only: bool,
    /// Cache-hierarchy geometry label (e.g. `"l1:64KiB/2w,l2:2MiB/8w"`);
    /// `None` when the run used the default disabled cache model.
    pub cache: Option<String>,
    /// Deterministic seed recorded for this point.
    pub seed: u64,
    /// The id of the baseline run, if the spec declared one.
    pub baseline: Option<String>,
    /// Simulation metrics (`kind == "sim"`).
    pub sim: Option<SimMetrics>,
    /// Topology metrics (`kind == "topology"`).
    pub topology: Option<TopologyMetrics>,
    /// Porting metrics (`kind == "port-analysis"`).
    pub port: Option<PortMetrics>,
    /// Scenario catalog name (scenario simulation records only; omitted from
    /// the JSON otherwise).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub scenario: Option<String>,
    /// Effective offered load in percent of pool capacity (scenario records
    /// only; omitted from the JSON otherwise).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub offered_load: Option<u32>,
    /// Fleet metrics (fleet scenario records only; omitted from the JSON
    /// otherwise).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fleet: Option<FleetMetrics>,
}

/// The aggregated results of one grid sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepResults {
    /// The results schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The grid name.
    pub grid: String,
    /// The grid description.
    pub description: String,
    /// Number of grid points.
    pub run_count: u64,
    /// One record per grid point, in declaration order.
    pub records: Vec<RunRecord>,
}

impl SweepResults {
    /// Looks a record up by grid-point id.
    #[must_use]
    pub fn record(&self, id: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// The simulation metrics of the record with the given id.
    #[must_use]
    pub fn sim(&self, id: &str) -> Option<&SimMetrics> {
        self.record(id).and_then(|r| r.sim.as_ref())
    }

    /// Serializes the document to the canonical pretty JSON form (trailing
    /// newline included) used by the `sweep` binary and the golden files.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures from the JSON emitter.
    pub fn to_canonical_json(&self) -> Result<String, serde_json::Error> {
        let mut json = serde_json::to_string_pretty(self)?;
        json.push('\n');
        Ok(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str) -> RunRecord {
        RunRecord {
            index: 0,
            id: id.to_string(),
            kind: "topology".to_string(),
            workload: None,
            machine: None,
            workers: None,
            signal_cycles: None,
            pretouch: false,
            ring_policy: None,
            competitors: 0,
            ams_span_only: false,
            cache: None,
            seed: 0,
            baseline: None,
            sim: None,
            topology: None,
            port: None,
            scenario: None,
            offered_load: None,
            fleet: None,
        }
    }

    #[test]
    fn speedup_guard_rejects_zero_on_either_side() {
        assert_eq!(SimMetrics::speedup_vs_baseline("r", 0, 100), None);
        assert_eq!(SimMetrics::speedup_vs_baseline("r", 100, 0), None);
        assert_eq!(SimMetrics::speedup_vs_baseline("r", 0, 0), None);
        let s = SimMetrics::speedup_vs_baseline("r", 200, 100).expect("both non-zero");
        assert!((s - 2.0).abs() < f64::EPSILON);
        let json = serde_json::to_string(&SimMetrics::speedup_vs_baseline("r", 0, 7)).unwrap();
        assert_eq!(
            json, "null",
            "guarded speedup serializes as null, not inf/NaN"
        );
    }

    #[test]
    fn lookup_by_id() {
        let results = SweepResults {
            schema_version: SCHEMA_VERSION,
            grid: "g".to_string(),
            description: String::new(),
            run_count: 2,
            records: vec![record("a"), record("b")],
        };
        assert_eq!(results.record("b").unwrap().id, "b");
        assert!(results.record("c").is_none());
        assert!(results.sim("a").is_none(), "topology record has no sim");
    }

    #[test]
    fn canonical_json_is_stable_and_newline_terminated() {
        let results = SweepResults {
            schema_version: SCHEMA_VERSION,
            grid: "g".to_string(),
            description: "d".to_string(),
            run_count: 1,
            records: vec![record("a")],
        };
        let a = results.to_canonical_json().unwrap();
        let b = results.to_canonical_json().unwrap();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"schema_version\": 5"));
    }

    /// Version-2 compatibility: the fields added in version 3 are omitted
    /// when absent, so a record that predates them serializes without any
    /// mention of `scenario`, `offered_load` or `service`.
    #[test]
    fn absent_v3_fields_are_omitted_not_null() {
        let json = serde_json::to_string(&record("a")).unwrap();
        assert!(!json.contains("scenario"), "{json}");
        assert!(!json.contains("offered_load"), "{json}");
        assert!(!json.contains("service"), "{json}");
        // Pre-existing optional fields keep their null representation.
        assert!(json.contains("\"workload\":null"), "{json}");
    }

    /// Version-3 compatibility: the observability summaries added in
    /// version 4 are omitted when the run was not traced or sampled, so a
    /// default sweep's metrics serialize without any mention of them.
    #[test]
    fn absent_v4_fields_are_omitted_not_null() {
        let report = misp_sim::SimReport {
            total_cycles: misp_types::Cycles::new(1),
            completions: std::collections::BTreeMap::new(),
            stats: misp_sim::SimStats::default(),
            log_digest: 0,
            trace: None,
            metrics: None,
            queue: misp_sim::QueueProfile::default(),
        };
        let metrics = SimMetrics::from_report(&report);
        let json = serde_json::to_string(&metrics).unwrap();
        assert!(!json.contains("\"trace\""), "{json}");
        assert!(!json.contains("interval_metrics"), "{json}");
    }

    #[test]
    fn observability_summaries_flatten_counts_and_hex_digests() {
        let trace = misp_sim::TraceReport {
            events: vec![misp_sim::TraceEvent {
                time: 7,
                seq: 0,
                kind: misp_sim::TraceKind::ShredStart,
            }],
            dropped: 3,
            digest: 0xabc,
        };
        let t = TraceMetrics::from_report(&trace);
        assert_eq!(t.events, 1);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.digest, "0000000000000abc");
        let metrics = misp_sim::MetricsReport {
            interval: 500,
            samples: vec![misp_sim::IntervalSample::default(); 2],
            digest: 0x1f,
        };
        let m = IntervalMetricsSummary::from_report(&metrics);
        assert_eq!(m.interval, 500);
        assert_eq!(m.samples, 2);
        assert_eq!(m.digest, "000000000000001f");
    }

    /// Version-4 compatibility: the fleet section added in version 5 is
    /// omitted from single-machine records, so they serialize without any
    /// mention of it.
    #[test]
    fn absent_v5_fields_are_omitted_not_null() {
        let json = serde_json::to_string(&record("a")).unwrap();
        assert!(!json.contains("\"fleet\""), "{json}");
        let fleet = FleetMetrics {
            machines: 2,
            network_latency: 200_000,
            policy: "rr".to_string(),
            fleet_digest: format!("{:016x}", 0xbeef_u64),
            per_machine: vec![MachineMetrics {
                machine: 0,
                total_cycles: 10,
                log_digest: format!("{:016x}", 1_u64),
                requests_dispatched: 5,
                service: None,
            }],
        };
        let json = serde_json::to_string(&fleet).unwrap();
        assert!(json.contains("\"policy\":\"rr\""), "{json}");
        assert!(
            !json.contains("\"service\""),
            "per-machine service is omitted when absent: {json}"
        );
    }

    #[test]
    fn service_metrics_flatten_counts_percentiles_and_throughput() {
        let mut stats = misp_sim::ServiceStats {
            admitted: 4,
            completed: 3,
            dropped: 1,
            max_outstanding: 2,
            ..misp_sim::ServiceStats::default()
        };
        for v in [10, 20, 30] {
            stats.latency.record(v);
        }
        let m = ServiceMetrics::from_stats(&stats, 1_000_000_000);
        assert_eq!(m.admitted, 4);
        assert_eq!(m.completed, 3);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.latency_p50, 20);
        assert_eq!(m.latency_p999, 30);
        assert!((m.latency_mean - 20.0).abs() < f64::EPSILON);
        assert!((m.throughput_per_gcycle - 3.0).abs() < 1e-12);
        // The zero-cycle guard mirrors the speedup guard: no inf in JSON.
        let z = ServiceMetrics::from_stats(&stats, 0);
        assert_eq!(z.throughput_per_gcycle, 0.0);
    }
}
