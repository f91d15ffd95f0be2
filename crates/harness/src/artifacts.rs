//! Sidecar observability artifacts: the interval-metrics JSONL stream and
//! the Chrome-trace/Perfetto export.
//!
//! The results document ([`crate::SweepResults`]) carries only *summaries*
//! of a run's observability data (counts and digests); the bulk data is
//! written to sidecar files by the helpers here.  Both artifact forms are
//! deterministic: each simulation run is internally single-threaded and the
//! harness emits runs in grid order, so the bytes are identical for any
//! `--threads` value — the determinism suite asserts exactly that.

use crate::exec::RunArtifacts;
use misp_trace::{IntervalSample, MetricsReport, TraceReport};
use serde::Serialize;

/// One line of the interval-metrics JSONL stream: a run identifier plus the
/// flattened [`IntervalSample`].  Lines are self-describing — the `run`
/// field makes the stream commutatively mergeable across harness shards
/// (concatenate, then group by `run`; each run's lines are already
/// time-ascending).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MetricsLine {
    /// Grid-point id the sample belongs to.
    pub run: String,
    /// End of the sampled interval, in simulated cycles.
    pub t: u64,
    /// Busy sequencer-cycles accrued during the interval.
    pub busy: u64,
    /// Stalled sequencer-cycles accrued during the interval.
    pub stalled: u64,
    /// Abstract operations executed during the interval.
    pub ops: u64,
    /// Event-queue occupancy at the sample instant.
    pub queue_len: u64,
    /// Ready (runnable, unscheduled) shreds at the sample instant.
    pub ready_shreds: u64,
    /// TLB hits during the interval.
    pub tlb_hits: u64,
    /// TLB misses during the interval.
    pub tlb_misses: u64,
    /// Memory-level cache misses during the interval (0 with the cache model
    /// off).
    pub cache_misses: u64,
    /// Outstanding service requests (admitted − completed − dropped) at the
    /// sample instant; 0 for non-scenario runs.
    pub service_outstanding: u64,
}

impl MetricsLine {
    /// Tags one sample with its run id.
    #[must_use]
    pub fn new(run: &str, sample: &IntervalSample) -> Self {
        MetricsLine {
            run: run.to_string(),
            t: sample.t,
            busy: sample.busy,
            stalled: sample.stalled,
            ops: sample.ops,
            queue_len: sample.queue_len,
            ready_shreds: sample.ready_shreds,
            tlb_hits: sample.tlb_hits,
            tlb_misses: sample.tlb_misses,
            cache_misses: sample.cache_misses,
            service_outstanding: sample.service_outstanding,
        }
    }
}

/// Appends one run's samples to a JSONL stream, one line per interval.
///
/// # Errors
///
/// Propagates serialization and I/O failures from the line writer.
pub fn append_metrics_jsonl<W: std::io::Write>(
    writer: &mut serde_json::LineWriter<W>,
    run_id: &str,
    report: &MetricsReport,
) -> Result<(), serde_json::Error> {
    for sample in &report.samples {
        writer.write(&MetricsLine::new(run_id, sample))?;
    }
    Ok(())
}

/// Serializes a whole sweep's interval metrics as one JSONL byte stream, in
/// grid order — the exact bytes `sweep --metrics-interval` writes, exposed
/// for the determinism tests.
///
/// # Errors
///
/// Propagates serialization failures.
pub fn metrics_jsonl(
    records: &[crate::RunRecord],
    artifacts: &[RunArtifacts],
) -> Result<Vec<u8>, serde_json::Error> {
    let mut writer = serde_json::LineWriter::new(Vec::new());
    for (record, artifact) in records.iter().zip(artifacts) {
        if let Some(metrics) = &artifact.metrics {
            append_metrics_jsonl(&mut writer, &record.id, metrics)?;
        }
    }
    Ok(writer.into_inner())
}

/// Renders a trace report as Chrome-trace/Perfetto JSON (one process per
/// sequencer, one thread per event lane); load the file in
/// <https://ui.perfetto.dev> or `chrome://tracing`.
#[must_use]
pub fn trace_json(report: &TraceReport) -> String {
    misp_trace::chrome_trace_json(&report.events)
}

/// Maps a grid-point id onto a filesystem-safe artifact file stem
/// (`"dense_mvm/misp"` → `"dense_mvm_misp"`).
#[must_use]
pub fn sanitize_run_id(id: &str) -> String {
    id.chars()
        .map(|c| match c {
            '/' | '\\' | ':' | ' ' => '_',
            c => c,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64) -> IntervalSample {
        IntervalSample {
            t,
            busy: 2 * t,
            ..IntervalSample::default()
        }
    }

    #[test]
    fn sanitizes_path_hostile_ids() {
        assert_eq!(sanitize_run_id("dense_mvm/misp"), "dense_mvm_misp");
        assert_eq!(sanitize_run_id("a:b c\\d"), "a_b_c_d");
        assert_eq!(sanitize_run_id("plain"), "plain");
    }

    #[test]
    fn jsonl_lines_are_self_describing() {
        let report = MetricsReport {
            interval: 10,
            samples: vec![sample(10), sample(20)],
            digest: 0,
        };
        let mut writer = serde_json::LineWriter::new(Vec::new());
        append_metrics_jsonl(&mut writer, "g/p", &report).unwrap();
        let bytes = writer.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let back: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            back.get("run"),
            Some(&serde_json::Value::String("g/p".into()))
        );
        assert_eq!(back.get("t").map(serde_json::Value::as_u64), Some(Ok(20)));
        assert_eq!(
            back.get("busy").map(serde_json::Value::as_u64),
            Some(Ok(40))
        );
    }

    #[test]
    fn sweep_level_stream_emits_runs_in_grid_order() {
        let report_a = MetricsReport {
            interval: 10,
            samples: vec![sample(10)],
            digest: 0,
        };
        let report_b = MetricsReport {
            interval: 10,
            samples: vec![sample(10)],
            digest: 0,
        };
        let mut records = Vec::new();
        let mut artifacts = Vec::new();
        for (id, report) in [("a", report_a), ("b", report_b)] {
            let record = crate::RunRecord {
                index: records.len() as u64,
                id: id.to_string(),
                kind: "sim".to_string(),
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
            };
            records.push(record);
            artifacts.push(RunArtifacts {
                metrics: Some(report),
                ..RunArtifacts::default()
            });
        }
        let bytes = metrics_jsonl(&records, &artifacts).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let runs: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str::<serde_json::Value>(l).unwrap())
            .map(|line| line.get("run").unwrap().clone())
            .collect();
        let id = |s: &str| serde_json::Value::String(s.to_string());
        assert_eq!(runs, [id("a"), id("b")]);
    }
}
