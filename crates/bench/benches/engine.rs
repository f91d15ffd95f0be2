//! Engine wall-clock trajectory bench: times the full `fig4` sweep on one
//! thread (the macro-step fast path, the default), fig4's workload × machine
//! matrix run directly with the fast path on and force-disabled (the
//! event-per-operation reference loop), plus the `fleet_service` sweep (the
//! multi-machine path), and *appends* the measurements to
//! `BENCH_engine.json` at the repository root so the repo carries a
//! machine-readable perf trajectory from PR to PR.
//!
//! Regenerate with:
//!
//! ```text
//! MISP_BENCH_PR=<short-pr-slug> cargo bench -p misp-bench --bench engine
//! ```
//!
//! Schema v2: `entries[]` accumulates across PRs, each entry tagged with the
//! `pr` slug that measured it (`MISP_BENCH_PR`, default `"dev"`).  Re-running
//! under the same slug replaces that slug's entries, so regeneration is
//! idempotent.  After writing, the bench *fails* if the fresh `macro-step`
//! ops/sec regressed more than 10% below the best previously committed entry
//! on the same grid — set `MISP_BENCH_GATE=off` to bypass when measuring on
//! an incomparable machine.
//!
//! CI's `bench-trajectory` job runs the same target with `-- --test` (one
//! measured iteration per configuration) and uploads the emitted document as
//! an artifact next to the sweep-smoke results.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use misp_core::{FleetTopology, LoadBalancerPolicy};
use misp_harness::{grids, run_grid, run_grid_with_artifacts, GridSpec, SweepOptions, VerifyMode};
use misp_sim::{QueueProfile, SimConfig};
use misp_workloads::{catalog, scenario, Machine, Run};
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// One measured configuration of the grid.
#[derive(Debug, Clone, Serialize)]
struct BenchEntry {
    /// Short slug of the PR that measured this entry.
    pr: String,
    /// The measured grid.
    grid: String,
    /// `"macro-step"` (batching on) or `"event-per-op"` (batching off).
    config: String,
    /// Total simulated operations executed by one sweep of the grid.
    total_ops: u64,
    /// Wall-clock milliseconds of one single-threaded sweep of the grid
    /// (best of the measured iterations).  Newer `event-per-op` entries
    /// time fig4's matrix run directly through `Run`, without the sweep's
    /// record assembly, so they read slightly below older sweep timings.
    wall_ms: f64,
    /// Simulated operations retired per wall-clock second at that speed.
    ops_per_sec: f64,
    /// Largest simultaneous event-queue occupancy seen across the sweep's
    /// radix heaps.  `None` in entries measured before self-profiling landed.
    #[serde(skip_serializing_if = "Option::is_none")]
    heap_max_len: Option<u64>,
    /// Total bucket redistributions performed by the sweep's radix heaps.
    #[serde(skip_serializing_if = "Option::is_none")]
    heap_redistributions: Option<u64>,
    /// Total superseded-slot replacements absorbed by the sweep's radix
    /// heaps.
    #[serde(skip_serializing_if = "Option::is_none")]
    heap_supersessions: Option<u64>,
}

/// The `BENCH_engine.json` document (schema v2).
#[derive(Debug, Serialize)]
struct BenchDoc {
    schema_version: u32,
    /// Per-PR measurements, append-only (oldest first).
    entries: Vec<BenchEntry>,
    /// Wall-clock of fig4's matrix run directly with batching off, divided
    /// by the same with batching on.
    speedup_macro_step: f64,
    /// Wall-clock of the pre-macro-step seed engine on the same grid and
    /// machine, when known (passed via `MISP_BENCH_SEED_MS`; the seed
    /// predates this bench, so it cannot be regenerated from the current
    /// tree).  `null` in CI-regenerated documents.
    reference_seed_wall_ms: Option<f64>,
    /// `reference_seed_wall_ms` divided by the latest macro-step wall-clock.
    speedup_vs_seed: Option<f64>,
}

/// Reads one committed entry back through the JSON value tree.
fn parse_entry(entry: &Value) -> Option<BenchEntry> {
    let text = |key| match entry.get(key) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    };
    let uint = |key| entry.get(key).and_then(|v| v.as_u64().ok());
    let float = |key| entry.get(key).and_then(|v| v.as_f64().ok());
    Some(BenchEntry {
        pr: text("pr")?,
        grid: text("grid")?,
        config: text("config")?,
        total_ops: uint("total_ops")?,
        wall_ms: float("wall_ms")?,
        ops_per_sec: float("ops_per_sec")?,
        heap_max_len: uint("heap_max_len"),
        heap_redistributions: uint("heap_redistributions"),
        heap_supersessions: uint("heap_supersessions"),
    })
}

/// Loads previously committed entries (plus the seed reference).
fn load_prior(path: &PathBuf) -> (Vec<BenchEntry>, Option<f64>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), None);
    };
    let doc = serde_json::from_str::<Value>(&text).unwrap_or(Value::Null);
    let entries = match (doc.get("schema_version"), doc.get("entries")) {
        (Some(version), Some(Value::Array(entries))) if version.as_u64() == Ok(2) => {
            entries.iter().map(parse_entry).collect::<Option<Vec<_>>>()
        }
        _ => None,
    };
    let entries = entries.expect("BENCH_engine.json exists but is not a schema v2 document");
    let seed = doc
        .get("reference_seed_wall_ms")
        .and_then(|v| v.as_f64().ok());
    (entries, seed)
}

/// Runs fig4's workload × machine matrix directly through [`Run`] under
/// `config`, returning the simulated operations retired and the summed
/// event-queue profile (the sweep results intentionally carry neither).
fn fig4_matrix(config: SimConfig) -> (u64, QueueProfile) {
    let topo = misp_core::MispTopology::uniprocessor(7).expect("1 OMS + 7 AMS");
    let mut ops = 0u64;
    let mut queue = QueueProfile::default();
    for w in catalog::all() {
        for machine in [
            Machine::Serial,
            Machine::Misp(topo.clone()),
            Machine::smp(8),
        ] {
            let report = Run::workload(&w)
                .machine(machine)
                .config(config)
                .execute()
                .expect("fig4 machine run");
            ops += report
                .stats
                .per_sequencer
                .iter()
                .map(|s| s.ops)
                .sum::<u64>();
            queue.absorb(&report.queue);
        }
    }
    (ops, queue)
}

/// Counts the simulated operations of one fleet_service sweep by re-running
/// its (fleet size × policy × load × machine) matrix through the direct
/// fleet runner, mirroring `grids::fleet_service`.
fn fleet_service_total_ops() -> u64 {
    let config = misp_harness::experiment_config();
    let topo = misp_core::MispTopology::uniprocessor(7).expect("1 OMS + 7 AMS");
    let mut points: Vec<(usize, LoadBalancerPolicy, u32)> = Vec::new();
    for machines in grids::fleet_machine_points() {
        for policy in LoadBalancerPolicy::all() {
            points.push((machines, policy, 60));
        }
    }
    points.push((16, LoadBalancerPolicy::RoundRobin, 90));

    let mut total = 0u64;
    for (machines, policy, load) in points {
        let s = scenario::by_name("poisson")
            .expect("catalog scenario")
            .with_offered_load(load);
        let fleet = FleetTopology::new(machines, policy).expect("valid fleet");
        for machine in [Machine::Misp(topo.clone()), Machine::smp(8)] {
            let report = Run::scenario(&s)
                .machine(machine)
                .config(config)
                .seed(grids::SERVICE_SEED)
                .execute_fleet(&fleet)
                .expect("fleet_service point runs");
            total += report
                .reports
                .iter()
                .flat_map(|r| r.stats.per_sequencer.iter())
                .map(|s| s.ops)
                .sum::<u64>();
        }
    }
    total
}

/// Aggregates the radix-heap self-profile over one single-threaded sweep of
/// `grid`: max occupancy, bucket redistributions, and superseded-slot
/// replacements summed across every simulation point.  Runs outside the
/// timed iterations so harvesting never skews the wall-clock numbers.
fn heap_profile(grid: &GridSpec) -> QueueProfile {
    let options = SweepOptions {
        threads: 1,
        verify: VerifyMode::Off,
    };
    let (_, artifacts) = run_grid_with_artifacts(grid, &options).expect("fig4 sweeps cleanly");
    let mut total = QueueProfile::default();
    for profile in artifacts.iter().filter_map(|a| a.queue.as_ref()) {
        total.absorb(profile);
    }
    total
}

/// Times `job`, best of `iters` runs, in milliseconds.
#[allow(
    clippy::disallowed_methods,
    reason = "the bench measures host wall-clock time around whole deterministic runs"
)]
fn time_best<T>(iters: usize, mut job: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        black_box(job());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Times one single-threaded sweep of `grid`, best of `iters` runs.
fn time_grid(grid: &GridSpec, iters: usize) -> f64 {
    let options = SweepOptions {
        threads: 1,
        verify: VerifyMode::Off,
    };
    time_best(iters, || {
        run_grid(grid, &options).expect("grid sweeps cleanly")
    })
}

fn emit_trajectory(test_mode: bool) {
    let iters = if test_mode { 1 } else { 12 };
    let pr = std::env::var("MISP_BENCH_PR").unwrap_or_else(|_| "dev".to_string());
    let batched = grids::fig4();
    let macro_step = misp_harness::experiment_config();
    let event_per_op = SimConfig {
        batch: false,
        ..macro_step
    };
    let fleet_grid = grids::fleet_service();
    let on_ms = time_grid(&batched, iters);
    let matrix_on_ms = time_best(iters, || fig4_matrix(macro_step));
    let off_ms = time_best(iters, || fig4_matrix(event_per_op));
    let fleet_ms = time_grid(&fleet_grid, iters);
    let (total_ops, _) = fig4_matrix(macro_step);
    let (_, off_heap) = fig4_matrix(event_per_op);
    let fleet_ops = fleet_service_total_ops();
    let entry = |grid: &str, config: &str, ops: u64, wall_ms: f64, heap: QueueProfile| BenchEntry {
        pr: pr.clone(),
        grid: grid.to_string(),
        config: config.to_string(),
        total_ops: ops,
        wall_ms: (wall_ms * 1000.0).round() / 1000.0,
        ops_per_sec: (ops as f64 / (wall_ms / 1e3)).round(),
        heap_max_len: Some(heap.max_len),
        heap_redistributions: Some(heap.redistributions),
        heap_supersessions: Some(heap.supersessions),
    };

    // crates/bench/ -> repository root.
    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_engine.json"]
        .iter()
        .collect();
    let (prior, prior_seed) = load_prior(&out);

    // Best previously committed macro-step throughput on this grid — the
    // regression baseline.  Entries from the current slug are excluded (a
    // re-run replaces them below).
    let best_committed = prior
        .iter()
        .filter(|e| e.pr != pr && e.grid == "fig4" && e.config == "macro-step")
        .map(|e| e.ops_per_sec)
        .fold(f64::NAN, f64::max);

    let seed_ms = std::env::var("MISP_BENCH_SEED_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .or(prior_seed);
    let mut entries: Vec<BenchEntry> = prior.into_iter().filter(|e| e.pr != pr).collect();
    let fresh = entry(
        "fig4",
        "macro-step",
        total_ops,
        on_ms,
        heap_profile(&batched),
    );
    let fresh_ops_per_sec = fresh.ops_per_sec;
    entries.push(fresh);
    entries.push(entry("fig4", "event-per-op", total_ops, off_ms, off_heap));
    // The fleet case rides along for trajectory visibility; the regression
    // gate below stays anchored on the fig4 macro-step entry.
    entries.push(entry(
        "fleet_service",
        "fleet",
        fleet_ops,
        fleet_ms,
        heap_profile(&fleet_grid),
    ));
    let doc = BenchDoc {
        schema_version: 2,
        entries,
        speedup_macro_step: ((off_ms / matrix_on_ms) * 100.0).round() / 100.0,
        reference_seed_wall_ms: seed_ms,
        speedup_vs_seed: seed_ms.map(|s| ((s / on_ms) * 100.0).round() / 100.0),
    };
    let mut json = serde_json::to_string_pretty(&doc).expect("serializable");
    json.push('\n');
    std::fs::write(&out, &json).expect("write BENCH_engine.json");
    println!(
        "BENCH_engine.json [{pr}]: macro-step {on_ms:.2} ms; direct matrix {matrix_on_ms:.2} ms, \
         event-per-op {off_ms:.2} ms ({:.2}x), {total_ops} simulated ops; fleet_service \
         {fleet_ms:.2} ms, {fleet_ops} ops -> {}",
        off_ms / matrix_on_ms,
        out.display()
    );

    // Regression gate: written-then-checked so the artifact always carries
    // the offending measurement.
    let gate_off = std::env::var("MISP_BENCH_GATE").is_ok_and(|v| v == "off");
    if !gate_off && best_committed.is_finite() && fresh_ops_per_sec < 0.9 * best_committed {
        panic!(
            "engine throughput regression: {fresh_ops_per_sec:.0} ops/sec is more than 10% \
             below the best committed macro-step entry ({best_committed:.0} ops/sec); \
             set MISP_BENCH_GATE=off to bypass on an incomparable machine"
        );
    }
}

fn bench_engine(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    emit_trajectory(test_mode);
    // Also surface the sweep through the regular criterion output so the
    // bench-smoke job exercises the timed path.
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("fig4_sweep_macro_step", |b| {
        let grid = grids::fig4();
        let options = SweepOptions {
            threads: 1,
            verify: VerifyMode::Off,
        };
        b.iter(|| {
            black_box(
                run_grid(&grid, &options)
                    .expect("fig4 sweeps cleanly")
                    .run_count,
            )
        });
    });
    group.bench_function("fleet_service_sweep", |b| {
        let grid = grids::fleet_service();
        let options = SweepOptions {
            threads: 1,
            verify: VerifyMode::Off,
        };
        b.iter(|| {
            black_box(
                run_grid(&grid, &options)
                    .expect("fleet_service sweeps cleanly")
                    .run_count,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
