//! Parallel experiment-sweep harness for the MISP reproduction.
//!
//! Every figure and table of the paper is a *grid*: a cross product of
//! workloads, machines, topologies and configuration overrides.  This crate
//! declares grids as data ([`GridSpec`]/[`RunSpec`]), fans the points out
//! across OS threads with a work-stealing batch scheduler
//! ([`scheduler::run_batch`]), and aggregates the per-run
//! [`misp_sim::SimReport`]s into a versioned JSON document
//! ([`SweepResults`], schema version [`SCHEMA_VERSION`]).
//!
//! Because the simulation engine is strictly deterministic per run and every
//! record lands in its grid slot regardless of which worker produced it, the
//! aggregate is byte-identical for any `--threads` value.  [`run_grid`]
//! asserts exactly that invariant on every parallel sweep (see
//! [`VerifyMode`]), so a scheduling bug cannot silently corrupt results.
//!
//! # Example
//!
//! Run the Table 2 grid (the cheapest predefined sweep — pure analysis, no
//! simulation) and read one record back; `examples/custom_sweep.rs` shows a
//! simulation grid with baselines and speedups:
//!
//! ```
//! use misp_harness::{grids, run_grid, SweepOptions, VerifyMode};
//!
//! let options = SweepOptions { threads: 4, verify: VerifyMode::SpotCheck };
//! let results = run_grid(&grids::table2(), &options).unwrap();
//! assert_eq!(results.run_count, results.records.len() as u64);
//! let raytracer = results.record("RayTracer").unwrap();
//! assert!(raytracer.port.as_ref().unwrap().api_calls > 0);
//! ```
//!
//! The predefined grids live in [`grids`] and their text tables in
//! [`render`]; the `sweep` binary runs any of them from the command line.
//! `sweep fig4 --threads 8 --out results/fig4.json` writes the document and
//! prints Figure 4's table on stdout.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod artifacts;
mod exec;
mod results;
pub mod scheduler;
mod spec;

pub mod grids;
pub mod render;

pub use exec::{
    config_with_signal, execute_run, execute_run_with_artifacts, experiment_config, RunArtifacts,
};
pub use results::{
    FleetMetrics, IntervalMetricsSummary, MachineMetrics, PortMetrics, RunRecord, ServiceMetrics,
    SimMetrics, SweepResults, TopologyMetrics, TraceMetrics, SCHEMA_VERSION,
};
pub use spec::{
    FleetSpec, GridSpec, MachineSpec, RunKind, RunSpec, ScenarioSpec, SimSpec, TopologySpec,
    WorkSource,
};

use misp_types::Result;

/// How [`run_grid`] re-checks that parallel fan-out reproduced serial
/// execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Trust the engine's determinism; no re-execution.
    Off,
    /// Re-execute one deterministic grid point on the caller's thread and
    /// assert its record is identical to the parallel one.  Cheap (one extra
    /// run per sweep) and catches cross-thread state leaks.
    #[default]
    SpotCheck,
    /// Re-execute the whole grid serially and assert every record matches.
    /// Doubles the sweep cost; used by the determinism test suite.
    Full,
}

/// Options of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Number of OS threads to fan the grid out across.
    pub threads: usize,
    /// Determinism re-check mode.
    pub verify: VerifyMode,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            verify: VerifyMode::default(),
        }
    }
}

/// Runs every point of `grid` and aggregates the records into a
/// [`SweepResults`] document.
///
/// Points are distributed across `options.threads` OS threads by the
/// work-stealing batch scheduler; records are assembled in grid order, then
/// baseline references are resolved into `speedup_vs_baseline` values.  With
/// a parallel fan-out the determinism invariant is re-checked per
/// `options.verify`.
///
/// # Errors
///
/// Returns the first simulation or configuration error any grid point
/// produced (by grid order).
///
/// # Panics
///
/// Panics if the grid is malformed (duplicate ids, dangling baselines) or if
/// the determinism re-check fails — both are bugs, not input errors.
pub fn run_grid(grid: &GridSpec, options: &SweepOptions) -> Result<SweepResults> {
    run_grid_with_artifacts(grid, options).map(|(results, _)| results)
}

/// [`run_grid`] plus one [`RunArtifacts`] per grid point, in grid order.
///
/// The artifacts ride outside the [`SweepResults`] document: the results
/// schema stays free of bulk data, while callers that asked for tracing or
/// interval metrics can stream the by-products to sidecar files (see
/// [`artifacts`]).  Because each record lands in its grid slot regardless of
/// which worker produced it and every run is internally single-threaded, the
/// artifacts — like the records — are byte-identical for any thread count.
///
/// # Errors
///
/// Same failure modes as [`run_grid`].
///
/// # Panics
///
/// Same panic conditions as [`run_grid`].
pub fn run_grid_with_artifacts(
    grid: &GridSpec,
    options: &SweepOptions,
) -> Result<(SweepResults, Vec<RunArtifacts>)> {
    grid.validate();
    let outcomes = scheduler::run_batch(grid.runs.len(), options.threads, |index| {
        execute_run_with_artifacts(index, &grid.runs[index])
    });
    let mut records = Vec::with_capacity(outcomes.len());
    let mut artifacts = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let (record, artifact) = outcome?;
        records.push(record);
        artifacts.push(artifact);
    }

    if options.threads > 1 && !records.is_empty() {
        match options.verify {
            VerifyMode::Off => {}
            VerifyMode::SpotCheck => {
                let index = records.len() / 2;
                verify_record(grid, index, &records[index]);
            }
            VerifyMode::Full => {
                for (index, record) in records.iter().enumerate() {
                    verify_record(grid, index, record);
                }
            }
        }
    }

    // Resolve baseline references into speedups.  Topology and port-analysis
    // records have no cycle counts, so only sim records participate.
    let cycles_by_id: std::collections::BTreeMap<String, u64> = records
        .iter()
        .filter_map(|r| r.sim.as_ref().map(|s| (r.id.clone(), s.total_cycles)))
        .collect();
    for record in &mut records {
        let Some(baseline_id) = record.baseline.clone() else {
            continue;
        };
        if let (Some(sim), Some(&baseline_cycles)) =
            (record.sim.as_mut(), cycles_by_id.get(&baseline_id))
        {
            sim.speedup_vs_baseline =
                SimMetrics::speedup_vs_baseline(&record.id, baseline_cycles, sim.total_cycles);
        }
    }

    Ok((
        SweepResults {
            schema_version: SCHEMA_VERSION,
            grid: grid.name.clone(),
            description: grid.description.clone(),
            run_count: records.len() as u64,
            records,
        },
        artifacts,
    ))
}

/// Re-executes grid point `index` serially and asserts the parallel record
/// matches bit for bit.
fn verify_record(grid: &GridSpec, index: usize, parallel: &RunRecord) {
    let serial = execute_run(index, &grid.runs[index])
        .expect("a grid point that succeeded in parallel must succeed serially");
    assert_eq!(
        &serial, parallel,
        "grid {}: point {} produced a different record under parallel \
         fan-out than under serial execution — the engine or the scheduler \
         violated determinism",
        grid.name, grid.runs[index].id
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> GridSpec {
        GridSpec::new("small", "three quick points")
            .run(RunSpec::sim(
                "dense_mvm/serial",
                SimSpec::workload("dense_mvm", MachineSpec::Serial, 4),
            ))
            .run(
                RunSpec::sim(
                    "dense_mvm/misp",
                    SimSpec::workload(
                        "dense_mvm",
                        MachineSpec::Misp(TopologySpec::Uniprocessor { ams: 3 }),
                        4,
                    ),
                )
                .with_baseline("dense_mvm/serial"),
            )
            .run(RunSpec::topology("1x8", TopologySpec::Single8))
    }

    #[test]
    fn parallel_and_serial_sweeps_are_byte_identical() {
        let grid = small_grid();
        let serial = run_grid(
            &grid,
            &SweepOptions {
                threads: 1,
                verify: VerifyMode::Off,
            },
        )
        .unwrap();
        let parallel = run_grid(
            &grid,
            &SweepOptions {
                threads: 4,
                verify: VerifyMode::Full,
            },
        )
        .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.to_canonical_json().unwrap(),
            parallel.to_canonical_json().unwrap()
        );
    }

    #[test]
    fn baselines_resolve_into_speedups() {
        let results = run_grid(&small_grid(), &SweepOptions::default()).unwrap();
        let misp = results.sim("dense_mvm/misp").unwrap();
        let speedup = misp.speedup_vs_baseline.expect("baseline resolved");
        assert!(speedup > 1.0, "4-sequencer run beats serial: {speedup}");
        assert!(
            results
                .sim("dense_mvm/serial")
                .unwrap()
                .speedup_vs_baseline
                .is_none(),
            "the baseline itself has no baseline"
        );
    }

    #[test]
    fn errors_propagate_from_grid_points() {
        let grid = GridSpec::new("bad", "").run(RunSpec::sim(
            "x",
            SimSpec::workload("no-such-workload", MachineSpec::Serial, 4),
        ));
        assert!(run_grid(&grid, &SweepOptions::default()).is_err());
    }
}
