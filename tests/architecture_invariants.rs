//! Cross-crate integration tests: the architectural invariants the MISP paper
//! relies on, checked end-to-end through the facade crate.

use misp::core::{MispTopology, OverheadModel};
use misp::mem::AccessPattern;
use misp::os::TimerConfig;
use misp::sim::SimConfig;
use misp::types::{CostModel, Cycles, SignalCost};
use misp::workloads::{LocalityProfile, Machine, Run, RunOptions, Suite, Workload, WorkloadParams};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A small, fast workload used by most tests below.
fn small_workload() -> Workload {
    Workload::new(
        "itest",
        Suite::Rms,
        WorkloadParams {
            total_work: 400_000_000,
            serial_fraction: 0.05,
            main_pages: 20,
            worker_pages: 12,
            chunks_per_worker: 20,
            main_syscalls: 3,
            worker_syscalls: 0,
            access_pattern: AccessPattern::Shuffled { seed: 3 },
            lock_contention: false,
            locality: LocalityProfile::Revisit,
        },
    )
}

fn config() -> SimConfig {
    SimConfig {
        timer: TimerConfig::new(Cycles::new(3_000_000), 10),
        ..SimConfig::default()
    }
}

/// Runs `workload` with 8 workers on `machine` under the test config.
fn run_on(workload: &Workload, machine: Machine) -> misp::sim::SimReport {
    Run::workload(workload)
        .machine(machine)
        .config(config())
        .execute()
        .unwrap()
}

#[test]
fn misp_tracks_smp_within_a_few_percent() {
    let w = small_workload();
    let topo = MispTopology::uniprocessor(7).unwrap();
    let serial = run_on(&w, Machine::Serial);
    let misp = run_on(&w, Machine::Misp(topo.clone()));
    let smp = run_on(&w, Machine::smp(8));

    let misp_speedup = serial.total_cycles.as_f64() / misp.total_cycles.as_f64();
    let smp_speedup = serial.total_cycles.as_f64() / smp.total_cycles.as_f64();
    assert!(misp_speedup > 5.0, "MISP speedup {misp_speedup:.2}");
    assert!(smp_speedup > 5.0, "SMP speedup {smp_speedup:.2}");
    let gap = (misp_speedup - smp_speedup).abs() / smp_speedup;
    assert!(
        gap < 0.05,
        "MISP and SMP must stay within a few percent (paper Figure 4); gap = {:.1}%",
        gap * 100.0
    );
}

#[test]
fn ams_faults_are_exactly_the_proxy_executions() {
    let w = small_workload();
    let topo = MispTopology::uniprocessor(7).unwrap();
    let report = run_on(&w, Machine::Misp(topo.clone()));
    assert_eq!(
        report.stats.proxy_executions,
        report.stats.ams_events.total(),
        "every AMS-originated privileged event must be handled by proxy execution"
    );
    assert!(report.stats.ams_events.page_faults > 0);
    // The SMP baseline never uses proxy execution.
    let smp = run_on(&w, Machine::smp(8));
    assert_eq!(smp.stats.proxy_executions, 0);
    assert_eq!(smp.stats.ams_events.total(), 0);
    assert_eq!(smp.stats.serializations, 0);
}

#[test]
fn page_faults_are_compulsory_only() {
    // Total page faults (OMS + AMS) must equal the number of distinct pages
    // touched: main pages + per-worker pages (first touch faults exactly once
    // regardless of which sequencer touches it).
    let w = small_workload();
    let topo = MispTopology::uniprocessor(7).unwrap();
    let report = run_on(&w, Machine::Misp(topo.clone()));
    let expected = w.params().main_pages + w.params().worker_pages * 8;
    let measured = report.stats.oms_events.page_faults + report.stats.ams_events.page_faults;
    assert_eq!(measured, expected);
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let w = small_workload();
    let topo = MispTopology::uniprocessor(7).unwrap();
    let a = run_on(&w, Machine::Misp(topo.clone()));
    let b = run_on(&w, Machine::Misp(topo.clone()));
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.stats.oms_events, b.stats.oms_events);
    assert_eq!(a.stats.ams_events, b.stats.ams_events);
    assert_eq!(a.stats.proxy_executions, b.stats.proxy_executions);
    assert_eq!(a.stats.suspension_cycles, b.stats.suspension_cycles);
}

#[test]
fn signal_cost_sweep_is_monotone_and_small() {
    let w = small_workload();
    let topo = MispTopology::uniprocessor(7).unwrap();
    let run = |signal: SignalCost| {
        let cfg = config().with_costs(CostModel::builder().signal(signal).build());
        Run::workload(&w)
            .topology(topo.clone())
            .config(cfg)
            .execute()
            .unwrap()
            .total_cycles
    };
    let ideal = run(SignalCost::Ideal);
    let c500 = run(SignalCost::Aggressive500);
    let c1000 = run(SignalCost::Aggressive1000);
    let c5000 = run(SignalCost::Microcode5000);
    assert!(ideal <= c500 && c500 <= c1000 && c1000 <= c5000);
    let overhead = c5000.as_f64() / ideal.as_f64() - 1.0;
    assert!(
        overhead < 0.03,
        "5000-cycle signaling should cost at most a few percent, got {:.2}%",
        overhead * 100.0
    );
    // The analytic model (Equations 1-3) bounds the measured overhead from
    // above for this fault profile (it assumes no overlap between windows).
    let baseline = Run::workload(&w)
        .topology(topo.clone())
        .config(config().with_costs(CostModel::builder().signal(SignalCost::Ideal).build()))
        .execute()
        .unwrap();
    let model = OverheadModel::new(CostModel::default());
    let analytic = model.signal_overhead(
        baseline.stats.oms_events.total(),
        baseline.stats.ams_events.total(),
    );
    assert!(
        (c5000 - ideal).as_u64() <= analytic.as_u64() * 3,
        "measured overhead should be of the same order as the analytic bound"
    );
}

#[test]
fn speedup_never_exceeds_sequencer_count() {
    let w = small_workload();
    for ams in [0usize, 1, 3, 7] {
        let topo = MispTopology::uniprocessor(ams).unwrap();
        let serial = run_on(&w, Machine::Serial);
        let parallel = run_on(&w, Machine::Misp(topo.clone()));
        let speedup = serial.total_cycles.as_f64() / parallel.total_cycles.as_f64();
        assert!(
            speedup <= (ams + 1) as f64 + 0.01,
            "speedup {speedup:.2} exceeds {} sequencers",
            ams + 1
        );
        if ams > 0 {
            assert!(
                speedup > 1.0,
                "adding AMSs must help ({ams} AMSs: {speedup:.2})"
            );
        }
    }
}

#[test]
fn pretouch_moves_faults_from_ams_to_oms() {
    let w = small_workload();
    let topo = MispTopology::uniprocessor(7).unwrap();
    let base = run_on(&w, Machine::Misp(topo.clone()));
    let pre = Run::workload(&w)
        .topology(topo.clone())
        .config(config())
        .options(RunOptions {
            pretouch: true,
            ..RunOptions::default()
        })
        .execute()
        .unwrap();
    assert!(base.stats.ams_events.page_faults > 0);
    assert_eq!(pre.stats.ams_events.page_faults, 0);
    let total_base = base.stats.oms_events.page_faults + base.stats.ams_events.page_faults;
    let total_pre = pre.stats.oms_events.page_faults;
    assert_eq!(
        total_base, total_pre,
        "pre-touching must not change the fault total"
    );
}

/// The `key = value` keys of every `[table]` in a Cargo manifest, by table
/// name.  A line-based reader is enough for the workspace's manifests: no
/// multi-line values, no inline tables holding lint keys.
fn manifest_tables(text: &str) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut tables: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut current = String::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = name.trim().to_string();
            tables.entry(current.clone()).or_default();
        } else if let Some((key, value)) = line.split_once('=') {
            tables
                .entry(current.clone())
                .or_default()
                .insert(key.trim().to_string(), value.trim().to_string());
        }
    }
    tables
}

/// Every crate under `crates/` opts into the root `[workspace.lints]`
/// (unsafe hygiene, hash-iteration order, waiver reasons): a crate that left
/// out `[lints] workspace = true` would silently lose every static check.
/// The one alternative is a crate-local `[lints.rust]` / `[lints.clippy]`
/// pair naming every workspace lint key (misp-harness relaxes
/// `unsafe_code` to `deny` for its allocation counter).
#[test]
fn every_crate_opts_into_the_workspace_lints() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let workspace = manifest_tables(&read(&root.join("Cargo.toml")));
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("directory entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    crates.sort();
    assert!(crates.len() >= 10, "found only {crates:?}");

    for manifest in &crates {
        let tables = manifest_tables(&read(manifest));
        let opted_in = tables
            .get("lints")
            .and_then(|t| t.get("workspace"))
            .is_some_and(|v| v == "true");
        if opted_in {
            continue;
        }
        for tool in ["rust", "clippy"] {
            let required = &workspace[&format!("workspace.lints.{tool}")];
            assert!(!required.is_empty(), "no workspace {tool} lints");
            let local = tables.get(&format!("lints.{tool}"));
            for key in required.keys() {
                assert!(
                    local.is_some_and(|t| t.contains_key(key)),
                    "{} has no `[lints] workspace = true` and its `[lints.{tool}]` \
                     does not name `{key}`",
                    manifest.display()
                );
            }
        }
    }
}
