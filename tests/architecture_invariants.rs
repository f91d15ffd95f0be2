//! Cross-crate integration tests: the architectural invariants the MISP paper
//! relies on, checked end-to-end through the facade crate.

use misp::core::{MispMachine, MispTopology, OverheadModel};
use misp::isa::ProgramLibrary;
use misp::mem::AccessPattern;
use misp::os::TimerConfig;
use misp::sim::{EventLog, SimConfig, SimReport, TraceKind};
use misp::smp::SmpMachine;
use misp::types::{CostModel, Cycles, SignalCost};
use misp::workloads::{
    catalog, competitor, LocalityProfile, Machine, Run, RunOptions, Suite, Workload, WorkloadParams,
};
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

/// Each `SimStats` counter that mirrors one event-log kind equals that
/// kind's tally in the log of the run that produced it.
fn assert_counters_match_log(report: &SimReport, log: &EventLog, context: &str) {
    let stats = &report.stats;
    for (counter, kind) in [
        (stats.signals_sent, TraceKind::SignalSent),
        (stats.proxy_executions, TraceKind::ProxyRequest),
        (stats.context_switches, TraceKind::ContextSwitch),
    ] {
        assert_eq!(
            counter,
            log.count(kind),
            "{context}: counter vs {kind:?} tally"
        );
    }
}

/// Runs `workload` with 8 workers on a MISP machine, with one
/// single-threaded competitor on processor 0 if `competitor` is set, checks
/// the counters against the machine's event log, and returns the number of
/// context switches.
fn check_misp_counters(workload: &Workload, topology: MispTopology, competitor: bool) -> u64 {
    let mut library = ProgramLibrary::new();
    let scheduler = workload.build(&mut library, 8);
    let rival = competitor.then(|| competitor::competitor_program(&mut library, 0, 2_000_000_000));
    let processors = topology.processors().len();
    let mut machine = MispMachine::new(topology, config(), library);
    let pid = machine.add_process(workload.name(), Box::new(scheduler), Some(0));
    for proc_idx in 1..processors {
        machine.add_thread(pid, Some(proc_idx));
    }
    if let Some(program) = rival {
        let runtime = Box::new(competitor::competitor_runtime(program));
        machine.add_process("competitor", runtime, Some(0));
        machine.set_measured(vec![pid]);
    }
    let report = machine.run().unwrap();
    let context = format!(
        "{} on MISP {processors}P, competitor {competitor}",
        workload.name()
    );
    assert_counters_match_log(&report, machine.engine().core().log(), &context);
    report.stats.context_switches
}

/// `signals_sent`, `proxy_executions` and `context_switches` count the same
/// facts as the log's `SignalSent`, `ProxyRequest` and `ContextSwitch`
/// records, for every catalog workload on MISP 1+7, SMP 8 and one
/// sequencer, and under multiprogramming, where context switches happen.
#[test]
fn stats_counters_equal_their_event_log_tallies() {
    for workload in catalog::all() {
        check_misp_counters(&workload, MispTopology::uniprocessor(7).unwrap(), false);
        check_misp_counters(&workload, MispTopology::uniprocessor(0).unwrap(), false);

        let mut library = ProgramLibrary::new();
        let scheduler = workload.build(&mut library, 8);
        let mut smp = SmpMachine::new(8, config(), library);
        let pid = smp.add_process(workload.name(), Box::new(scheduler), Some(0));
        for core in 1..8 {
            smp.add_thread(pid, Some(core));
        }
        let report = smp.run().unwrap();
        let context = format!("{} on SMP 8", workload.name());
        assert_counters_match_log(&report, smp.engine().core().log(), &context);
    }
    let switches = check_misp_counters(
        &small_workload(),
        MispTopology::uniprocessor(7).unwrap(),
        true,
    );
    assert!(
        switches > 0,
        "a competitor on the same processor forces context switches"
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

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The one production JSON is the harness's results schema with its
/// metrics and trace sidecars, so only `misp-harness` and `misp-bench` name
/// serde in library code, plus the `Serialize` derive on
/// `misp_cache::CacheStats`, the one foreign type the schema embeds.  The
/// engine crates keep `serde` in `[dependencies]` until a benchmark change
/// re-locks `perf/`, so a re-added derive would still compile; this test
/// is what catches it.  Each file is read up to its first `#[cfg(test)]`;
/// comment lines are skipped.
#[test]
fn only_the_results_schema_uses_serde() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let cache_stats_file = root.join("cache/src/hierarchy.rs");
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut scanned = 0;
    let mut offenders = Vec::new();
    for entry in std::fs::read_dir(&root).expect("crates/ is readable") {
        let krate = entry.expect("directory entry").path();
        if !krate.is_dir() || krate.ends_with("harness") || krate.ends_with("bench") {
            continue;
        }
        for file in rust_files(&krate.join("src")) {
            scanned += 1;
            let text = std::fs::read_to_string(&file).expect("source is readable");
            let lines: Vec<&str> = text
                .lines()
                .take_while(|line| !line.starts_with("#[cfg(test)]"))
                .collect();
            for (index, line) in lines.iter().enumerate() {
                let code = line.trim();
                if code.starts_with("//") {
                    continue;
                }
                let names_serde = code
                    .split(|c: char| !is_ident(c))
                    .any(|token| matches!(token, "serde" | "Serialize" | "Deserialize"));
                let derives_cache_stats = code.starts_with("#[derive(")
                    && lines.get(index + 1).map(|l| l.trim()) == Some("pub struct CacheStats {");
                let cache_stats = file == cache_stats_file
                    && (code == "use serde::Serialize;" || derives_cache_stats);
                if names_serde && !cache_stats {
                    offenders.push(format!("{}:{}: {code}", file.display(), index + 1));
                }
            }
        }
    }
    assert!(scanned >= 50, "scanned only {scanned} files");
    assert!(
        offenders.is_empty(),
        "serde outside the results schema:\n{}",
        offenders.join("\n")
    );
}
