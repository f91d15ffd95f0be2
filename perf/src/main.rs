//! `perf` — the repository's benchmark: seeded simulator workloads timed
//! from outside, end to end and layer by layer.  README.md has the metrics,
//! workloads, bounds and how to compare two commits.
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload` it runs one workload in this process and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0` (the default), the
//! per-layer metrics with `--trace 1`.  Without `--workload` it runs every
//! workload, each in a child process of its own (so each peak RSS is its
//! own), traced unless `--trace 0` is given.  The exit code is non-zero on
//! any failed check.

mod host;
mod replay;
mod spans;
mod stats;
mod workload;

use host::{now, ns, SchedStat};
use spans::{Recorder, MEMBERS};
use stats::{median, quantile, tail_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use workload::{Counts, Kind, Point, PointDigest, Size};

/// The seed the committed digests and baselines are measured at.
pub const DEFAULT_SEED: u64 = 2026;
/// Seconds each workload measures when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Fewest untraced repetitions a run reports, however short `--seconds`.
const MIN_REPS: usize = 5;
/// Fewest and most traced repetitions (otherwise a tenth of the untraced).
const TRACED_REPS: (usize, usize) = (8, 100);
/// Pops of the queue-replay script.
const REPLAY_POPS: usize = 1 << 18;
/// Hold times the queue replay draws from a workload's programs.
const REPLAY_GAPS: usize = 1 << 16;
/// The quantile of per-repetition host times every timing reports: the
/// fast decile.  On a shared host, neighbours' memory traffic slows the
/// simulator by up to 1.75x for seconds at a time (README, "Noise");
/// contention only ever adds time, so a low quantile follows the code and
/// not the neighbours, where the median flips between the two states.
const TIME_QUANTILE: f64 = 0.1;
/// Failure messages kept for the report.
const MAX_NOTES: usize = 8;

const USAGE: &str = "usage: perf [--workload fig4|service|fleet16|cache_stream|cache_shared] \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                parsed.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(parsed)
}

/// Timings of one untraced repetition.
#[derive(Debug, Clone, Copy)]
struct Rep {
    wall_ns: u64,
    setup_ns: u64,
    sim_ns: u64,
    ops: u64,
}

/// Everything one workload run measured.
#[derive(Debug)]
struct Measurement {
    points: Vec<Point>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    digest: u64,
    reps: Vec<Rep>,
    peak_rss_mib: f64,
    traced: Option<Traced>,
}

/// What the traced phase measured.
#[derive(Debug)]
struct Traced {
    counts: Counts,
    /// Per traced repetition: wall (without the fleet members re-run) and
    /// the self time of every span name.
    reps: Vec<(u64, BTreeMap<&'static str, u64>)>,
    /// Wall of the untraced rep run just before each traced one.
    plain_walls: Vec<u64>,
    members_ns: Vec<u64>,
    replay: replay::Replay,
    calib_ns: Vec<f64>,
    wait_frac: f64,
    coverage: f64,
    spans_file: Result<String, String>,
}

/// Runs the points and checks every result against the expected digests
/// and counts; failures are tallied, never fatal.
struct Runner<'a> {
    points: &'a [Point],
    expected: Vec<Option<PointDigest>>,
    expected_counts: Option<Counts>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Runner<'_> {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }

    /// One repetition over every point; returns its timings and counts.
    fn rep(&mut self, rec: &mut Recorder) -> (Rep, Counts) {
        let mut rep = Rep {
            wall_ns: 0,
            setup_ns: 0,
            sim_ns: 0,
            ops: 0,
        };
        let mut counts = Counts::default();
        let begin = now();
        for (i, point) in self.points.iter().enumerate() {
            self.attempted += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| point.run(i as u32, rec)))
                .unwrap_or_else(|payload| Err(workload::panic_error(payload.as_ref())));
            match outcome {
                Ok(run) => {
                    rep.setup_ns += run.setup_ns;
                    rep.sim_ns += run.sim_ns;
                    rep.ops += run.counts.ops;
                    counts.absorb(&run.counts);
                    match &self.expected[i] {
                        Some(d) if *d != run.digest => self.fail(format!(
                            "{}: digest {:016x} differs from {:016x}",
                            point.id, run.digest.log, d.log
                        )),
                        Some(_) => {}
                        None => self.expected[i] = Some(run.digest),
                    }
                }
                Err(e) => self.fail(format!("{}: {e}", point.id)),
            }
        }
        rep.wall_ns = ns(begin, now());
        (rep, counts)
    }

    /// Checks the report-derived counts of an untraced repetition.
    fn check_counts(&mut self, counts: &Counts) {
        match &self.expected_counts {
            Some(c) if c != counts => self.fail("simulated counts differ between reps".into()),
            Some(_) => {}
            None => self.expected_counts = Some(*counts),
        }
    }
}

/// Measures one workload: two warm-up reps (the first through `Run`, the
/// reference path), untraced reps for `seconds`, then — when `trace` — the
/// traced reps, the fleet members standalone, the queue replay and the
/// host diagnostics.
fn measure(kind: Kind, seed: u64, seconds: f64, trace: bool, size: Size) -> Measurement {
    let points = workload::generate(kind, seed, size);
    let calib_before = if trace { host::calibrate() } else { Vec::new() };
    let mut runner = Runner {
        points: &points,
        expected: vec![None; points.len()],
        expected_counts: None,
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };

    // Warm-up 1: the reference path sets the expected digests.
    for (i, point) in points.iter().enumerate() {
        runner.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| point.reference()))
            .unwrap_or_else(|payload| Err(workload::panic_error(payload.as_ref())))
        {
            Ok(d) => runner.expected[i] = Some(d),
            Err(e) => runner.fail(format!("{} (reference): {e}", point.id)),
        }
    }
    // Warm-up 2: the split calls must reproduce it.
    let (_, counts) = runner.rep(&mut Recorder::off());
    runner.check_counts(&counts);

    let digests: Vec<PointDigest> = runner.expected.iter().flatten().cloned().collect();
    let digest = workload::workload_digest(&points, &digests);
    if seed == DEFAULT_SEED && size == Size::Full && digest != kind.committed_digest() {
        runner.fail(format!(
            "workload digest {digest:016x} differs from the committed {:016x}",
            kind.committed_digest()
        ));
    }

    let sched_before = SchedStat::read();
    let phase = now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || (ns(phase, now()) as f64) < seconds * 1e9 {
        let (rep, counts) = runner.rep(&mut Recorder::off());
        runner.check_counts(&counts);
        reps.push(rep);
    }
    let wait_frac = SchedStat::read().wait_frac_since(&sched_before);
    let peak_rss_mib = host::peak_rss_mib().unwrap_or_else(|e| {
        runner.fail(e);
        f64::NAN
    });

    let traced = trace.then(|| {
        let n = (reps.len() / 10).clamp(TRACED_REPS.0, TRACED_REPS.1);
        let mut rec = Recorder::on();
        let mut walls = Vec::with_capacity(n);
        let mut counts = Counts::default();
        let mut plain_walls = Vec::with_capacity(n);
        for r in 0..n {
            // An untraced rep right before each traced one: the overhead
            // compares neighbours, so host drift between phases cancels.
            let (plain, c) = runner.rep(&mut Recorder::off());
            runner.check_counts(&c);
            plain_walls.push(plain.wall_ns);
            rec.set_rep(r as u32);
            let (rep, c) = runner.rep(&mut rec);
            walls.push(rep.wall_ns);
            if r > 0 && c != counts {
                runner.fail("traced counts differ between reps".into());
            }
            counts = c;
            for (i, point) in points.iter().enumerate() {
                let Some(members) = point.run_members(i as u32, &mut rec) else {
                    continue;
                };
                runner.attempted += 1;
                match (members, &runner.expected[i]) {
                    (Ok(m), Some(d)) if m == d.machines => {}
                    (Ok(_), _) => runner.fail(format!(
                        "{}: standalone members differ from the fleet's",
                        point.id
                    )),
                    (Err(e), _) => runner.fail(format!("{} (members): {e}", point.id)),
                }
            }
        }
        let spans = rec.spans();
        let by_rep = spans::self_ns_by_rep(spans);
        let mut members_ns = vec![0u64; n];
        for s in spans {
            if s.name.starts_with("sim.") && s.parent.is_some_and(|p| spans[p].name == MEMBERS) {
                members_ns[s.rep as usize] += s.dur();
            }
        }
        let gaps: Vec<u64> = points
            .iter()
            .flat_map(|p| p.compute_gaps(REPLAY_GAPS))
            .take(REPLAY_GAPS)
            .collect();
        let replay = replay::HoldModel {
            gaps,
            lanes: misp_harness::grids::SEQUENCERS as u32,
            tick_period: points[0].timer_period(),
            supersede_ratio: ratio(counts.supersessions, counts.pushes),
            pops: REPLAY_POPS,
            seed,
        }
        .run();
        if !replay.identical {
            runner.fail("queue replay: radix heap and reference popped differently".into());
        }
        let ids: Vec<String> = points.iter().map(|p| p.id.clone()).collect();
        let spans_file = write_spans(kind, seed, &spans::chrome_trace(spans, &ids));
        let mut calib_ns = calib_before;
        calib_ns.extend(host::calibrate());
        Traced {
            counts,
            reps: walls.into_iter().zip(by_rep.into_values()).collect(),
            plain_walls,
            members_ns,
            replay,
            calib_ns,
            wait_frac,
            coverage: spans::min_point_coverage(spans),
            spans_file,
        }
    });

    let Runner {
        attempted,
        failed,
        notes,
        ..
    } = runner;
    Measurement {
        points,
        attempted,
        failed,
        notes,
        digest,
        reps,
        peak_rss_mib,
        traced,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Writes the Chrome-trace spans under the Cargo target directory (the
/// checkout's `target/` unless `CARGO_TARGET_DIR` says otherwise).
fn write_spans(kind: Kind, seed: u64, json: &str) -> Result<String, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&target).join("perf");
    let path = dir.join(format!("{}-{seed}.spans.json", kind.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map(|()| path.display().to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Per-repetition samples behind a quantile, for the printed spread.
    samples: Vec<f64>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Vec::new(),
    }
}

/// A host time: the [`TIME_QUANTILE`] of its per-repetition samples.
fn timed(name: &'static str, samples: Vec<f64>, unit: &'static str) -> Metric {
    Metric {
        name,
        value: quantile(&samples, TIME_QUANTILE),
        unit,
        samples,
    }
}

/// A host rate: the mirror quantile of its per-repetition samples (the
/// same repetitions [`timed`] picks, as rates are work over time).
fn rate(name: &'static str, samples: Vec<f64>, unit: &'static str) -> Metric {
    Metric {
        name,
        value: quantile(&samples, 1.0 - TIME_QUANTILE),
        unit,
        samples,
    }
}

fn end_to_end(m: &Measurement) -> Vec<Metric> {
    let secs = |f: fn(&Rep) -> u64| m.reps.iter().map(|r| f(r) as f64 / 1e9).collect();
    vec![
        timed("wall_s", secs(|r| r.wall_ns), "s"),
        timed("setup_s", secs(|r| r.setup_ns), "s"),
        rate(
            "sim_ops_per_s",
            m.reps
                .iter()
                .map(|r| r.ops as f64 / (r.sim_ns.max(1) as f64 / 1e9))
                .collect(),
            "1/s",
        ),
        metric("peak_rss_mib", m.peak_rss_mib, "MiB"),
    ]
}

fn per_layer(t: &Traced) -> Vec<Metric> {
    let c = &t.counts;
    let layer = |name: &str| -> Vec<f64> {
        t.reps
            .iter()
            .map(|(_, by)| by.get(name).copied().unwrap_or(0) as f64 / 1e9)
            .collect()
    };
    let advance_ns: Vec<f64> = layer("sim.advance").iter().map(|s| s * 1e9).collect();
    let members = timed(
        "fleet.members_s",
        t.members_ns.iter().map(|&n| n as f64 / 1e9).collect(),
        "s",
    );
    let fleet_run = timed("fleet.run_s", layer("fleet.run"), "s");
    let sync_s = fleet_run.value - members.value;
    let sync_share = if fleet_run.value > 0.0 {
        sync_s / fleet_run.value
    } else {
        0.0
    };
    let wall = |walls: Vec<f64>| quantile(&walls, TIME_QUANTILE);
    let untraced_wall = wall(t.plain_walls.iter().map(|&w| w as f64).collect());
    let traced_wall = wall(t.reps.iter().map(|(w, _)| *w as f64).collect());
    let cache = &c.cache;
    let count = |name, v: u64| metric(name, v as f64, "count");
    vec![
        timed("workloads.stream_s", layer("workloads.stream"), "s"),
        timed("workloads.build_s", layer("workloads.build"), "s"),
        count("workloads.programs", c.programs),
        count("workloads.program_ops", c.program_ops),
        timed("machine.assemble_s", layer("machine.assemble"), "s"),
        timed("sim.start_s", layer("sim.start"), "s"),
        timed("sim.advance_s", layer("sim.advance"), "s"),
        timed("sim.report_s", layer("sim.report"), "s"),
        timed(
            "sim.ns_per_event",
            advance_ns
                .iter()
                .map(|a| a / c.pops.max(1) as f64)
                .collect(),
            "ns",
        ),
        count("sim.ops", c.ops),
        count("sim.events", c.pops),
        metric("sim.ops_per_event", ratio(c.ops, c.pops), "ratio"),
        count("queue.pushes", c.pushes),
        count("queue.pops", c.pops),
        count("queue.supersessions", c.supersessions),
        metric(
            "queue.supersede_ratio",
            ratio(c.supersessions, c.pushes),
            "ratio",
        ),
        count("queue.redistributions", c.redistributions),
        metric(
            "queue.redistributions_per_pop",
            ratio(c.redistributions, c.pops),
            "ratio",
        ),
        count("queue.max_len", c.max_len),
        metric("queue.replay_ns_per_op", t.replay.radix_ns_per_op, "ns"),
        metric("queue.ref_ns_per_op", t.replay.reference_ns_per_op, "ns"),
        fleet_run,
        members,
        metric("fleet.sync_s", sync_s, "s"),
        metric("fleet.sync_share", sync_share, "ratio"),
        count("core.proxy_executions", c.proxy_executions),
        count("core.serializations", c.serializations),
        count("core.signals_sent", c.signals_sent),
        count("os.page_faults", c.page_faults),
        count("os.syscalls", c.syscalls),
        count("os.context_switches", c.context_switches),
        count("mem.tlb_hits", c.tlb_hits),
        count("mem.tlb_misses", c.tlb_misses),
        metric(
            "mem.tlb_hit_ratio",
            ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses),
            "ratio",
        ),
        count("cache.accesses", cache.accesses()),
        count("cache.l1_hits", cache.l1_hits),
        count("cache.l2_hits", cache.l2_hits),
        count("cache.capacity_misses", cache.capacity_misses),
        count("cache.coherence_misses", cache.coherence_misses),
        count("cache.invalidations", cache.invalidations),
        metric(
            "cache.l1_hit_ratio",
            ratio(cache.l1_hits, cache.accesses()),
            "ratio",
        ),
        count("shredlib.admitted", c.admitted),
        count("shredlib.completed", c.completed),
        count("shredlib.dropped", c.dropped),
        timed("harness.record_s", layer("harness.record"), "s"),
        timed("harness.serialize_s", layer("harness.serialize"), "s"),
        timed("host.calib_ns", t.calib_ns.clone(), "ns"),
        metric("host.wait_frac", t.wait_frac, "ratio"),
        metric(
            "bench.trace_overhead",
            traced_wall / untraced_wall - 1.0,
            "ratio",
        ),
    ]
}

/// The human-readable report: one line per metric, with the sample count,
/// quartiles, median and the highest percentile that keeps ten samples
/// above it.
fn describe(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for x in metrics {
        let _ = write!(out, "#   {:<32} {:>16.6} {:<6}", x.name, x.value, x.unit);
        if !x.samples.is_empty() {
            let n = x.samples.len();
            let _ = write!(
                out,
                "  n {n}: p25 {:.6}, median {:.6}, p75 {:.6}",
                quantile(&x.samples, 0.25),
                median(&x.samples),
                quantile(&x.samples, 0.75)
            );
            if let Some(p) = tail_percentile(n) {
                let _ = write!(out, ", p{p} {:.6}", quantile(&x.samples, p / 100.0));
            }
        }
        out.push('\n');
    }
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(m: &Measurement, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0,
        m.attempted,
        m.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            x.name,
            x.unit
        );
    }
    out.push_str("}}");
    out
}

/// Runs one workload in this process and prints its report.
fn run_one(kind: Kind, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let m = measure(kind, seed, seconds, trace, Size::Full);
    let e2e = end_to_end(&m);
    println!(
        "# {} seed {seed}: {} points/rep, {} untraced reps, workload digest {:016x}",
        kind.name(),
        m.points.len(),
        m.reps.len(),
        m.digest
    );
    print!("{}", describe(&e2e));
    let reported = match &m.traced {
        Some(t) => {
            let layers = per_layer(t);
            println!("# per layer ({} traced reps):", t.reps.len());
            print!("{}", describe(&layers));
            println!(
                "# spans: {}; smallest share of a point its spans cover: {:.4}",
                t.spans_file.as_deref().unwrap_or_else(|e| e),
                t.coverage
            );
            println!(
                "# queue replay: {} ops, radix {:.2} ns/op, reference {:.2} ns/op",
                t.replay.ops, t.replay.radix_ns_per_op, t.replay.reference_ns_per_op
            );
            layers
        }
        None => e2e,
    };
    for note in &m.notes {
        println!("# FAILED {note}");
    }
    println!("{}", result_json(&m, &reported));
    if m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process, forwarding its report.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot locate its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let child = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(child) => child,
            Err(e) => {
                eprintln!("perf: cannot start the {} run: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        };
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if line.starts_with('{') {
                    println!("# {} result: {line}", kind.name());
                } else {
                    println!("{line}");
                }
            }
        }
        ok &= child.wait().is_ok_and(|status| status.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(kind) => run_one(kind, args.seed, args.seconds, args.trace.unwrap_or(false)),
        None => run_all(args.seed, args.seconds, args.trace.unwrap_or(true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn flags_parse_and_bad_input_is_rejected() {
        let a = args(&[
            "--workload",
            "fleet16",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid flags");
        assert_eq!(a.workload, Some(Kind::Fleet16));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        let d = args(&[]).expect("defaults");
        assert_eq!((d.workload, d.seed, d.trace), (None, DEFAULT_SEED, None));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--frobnicate", "1"],
            &["--seed"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// The metric names and units `BENCHMARK.json` declares, by section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(serde_json::Value::Array(entries)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        entries
            .iter()
            .map(|e| {
                let field = |k| match e.get(k) {
                    Some(serde_json::Value::String(s)) => s.clone(),
                    other => panic!("{section} entry has no {k}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn reduced_pass_of_every_workload_prints_every_declared_metric() {
        let e2e_declared = declared("end_to_end");
        let layer_declared = declared("per_layer");
        let workloads: Vec<String> = match serde_json::from_str::<serde_json::Value>(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json"),
        ) {
            Ok(doc) => match doc.get("workloads") {
                Some(serde_json::Value::Array(w)) => w
                    .iter()
                    .filter_map(|e| match e.get("name") {
                        Some(serde_json::Value::String(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            },
            Err(e) => panic!("BENCHMARK.json: {e:?}"),
        };
        assert_eq!(
            workloads,
            Kind::ALL.map(|k| k.name().to_string()).to_vec(),
            "BENCHMARK.json declares exactly the benchmark's workloads"
        );
        for kind in Kind::ALL {
            let m = measure(kind, 7, 0.0, true, Size::Smoke);
            assert_eq!(m.failed, 0, "{}: {:?}", kind.name(), m.notes);
            let traced = m.traced.as_ref().expect("traced phase ran");
            assert!(traced.replay.identical);
            for (metrics, declared) in [
                (end_to_end(&m), &e2e_declared),
                (per_layer(traced), &layer_declared),
            ] {
                let line = result_json(&m, &metrics);
                let doc: serde_json::Value =
                    serde_json::from_str(&line).expect("result line parses");
                let text = describe(&metrics);
                for (name, unit) in declared {
                    let entry = doc
                        .get("metrics")
                        .and_then(|ms| ms.get(name))
                        .unwrap_or_else(|| panic!("{}: {name} missing", kind.name()));
                    assert!(
                        matches!(entry.get("unit"), Some(serde_json::Value::String(u)) if u == unit),
                        "{}: {name} unit",
                        kind.name()
                    );
                    assert!(entry.get("value").is_some_and(|v| v.as_f64().is_ok()));
                    assert!(
                        text.contains(&format!(" {name} ")),
                        "{}: {name} printed",
                        kind.name()
                    );
                }
                assert_eq!(
                    metrics.len(),
                    declared.len(),
                    "{}: no undeclared metric",
                    kind.name()
                );
            }
        }
    }
}
