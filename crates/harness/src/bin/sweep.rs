//! `sweep` — run any named experiment grid from the command line.
//!
//! ```text
//! sweep <grid> [--threads N] [--out PATH] [--verify off|spot|full] [--stdout]
//!              [--offered-load PCT] [--trace] [--metrics-interval CYCLES]
//!              [--profile]
//! sweep --list
//! ```
//!
//! The document goes to `--out`, to stdout with `--stdout`, or to stdout by
//! default when no sink is named (the one-line run summary always goes to
//! stderr).  Whenever the document is not going to stdout — `--out` without
//! `--stdout` — stdout carries the grid's text table instead (see
//! [`misp_harness::render`]; `fleet_service` has none), so
//! `sweep table1 --out results/table1.json` writes the document and prints
//! Table 1.
//!
//! `--offered-load` applies only to the `service_load` scenario grid: it
//! collapses every load axis of the grid to the given percentage of pool
//! capacity.  Naming it with any other grid is a usage error.
//!
//! Observability flags (both require `--out`, because their artifacts are
//! named after the results file):
//!
//! * `--trace` records a structured trace of every simulation run and writes
//!   one Chrome-trace/Perfetto JSON file per run under `<stem>-trace/`.
//! * `--metrics-interval CYCLES` samples interval metrics every `CYCLES`
//!   simulated cycles and streams them — one JSON object per line, in grid
//!   order — to `<stem>-metrics.jsonl`.
//! * `--profile` prints simulator self-profiling to stderr: wall-clock phase
//!   timers, aggregated event-queue statistics and allocator totals.  It
//!   changes nothing about the results document.
//!
//! The aggregated results document is deterministic: running the same grid
//! with any `--threads` value writes byte-identical JSON — and so are the
//! trace and metrics artifacts.  Golden files under `tests/goldens/` are
//! regenerated with `--out`.

use misp_harness::alloc_count::{self, CountingAllocator};
use misp_harness::{artifacts, grids, render, run_grid_with_artifacts, SweepOptions, VerifyMode};
use std::path::PathBuf;
use std::process::ExitCode;

/// Feeds the `--profile` allocator totals.  Two relaxed atomic adds and a
/// thread-local bump per allocation — noise next to the allocation itself —
/// so it is unconditionally installed.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[derive(Debug)]
struct Args {
    grid: String,
    threads: Option<usize>,
    out: Option<PathBuf>,
    verify: VerifyMode,
    stdout: bool,
    offered_load: Option<u32>,
    trace: bool,
    metrics_interval: Option<u64>,
    profile: bool,
}

fn usage() -> String {
    format!(
        "usage: sweep <grid> [--threads N] [--out PATH] [--verify off|spot|full] [--stdout]\n\
         \u{20}            [--offered-load PCT]   (service_load grid only)\n\
         \u{20}            [--trace] [--metrics-interval CYCLES]   (both need --out)\n\
         \u{20}            [--profile]\n\
         \u{20}      sweep --list\n\
         grids: {}",
        grids::all_names().join(", ")
    )
}

/// The named-grid catalog grouped by grid family, one line per grid: name,
/// size and description.
fn catalog() -> String {
    let mut families: Vec<(String, Vec<String>)> = Vec::new();
    for name in grids::all_names() {
        let g = grids::by_name(name).expect("listed grid exists");
        let line = format!("  {name:<18} {:>3} runs  {}", g.runs.len(), g.description);
        match families.iter_mut().find(|(family, _)| *family == g.family) {
            Some((_, lines)) => lines.push(line),
            None => families.push((g.family.clone(), vec![line])),
        }
    }
    families
        .into_iter()
        .map(|(family, lines)| format!("{family}\n{}", lines.join("\n")))
        .collect::<Vec<String>>()
        .join("\n")
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let _program = argv.next();
    let mut grid = None;
    let mut threads = None;
    let mut out = None;
    let mut verify = VerifyMode::SpotCheck;
    let mut stdout = false;
    let mut offered_load = None;
    let mut trace = false;
    let mut metrics_interval = None;
    let mut profile = false;

    let mut verify_set = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--list" => {
                println!("{}", catalog());
                return Ok(None);
            }
            "--threads" => {
                if threads.is_some() {
                    return Err(format!("--threads given more than once\n{}", usage()));
                }
                let value = argv.next().ok_or("--threads needs a value")?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("invalid thread count {value:?}"))?;
                if n == 0 {
                    // Zero used to be silently clamped to one thread; reject
                    // it instead of reinterpreting the request.
                    return Err(format!("--threads must be at least 1\n{}", usage()));
                }
                threads = Some(n);
            }
            "--out" => {
                if out.is_some() {
                    return Err(format!("--out given more than once\n{}", usage()));
                }
                let value = argv.next().ok_or("--out needs a path")?;
                out = Some(PathBuf::from(value));
            }
            "--verify" => {
                if verify_set {
                    return Err(format!("--verify given more than once\n{}", usage()));
                }
                verify_set = true;
                let value = argv.next().ok_or("--verify needs a mode")?;
                verify = match value.as_str() {
                    "off" => VerifyMode::Off,
                    "spot" => VerifyMode::SpotCheck,
                    "full" => VerifyMode::Full,
                    other => return Err(format!("unknown verify mode {other:?}")),
                };
            }
            "--stdout" => {
                if stdout {
                    return Err(format!("--stdout given more than once\n{}", usage()));
                }
                stdout = true;
            }
            "--offered-load" => {
                if offered_load.is_some() {
                    return Err(format!("--offered-load given more than once\n{}", usage()));
                }
                let value = argv.next().ok_or("--offered-load needs a percentage")?;
                let pct: u32 = value
                    .parse()
                    .map_err(|_| format!("invalid offered load {value:?}"))?;
                if pct == 0 {
                    return Err(format!("--offered-load must be at least 1\n{}", usage()));
                }
                offered_load = Some(pct);
            }
            "--trace" => {
                if trace {
                    return Err(format!("--trace given more than once\n{}", usage()));
                }
                trace = true;
            }
            "--metrics-interval" => {
                if metrics_interval.is_some() {
                    return Err(format!(
                        "--metrics-interval given more than once\n{}",
                        usage()
                    ));
                }
                let value = argv
                    .next()
                    .ok_or("--metrics-interval needs a cycle count")?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid metrics interval {value:?}"))?;
                if n == 0 {
                    return Err(format!(
                        "--metrics-interval must be at least 1\n{}",
                        usage()
                    ));
                }
                metrics_interval = Some(n);
            }
            "--profile" => {
                if profile {
                    return Err(format!("--profile given more than once\n{}", usage()));
                }
                profile = true;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other:?}\n{}", usage()))
            }
            other => {
                if grid.replace(other.to_string()).is_some() {
                    return Err(format!("more than one grid named\n{}", usage()));
                }
            }
        }
    }

    let Some(grid) = grid else {
        return Err(usage());
    };
    if offered_load.is_some() && grid != "service_load" {
        return Err(format!(
            "--offered-load only applies to the service_load scenario grid, \
             not {grid:?}\n{}",
            usage()
        ));
    }
    if trace && out.is_none() {
        return Err(format!(
            "--trace needs --out PATH (trace artifacts are named after the \
             results file)\n{}",
            usage()
        ));
    }
    if metrics_interval.is_some() && out.is_none() {
        return Err(format!(
            "--metrics-interval needs --out PATH (the JSONL stream is named \
             after the results file)\n{}",
            usage()
        ));
    }
    Ok(Some(Args {
        grid,
        threads,
        out,
        verify,
        stdout,
        offered_load,
        trace,
        metrics_interval,
        profile,
    }))
}

/// `results/fig4.json` + `-metrics.jsonl` → `results/fig4-metrics.jsonl`.
fn artifact_sibling(out: &std::path::Path, suffix: &str) -> PathBuf {
    let stem = out
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("results");
    out.with_file_name(format!("{stem}{suffix}"))
}

// Wall-clock phase timers are allowed here (clippy.toml + lint.toml): they
// report host throughput and never feed simulated state or digests.
#[allow(clippy::disallowed_methods)]
fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let Some(mut grid) = grids::by_name(&args.grid) else {
        eprintln!(
            "unknown grid {:?} — available grids:\n{}",
            args.grid,
            catalog()
        );
        return ExitCode::FAILURE;
    };
    if let Some(pct) = args.offered_load {
        // The parser only accepts the flag together with the service_load
        // grid, so this rebuild cannot change any other grid.
        grid = grids::service_load_at(Some(pct));
    }
    // Observability knobs apply to every simulation grid point uniformly.
    if args.trace || args.metrics_interval.is_some() {
        let interval = args.metrics_interval.unwrap_or(0);
        for run in &mut grid.runs {
            if let misp_harness::RunKind::Sim(sim) = &mut run.kind {
                sim.trace = args.trace;
                sim.metrics_interval = interval;
            }
        }
    }

    let mut options = SweepOptions::default();
    if let Some(threads) = args.threads {
        options.threads = threads;
    }
    options.verify = args.verify;

    let started = std::time::Instant::now();
    let (results, run_artifacts) = match run_grid_with_artifacts(&grid, &options) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("sweep {} failed: {e}", grid.name);
            return ExitCode::FAILURE;
        }
    };
    let run_elapsed = started.elapsed();

    let serialize_started = std::time::Instant::now();
    let json = match results.to_canonical_json() {
        Ok(json) => json,
        Err(e) => {
            eprintln!("could not serialize results: {e}");
            return ExitCode::FAILURE;
        }
    };
    let serialize_elapsed = serialize_started.elapsed();

    eprintln!(
        "sweep {}: {} runs on {} thread(s) in {:.2}s",
        results.grid,
        results.run_count,
        options.threads,
        run_elapsed.as_secs_f64()
    );

    let write_started = std::time::Instant::now();
    // With no sink selected the document would be computed and discarded, so
    // default to stdout.  Otherwise stdout is free for the grid's table.
    let document_to_stdout = args.stdout || args.out.is_none();
    if document_to_stdout {
        print!("{json}");
    }
    if let Some(path) = &args.out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("could not create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("results written to {}", path.display());

        if args.metrics_interval.is_some() {
            let metrics_path = artifact_sibling(path, "-metrics.jsonl");
            let file = match std::fs::File::create(&metrics_path) {
                Ok(file) => file,
                Err(e) => {
                    eprintln!("could not create {}: {e}", metrics_path.display());
                    return ExitCode::FAILURE;
                }
            };
            // Incremental: one line hits the disk per sample — the stream is
            // never buffered as a whole document.
            let mut writer = serde_json::LineWriter::new(std::io::BufWriter::new(file));
            for (record, artifact) in results.records.iter().zip(&run_artifacts) {
                if let Some(metrics) = &artifact.metrics {
                    if let Err(e) =
                        artifacts::append_metrics_jsonl(&mut writer, &record.id, metrics)
                    {
                        eprintln!("could not write {}: {e}", metrics_path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Err(e) = writer.flush() {
                eprintln!("could not write {}: {e}", metrics_path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("interval metrics written to {}", metrics_path.display());
        }

        if args.trace {
            let trace_dir = artifact_sibling(path, "-trace");
            if let Err(e) = std::fs::create_dir_all(&trace_dir) {
                eprintln!("could not create {}: {e}", trace_dir.display());
                return ExitCode::FAILURE;
            }
            let mut written = 0u64;
            for (record, artifact) in results.records.iter().zip(&run_artifacts) {
                if let Some(trace) = &artifact.trace {
                    let file = trace_dir.join(format!(
                        "{}.trace.json",
                        artifacts::sanitize_run_id(&record.id)
                    ));
                    if let Err(e) = std::fs::write(&file, artifacts::trace_json(trace)) {
                        eprintln!("could not write {}: {e}", file.display());
                        return ExitCode::FAILURE;
                    }
                    written += 1;
                }
            }
            eprintln!(
                "{written} trace file(s) written to {} (open in ui.perfetto.dev \
                 or chrome://tracing)",
                trace_dir.display()
            );
        }
    }
    let write_elapsed = write_started.elapsed();

    if !document_to_stdout {
        if let Some(table) = render::table(&results) {
            print!("{table}");
        }
    }

    if args.profile {
        let mut queue = misp_sim::QueueProfile::default();
        for artifact in &run_artifacts {
            if let Some(profile) = artifact.queue {
                queue.absorb(&profile);
            }
        }
        eprintln!("profile: phases");
        eprintln!("  run        {:>10.3}s", run_elapsed.as_secs_f64());
        eprintln!("  serialize  {:>10.3}s", serialize_elapsed.as_secs_f64());
        eprintln!("  write      {:>10.3}s", write_elapsed.as_secs_f64());
        eprintln!("profile: event queue (all runs)");
        eprintln!("  pushes           {:>14}", queue.pushes);
        eprintln!("  pops             {:>14}", queue.pops);
        eprintln!("  max occupancy    {:>14}", queue.max_len);
        eprintln!("  redistributions  {:>14}", queue.redistributions);
        eprintln!("  supersessions    {:>14}", queue.supersessions);
        eprintln!("profile: allocator (whole process)");
        eprintln!(
            "  allocations      {:>14}",
            alloc_count::total_allocations()
        );
        eprintln!("  bytes requested  {:>14}", alloc_count::total_bytes());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(std::iter::once("sweep".to_string()).chain(args.iter().map(ToString::to_string)))
    }

    #[test]
    fn zero_threads_is_rejected_with_usage() {
        let err = parse(&["fig4", "--threads", "0"]).unwrap_err();
        assert!(err.contains("--threads must be at least 1"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn duplicate_flags_are_rejected_with_usage() {
        for dup in [
            vec!["fig4", "--threads", "2", "--threads", "3"],
            vec!["fig4", "--out", "a.json", "--out", "b.json"],
            vec!["fig4", "--verify", "off", "--verify", "full"],
            vec!["fig4", "--stdout", "--stdout"],
        ] {
            let err = parse(&dup).unwrap_err();
            assert!(err.contains("more than once"), "{dup:?}: {err}");
            assert!(err.contains("usage:"), "{dup:?}: {err}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_with_usage() {
        let err = parse(&["fig4", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn valid_invocations_still_parse() {
        let args = parse(&["fig4", "--threads", "4", "--verify", "full"])
            .unwrap()
            .expect("parsed");
        assert_eq!(args.grid, "fig4");
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.verify, VerifyMode::Full);
        assert!(!args.stdout);
        assert!(args.out.is_none());
        assert!(args.offered_load.is_none());
    }

    #[test]
    fn offered_load_parses_for_the_service_grid() {
        let args = parse(&["service_load", "--offered-load", "75"])
            .unwrap()
            .expect("parsed");
        assert_eq!(args.grid, "service_load");
        assert_eq!(args.offered_load, Some(75));
    }

    #[test]
    fn offered_load_is_rejected_for_other_grids_with_usage() {
        let err = parse(&["fig4", "--offered-load", "75"]).unwrap_err();
        assert!(
            err.contains("only applies to the service_load scenario grid"),
            "{err}"
        );
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn offered_load_rejects_zero_duplicates_and_junk() {
        let err = parse(&["service_load", "--offered-load", "0"]).unwrap_err();
        assert!(err.contains("--offered-load must be at least 1"), "{err}");
        let err = parse(&[
            "service_load",
            "--offered-load",
            "10",
            "--offered-load",
            "20",
        ])
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let err = parse(&["service_load", "--offered-load", "lots"]).unwrap_err();
        assert!(err.contains("invalid offered load"), "{err}");
    }

    #[test]
    fn trace_and_metrics_parse_with_an_out_path() {
        let args = parse(&[
            "fig4",
            "--out",
            "results/fig4.json",
            "--trace",
            "--metrics-interval",
            "250000",
        ])
        .unwrap()
        .expect("parsed");
        assert!(args.trace);
        assert_eq!(args.metrics_interval, Some(250_000));
        assert!(!args.profile);
        let args = parse(&["fig4", "--profile"]).unwrap().expect("parsed");
        assert!(args.profile, "--profile needs no --out");
    }

    #[test]
    fn trace_and_metrics_require_an_out_path() {
        let err = parse(&["fig4", "--trace"]).unwrap_err();
        assert!(err.contains("--trace needs --out"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = parse(&["fig4", "--metrics-interval", "1000"]).unwrap_err();
        assert!(err.contains("--metrics-interval needs --out"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn metrics_interval_rejects_zero_junk_and_duplicates() {
        let err = parse(&["fig4", "--out", "o.json", "--metrics-interval", "0"]).unwrap_err();
        assert!(
            err.contains("--metrics-interval must be at least 1"),
            "{err}"
        );
        assert!(err.contains("usage:"), "{err}");
        let err = parse(&["fig4", "--out", "o.json", "--metrics-interval", "often"]).unwrap_err();
        assert!(err.contains("invalid metrics interval"), "{err}");
        let err = parse(&[
            "fig4",
            "--out",
            "o.json",
            "--metrics-interval",
            "10",
            "--metrics-interval",
            "20",
        ])
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let err = parse(&["fig4", "--out", "o.json", "--trace", "--trace"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let err = parse(&["fig4", "--profile", "--profile"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn artifact_siblings_are_named_after_the_results_stem() {
        let out = PathBuf::from("results/fig4.json");
        assert_eq!(
            artifact_sibling(&out, "-metrics.jsonl"),
            PathBuf::from("results/fig4-metrics.jsonl")
        );
        assert_eq!(
            artifact_sibling(&out, "-trace"),
            PathBuf::from("results/fig4-trace")
        );
    }

    #[test]
    fn catalog_groups_grids_under_family_headings() {
        let listing = catalog();
        for family in ["figures", "tables", "ablations", "sensitivity", "scenarios"] {
            assert!(
                listing.lines().any(|l| l == family),
                "family heading {family:?} missing from:\n{listing}"
            );
        }
        assert!(
            listing.lines().any(|l| l.starts_with("  service_load")),
            "grid lines are indented under their family:\n{listing}"
        );
    }
}
