//! Golden-figure regression tests.
//!
//! Each test re-runs one named experiment grid through the parallel sweep
//! harness and diffs the aggregated results document byte-for-byte against
//! the golden JSON committed under `tests/goldens/`.  Any change to the
//! engine, the cost model, the workload calibration or the results schema
//! that moves a figure shows up here as a readable diff.
//!
//! The text table `sweep` prints for each figure, table and ablation is
//! pinned the same way, against `tests/goldens/<grid>.table.txt`.
//!
//! To regenerate a golden after an intentional change:
//!
//! ```text
//! cargo run --release -p misp-harness --bin sweep -- <grid> --out tests/goldens/<grid>.json \
//!     > tests/goldens/<grid>.table.txt
//! ```
//!
//! `fig7` and the two ablations have a table golden only: point their
//! `--out` at a scratch path such as `results/<grid>.json`.

use misp::harness::{grids, render, run_grid, SweepOptions, VerifyMode};
use serde_json::Value;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

/// Names the first differing value by its path — e.g.
/// `records[37].sim.total_cycles` — with the golden and actual values, so a
/// golden mismatch reads like a diff hunk instead of two 40 kB strings.
/// Falls back to the first differing line when either document does not
/// parse or the parsed trees agree (a formatting-only difference).
fn first_divergence(expected: &str, actual: &str) -> String {
    if let (Ok(e), Ok(a)) = (
        serde_json::from_str::<Value>(expected),
        serde_json::from_str::<Value>(actual),
    ) {
        if let Some(found) = value_divergence("", &e, &a) {
            return found;
        }
    }
    for (number, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first difference at line {}:\n  golden: {e}\n  actual: {a}",
                number + 1
            );
        }
    }
    format!(
        "documents diverge in length: golden {} lines, actual {} lines",
        expected.lines().count(),
        actual.lines().count()
    )
}

/// The first place, in document order, where `actual` departs from
/// `expected` below `path`; `None` if the two trees are equal.
fn value_divergence(path: &str, expected: &Value, actual: &Value) -> Option<String> {
    let at = if path.is_empty() { "the root" } else { path };
    match (expected, actual) {
        (Value::Object(e), Value::Object(a)) => {
            for ((ek, ev), (ak, av)) in e.iter().zip(a) {
                if ek != ak {
                    return Some(format!(
                        "first difference in {at}: golden has key {ek:?} where actual has {ak:?}"
                    ));
                }
                let child = if path.is_empty() {
                    ek.clone()
                } else {
                    format!("{path}.{ek}")
                };
                if let Some(found) = value_divergence(&child, ev, av) {
                    return Some(found);
                }
            }
            (e.len() != a.len()).then(|| {
                format!(
                    "first difference in {at}: golden has {} keys, actual {}",
                    e.len(),
                    a.len()
                )
            })
        }
        (Value::Array(e), Value::Array(a)) => {
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                if let Some(found) = value_divergence(&format!("{path}[{i}]"), ev, av) {
                    return Some(found);
                }
            }
            (e.len() != a.len()).then(|| {
                format!(
                    "first difference in {at}: golden has {} elements, actual {}",
                    e.len(),
                    a.len()
                )
            })
        }
        _ => (expected != actual).then(|| {
            let render = |v: &Value| serde_json::to_string(v).unwrap_or_else(|e| e.to_string());
            format!(
                "first difference at {at}:\n  golden: {}\n  actual: {}",
                render(expected),
                render(actual)
            )
        }),
    }
}

#[test]
fn first_divergence_names_the_differing_field() {
    let golden = r#"{"records": [{"sim": {"total_cycles": 5}}, {"sim": {"total_cycles": 7}}]}"#;
    let actual = r#"{"records": [{"sim": {"total_cycles": 5}}, {"sim": {"total_cycles": 8}}]}"#;
    assert_eq!(
        first_divergence(golden, actual),
        "first difference at records[1].sim.total_cycles:\n  golden: 7\n  actual: 8"
    );
    // A committed golden parses, and one changed number is named by path.
    let fig4 = std::fs::read_to_string(golden_path("fig4")).expect("fig4 golden");
    let edited = fig4.replacen("\"total_cycles\": ", "\"total_cycles\": 9", 1);
    assert!(first_divergence(&fig4, &edited)
        .starts_with("first difference at records[0].sim.total_cycles:\n"));
    // Equal trees with different bytes fall back to the line report.
    assert_eq!(
        first_divergence("{\"a\": 1}", "{\"a\":  1}"),
        "first difference at line 1:\n  golden: {\"a\": 1}\n  actual: {\"a\":  1}"
    );
}

fn check_grid(name: &str) {
    check_grid_with(name, VerifyMode::SpotCheck);
}

fn check_grid_with(name: &str, verify: VerifyMode) {
    let grid = grids::by_name(name).expect("named grid exists");
    let options = SweepOptions { threads: 2, verify };
    let results = run_grid(&grid, &options).expect("sweep succeeds");
    let actual = results.to_canonical_json().expect("serializable");
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("could not read golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "grid {name} no longer matches its golden ({}).\n{}\n\
         If the change is intentional, regenerate with:\n  \
         cargo run --release -p misp-harness --bin sweep -- {name} --out tests/goldens/{name}.json",
        path.display(),
        first_divergence(&expected, &actual)
    );
}

#[test]
fn fig4_matches_golden() {
    check_grid("fig4");
}

#[test]
fn fig5_matches_golden() {
    check_grid("fig5");
}

#[test]
fn fig6_matches_golden() {
    check_grid("fig6");
}

#[test]
fn table1_matches_golden() {
    check_grid("table1");
}

#[test]
fn table2_matches_golden() {
    check_grid("table2");
}

/// The cache-enabled grid is checked under the harness's strictest mode —
/// every parallel record re-verified against a serial re-execution — in the
/// same sweep that is diffed against the golden (the cache hierarchy adds
/// per-run mutable state, so it gets the full treatment).
#[test]
fn cache_sensitivity_matches_golden_under_full_verification() {
    check_grid_with("cache_sensitivity", VerifyMode::Full);
}

/// The open-loop scenario grid gets the same strict treatment: every
/// parallel record is re-verified serially in the sweep that is diffed
/// against the golden.  This pins the arrival streams, queue admission,
/// latency percentiles and the schema-v3 record fields byte-for-byte.
#[test]
fn service_load_matches_golden_under_full_verification() {
    check_grid_with("service_load", VerifyMode::Full);
}

/// The fleet grid — independently simulated fleet members, the seeded load
/// balancer and the schema-v5 per-machine records — is pinned under
/// full verification: every parallel record re-verified serially in the
/// sweep that is diffed against the golden.
#[test]
fn fleet_service_matches_golden_under_full_verification() {
    check_grid_with("fleet_service", VerifyMode::Full);
}

/// The goldens themselves must carry the schema version the harness emits,
/// so a schema bump forces a deliberate regeneration of every golden.
#[test]
fn goldens_carry_the_current_schema_version() {
    for name in [
        "fig4",
        "fig5",
        "fig6",
        "table1",
        "table2",
        "cache_sensitivity",
        "service_load",
        "fleet_service",
    ] {
        let text = std::fs::read_to_string(golden_path(name)).expect("golden readable");
        let needle = format!("\"schema_version\": {}", misp::harness::SCHEMA_VERSION);
        assert!(
            text.contains(&needle),
            "golden {name} does not declare schema version {}",
            misp::harness::SCHEMA_VERSION
        );
    }
}

/// Every grid `sweep` prints a table for (all but `fleet_service`).
const TABLE_GRIDS: [&str; 10] = [
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table2",
    "ablation_ring0",
    "ablation_pretouch",
    "cache_sensitivity",
    "service_load",
];

/// Each grid's text table — what `sweep <grid> --out PATH` prints — matches
/// its committed `.table.txt` byte for byte.  This is the only coverage of
/// the fig7 and ablation tables, whose grids have no JSON golden.
#[test]
fn tables_match_their_goldens() {
    let options = SweepOptions {
        threads: 2,
        verify: VerifyMode::Off,
    };
    for name in TABLE_GRIDS {
        let grid = grids::by_name(name).expect("named grid exists");
        let results = run_grid(&grid, &options).expect("sweep succeeds");
        let actual =
            render::table(&results).unwrap_or_else(|| panic!("grid {name} renders a table"));
        let path = golden_path(name).with_extension("table.txt");
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("could not read golden {}: {e}", path.display()));
        assert!(
            expected == actual,
            "the table of grid {name} no longer matches its golden ({}).\n{}\n\
             If the change is intentional, regenerate with:\n  \
             cargo run --release -p misp-harness --bin sweep -- {name} --out results/{name}.json \
             > tests/goldens/{name}.table.txt",
            path.display(),
            first_divergence(&expected, &actual)
        );
    }
}
