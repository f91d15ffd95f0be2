//! The paper's claims, asserted as orderings and tolerances rather than
//! values.
//!
//! The goldens pin whatever the engine produces now, so a re-blessed golden
//! can move a figure away from the paper without any test failing.  These
//! tests pin the shape the paper describes instead.  Each claim's wording is
//! the one `sweep` prints under our table (`misp_harness::render`), and each
//! failure message gives our value next to the paper's shape.  No paper
//! value is recorded here: where the paper states a shape, the test asserts
//! the shape.
//!
//! Figure 7 (RayTracer throughput under competitor load, normalized to the
//! unloaded 1x8 run) states four shapes, one test each.

use misp::harness::{grids, render, run_grid, SweepOptions, SweepResults, VerifyMode};
use std::sync::OnceLock;

/// The one fig7 sweep every claim reads.
fn fig7() -> &'static SweepResults {
    static RESULTS: OnceLock<SweepResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let options = SweepOptions {
            threads: 2,
            verify: VerifyMode::Off,
        };
        run_grid(&grids::fig7(), &options).expect("the fig7 sweep succeeds")
    })
}

/// The paper's wording of a fig7 claim, checked against the "expected shape
/// (paper)" paragraph `sweep` prints under the fig7 table, so the claim
/// tested here and the claim printed there cannot drift apart.
fn paper_shape(phrase: &'static str) -> &'static str {
    let table = render::table(fig7()).expect("fig7 renders a table");
    let folded = table.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(
        folded.contains(phrase),
        "the fig7 table no longer states \"{phrase}\"; align this test with it:\n{table}"
    );
    phrase
}

/// Our normalized throughput of `config` at `load` competitors (the unloaded
/// 1x8 baseline reads 1).
fn throughput(config: &str, load: usize) -> f64 {
    let id = format!("{config}/load{load}");
    let sim = fig7()
        .sim(&id)
        .unwrap_or_else(|| panic!("fig7 has no point {id}"));
    sim.speedup_vs_baseline.unwrap_or(1.0)
}

/// Every configuration (row) of fig7, in grid order.
fn configurations() -> Vec<&'static str> {
    let mut rows: Vec<&str> = Vec::new();
    for record in &fig7().records {
        let config = record.id.split('/').next().expect("ids read config/load");
        if rows.last() != Some(&config) {
            rows.push(config);
        }
    }
    rows
}

/// 1x8 time-shares its one OS-visible CPU with `load` competitors, so
/// "nearly linearly" reads as 1/(1+load), within 5% of that value.
#[test]
fn one_misp_processor_degrades_nearly_linearly() {
    let shape = paper_shape("1x8 degrades nearly linearly");
    for load in 1..=grids::MAX_LOAD {
        let ours = throughput("1x8", load);
        let linear = 1.0 / (1.0 + load as f64);
        assert!(
            (ours - linear).abs() <= 0.05 * linear,
            "fig7 1x8 at load {load}: ours {ours:.3}, paper: {shape}, read as 1/(1+load) = \
             {linear:.3} within 5%"
        );
    }
}

/// 4x2 and 2x4 stay above 1x8 at every loaded column.
#[test]
fn more_misp_processors_scale_better() {
    let shape = paper_shape("adding MISP processors (4x2, 2x4) improves scaling");
    for load in 1..=grids::MAX_LOAD {
        let single = throughput("1x8", load);
        for config in ["4x2", "2x4"] {
            let ours = throughput(config, load);
            assert!(
                ours > single,
                "fig7 at load {load}: {config} {ours:.3} is not above 1x8 {single:.3}; \
                 paper: {shape}"
            );
        }
    }
}

/// The ideal row stays within half of one sequencer's share (1/16 of the
/// baseline) of (8-load)/8: serial phases keep it from tracking exactly.
#[test]
fn ideal_partitioning_tracks_the_free_sequencers() {
    let shape = paper_shape("the ideal partitioning tracks (8-load)/8");
    let sequencers = grids::SEQUENCERS as f64;
    let tolerance = 0.5 / sequencers;
    for load in 1..=grids::MAX_LOAD {
        let ours = throughput("ideal", load);
        let free = (sequencers - load as f64) / sequencers;
        assert!(
            (ours - free).abs() <= tolerance,
            "fig7 ideal at load {load}: ours {ours:.3}, (8-load)/8 = {free:.3}, tolerance \
             {tolerance:.4}; paper: {shape}"
        );
    }
}

/// SMP stays above every MISP configuration, the ideal one included, at
/// every loaded column.
#[test]
fn smp_degrades_most_gracefully() {
    let shape = paper_shape("SMP degrades most gracefully");
    let rows = configurations();
    assert!(rows.contains(&"smp"), "fig7 has an smp row: {rows:?}");
    for load in 1..=grids::MAX_LOAD {
        let smp = throughput("smp", load);
        for config in rows.iter().filter(|&&c| c != "smp") {
            let ours = throughput(config, load);
            assert!(
                smp > ours,
                "fig7 at load {load}: smp {smp:.3} is not above {config} {ours:.3}; paper: \
                 {shape}"
            );
        }
    }
}
