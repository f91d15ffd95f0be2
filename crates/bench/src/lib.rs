//! Criterion micro-benchmarks of the MISP simulator (`benches/`).
//!
//! The library is empty: the paper's tables and figures are printed by
//! `sweep <grid> --out PATH` in `misp-harness`, and this crate only hosts
//! the benches until the `perf/` benchmark replaces them.
