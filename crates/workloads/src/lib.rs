//! Synthetic models of the MISP paper's evaluation workloads.
//!
//! The paper evaluates MISP with compute-bound multithreaded programs from two
//! suites (Section 5.2): kernels from the Recognition-Mining-Synthesis (RMS)
//! suite — dense and sparse linear algebra, Gauss-Seidel, K-Means, an SVM
//! classifier and the RayTracer application — and five SPEComp applications
//! (swim, applu, galgel, equake, art) run through a MISP-enabled OpenMP
//! runtime.
//!
//! We do not have the original binaries or inputs, so each benchmark is
//! modeled as a *calibrated synthetic shred program*: an OpenMP-style
//! fork/join structure whose serial fraction, per-worker compute, working-set
//! footprint (compulsory page faults), system-call profile and memory access
//! pattern are chosen so that the workload exercises the same architectural
//! code paths with the same event *shape* the paper reports in Table 1 (scaled
//! down so a simulation completes in milliseconds rather than minutes; see
//! EXPERIMENTS.md for the scaling discussion).
//!
//! Beyond the fixed-size catalog, the [`scenario`] module provides open-loop
//! request-serving scenarios — seeded arrival streams served by a shred pool
//! with per-request latency measurement — and [`runner::Run`] is the unified
//! builder that executes either kind of work on any machine.
//!
//! # Examples
//!
//! ```
//! use misp_workloads::{catalog, runner::{Machine, Run}};
//! use misp_core::MispTopology;
//! use misp_sim::SimConfig;
//!
//! let workload = catalog::by_name("dense_mvm").unwrap();
//! let report = Run::workload(&workload)
//!     .machine(Machine::misp(MispTopology::uniprocessor(3).unwrap()))
//!     .config(SimConfig::default())
//!     .workers(4)
//!     .execute()
//!     .unwrap();
//! assert!(report.total_cycles.as_u64() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod competitor;
pub mod runner;
pub mod scenario;

mod params;
mod workload;

pub use params::{LocalityProfile, Suite, WorkloadParams};
pub use runner::{Machine, Run, RunOptions};
pub use scenario::{ArrivalModel, FleetStreams, RequestStream, Scenario};
pub use workload::{PortedApplication, Workload};
