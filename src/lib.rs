//! # MISP — Multiple Instruction Stream Processor (reproduction)
//!
//! A cycle-approximate, deterministic reproduction of the architecture
//! presented in *"Multiple Instruction Stream Processor"* (Hankins, Chinya,
//! Collins, Wang, Rakvic, Wang, Shen — ISCA 2006), together with everything
//! needed to regenerate the paper's evaluation: the ShredLib user-level
//! runtime, an SMP baseline machine, calibrated synthetic models of the
//! paper's workloads, and one experiment harness per table and figure.
//!
//! This crate is a facade: it re-exports the public API of every workspace
//! crate so applications can depend on a single package.  The pieces are:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`types`] | `misp-types` | identifiers, cycle arithmetic, the cost model |
//! | [`isa`] | `misp-isa` | abstract instruction streams, shred programs, continuations |
//! | [`cache`] | `misp-cache` | the coherent cache hierarchy: per-sequencer L1s, per-processor shared L2s, MESI-lite coherence (disabled by default) |
//! | [`mem`] | `misp-mem` | address spaces, TLBs, working sets, access patterns |
//! | [`os`] | `misp-os` | the OS model: kernel services, scheduler, timer |
//! | [`trace`] | `misp-trace` | deterministic trace ring, interval metrics sampler, queue self-profiling, Perfetto exporter |
//! | [`sim`] | `misp-sim` | the discrete-event execution engine: the per-machine run loop, the fleet engine, extension traits |
//! | [`core`] | `misp-core` | **the MISP architecture**: sequencers, SIGNAL, proxy execution, serialization, the overhead model |
//! | [`smp`] | `misp-smp` | the SMP baseline machine |
//! | [`shredlib`] | `shredlib` | the gang scheduler, synchronization objects, compatibility shims |
//! | [`workloads`] | `misp-workloads` | the benchmark catalog and run helpers |
//! | [`harness`] | `misp-harness` | the parallel experiment-sweep harness: declarative grids, work-stealing fan-out, versioned results JSON |
//!
//! # Quick start
//!
//! Run a small fork/join program on a MISP uniprocessor with one OS-managed
//! and three application-managed sequencers:
//!
//! ```
//! use misp::core::{MispMachine, MispTopology};
//! use misp::isa::{Op, ProgramBuilder, ProgramLibrary};
//! use misp::shredlib::GangScheduler;
//! use misp::sim::SimConfig;
//! use misp::types::{Cycles, LockId};
//!
//! // Worker: compute, then arrive at the barrier.
//! let barrier = LockId::new(0);
//! let mut library = ProgramLibrary::new();
//! let worker = library.insert(
//!     ProgramBuilder::new("worker")
//!         .compute(Cycles::new(1_000_000))
//!         .barrier_wait(barrier)
//!         .build(),
//! );
//! // Main: register the proxy handler, spawn three workers, join them.
//! let main = library.insert(
//!     ProgramBuilder::new("main")
//!         .op(Op::RegisterHandler)
//!         .shred_create(worker)
//!         .shred_create(worker)
//!         .shred_create(worker)
//!         .barrier_wait(barrier)
//!         .build(),
//! );
//!
//! let topology = MispTopology::uniprocessor(3).unwrap();
//! let mut machine = MispMachine::new(topology, SimConfig::default(), library);
//! let scheduler = GangScheduler::builder()
//!     .main_program(main)
//!     .barrier(barrier, 4)
//!     .build();
//! machine.add_process("quickstart", Box::new(scheduler), Some(0));
//! let report = machine.run().unwrap();
//! // Three workers and the main shred overlap on four sequencers.
//! assert!(report.total_cycles < Cycles::new(2_500_000));
//! ```
//!
//! # Reproducing the paper
//!
//! Each table and figure is one of the [`harness`] crate's named experiment
//! grids.  The `sweep` binary runs it, writes the results document to
//! `--out` and prints the figure's text table on stdout:
//!
//! ```text
//! cargo run --release -p misp-harness --bin sweep -- fig4 --out results/fig4.json
//! ```

#![warn(missing_docs)]

pub use misp_cache as cache;
pub use misp_core as core;
pub use misp_harness as harness;
pub use misp_isa as isa;
pub use misp_mem as mem;
pub use misp_os as os;
pub use misp_sim as sim;
pub use misp_smp as smp;
pub use misp_trace as trace;
pub use misp_types as types;
pub use misp_workloads as workloads;
pub use shredlib;
