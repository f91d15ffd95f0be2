//! Deterministic cycle-approximate discrete-event engine for the MISP
//! reproduction.
//!
//! The engine executes abstract instruction streams ([`misp_isa`]) on a set of
//! simulated sequencers, charging costs from a [`misp_types::CostModel`],
//! tracking virtual memory through [`misp_mem`], and delegating all
//! architecture-specific behaviour to two extension traits:
//!
//! * [`Platform`] — decides what happens on privileged events (system calls,
//!   page faults, timer interrupts) and on the MISP-specific operations
//!   (`SIGNAL`, handler registration).  The MISP machine in `misp-core` and
//!   the SMP baseline in `misp-smp` are both `Platform` implementations.
//! * [`Runtime`] — the user-level scheduling layer that decides which shred an
//!   idle sequencer runs next and interprets ShredLib runtime operations
//!   (mutexes, barriers, shred creation, …).  The ShredLib gang scheduler in
//!   the `shredlib` crate is the principal implementation.
//!
//! A [`Machine`] is one simulated box, and [`Machine::run`] is its whole
//! event loop: pop the earliest event, execute it, repeat until every
//! measured process has completed.  A [`FleetEngine`] runs several machines
//! independently and folds their reports into a [`FleetReport`].
//!
//! The engine is strictly deterministic: given the same configuration,
//! workload and platform, two runs produce identical cycle counts, statistics
//! and event logs.
//!
//! # Examples
//!
//! A minimal single-sequencer simulation using the built-in
//! [`SingleShredRuntime`] and a trivial platform that services every
//! privileged event locally:
//!
//! ```
//! use misp_isa::{ProgramBuilder, ProgramLibrary};
//! use misp_sim::{LocalPlatform, Machine, SimConfig, SingleShredRuntime};
//! use misp_types::Cycles;
//!
//! let mut library = ProgramLibrary::new();
//! let main = library.insert(
//!     ProgramBuilder::new("main").compute(Cycles::new(10_000)).build(),
//! );
//!
//! let config = SimConfig::default();
//! let mut engine = Machine::new(config, 1, library, LocalPlatform::new(1));
//! let pid = engine.core_mut().kernel_mut().spawn_process("demo");
//! let tid = engine.core_mut().kernel_mut().spawn_thread(pid);
//! engine.core_mut().memory_mut().register_process(pid);
//! engine.add_runtime(pid, Box::new(SingleShredRuntime::new(main)));
//! engine.platform_mut().pin_thread(tid, 0);
//! let report = engine.run().unwrap();
//! assert!(report.total_cycles >= Cycles::new(10_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod core;
mod event;
mod fleet;
mod local;
mod log;
mod machine;
mod platform;
mod runtime;
mod sequencer;
mod shred;
mod stats;

pub use config::SimConfig;
pub use core::{EngineCore, SavedContext};
pub use event::{Event, EventQueue, ScheduledEvent};
pub use fleet::{FleetEngine, FleetReport};
pub use local::LocalPlatform;
pub use log::EventLog;
pub use machine::{Machine, MachineStatus, SimReport};
pub use platform::Platform;
pub use runtime::{Runtime, RuntimeOutcome, SingleShredRuntime};
pub use sequencer::SequencerTable;
pub use shred::{ShredMut, ShredPool, ShredStatus, ShredView};
pub use stats::{SeqUtilization, ServiceStats, SimStats};

// Observability vocabulary re-exported from `misp-trace`, so engine users can
// configure tracing and consume reports without a separate dependency.
pub use misp_trace::{
    chrome_trace_json, IntervalSample, MetricsReport, QueueProfile, TraceConfig, TraceEvent,
    TraceKind, TraceReport,
};
