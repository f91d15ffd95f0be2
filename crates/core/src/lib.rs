//! The MISP (Multiple Instruction Stream Processing) architecture model.
//!
//! This crate is the reproduction of the paper's primary contribution: a MIMD
//! ISA extension in which an application directly manages *sequencers* —
//! hardware thread contexts exposed as architectural resources — without OS
//! involvement.  It provides:
//!
//! * [`MispTopology`] / [`MispProcessor`] — machines built from MISP
//!   processors, each with one OS-managed sequencer (OMS) and zero or more
//!   application-managed sequencers (AMS) (Figures 1, 2 and 6 of the paper).
//! * Proxy execution, Ring 0 serialization, `SIGNAL` delivery and
//!   proxy-handler registration — implemented inside [`MispPlatform`], which
//!   plugs the whole architecture into the `misp-sim` execution engine
//!   (Sections 2.3–2.5).  A `SIGNAL` costs one signal latency and an
//!   `Op::RegisterHandler` one YIELD-CONDITIONAL transfer; the proxy handler
//!   is registered on every OMS from the start, as ShredLib does at start-up.
//! * [`OverheadModel`] — the analytic overhead model of Section 5.1
//!   (Equations 1–3), used by the Figure 5 sensitivity study.
//!
//! # Examples
//!
//! Build a MISP uniprocessor with one OMS and three AMSs — the configuration
//! of the paper's Figure 1 — and inspect its structure:
//!
//! ```
//! use misp_core::MispTopology;
//!
//! let topo = MispTopology::uniprocessor(3).unwrap();
//! assert_eq!(topo.total_sequencers(), 4);
//! assert_eq!(topo.processors().len(), 1);
//! let p = &topo.processors()[0];
//! assert_eq!(p.ams().len(), 3);
//! assert_eq!(topo.all_oms(), [p.oms()]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fleet;
mod machine;
mod overhead;
mod platform;
mod topology;

pub use fleet::{FleetTopology, LoadBalancerPolicy};
pub use machine::MispMachine;
pub use overhead::OverheadModel;
pub use platform::{MispPlatform, RingPolicy};
pub use topology::{MispProcessor, MispTopology};
