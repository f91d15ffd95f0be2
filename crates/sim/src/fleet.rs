//! Fleet simulation: a set of machines that run side by side and report
//! together.
//!
//! A [`FleetEngine`] holds its [`Machine`]s in the order they were added and
//! runs each one to completion with [`Machine::run`].  Members exchange no
//! messages — a fleet scenario splits its request stream across the machines
//! up front — so every member replays exactly its standalone run, and a
//! fleet run is a pure function of its inputs at any harness thread count.

use crate::machine::{Machine, SimReport};
use crate::stats::ServiceStats;
use crate::Platform;
use misp_types::{Cycles, Fnv64, Result};

/// Aggregated outcome of a fleet run: one [`SimReport`] per machine in the
/// order the machines were added, plus a fleet-wide digest.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-machine reports, indexed by machine.
    pub reports: Vec<SimReport>,
    /// Deterministic digest over every machine's event-log digest in machine
    /// order: equal fleets produce equal digests, and any machine diverging
    /// changes it.
    pub fleet_digest: u64,
}

impl FleetReport {
    /// Wraps per-machine reports, computing the fleet digest.
    #[must_use]
    pub fn new(reports: Vec<SimReport>) -> Self {
        let mut h = Fnv64::new();
        for (i, r) in reports.iter().enumerate() {
            h.write_u64(i as u64);
            h.write_u64(r.log_digest);
        }
        FleetReport {
            fleet_digest: h.finish(),
            reports,
        }
    }

    /// The latest completion time across the fleet.
    #[must_use]
    pub fn total_cycles(&self) -> Cycles {
        self.reports
            .iter()
            .map(|r| r.total_cycles)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Request-serving statistics merged across every machine, in machine
    /// order (histogram merging is order-independent, so this equals any
    /// other fold order).
    #[must_use]
    pub fn aggregate_service(&self) -> Option<ServiceStats> {
        let mut merged: Option<ServiceStats> = None;
        for r in &self.reports {
            if let Some(s) = &r.stats.service {
                merged.get_or_insert_with(Default::default).merge(s);
            }
        }
        merged
    }
}

/// A fleet of independent machines.
#[derive(Debug)]
pub struct FleetEngine<P: Platform> {
    machines: Vec<Machine<P>>,
}

impl<P: Platform> FleetEngine<P> {
    /// Creates an empty fleet.
    ///
    /// `_network_latency` is unused: members exchange no messages, so the
    /// fleet has no inter-machine delay to model.  Fleet scenarios apply the
    /// dispatch hop to each machine's arrivals before the machines are built.
    #[must_use]
    pub fn new(_network_latency: Cycles) -> Self {
        FleetEngine {
            machines: Vec::new(),
        }
    }

    /// Adds a fully-assembled machine to the fleet.
    pub fn add_machine(&mut self, machine: Machine<P>) {
        self.machines.push(machine);
    }

    /// Runs every machine to completion in the order they were added,
    /// returning one report per machine.
    ///
    /// # Errors
    ///
    /// * [`misp_types::MispError::InvalidConfiguration`] if the fleet is
    ///   empty or a machine has no runtime attached.
    /// * Otherwise the first error any machine's [`Machine::run`] returns.
    pub fn run(&mut self) -> Result<Vec<SimReport>> {
        if self.machines.is_empty() {
            return Err(misp_types::MispError::InvalidConfiguration(
                "fleet has no machines".to_string(),
            ));
        }
        self.machines.iter_mut().map(Machine::run).collect()
    }

    /// Runs the fleet and wraps the per-machine reports into a
    /// [`FleetReport`] with the fleet-wide digest.
    ///
    /// # Errors
    ///
    /// Propagates every error [`FleetEngine::run`] can produce.
    pub fn run_fleet(&mut self) -> Result<FleetReport> {
        Ok(FleetReport::new(self.run()?))
    }
}
