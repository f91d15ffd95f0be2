//! Fleet-level topology: how many machines, how far apart, and how traffic
//! is spread across them.
//!
//! [`MispTopology`](crate::MispTopology) describes the sequencers *inside*
//! one machine; [`FleetTopology`] describes the machines themselves — the
//! shape a warehouse-scale service simulation runs on.  Each machine of a
//! fleet carries an identical intra-machine topology, and requests reach
//! machines through a seeded load balancer after a fixed network latency
//! (the dispatch hop).

use misp_types::{Cycles, MispError, Result};
use serde::{Deserialize, Serialize};

/// How the load balancer assigns incoming requests to fleet machines.
///
/// All three policies are pure functions of the request stream, the seed and
/// the fleet shape, so MISP and SMP fleets fed the same seed dispatch the
/// identical request sequence to the identical machines (common random
/// numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadBalancerPolicy {
    /// Requests rotate through machines in id order.
    RoundRobin,
    /// Each request picks a machine uniformly from a seeded stream.
    Random,
    /// Each request goes to the machine with the fewest requests still in
    /// flight under the balancer's service model (dispatched requests whose
    /// modeled completion lies in the future); ties break toward the lowest
    /// machine id.
    LeastOutstanding,
}

impl LoadBalancerPolicy {
    /// Stable label used in run ids and results JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LoadBalancerPolicy::RoundRobin => "rr",
            LoadBalancerPolicy::Random => "random",
            LoadBalancerPolicy::LeastOutstanding => "least",
        }
    }

    /// Every policy, in a fixed order.
    #[must_use]
    pub fn all() -> [LoadBalancerPolicy; 3] {
        [
            LoadBalancerPolicy::RoundRobin,
            LoadBalancerPolicy::Random,
            LoadBalancerPolicy::LeastOutstanding,
        ]
    }
}

/// The shape of a simulated fleet: machine count, inter-machine network
/// latency and the load-balancer policy spreading requests across machines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetTopology {
    machines: usize,
    network_latency: Cycles,
    policy: LoadBalancerPolicy,
}

impl FleetTopology {
    /// Default inter-machine network latency: 200k cycles, roughly a
    /// same-datacenter round trip at the simulator's cycle scale.
    pub const DEFAULT_NETWORK_LATENCY: Cycles = Cycles::new(200_000);

    /// Creates a fleet of `machines` boxes with the given load-balancer
    /// policy and the default network latency.
    ///
    /// # Errors
    ///
    /// [`MispError::InvalidConfiguration`] if `machines` is zero.
    pub fn new(machines: usize, policy: LoadBalancerPolicy) -> Result<Self> {
        Self::with_network_latency(machines, policy, Self::DEFAULT_NETWORK_LATENCY)
    }

    /// Creates a fleet with an explicit network latency.
    ///
    /// # Errors
    ///
    /// [`MispError::InvalidConfiguration`] if `machines` is zero or the
    /// latency is zero (a dispatch hop takes at least one cycle).
    pub fn with_network_latency(
        machines: usize,
        policy: LoadBalancerPolicy,
        network_latency: Cycles,
    ) -> Result<Self> {
        if machines == 0 {
            return Err(MispError::InvalidConfiguration(
                "a fleet needs at least one machine".to_string(),
            ));
        }
        if network_latency == Cycles::ZERO {
            return Err(MispError::InvalidConfiguration(
                "fleet network latency must be at least one cycle".to_string(),
            ));
        }
        Ok(FleetTopology {
            machines,
            network_latency,
            policy,
        })
    }

    /// Number of machines in the fleet.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Fixed dispatch latency from the load balancer to a machine, added to
    /// every request's arrival.
    #[must_use]
    pub fn network_latency(&self) -> Cycles {
        self.network_latency
    }

    /// The load-balancer policy.
    #[must_use]
    pub fn policy(&self) -> LoadBalancerPolicy {
        self.policy
    }

    /// One-line human-readable description.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} machine(s), {} lb, {} cycle network latency",
            self.machines,
            self.policy.label(),
            self.network_latency.as_u64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_topology_validates_shape() {
        assert!(FleetTopology::new(0, LoadBalancerPolicy::RoundRobin).is_err());
        assert!(
            FleetTopology::with_network_latency(4, LoadBalancerPolicy::Random, Cycles::ZERO)
                .is_err()
        );
        let fleet = FleetTopology::new(16, LoadBalancerPolicy::LeastOutstanding).unwrap();
        assert_eq!(fleet.machines(), 16);
        assert_eq!(
            fleet.network_latency(),
            FleetTopology::DEFAULT_NETWORK_LATENCY
        );
        assert_eq!(fleet.policy().label(), "least");
        assert!(fleet.describe().contains("16 machine(s)"));
    }

    #[test]
    fn policy_labels_are_stable() {
        let labels: Vec<&str> = LoadBalancerPolicy::all()
            .iter()
            .map(|p| p.label())
            .collect();
        assert_eq!(labels, vec!["rr", "random", "least"]);
    }
}
