//! The inter-sequencer signaling fabric.
//!
//! The `SIGNAL` instruction (Section 2.4) is the user-level dual of the
//! inter-processor interrupt: it delivers a shred continuation to a
//! destination sequencer within the same MISP processor.  The fabric also
//! carries the architecture's internal signals: the suspend/resume broadcasts
//! used to serialize AMSs across OMS ring transitions, and the proxy-execution
//! request/completion pairs.

use misp_types::{CostModel, Cycles, SequencerId};
use serde::{Deserialize, Serialize};

/// The purpose of an inter-sequencer signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalKind {
    /// A user-level `SIGNAL` carrying a shred continuation.
    ShredStart,
    /// Suspend broadcast sent by the OMS before it executes in Ring 0.
    Suspend,
    /// Resume broadcast sent when the OMS returns to Ring 3.
    Resume,
    /// Proxy-execution request sent from a faulting AMS to its OMS.
    ProxyRequest,
    /// Proxy-execution completion: the OMS hands the restored context back to
    /// the AMS.
    ProxyComplete,
}

impl SignalKind {
    /// The kind's dense index into the fabric's counter array.
    #[must_use]
    const fn counter_index(self) -> usize {
        match self {
            SignalKind::ShredStart => 0,
            SignalKind::Suspend => 1,
            SignalKind::Resume => 2,
            SignalKind::ProxyRequest => 3,
            SignalKind::ProxyComplete => 4,
        }
    }
}

/// The signaling fabric of one MISP machine.
///
/// The fabric charges the configured signal latency to every delivery and
/// keeps per-kind counters so experiments can verify how many signals each
/// mechanism generated.  Individual signals appear in the engine's trace
/// ring, not here.
///
/// # Examples
///
/// ```
/// use misp_core::{SignalFabric, SignalKind};
/// use misp_types::{CostModel, Cycles, SequencerId};
///
/// let mut fabric = SignalFabric::new(CostModel::default());
/// let arrival = fabric.send(
///     SequencerId::new(1),
///     SequencerId::new(0),
///     SignalKind::ProxyRequest,
///     Cycles::new(1_000),
/// );
/// assert_eq!(arrival, Cycles::new(6_000)); // 5000-cycle microcode signal
/// assert_eq!(fabric.count(SignalKind::ProxyRequest), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SignalFabric {
    costs: CostModel,
    /// Per-kind counts, indexed by [`SignalKind::counter_index`].
    counts: [u64; 5],
}

impl SignalFabric {
    /// Creates a fabric with the given cost model.
    #[must_use]
    pub fn new(costs: CostModel) -> Self {
        SignalFabric {
            costs,
            counts: [0; 5],
        }
    }

    /// The signal latency charged per delivery.
    #[must_use]
    pub fn latency(&self) -> Cycles {
        self.costs.signal_cycles()
    }

    /// Sends a signal at `now`, returning its arrival time at the
    /// destination.  Every delivery costs the same latency, so only the kind
    /// is counted; the endpoints name the delivery at the call site.
    pub fn send(
        &mut self,
        _from: SequencerId,
        _to: SequencerId,
        kind: SignalKind,
        now: Cycles,
    ) -> Cycles {
        self.counts[kind.counter_index()] += 1;
        now + self.latency()
    }

    /// Broadcasts a signal from `from` to every sequencer in `targets`,
    /// returning the common arrival time.  The paper assumes all AMSs can be
    /// signaled simultaneously (Section 5.1), so a broadcast costs one signal
    /// latency regardless of fan-out.
    pub fn broadcast(
        &mut self,
        from: SequencerId,
        targets: &[SequencerId],
        kind: SignalKind,
        now: Cycles,
    ) -> Cycles {
        let mut arrival = now + self.latency();
        for &t in targets {
            arrival = self.send(from, t, kind, now);
        }
        arrival
    }

    /// Number of signals sent with the given kind.
    #[must_use]
    pub fn count(&self, kind: SignalKind) -> u64 {
        self.counts[kind.counter_index()]
    }

    /// Total signals sent across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use misp_types::SignalCost;

    #[test]
    fn send_charges_latency_and_counts() {
        let costs = CostModel::builder()
            .signal(SignalCost::Aggressive500)
            .build();
        let mut f = SignalFabric::new(costs);
        let arrival = f.send(
            SequencerId::new(0),
            SequencerId::new(1),
            SignalKind::Suspend,
            Cycles::new(100),
        );
        assert_eq!(arrival, Cycles::new(600));
        assert_eq!(f.count(SignalKind::Suspend), 1);
        assert_eq!(f.count(SignalKind::Resume), 0);
        assert_eq!(f.total(), 1);
        assert_eq!(f.latency(), Cycles::new(500));
    }

    #[test]
    fn broadcast_counts_every_target_but_costs_one_latency() {
        let mut f = SignalFabric::new(CostModel::default());
        let targets: Vec<SequencerId> = (1..8).map(SequencerId::new).collect();
        let arrival = f.broadcast(
            SequencerId::new(0),
            &targets,
            SignalKind::Suspend,
            Cycles::ZERO,
        );
        assert_eq!(arrival, Cycles::new(5_000), "simultaneous broadcast");
        assert_eq!(f.count(SignalKind::Suspend), 7);
    }

    #[test]
    fn broadcast_to_no_targets_still_returns_latency() {
        let mut f = SignalFabric::new(CostModel::default());
        let arrival = f.broadcast(
            SequencerId::new(0),
            &[],
            SignalKind::Resume,
            Cycles::new(10),
        );
        assert_eq!(arrival, Cycles::new(5_010));
        assert_eq!(f.count(SignalKind::Resume), 0);
    }

    #[test]
    fn ideal_signal_cost_is_free() {
        let costs = CostModel::builder().signal(SignalCost::Ideal).build();
        let mut f = SignalFabric::new(costs);
        let arrival = f.send(
            SequencerId::new(0),
            SequencerId::new(1),
            SignalKind::ShredStart,
            Cycles::new(42),
        );
        assert_eq!(arrival, Cycles::new(42));
    }
}
