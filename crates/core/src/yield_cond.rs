//! The YIELD-CONDITIONAL trigger→response mechanism.
//!
//! Section 2.4 of the paper: a sequencer can set up a mapping from an
//! anticipated asynchronous event (an ingress inter-sequencer signal, or a
//! proxy-triggering fault relayed from an AMS) to a handler.  When the event
//! occurs, the sequencer performs a fly-weight asynchronous function call into
//! the handler and later resumes the interrupted shred.
//!
//! In the simulator the handler body is not user code; what matters
//! architecturally is *whether* a handler is registered (proxy execution
//! requires the OMS to have registered one — Figure 3's "Register Proxy
//! Handler" step) and the cost of the control transfer.

use misp_types::{Cycles, SequencerId};
use serde::{Deserialize, Serialize};

/// The class of asynchronous event a handler responds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TriggerKind {
    /// An ingress user-level signal (delivered by `SIGNAL`).
    IngressSignal,
    /// A proxy-execution request relayed from a faulting AMS.
    ProxyRequest,
}

/// Per-sequencer registry of trigger→response mappings.
///
/// With two trigger kinds and dense sequencer ids the registry is a flat
/// array indexed by `2 * sequencer + kind` — the proxy path consults it on
/// every relayed fault, so the lookup is a bounds check rather than a hash.
#[derive(Debug, Default, Clone)]
pub struct TriggerResponseRegistry {
    /// Registration count per `(sequencer, kind)` slot; 0 means unregistered.
    handlers: Vec<u64>,
    invocations: u64,
    transfer_cost: Cycles,
}

/// The flat slot of a `(sequencer, kind)` pair.
#[inline]
fn slot_of(seq: SequencerId, kind: TriggerKind) -> usize {
    seq.as_usize() * 2
        + match kind {
            TriggerKind::IngressSignal => 0,
            TriggerKind::ProxyRequest => 1,
        }
}

impl TriggerResponseRegistry {
    /// Creates an empty registry whose asynchronous control transfers cost
    /// `transfer_cost` cycles each.
    #[must_use]
    pub fn new(transfer_cost: Cycles) -> Self {
        TriggerResponseRegistry {
            handlers: Vec::new(),
            invocations: 0,
            transfer_cost,
        }
    }

    /// Registers (or re-registers) a handler for `kind` on `seq`.
    pub fn register(&mut self, seq: SequencerId, kind: TriggerKind) {
        let slot = slot_of(seq, kind);
        if slot >= self.handlers.len() {
            self.handlers.resize(slot + 1, 0);
        }
        self.handlers[slot] += 1;
    }

    /// Returns `true` if `seq` has a handler registered for `kind`.
    #[must_use]
    pub fn is_registered(&self, seq: SequencerId, kind: TriggerKind) -> bool {
        self.handlers
            .get(slot_of(seq, kind))
            .is_some_and(|&n| n > 0)
    }

    /// Invokes the handler for `kind` on `seq` at `now`, returning the time at
    /// which the handler body may begin (after the fly-weight control
    /// transfer).  Returns `None` if no handler is registered — the caller
    /// decides whether that is an error (for proxy requests it is).
    pub fn invoke(&mut self, seq: SequencerId, kind: TriggerKind, now: Cycles) -> Option<Cycles> {
        if self.is_registered(seq, kind) {
            self.invocations += 1;
            Some(now + self.transfer_cost)
        } else {
            None
        }
    }

    /// Total number of successful handler invocations.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_invoke() {
        let mut r = TriggerResponseRegistry::new(Cycles::new(200));
        let oms = SequencerId::new(0);
        assert!(!r.is_registered(oms, TriggerKind::ProxyRequest));
        r.register(oms, TriggerKind::ProxyRequest);
        assert!(r.is_registered(oms, TriggerKind::ProxyRequest));
        assert_eq!(
            r.invoke(oms, TriggerKind::ProxyRequest, Cycles::new(1_000)),
            Some(Cycles::new(1_200))
        );
        assert_eq!(r.invocations(), 1);
    }

    #[test]
    fn invoke_without_registration_returns_none() {
        let mut r = TriggerResponseRegistry::new(Cycles::new(100));
        assert_eq!(
            r.invoke(
                SequencerId::new(0),
                TriggerKind::IngressSignal,
                Cycles::ZERO
            ),
            None
        );
        assert_eq!(r.invocations(), 0);
    }

    #[test]
    fn registration_is_per_sequencer_and_per_kind() {
        let mut r = TriggerResponseRegistry::new(Cycles::new(1));
        r.register(SequencerId::new(0), TriggerKind::ProxyRequest);
        assert!(!r.is_registered(SequencerId::new(1), TriggerKind::ProxyRequest));
        assert!(!r.is_registered(SequencerId::new(0), TriggerKind::IngressSignal));
        // Re-registration is allowed (idempotent from the caller's view).
        r.register(SequencerId::new(0), TriggerKind::ProxyRequest);
        assert!(r.is_registered(SequencerId::new(0), TriggerKind::ProxyRequest));
    }
}
