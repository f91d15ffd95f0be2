//! Coarse counts and the fine-grained trace of simulation events.
//!
//! The paper's prototype firmware provides two logging levels (Section 4.1):
//! coarse-grained total counts of ring transitions per sequencer, and
//! fine-grained time-stamped records of individual events.  [`EventLog`]
//! reproduces both from one emission per event: every event bumps its
//! per-kind count, and, while tracing is enabled, also lands in the
//! `misp-trace` ring as a fixed-size, time-stamped [`TraceEvent`].

use misp_trace::{TraceBuffer, TraceEvent, TraceKind};
use misp_types::{Cycles, Fnv64, SequencerId};

/// Number of leading [`TraceKind::ALL`] kinds that [`EventLog::digest`]
/// folds: the twelve firmware event kinds.  The trailing trace-only instants
/// (`TlbMiss`, `CacheMiss`) are emitted only while tracing, so folding them
/// would make the digest depend on whether the run was observed.
const DIGEST_KINDS: usize = 12;

/// The simulation event log: a per-kind tally plus the optional trace ring.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Per-kind counts, indexed by [`TraceKind::canonical_index`].  A plain
    /// array keeps the hot `record` path free of hashing.
    counts: [u64; TraceKind::ALL.len()],
    /// Structured trace ring, present only when tracing is enabled.  `None`
    /// (the default) costs one discriminant test per record.  The trace
    /// never contributes to [`EventLog::digest`].
    trace: Option<Box<TraceBuffer>>,
}

impl EventLog {
    /// Turns on the structured trace ring with the given capacity.  The full
    /// ring is allocated here, so enabling tracing before the measured run
    /// preserves the engine's zero-alloc steady state.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(TraceBuffer::new(capacity)));
    }

    /// Returns `true` when the structured trace ring is collecting.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Removes and returns the trace ring (for end-of-run reporting).
    pub fn take_trace(&mut self) -> Option<Box<TraceBuffer>> {
        self.trace.take()
    }

    /// Records an event: counts it and, while tracing, appends it to the
    /// ring.
    pub fn record(&mut self, time: Cycles, seq: SequencerId, kind: TraceKind) {
        self.counts[kind.canonical_index()] += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                time: time.as_u64(),
                seq: seq.index(),
                kind,
            });
        }
    }

    /// The number of recorded events of `kind`.  Trace-only kinds are only
    /// emitted while tracing, so they count zero in an untraced run.
    #[must_use]
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[kind.canonical_index()]
    }

    /// A deterministic 64-bit FNV-1a digest of the firmware event counts.
    ///
    /// The digest folds `(index, count)` for each of the twelve firmware
    /// kinds in canonical order, then a trailing zero word.  The zero is
    /// the slot of a drop count that no longer exists, kept so every
    /// committed `log_digest` stays byte-identical.  Identical runs digest
    /// equal; runs that differ in any per-kind total digest differently, up
    /// to the usual 64-bit collision odds.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv64::new();
        for (i, count) in self.counts[..DIGEST_KINDS].iter().enumerate() {
            hash.write_u64(i as u64);
            hash.write_u64(*count);
        }
        hash.write_u64(0);
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_counts_always_collected() {
        let mut log = EventLog::default();
        log.record(Cycles::new(1), SequencerId::new(0), TraceKind::RingEnter);
        log.record(Cycles::new(2), SequencerId::new(0), TraceKind::RingEnter);
        log.record(Cycles::new(3), SequencerId::new(1), TraceKind::ProxyRequest);
        assert_eq!(log.count(TraceKind::RingEnter), 2);
        assert_eq!(log.count(TraceKind::ProxyRequest), 1);
        assert_eq!(log.count(TraceKind::Resume), 0);
        assert!(!log.trace_enabled(), "tracing is off by default");
    }

    #[test]
    fn digest_covers_exactly_the_firmware_kinds() {
        assert_eq!(
            TraceKind::ALL[DIGEST_KINDS..],
            [TraceKind::TlbMiss, TraceKind::CacheMiss],
            "only the trace-only instants may follow the digested kinds"
        );
    }

    #[test]
    fn trace_ring_collects_records_without_touching_the_digest() {
        let mut plain = EventLog::default();
        let mut traced = EventLog::default();
        traced.enable_trace(16);
        assert!(traced.trace_enabled());
        for log in [&mut plain, &mut traced] {
            log.record(Cycles::new(3), SequencerId::new(1), TraceKind::ShredStart);
        }
        // Trace-only instants are emitted only while tracing and stay out of
        // the digest.
        traced.record(Cycles::new(5), SequencerId::new(1), TraceKind::TlbMiss);
        for log in [&mut plain, &mut traced] {
            log.record(Cycles::new(9), SequencerId::new(1), TraceKind::ShredEnd);
        }
        assert_eq!(plain.digest(), traced.digest());
        assert_eq!(plain.count(TraceKind::ShredStart), 1);
        assert_eq!(traced.count(TraceKind::TlbMiss), 1);

        let trace = traced.take_trace().expect("ring present");
        let events = trace.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::ShredStart);
        assert_eq!(events[1].kind, TraceKind::TlbMiss);
        assert_eq!(events[2].kind, TraceKind::ShredEnd);
        assert_eq!(events[2].time, 9);
        assert_eq!(events[2].seq, 1);
        assert!(!traced.trace_enabled(), "take_trace disables the ring");
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let mut a = EventLog::default();
        let mut b = EventLog::default();
        assert_eq!(a.digest(), b.digest(), "empty logs digest equal");
        a.record(Cycles::new(1), SequencerId::new(0), TraceKind::RingEnter);
        b.record(Cycles::new(1), SequencerId::new(0), TraceKind::RingEnter);
        assert_eq!(a.digest(), b.digest(), "identical logs digest equal");
        b.record(Cycles::new(2), SequencerId::new(0), TraceKind::RingExit);
        assert_ne!(a.digest(), b.digest(), "extra event changes the digest");

        // Distinct kinds with equal counts must not collide.
        let mut c = EventLog::default();
        c.record(Cycles::new(1), SequencerId::new(0), TraceKind::RingExit);
        assert_ne!(a.digest(), c.digest());
    }
}
