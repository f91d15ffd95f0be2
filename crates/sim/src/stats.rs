//! Simulation statistics.

use misp_cache::CacheStats;
use misp_mem::TlbStats;
use misp_os::{OsEventCounts, OsEventKind};
use misp_types::{Cycles, Histogram, ProcessId, SequencerId};
use std::collections::BTreeMap;

/// Request-serving (open-loop scenario) statistics.
///
/// Populated only when a runtime drives a service model: each admitted
/// request contributes one latency sample (completion cycle minus the
/// *scheduled* arrival cycle, so generator lag under overload shows up as
/// latency rather than being silently absorbed — the open-loop discipline).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests admitted into the system (shreds created).
    pub admitted: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests dropped because the bounded queue was full at arrival.
    pub dropped: u64,
    /// Per-request latency histogram, in cycles from scheduled arrival to
    /// completion.
    pub latency: Histogram,
    /// High-water mark of outstanding requests (queued + in service).
    pub max_outstanding: u64,
    /// Queue-depth time series: `(cycle, outstanding)` at each admission and
    /// completion edge, truncated to a bounded number of samples.
    pub queue_depth: Vec<(u64, u64)>,
}

impl ServiceStats {
    /// Folds `other` into `self` (commutative on the counters and histogram;
    /// the queue-depth series is concatenated in call order, which the engine
    /// keeps deterministic by folding runtimes in sequencer order).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.latency.merge(&other.latency);
        self.max_outstanding = self.max_outstanding.max(other.max_outstanding);
        self.queue_depth.extend_from_slice(&other.queue_depth);
    }
}

/// Per-sequencer utilization summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SeqUtilization {
    /// Cycles spent executing operations.
    pub busy: Cycles,
    /// Cycles lost to platform-imposed stalls (serialization, proxy waits,
    /// context-switch suspension).
    pub stalled: Cycles,
    /// Operations executed.
    pub ops: u64,
}

/// Machine-wide statistics accumulated over a simulation run.
///
/// The split between OMS-originated and AMS-originated events mirrors the
/// column structure of the paper's Table 1; the overhead counters feed the
/// analytic model used for Figure 5.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SimStats {
    /// Privileged events that originated on an OS-managed sequencer (or, in
    /// the SMP baseline, on any core).
    pub oms_events: OsEventCounts,
    /// Privileged events that originated on an application-managed sequencer
    /// and therefore required proxy execution.
    pub ams_events: OsEventCounts,
    /// Number of proxy-execution episodes performed by OMSs: the event
    /// log's `ProxyRequest` tally, copied when the report is assembled.
    pub proxy_executions: u64,
    /// Number of serialization episodes (OMS Ring 0 entries that suspended
    /// AMSs).
    pub serializations: u64,
    /// Number of OS thread context switches: the event log's
    /// `ContextSwitch` tally, copied when the report is assembled.
    pub context_switches: u64,
    /// Number of user-level `SIGNAL` instructions executed, delivered or
    /// dropped: the event log's `SignalSent` tally, copied when the report
    /// is assembled.
    pub signals_sent: u64,
    /// Total cycles of AMS execution lost to suspension, summed over AMSs.
    pub suspension_cycles: Cycles,
    /// Completion time of each measured process.
    pub process_completion: BTreeMap<u32, Cycles>,
    /// Per-sequencer utilization, indexed by sequencer.
    pub per_sequencer: Vec<SeqUtilization>,
    /// Per-sequencer privileged-event counts, indexed by sequencer.
    pub per_sequencer_events: Vec<OsEventCounts>,
    /// Machine-wide TLB totals (hits, misses, flushes), folded from the
    /// per-sequencer TLBs when the report is assembled.
    pub tlb: TlbStats,
    /// Per-sequencer TLB statistics, indexed by sequencer.
    pub per_sequencer_tlb: Vec<TlbStats>,
    /// Machine-wide cache totals; `None` while the cache model is disabled.
    pub cache: Option<CacheStats>,
    /// Per-sequencer cache statistics; empty while the cache model is
    /// disabled.
    pub per_sequencer_cache: Vec<CacheStats>,
    /// Request-serving statistics; `None` unless a runtime drove a service
    /// model (open-loop scenarios).
    pub service: Option<ServiceStats>,
}

impl SimStats {
    /// Creates statistics for a machine with `sequencers` sequencers.
    #[must_use]
    pub fn new(sequencers: usize) -> Self {
        SimStats {
            per_sequencer: vec![SeqUtilization::default(); sequencers],
            per_sequencer_events: vec![OsEventCounts::default(); sequencers],
            per_sequencer_tlb: vec![TlbStats::default(); sequencers],
            ..SimStats::default()
        }
    }

    /// Installs the per-sequencer TLB snapshots and folds them into the
    /// machine-wide totals (called when the report is assembled).
    pub fn fold_tlb(&mut self, per_sequencer: Vec<TlbStats>) {
        let mut total = TlbStats::default();
        for t in &per_sequencer {
            total.hits += t.hits;
            total.misses += t.misses;
            total.flushes += t.flushes;
        }
        self.tlb = total;
        self.per_sequencer_tlb = per_sequencer;
    }

    /// Installs the per-sequencer cache snapshots and folds them into the
    /// machine-wide totals (called when the report is assembled, cache model
    /// enabled only).
    pub fn fold_cache(&mut self, per_sequencer: Vec<CacheStats>) {
        let mut total = CacheStats::default();
        for c in &per_sequencer {
            total.merge(c);
        }
        self.cache = Some(total);
        self.per_sequencer_cache = per_sequencer;
    }

    /// Records a privileged event originating on `seq`.
    ///
    /// `from_oms` selects whether the event lands in the OMS or AMS columns of
    /// the Table 1 accounting.
    pub fn record_event(&mut self, seq: SequencerId, kind: OsEventKind, from_oms: bool) {
        if from_oms {
            self.oms_events.record(kind);
        } else {
            self.ams_events.record(kind);
        }
        if let Some(counts) = self.per_sequencer_events.get_mut(seq.as_usize()) {
            counts.record(kind);
        }
    }

    /// Records the completion time of a measured process (keeps the earliest
    /// recorded value).
    pub fn record_completion(&mut self, process: ProcessId, at: Cycles) {
        self.process_completion.entry(process.index()).or_insert(at);
    }

    /// The completion time of `process`, if it finished.
    #[must_use]
    pub fn completion_of(&self, process: ProcessId) -> Option<Cycles> {
        self.process_completion.get(&process.index()).copied()
    }

    /// Total serializing events (OMS + AMS), the quantity Table 1 itemizes.
    #[must_use]
    pub fn total_serializing_events(&self) -> u64 {
        self.oms_events.total() + self.ams_events.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_event_splits_oms_and_ams() {
        let mut s = SimStats::new(4);
        s.record_event(SequencerId::new(0), OsEventKind::Syscall, true);
        s.record_event(SequencerId::new(1), OsEventKind::PageFault, false);
        s.record_event(SequencerId::new(1), OsEventKind::PageFault, false);
        assert_eq!(s.oms_events.syscalls, 1);
        assert_eq!(s.ams_events.page_faults, 2);
        assert_eq!(s.per_sequencer_events[1].page_faults, 2);
        assert_eq!(s.total_serializing_events(), 3);
    }

    #[test]
    fn completion_keeps_first_value() {
        let mut s = SimStats::new(1);
        let p = ProcessId::new(3);
        assert_eq!(s.completion_of(p), None);
        s.record_completion(p, Cycles::new(100));
        s.record_completion(p, Cycles::new(200));
        assert_eq!(s.completion_of(p), Some(Cycles::new(100)));
    }

    #[test]
    fn out_of_range_sequencer_does_not_panic() {
        let mut s = SimStats::new(1);
        s.record_event(SequencerId::new(9), OsEventKind::Timer, true);
        assert_eq!(s.oms_events.timer, 1);
    }

    #[test]
    fn fold_tlb_sums_per_sequencer_counters() {
        let mut s = SimStats::new(2);
        let a = TlbStats {
            hits: 10,
            misses: 3,
            flushes: 1,
        };
        let b = TlbStats {
            hits: 5,
            misses: 7,
            flushes: 2,
        };
        s.fold_tlb(vec![a, b]);
        assert_eq!(s.tlb.hits, 15);
        assert_eq!(s.tlb.misses, 10);
        assert_eq!(s.tlb.flushes, 3);
        assert_eq!(s.per_sequencer_tlb, vec![a, b]);
    }

    #[test]
    fn fold_cache_sums_per_sequencer_counters() {
        let mut s = SimStats::new(2);
        assert!(s.cache.is_none(), "cache totals absent until folded");
        let a = CacheStats {
            l1_hits: 4,
            l2_hits: 2,
            compulsory_misses: 1,
            ..CacheStats::default()
        };
        s.fold_cache(vec![a, a]);
        let total = s.cache.expect("folded");
        assert_eq!(total.l1_hits, 8);
        assert_eq!(total.accesses(), 14);
        assert_eq!(s.per_sequencer_cache.len(), 2);
    }
}
