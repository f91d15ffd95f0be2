//! Deterministic observability layer for the MISP reproduction.
//!
//! The simulator's end-of-run aggregates say *what* a run produced; this crate
//! captures *why*, without disturbing the engine's determinism guarantees:
//!
//! - [`TraceBuffer`] — a preallocated, overwrite-oldest ring of
//!   [`TraceEvent`]s (shred spans, ring transitions, proxy episodes, stall
//!   windows, signal sends, TLB/cache miss instants).  Recording is gated by
//!   [`TraceConfig`] and is off by default; when off the only cost on the hot
//!   path is an `Option` discriminant test and the zero-alloc steady-state
//!   guarantee is preserved (the ring is sized once at construction).
//! - [`MetricsRecorder`] — deterministic interval metrics.  The engine
//!   schedules a sampler event every `metrics_interval` sim-cycles inside the
//!   event queue's total order; each firing appends one [`IntervalSample`]
//!   (utilization/TLB/cache deltas plus queue-depth gauges).  Samples are
//!   streamed as JSONL by the harness, one line per interval, and are
//!   byte-identical at any harness thread count.
//! - [`QueueProfile`] — radix-heap self-profiling counters (pushes, pops,
//!   high-water occupancy, bucket redistributions, superseded-slot
//!   replacements), surfaced via `sweep --profile` and the engine bench.
//! - [`chrome_trace_json`] — a Chrome-trace/Perfetto JSON exporter rendering
//!   one track per sequencer with per-lane B/E spans, so a fig4 run can be
//!   opened in [ui.perfetto.dev](https://ui.perfetto.dev) or
//!   `chrome://tracing` and visually inspected.
//!
//! Digests use FNV-1a via [`misp_types::Fnv64`], so trace and metrics streams
//! can be compared across serial and parallel harness executions without
//! shipping the full event payload.
//!
//! # Examples
//!
//! ```
//! use misp_trace::{TraceBuffer, TraceEvent, TraceKind, chrome_trace_json};
//!
//! let mut ring = TraceBuffer::new(16);
//! ring.push(TraceEvent { time: 5, seq: 0, kind: TraceKind::ShredStart });
//! ring.push(TraceEvent { time: 9, seq: 0, kind: TraceKind::ShredEnd });
//! assert_eq!(ring.len(), 2);
//! let json = chrome_trace_json(&ring.events());
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeSet;

use misp_types::Fnv64;

/// Configuration for the trace ring and interval metrics sampler, embedded in
/// `misp_sim::SimConfig` as the `trace` field.
///
/// The default is fully off: no ring is allocated, no sampler event is ever
/// scheduled, and every committed golden is byte-identical to a build without
/// this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Enables the structured trace ring.  When `false` no [`TraceBuffer`]
    /// exists and event recording is a single branch on the hot path.
    pub enabled: bool,
    /// Ring capacity in events.  Once full the oldest events are overwritten
    /// (and counted in [`TraceBuffer::dropped`]); the ring never reallocates
    /// after construction.  Clamped to at least 1.
    pub capacity: usize,
    /// Interval metrics period in sim-cycles; `0` disables the sampler.
    /// Non-zero values schedule a sampler event in the event queue's total
    /// order, so samples land at deterministic points of the run regardless
    /// of harness threading.
    pub metrics_interval: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 65_536,
            metrics_interval: 0,
        }
    }
}

impl TraceConfig {
    /// Returns `true` when neither the trace ring nor the sampler is active.
    pub fn is_off(&self) -> bool {
        !self.enabled && self.metrics_interval == 0
    }
}

/// Kind of a structured trace event.
///
/// This is the simulator's only event-kind enum: every engine and platform
/// emission site passes one to `misp_sim::EventLog`, which counts it and,
/// while tracing, rings it.  The first twelve variants are the firmware
/// event kinds folded into `log_digest`.  [`TraceKind::TlbMiss`] and
/// [`TraceKind::CacheMiss`] are trace-only instants emitted from the memory
/// path only while tracing; they stay out of `log_digest`, so the goldens
/// are untouched by tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// A sequencer entered Ring 0 (privileged execution window opens).
    RingEnter,
    /// A sequencer returned to Ring 3 (privileged window closes).
    RingExit,
    /// An AMS raised a proxy-execution request.
    ProxyRequest,
    /// An OMS began servicing a proxy request.
    ProxyStart,
    /// A proxy-execution episode completed.
    ProxyDone,
    /// A sequencer was suspended (serialization window opens).
    Suspend,
    /// A suspended sequencer resumed (serialization window closes).
    Resume,
    /// A shred started executing on a sequencer.
    ShredStart,
    /// A shred finished executing on a sequencer.
    ShredEnd,
    /// The OS switched thread context on a sequencer.
    ContextSwitch,
    /// A user-level `SIGNAL` instruction was executed.
    SignalSent,
    /// The OS scheduling timer fired.
    TimerTick,
    /// A memory access missed the TLB (trace-only instant).
    TlbMiss,
    /// A cache-modeled access missed to memory (trace-only instant).
    CacheMiss,
}

impl TraceKind {
    /// Every kind, in canonical (digest) order.
    pub const ALL: [TraceKind; 14] = [
        TraceKind::RingEnter,
        TraceKind::RingExit,
        TraceKind::ProxyRequest,
        TraceKind::ProxyStart,
        TraceKind::ProxyDone,
        TraceKind::Suspend,
        TraceKind::Resume,
        TraceKind::ShredStart,
        TraceKind::ShredEnd,
        TraceKind::ContextSwitch,
        TraceKind::SignalSent,
        TraceKind::TimerTick,
        TraceKind::TlbMiss,
        TraceKind::CacheMiss,
    ];

    /// Stable index of this kind in [`TraceKind::ALL`]; the value hashed into
    /// trace digests.
    pub fn canonical_index(self) -> usize {
        self as usize
    }

    /// Human-readable label, used as the Chrome-trace event name for
    /// instants.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::RingEnter => "RingEnter",
            TraceKind::RingExit => "RingExit",
            TraceKind::ProxyRequest => "ProxyRequest",
            TraceKind::ProxyStart => "ProxyStart",
            TraceKind::ProxyDone => "ProxyDone",
            TraceKind::Suspend => "Suspend",
            TraceKind::Resume => "Resume",
            TraceKind::ShredStart => "ShredStart",
            TraceKind::ShredEnd => "ShredEnd",
            TraceKind::ContextSwitch => "ContextSwitch",
            TraceKind::SignalSent => "SignalSent",
            TraceKind::TimerTick => "TimerTick",
            TraceKind::TlbMiss => "TlbMiss",
            TraceKind::CacheMiss => "CacheMiss",
        }
    }
}

/// One structured trace event: a point on a sequencer's timeline.
///
/// Span kinds (e.g. [`TraceKind::ShredStart`]/[`TraceKind::ShredEnd`]) open
/// and close windows; the exporter pairs them per sequencer lane.  The record
/// is `Copy` and 16 bytes so the ring push is a store, not an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event, in cycles.
    pub time: u64,
    /// Index of the sequencer the event occurred on.
    pub seq: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// Preallocated overwrite-oldest ring of [`TraceEvent`]s.
///
/// The backing `Vec` is sized once at construction (outside the engine's
/// zero-alloc steady-state window) and never grows; once full, each push
/// overwrites the oldest event and bumps [`TraceBuffer::dropped`].
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a ring holding at most `capacity` events (clamped to ≥ 1).
    /// The full backing store is allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event; overwrites the oldest once the ring is full.
    /// Never allocates.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events in chronological order (oldest first).
    ///
    /// Allocates a fresh `Vec` — call this at report time, not on the hot
    /// path.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Order-sensitive FNV-1a digest over the retained events plus the
    /// dropped count.  Two runs with identical trace content produce the
    /// same digest regardless of harness thread count.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for i in 0..self.events.len() {
            let ev = self.events[(self.head + i) % self.capacity];
            h.write_u64(ev.time);
            h.write_u64(u64::from(ev.seq));
            h.write_u64(ev.kind.canonical_index() as u64);
        }
        h.write_u64(self.dropped);
        h.finish()
    }

    /// Consumes the ring into a [`TraceReport`].
    pub fn into_report(self) -> TraceReport {
        let digest = self.digest();
        let dropped = self.dropped;
        let events = self.events();
        TraceReport {
            events,
            dropped,
            digest,
        }
    }
}

/// End-of-run trace artifact: retained events in chronological order, the
/// overwrite count and the stream digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring filled up.
    pub dropped: u64,
    /// FNV-1a digest of the retained stream (see [`TraceBuffer::digest`]).
    pub digest: u64,
}

/// Order-sensitive FNV-1a digest over a flat event stream plus a dropped
/// count — the exact formula [`TraceBuffer::digest`] applies to its ring.
pub fn trace_digest(events: &[TraceEvent], dropped: u64) -> u64 {
    let mut h = Fnv64::new();
    for ev in events {
        h.write_u64(ev.time);
        h.write_u64(u64::from(ev.seq));
        h.write_u64(ev.kind.canonical_index() as u64);
    }
    h.write_u64(dropped);
    h.finish()
}

/// Merges per-machine trace reports into one fleet-wide report.
///
/// Machine `m`'s sequencer `s` is renumbered to track `m * stride + s`
/// (`stride` being the per-machine sequencer count), so
/// [`chrome_trace_json`] renders one process track per machine×sequencer
/// pair.  Events merge in `(time, machine, intra-machine order)` order —
/// deterministic for deterministic inputs — dropped counts sum, and the
/// digest is recomputed over the merged stream with [`trace_digest`].
pub fn merge_machine_traces(machines: &[TraceReport], stride: u32) -> TraceReport {
    let mut keyed: Vec<(u64, usize, usize, TraceEvent)> = Vec::new();
    let mut dropped = 0u64;
    for (m, report) in machines.iter().enumerate() {
        dropped += report.dropped;
        for (i, ev) in report.events.iter().enumerate() {
            let remapped = TraceEvent {
                time: ev.time,
                seq: m as u32 * stride + ev.seq,
                kind: ev.kind,
            };
            keyed.push((ev.time, m, i, remapped));
        }
    }
    keyed.sort_unstable_by_key(|&(time, m, i, _)| (time, m, i));
    let events: Vec<TraceEvent> = keyed.into_iter().map(|(_, _, _, ev)| ev).collect();
    let digest = trace_digest(&events, dropped);
    TraceReport {
        events,
        dropped,
        digest,
    }
}

/// Cumulative machine counters snapshotted by the sampler; the recorder
/// diffs consecutive snapshots into per-interval deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Total busy cycles summed over sequencers.
    pub busy: u64,
    /// Total stalled cycles summed over sequencers.
    pub stalled: u64,
    /// Total operations executed summed over sequencers.
    pub ops: u64,
    /// Machine-wide TLB hits.
    pub tlb_hits: u64,
    /// Machine-wide TLB misses.
    pub tlb_misses: u64,
    /// Machine-wide cache misses (0 while the cache model is off).
    pub cache_misses: u64,
}

/// One interval metrics sample: counter *deltas* since the previous sample
/// plus instantaneous depth gauges, taken at a deterministic point in the
/// event queue's total order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalSample {
    /// Simulation time of the sample, in cycles.
    pub t: u64,
    /// Busy cycles accumulated during this interval.
    pub busy: u64,
    /// Stalled cycles accumulated during this interval.
    pub stalled: u64,
    /// Operations executed during this interval.
    pub ops: u64,
    /// Event-queue occupancy at the sample point (gauge).
    pub queue_len: u64,
    /// Shreds in the Ready state at the sample point (run-queue depth gauge).
    pub ready_shreds: u64,
    /// TLB hits during this interval.
    pub tlb_hits: u64,
    /// TLB misses during this interval.
    pub tlb_misses: u64,
    /// Cache misses during this interval (0 while the cache model is off).
    pub cache_misses: u64,
    /// Outstanding admitted-but-uncompleted service requests at the sample
    /// point (admission-queue depth gauge; 0 without a service scenario).
    pub service_outstanding: u64,
}

/// Accumulates [`IntervalSample`]s from periodic [`CounterSnapshot`]s.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    interval: u64,
    samples: Vec<IntervalSample>,
    prev: CounterSnapshot,
}

impl MetricsRecorder {
    /// Creates a recorder for samples `interval` cycles apart
    /// (`interval` ≥ 1).
    pub fn new(interval: u64) -> Self {
        MetricsRecorder {
            interval: interval.max(1),
            samples: Vec::new(),
            prev: CounterSnapshot::default(),
        }
    }

    /// Sampling period, in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of samples recorded so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Records one sample at time `t` from the machine's *cumulative*
    /// counters plus instantaneous gauges; stores the delta against the
    /// previous snapshot.
    pub fn record(
        &mut self,
        t: u64,
        cumulative: CounterSnapshot,
        queue_len: u64,
        ready_shreds: u64,
        service_outstanding: u64,
    ) {
        let p = self.prev;
        self.samples.push(IntervalSample {
            t,
            busy: cumulative.busy.saturating_sub(p.busy),
            stalled: cumulative.stalled.saturating_sub(p.stalled),
            ops: cumulative.ops.saturating_sub(p.ops),
            queue_len,
            ready_shreds,
            tlb_hits: cumulative.tlb_hits.saturating_sub(p.tlb_hits),
            tlb_misses: cumulative.tlb_misses.saturating_sub(p.tlb_misses),
            cache_misses: cumulative.cache_misses.saturating_sub(p.cache_misses),
            service_outstanding,
        });
        self.prev = cumulative;
    }

    /// Consumes the recorder into a [`MetricsReport`].
    pub fn into_report(self) -> MetricsReport {
        let digest = metrics_digest(&self.samples);
        MetricsReport {
            interval: self.interval,
            samples: self.samples,
            digest,
        }
    }
}

/// Order-sensitive FNV-1a digest over a sample stream; the value recorded in
/// results JSON and compared across harness thread counts.
pub fn metrics_digest(samples: &[IntervalSample]) -> u64 {
    let mut h = Fnv64::new();
    for s in samples {
        h.write_u64(s.t);
        h.write_u64(s.busy);
        h.write_u64(s.stalled);
        h.write_u64(s.ops);
        h.write_u64(s.queue_len);
        h.write_u64(s.ready_shreds);
        h.write_u64(s.tlb_hits);
        h.write_u64(s.tlb_misses);
        h.write_u64(s.cache_misses);
        h.write_u64(s.service_outstanding);
    }
    h.finish()
}

/// End-of-run interval metrics artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Sampling period, in cycles.
    pub interval: u64,
    /// Samples in time order.
    pub samples: Vec<IntervalSample>,
    /// FNV-1a digest of the stream (see [`metrics_digest`]).
    pub digest: u64,
}

/// Self-profiling counters for the engine's radix-heap event queue.
///
/// These are *simulator* diagnostics, not simulation results: they are
/// deterministic for a given configuration but differ between macro-step and
/// per-op engines, so they live beside — never inside — the results schema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueProfile {
    /// Queue entries pushed (including superseded-slot replacements; a
    /// tick or stall end that joins a same-instant group entry adds none).
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// High-water queue occupancy.
    pub max_len: u64,
    /// Entries moved during bucket redistributions.
    pub redistributions: u64,
    /// Pushes that replaced a live per-sequencer slot in place.
    pub supersessions: u64,
}

impl QueueProfile {
    /// Folds another profile into this one (sums counters, maxes the
    /// high-water mark); used to aggregate across runs.
    pub fn absorb(&mut self, other: &QueueProfile) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.max_len = self.max_len.max(other.max_len);
        self.redistributions += other.redistributions;
        self.supersessions += other.supersessions;
    }
}

/// Chrome-trace lane (tid) names, indexed by lane number within a
/// sequencer's track.
const LANE_NAMES: [&str; 5] = ["shred", "ring0", "proxy", "suspended", "events"];

/// Span name rendered for B/E pairs on each lane.
const SPAN_NAMES: [&str; 4] = ["shred", "ring0", "proxy", "suspended"];

/// Maps a kind to its lane and phase: `(lane, Some(true))` opens a span,
/// `(lane, Some(false))` closes one, `(4, None)` is an instant.
fn lane_of(kind: TraceKind) -> (usize, Option<bool>) {
    match kind {
        TraceKind::ShredStart => (0, Some(true)),
        TraceKind::ShredEnd => (0, Some(false)),
        TraceKind::RingEnter => (1, Some(true)),
        TraceKind::RingExit => (1, Some(false)),
        TraceKind::ProxyStart => (2, Some(true)),
        TraceKind::ProxyDone => (2, Some(false)),
        TraceKind::Suspend => (3, Some(true)),
        TraceKind::Resume => (3, Some(false)),
        TraceKind::ProxyRequest
        | TraceKind::ContextSwitch
        | TraceKind::SignalSent
        | TraceKind::TimerTick
        | TraceKind::TlbMiss
        | TraceKind::CacheMiss => (4, None),
    }
}

/// Renders events as Chrome-trace/Perfetto JSON (`{"traceEvents":[...]}`).
///
/// One *process* per sequencer (named `SEQ<i>`) with five *thread* lanes —
/// `shred`, `ring0`, `proxy`, `suspended` and `events` — so Perfetto shows
/// one track group per sequencer.  Span begin/end kinds become `ph:"B"` /
/// `ph:"E"` pairs; point kinds become thread-scoped instants (`ph:"i"`).
/// Timestamps are sim-cycles rendered as microseconds (1 cycle ≡ 1 µs in the
/// viewer).
///
/// Ring truncation can leave spans unbalanced, and shred creation logs an
/// unpaired start marker; the exporter is tolerant: a close with no matching
/// open is skipped, and opens still unclosed at the end are closed at the
/// last timestamp so every span renders with finite extent.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;

    let mut out = String::with_capacity(64 + events.len() * 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |out: &mut String, body: std::fmt::Arguments<'_>| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        let _ = write!(out, "{body}");
    };

    // Metadata first: deterministic order via BTreeSet over (pid, lane).
    let mut lanes_used: BTreeSet<(u32, usize)> = BTreeSet::new();
    for ev in events {
        lanes_used.insert((ev.seq, lane_of(ev.kind).0));
    }
    let pids: BTreeSet<u32> = lanes_used.iter().map(|&(pid, _)| pid).collect();
    for &pid in &pids {
        emit(
            &mut out,
            format_args!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"SEQ{pid}\"}}}}"
            ),
        );
    }
    for &(pid, lane) in &lanes_used {
        emit(
            &mut out,
            format_args!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{lane},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                LANE_NAMES[lane]
            ),
        );
    }

    // Open-span depth per (pid, lane), for imbalance tolerance.
    let mut depth: std::collections::BTreeMap<(u32, usize), u64> =
        std::collections::BTreeMap::new();
    let mut max_ts = 0u64;
    for ev in events {
        max_ts = max_ts.max(ev.time);
        let (lane, phase) = lane_of(ev.kind);
        let pid = ev.seq;
        let ts = ev.time;
        match phase {
            Some(true) => {
                *depth.entry((pid, lane)).or_insert(0) += 1;
                emit(
                    &mut out,
                    format_args!(
                        "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{lane},\"ts\":{ts},\
                         \"name\":\"{}\"}}",
                        SPAN_NAMES[lane]
                    ),
                );
            }
            Some(false) => {
                let d = depth.entry((pid, lane)).or_insert(0);
                if *d == 0 {
                    // Close with no matching open (ring truncation): skip.
                    continue;
                }
                *d -= 1;
                emit(
                    &mut out,
                    format_args!(
                        "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{lane},\"ts\":{ts},\
                         \"name\":\"{}\"}}",
                        SPAN_NAMES[lane]
                    ),
                );
            }
            None => {
                emit(
                    &mut out,
                    format_args!(
                        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{lane},\"ts\":{ts},\
                         \"s\":\"t\",\"name\":\"{}\"}}",
                        ev.kind.label()
                    ),
                );
            }
        }
    }

    // Synthesize closes for spans still open (run ended mid-span or the
    // opener's close fell off the ring), so Perfetto renders finite spans.
    for (&(pid, lane), &d) in &depth {
        for _ in 0..d {
            emit(
                &mut out,
                format_args!(
                    "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{lane},\"ts\":{max_ts},\
                     \"name\":\"{}\"}}",
                    SPAN_NAMES[lane]
                ),
            );
        }
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u32, kind: TraceKind) -> TraceEvent {
        TraceEvent { time, seq, kind }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = TraceBuffer::new(3);
        for t in 0..5 {
            ring.push(ev(t, 0, TraceKind::SignalSent));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let times: Vec<u64> = ring.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn ring_capacity_zero_is_clamped() {
        let mut ring = TraceBuffer::new(0);
        ring.push(ev(1, 0, TraceKind::TimerTick));
        ring.push(ev(2, 0, TraceKind::TimerTick));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.events()[0].time, 2);
    }

    #[test]
    fn digest_matches_identical_streams_and_separates_different_ones() {
        let mut a = TraceBuffer::new(8);
        let mut b = TraceBuffer::new(8);
        for t in 0..4 {
            a.push(ev(t, 1, TraceKind::RingEnter));
            b.push(ev(t, 1, TraceKind::RingEnter));
        }
        assert_eq!(a.digest(), b.digest());
        b.push(ev(9, 1, TraceKind::RingExit));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn wrapped_ring_digest_matches_unwrapped_equivalent() {
        // A ring that wrapped and a fresh ring holding the same retained
        // events differ only in the dropped count folded into the digest.
        let mut wrapped = TraceBuffer::new(2);
        for t in 0..4 {
            wrapped.push(ev(t, 0, TraceKind::TimerTick));
        }
        let mut plain = TraceBuffer::new(2);
        plain.push(ev(2, 0, TraceKind::TimerTick));
        plain.push(ev(3, 0, TraceKind::TimerTick));
        assert_eq!(wrapped.events(), plain.events());
        assert_ne!(wrapped.digest(), plain.digest(), "dropped count differs");
    }

    #[test]
    fn trace_digest_matches_the_ring_formula() {
        let mut ring = TraceBuffer::new(2);
        for t in 0..4 {
            ring.push(ev(t, 1, TraceKind::TimerTick));
        }
        assert_eq!(ring.digest(), trace_digest(&ring.events(), ring.dropped()));
    }

    #[test]
    fn fleet_merge_renumbers_tracks_and_interleaves_by_time() {
        let a = TraceReport {
            events: vec![
                ev(1, 0, TraceKind::ShredStart),
                ev(8, 1, TraceKind::ShredEnd),
            ],
            dropped: 2,
            digest: 0,
        };
        let b = TraceReport {
            events: vec![
                ev(1, 0, TraceKind::RingEnter),
                ev(5, 2, TraceKind::RingExit),
            ],
            dropped: 1,
            digest: 0,
        };
        let merged = merge_machine_traces(&[a, b], 4);
        assert_eq!(merged.dropped, 3);
        let view: Vec<(u64, u32)> = merged.events.iter().map(|e| (e.time, e.seq)).collect();
        // Equal times order by machine; machine 1's sequencers shift by the
        // stride.
        assert_eq!(view, vec![(1, 0), (1, 4), (5, 6), (8, 1)]);
        assert_eq!(merged.digest, trace_digest(&merged.events, 3));
        let json = chrome_trace_json(&merged.events);
        assert!(json.contains("\"SEQ0\""));
        assert!(json.contains("\"SEQ4\""), "machine 1, sequencer 0: {json}");
        assert!(json.contains("\"SEQ6\""), "machine 1, sequencer 2: {json}");
    }

    #[test]
    fn metrics_recorder_stores_deltas_and_gauges() {
        let mut rec = MetricsRecorder::new(100);
        let mut c = CounterSnapshot {
            busy: 60,
            stalled: 40,
            ops: 55,
            tlb_hits: 50,
            tlb_misses: 5,
            cache_misses: 0,
        };
        rec.record(100, c, 7, 3, 2);
        c.busy = 150;
        c.ops = 140;
        c.tlb_hits = 130;
        rec.record(200, c, 4, 1, 0);
        let report = rec.into_report();
        assert_eq!(report.samples.len(), 2);
        assert_eq!(report.samples[0].busy, 60);
        assert_eq!(report.samples[0].queue_len, 7);
        assert_eq!(report.samples[1].busy, 90);
        assert_eq!(report.samples[1].stalled, 0);
        assert_eq!(report.samples[1].ops, 85);
        assert_eq!(report.samples[1].tlb_hits, 80);
        assert_eq!(report.samples[1].ready_shreds, 1);
        assert_eq!(report.digest, metrics_digest(&report.samples));
    }

    #[test]
    fn queue_profile_absorb_sums_and_maxes() {
        let mut a = QueueProfile {
            pushes: 10,
            pops: 9,
            max_len: 4,
            redistributions: 2,
            supersessions: 1,
        };
        let b = QueueProfile {
            pushes: 5,
            pops: 5,
            max_len: 7,
            redistributions: 0,
            supersessions: 3,
        };
        a.absorb(&b);
        assert_eq!(a.pushes, 15);
        assert_eq!(a.pops, 14);
        assert_eq!(a.max_len, 7);
        assert_eq!(a.redistributions, 2);
        assert_eq!(a.supersessions, 4);
    }

    #[test]
    fn chrome_trace_pairs_spans_and_tolerates_imbalance() {
        let events = [
            // Unmatched close: must be skipped.
            ev(1, 0, TraceKind::ShredEnd),
            ev(2, 0, TraceKind::ShredStart),
            ev(3, 0, TraceKind::SignalSent),
            ev(5, 1, TraceKind::RingEnter),
            // Shred span closed normally; ring span left open (synthesized
            // close at max ts = 5).
            ev(5, 0, TraceKind::ShredEnd),
        ];
        let json = chrome_trace_json(&events);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        // Two sequencers -> two process_name metadata records.
        assert_eq!(json.matches("process_name").count(), 2);
        assert!(json.contains("\"SEQ0\""));
        assert!(json.contains("\"SEQ1\""));
        // The synthesized ring0 close lands at the last timestamp.
        assert!(json.contains("{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":5,\"name\":\"ring0\"}"));
        assert!(json.ends_with("\n]}\n"));
    }

    #[test]
    fn chrome_trace_is_empty_document_for_no_events() {
        let json = chrome_trace_json(&[]);
        assert_eq!(json, "{\"traceEvents\":[\n]}\n");
    }
}
