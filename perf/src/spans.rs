//! Spans recorded around the benchmark's calls into each layer.
//!
//! A traced repetition wraps every grid point in a root span and every
//! public call into a layer (stream generation, program build, machine
//! assembly, `Machine::start`/`advance`/`finish_report`, `run_fleet`,
//! record, serialize, teardown) in a child span.  Spans stay in memory and
//! are written once, as Chrome-trace JSON that Perfetto opens.
//!
//! An untraced repetition holds a [`Recorder::off`], whose `span` is a plain
//! call: no clock read, no allocation.

use crate::host::{now, ns};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Root span of one grid point.
pub const POINT: &str = "point";
/// Root span of a fleet point's members, re-run standalone after the rep.
pub const MEMBERS: &str = "members";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call (or root kind) the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing root span, if any.
    pub parent: Option<usize>,
    /// Index of the grid point the span belongs to.
    pub point: u32,
    /// Traced repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    rep: u32,
}

/// Records spans when on; a pass-through when off.
#[derive(Debug)]
pub struct Recorder {
    trace: Option<Trace>,
}

impl Recorder {
    /// A recorder that records nothing and reads no clock.
    #[must_use]
    pub fn off() -> Self {
        Recorder { trace: None }
    }

    /// A recorder that keeps every span in memory.
    #[must_use]
    pub fn on() -> Self {
        Recorder {
            trace: Some(Trace {
                epoch: now(),
                spans: Vec::with_capacity(1 << 12),
                root: None,
                rep: 0,
            }),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.trace.is_some()
    }

    /// Tags the spans recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        if let Some(trace) = &mut self.trace {
            trace.rep = rep;
        }
    }

    /// Runs `f` inside a child span of the current root.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(trace) = &mut self.trace else {
            return f();
        };
        let start_ns = ns(trace.epoch, now());
        let out = f();
        let end_ns = ns(trace.epoch, now());
        let point = trace.root.map_or(u32::MAX, |r| trace.spans[r].point);
        trace.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: trace.root,
            point,
            rep: trace.rep,
        });
        out
    }

    /// Runs `f` inside a root span for grid point `point`; spans `f` records
    /// become its children.
    pub fn root<T>(
        &mut self,
        name: &'static str,
        point: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let Some(trace) = &mut self.trace else {
            return f(self);
        };
        let index = trace.spans.len();
        let start_ns = ns(trace.epoch, now());
        trace.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            point,
            rep: trace.rep,
        });
        trace.root = Some(index);
        let out = f(self);
        let trace = self.trace.as_mut().expect("a recorder stays on once on");
        trace.spans[index].end_ns = ns(trace.epoch, now());
        trace.root = None;
        out
    }

    /// Every span recorded so far, in start order of roots.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        self.trace.as_ref().map_or(&[], |t| &t.spans)
    }
}

/// Nanoseconds of each span's children.  Children of one single-threaded
/// root run one after another and never overlap, so the part of the root
/// they cover is their summed duration.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur();
        }
    }
    covered
}

/// Per traced repetition, the self time (duration minus the part its
/// children cover) summed by span name.
#[must_use]
pub fn self_ns_by_rep(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let covered = child_ns(spans);
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.rep).or_default().entry(s.name).or_default() += s.dur().saturating_sub(c);
    }
    out
}

/// The smallest share, over grid points, of a point's [`POINT`] roots
/// (summed over the traced repetitions) that their child spans cover:
/// near 1 when the spans account for all of every point's time.  Summing
/// over repetitions keeps one interrupt inside a 100 µs point from reading
/// as a gap in the spans.
#[must_use]
pub fn min_point_coverage(spans: &[Span]) -> f64 {
    let covered = child_ns(spans);
    let mut by_point: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        if s.name == POINT {
            let (child, root) = by_point.entry(s.point).or_default();
            *child += c;
            *root += s.dur();
        }
    }
    by_point
        .values()
        .filter(|(_, root)| *root > 0)
        .map(|&(child, root)| child as f64 / root as f64)
        .fold(f64::NAN, f64::min)
}

/// Renders spans as Chrome-trace JSON (complete `X` events, one thread
/// track; roots are named after their grid point).
#[must_use]
pub fn chrome_trace(spans: &[Span], point_ids: &[String]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let id = point_ids.get(s.point as usize).map_or("", String::as_str);
        let name = if s.parent.is_none() {
            format!("{} {id}", s.name)
        } else {
            s.name.to_string()
        };
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{}\n{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
             \"point\":\"{}\",\"rep\":{}}}}}",
            if i == 0 { "" } else { "," },
            escape(&name),
            s.start_ns as f64 / 1e3,
            s.dur() as f64 / 1e3,
            escape(id),
            s.rep,
        );
    }
    out.push_str("\n]}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::off();
        let v = rec.root(POINT, 0, |rec| rec.span("x", || 7));
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_trace_parses() {
        let mut rec = Recorder::on();
        rec.set_rep(3);
        rec.root(POINT, 1, |rec| {
            rec.span("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
            rec.span("b", || ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].point, 1);
        let by_rep = self_ns_by_rep(spans);
        let rep = &by_rep[&3];
        assert_eq!(
            rep[POINT] + rep["a"] + rep["b"],
            spans[0].dur(),
            "self times partition the root"
        );
        let coverage = min_point_coverage(spans);
        assert!((0.0..=1.0).contains(&coverage));
        let ids = vec!["p0".to_string(), "p\"1".to_string()];
        let json = chrome_trace(spans, &ids);
        let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        match doc.get("traceEvents") {
            Some(serde_json::Value::Array(events)) => assert_eq!(events.len(), 3),
            other => panic!("traceEvents missing: {other:?}"),
        }
    }
}
