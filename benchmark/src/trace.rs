//! The benchmark's own span recorder.
//!
//! Spans sit around the benchmark's calls into each layer; the program
//! itself is not instrumented. A span records its name, start, end, parent
//! and the id shared by every span of one campaign or request. Spans are
//! kept in memory and written out when the run ends. With tracing off a
//! span is only an `Instant`, so untraced runs pay nothing for it.
//!
//! Span names start with the layer they time (`cosa.open`,
//! `vaesa.search.bo`, ...); a layer's self time is the time its spans
//! cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Shared by every span of one campaign or request.
    pub trace: u64,
    /// Unique within the run (ids start at 1).
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

/// Collects spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a root span of trace `trace`.
    pub fn root(&self, name: &'static str, trace: u64) -> Span<'_> {
        self.open(name, trace, 0, self.enabled)
    }

    /// Like [`Tracer::root`], but the span and its children record only
    /// when `on` (and the tracer is enabled).
    pub fn root_when(&self, on: bool, name: &'static str, trace: u64) -> Span<'_> {
        self.open(name, trace, 0, on && self.enabled)
    }

    fn open(&self, name: &'static str, trace: u64, parent: u64, record: bool) -> Span<'_> {
        let id = if record {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Span {
            tracer: self,
            record,
            name,
            trace,
            id,
            parent,
            start: Instant::now(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// An open span; it records itself when ended or dropped.
#[derive(Debug)]
pub struct Span<'t> {
    tracer: &'t Tracer,
    record: bool,
    name: &'static str,
    trace: u64,
    id: u64,
    parent: u64,
    start: Instant,
}

impl<'t> Span<'t> {
    /// Opens a child span in the same trace.
    pub fn child(&self, name: &'static str) -> Span<'t> {
        self.tracer.open(name, self.trace, self.id, self.record)
    }

    /// Ends the span and returns its duration.
    pub fn end(self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.record {
            return;
        }
        let end = Instant::now();
        let rec = SpanRec {
            name: self.name,
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            start_ns: self.tracer.offset(self.start),
            end_ns: self.tracer.offset(end),
        };
        self.tracer.spans.lock().expect("span list lock").push(rec);
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

fn children_of(spans: &[SpanRec]) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    children
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// it that its children cover, summed by [`layer_of`] its name.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let children = children_of(spans);
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns);
        *out.entry(layer_of(s.name).to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// For every root span named `root`, the share of its wall time that its
/// child spans cover.
pub fn child_coverage(spans: &[SpanRec], root: &str) -> Vec<f64> {
    let children = children_of(spans);
    spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root && s.end_ns > s.start_ns)
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            covered(kids, s.start_ns, s.end_ns) as f64 / (s.end_ns - s.start_ns) as f64
        })
        .collect()
}

/// The spans as a JSON document (one object per span).
pub fn spans_json(spans: &[SpanRec]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
            s.name,
            s.trace,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            trace: 1,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            rec("campaign", 1, 0, 0, 100),
            rec("vaesa.search", 2, 1, 10, 60),
            rec("cosa.flush", 3, 1, 50, 70),
            rec("dse.fit", 4, 2, 20, 30),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["campaign"] - 40e-9).abs() < 1e-15);
        assert!((t["vaesa"] - 40e-9).abs() < 1e-15);
        assert!((t["cosa"] - 20e-9).abs() < 1e-15);
        assert!((t["dse"] - 10e-9).abs() < 1e-15);
        assert_eq!(child_coverage(&spans, "campaign"), vec![0.6]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let root = tracer.root("campaign", 1);
        drop(root.child("cosa.open"));
        drop(root);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let root = tracer.root("campaign", 1);
        drop(root.child("cosa.open"));
        drop(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
