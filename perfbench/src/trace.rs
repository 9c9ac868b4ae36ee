//! In-memory span recording for the traced run.
//!
//! A span is one call into a layer, made from the benchmark's own code:
//! name, start, end, the span that caused it and the workload
//! operation it belongs to. Spans stay in memory until the run ends.
//! With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span this call was made from, if any.
    pub parent: Option<u32>,
    /// Layer call name, `<module>.<call>`.
    pub name: &'static str,
    /// Workload operation the call belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans from any thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only passes calls through.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id to parent the calls it makes (`None` with tracing off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        // Relaxed: the counter only hands out unique ids.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Time each span spent outside its child spans: its duration minus
/// the union of its children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Calls recorded.
    pub count: usize,
    /// Summed wall time, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Each call's wall time, ns, in id order.
    pub durations_ns: Vec<f64>,
}

/// Per-name totals, by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_ns += s.dur_ns();
        l.self_ns += selfs[&s.id];
        l.durations_ns.push(s.dur_ns() as f64);
    }
    out
}

/// The span log as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            s.name,
            s.op,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps child 1
            span(3, Some(0), 90, 120), // runs past the parent's end
            span(4, Some(1), 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 40 - 10);
        assert_eq!(st[&1], 20 - 2);
        assert_eq!(st[&4], 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 1, |p| p), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let child = t.span("outer", None, 7, |p| t.span("inner", p, 7, |c| c));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(child, Some(spans[1].id));
        assert_eq!(spans[1].parent, Some(spans[0].id));
    }
}
