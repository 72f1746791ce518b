//! In-memory spans recorded around the benchmark's calls into the
//! library, written out as JSON lines when the run ends.
//!
//! Spans sit at three levels: a `workload` span, op spans under it (`kdj`
//! call, `cursor`, `pull`, wire `request`, `probe_set`), and `probe`
//! calls. A span's self time is its duration minus the part of it its
//! children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span id (1-based; 0 is "no span").
    pub id: u64,
    /// What the span covers.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The enclosing span's id, 0 at the top.
    pub parent: u64,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
}

/// A span recorder. Disabled, it records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    name: &'static str,
    start: u64,
    parent: u64,
    op: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of child spans (0 when the
    /// tracer is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The op id this span carries.
    pub fn op(&self) -> u64 {
        self.op
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = self.tracer.now();
        let span = Span {
            id: self.id,
            name: self.name,
            start: self.start,
            end,
            parent: self.parent,
            op: self.op,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for none). `op` 0 starts a new op
    /// whose id is this span's own id.
    pub fn span(&self, name: &'static str, parent: u64, op: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: 0,
                name,
                start: 0,
                parent,
                op,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            tracer: self,
            id,
            name,
            start: self.now(),
            parent,
            op: if op == 0 { id } else { op },
        }
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end - s.start) - covered)
        })
        .collect()
}

/// Mean self time per span name, milliseconds, with the span count.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let own = self_times(spans);
    let mut by: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for s in spans {
        let e = by.entry(s.name).or_default();
        e.0 += own[&s.id];
        e.1 += 1;
    }
    by.into_iter()
        .map(|(k, (ns, n))| (k, (ns as f64 / 1e6 / n as f64, n)))
        .collect()
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}\n",
            s.id, s.name, s.start, s.end, s.parent, s.op
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            name: if parent == 0 { "op" } else { "child" },
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 60),
            span(4, 2, 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 20 - 10);
        assert_eq!(own[&2], 20 - 6);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 6);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two concurrent children overlap on [40, 50]; a third overhangs
        // the parent's end and is clipped to it.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 20, 50),
            span(3, 1, 40, 70),
            span(4, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 50 - 10);
    }

    #[test]
    fn mean_self_ms_groups_by_name() {
        let spans = [
            span(1, 0, 0, 4_000_000),
            span(2, 1, 0, 1_000_000),
            span(3, 1, 1_000_000, 3_000_000),
        ];
        let by = self_ms_by_name(&spans);
        assert_eq!(by["op"], (1.0, 1));
        assert_eq!(by["child"], (1.5, 2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("op", 0, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        {
            let outer = t.span("op", 0, 0);
            let _inner = t.span("child", outer.id(), outer.op());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[0].op, spans[1].op);
    }
}
