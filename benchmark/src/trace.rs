//! Spans recorded from the benchmark's own code, around its calls into
//! each layer's public functions.
//!
//! A traced operation runs once over the wire under an `e2e` span; the
//! layer work inside it is then replayed in process, one public function
//! at a time, under spans that name `e2e` as their parent. A span may
//! therefore lie outside its parent's interval: what nests is the
//! accounting, not the clock. A span's self time is its duration minus
//! its children's durations, and what the replays leave of the `e2e`
//! duration is time no public call reproduces — system calls, TCP,
//! thread wake-ups.
//!
//! Spans live in a buffer allocated up front and are written out when
//! the run ends.

use crate::json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

/// Parent of a root span.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: SpanId,
    pub parent: SpanId,
    /// The operation all spans of one request share.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    capacity: usize,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::end`] closes it. Returns [`ROOT`] when the
    /// buffer is full and the span was dropped.
    pub fn begin(&self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    pub fn end(&self, id: SpanId) {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span buffer holds plain data");
        if let Some(span) = id.checked_sub(1).and_then(|i| spans.get_mut(i as usize)) {
            span.end_ns = now;
        }
    }

    /// Runs `work` under a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        work: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = work(id);
        self.end(id);
        out
    }

    /// Records a span whose interval the caller measured (or, for a
    /// stage costed once by a probe, only its length).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span buffer holds plain data");
        if spans.len() == self.capacity {
            return ROOT;
        }
        let id = spans.len() as SpanId + 1;
        spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer holds plain data")
            .clone()
    }

    /// `[{"name":…,"id":…,"parent":…,"op":…,"start_ns":…,"end_ns":…},…]`
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\":{},\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                json::quote(s.name),
                s.id,
                s.parent,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Whether a metric reads a span's whole duration or its self time:
/// the duration minus the durations of the spans naming it as parent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Time {
    Total,
    SelfOnly,
}

/// Per span name, the microseconds each operation spent under it
/// (summed when an operation has several such spans), in operation
/// order.
pub fn per_op(spans: &[Span], time: Time) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: BTreeMap<SpanId, f64> = BTreeMap::new();
    if time == Time::SelfOnly {
        for s in spans.iter().filter(|s| s.parent != ROOT) {
            *children.entry(s.parent).or_default() += s.micros();
        }
    }
    let mut by_name: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
    for s in spans {
        let own = s.micros() - children.get(&s.id).copied().unwrap_or(0.0);
        *by_name.entry(s.name).or_default().entry(s.op).or_default() += own;
    }
    by_name
        .into_iter()
        .map(|(name, ops)| (name, ops.into_values().collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = Tracer::with_capacity(8);
        let e2e = t.record("e2e", ROOT, 1, 0, 100_000);
        let exec = t.record("execute", e2e, 1, 200_000, 260_000);
        t.record("parse", exec, 1, 300_000, 310_000);
        t.record("eval", exec, 1, 310_000, 340_000);
        let own = per_op(&t.spans(), Time::SelfOnly);
        assert_eq!(own["e2e"], vec![40.0]);
        assert_eq!(own["execute"], vec![20.0]);
        assert_eq!(own["parse"], vec![10.0]);
        assert_eq!(per_op(&t.spans(), Time::Total)["execute"], vec![60.0]);
    }

    #[test]
    fn totals_sum_repeated_spans_within_an_operation() {
        let t = Tracer::with_capacity(8);
        t.record("codec", ROOT, 1, 0, 1_000);
        t.record("codec", ROOT, 1, 5_000, 7_000);
        t.record("codec", ROOT, 2, 0, 4_000);
        assert_eq!(per_op(&t.spans(), Time::Total)["codec"], vec![3.0, 4.0]);
    }

    #[test]
    fn begin_and_end_bracket_work_and_children_can_name_the_parent() {
        let t = Tracer::with_capacity(8);
        let child = t.span("outer", ROOT, 7, |outer| t.begin("inner", outer, 7));
        t.end(child);
        let spans = t.spans();
        assert_eq!((spans[0].name, spans[1].parent), ("outer", spans[0].id));
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn a_full_buffer_drops_spans_without_growing() {
        let t = Tracer::with_capacity(1);
        assert_eq!(t.record("a", ROOT, 1, 0, 1), 1);
        assert_eq!(t.begin("b", ROOT, 1), ROOT);
        t.end(ROOT);
        assert_eq!(t.spans().len(), 1);
        assert!(json::Value::parse(&t.to_json()).is_ok());
    }
}
