//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, and the trace id of the query it
//! belongs to. Spans stay in memory and are written out when the run ends.
//! Spans inside the program are a later change and must reuse these names.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the tracer, `None` for a root.
    pub parent: Option<usize>,
    /// Shared by all spans of one query: its stream position.
    pub trace_id: u64,
    /// `true` when start and end were laid out from a counter the program
    /// keeps (a duration, not two clock reads), so only the length is real.
    pub derived: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index for children to name.
    pub fn record(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id,
            derived,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; `close` stamps its end.
    pub fn open(&mut self, name: &'static str, trace_id: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, trace_id, parent, now, now, false)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Times `f` as a child span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, trace_id, parent);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("trace_id", Json::Num(s.trace_id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("derived", Json::Bool(s.derived)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children are counted once, and
/// the parts of a child outside the parent are ignored.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total and self time per span name, in microseconds, plus span counts.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name.to_owned()).or_default();
        t.count += 1;
        t.total_us += s.duration_ns() as f64 / 1e3;
        t.self_us += self_ns as f64 / 1e3;
    }
    out
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
            derived: false,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 80),
            span(Some(0), 45, 50),
        ];
        // Children cover [10, 80) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_grandchildren_ignored() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 50, 120),
            span(Some(0), 190, 300),
            span(Some(1), 60, 110),
        ];
        let selfs = self_times_ns(&spans);
        // [100,120) and [190,200) are covered: 100 - 30.
        assert_eq!(selfs[0], 70);
        // The grandchild only reduces its own parent.
        assert_eq!(selfs[1], 20);
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::default();
        let root = t.open("query", 7, None);
        let got = t.time("sql.parse", 7, Some(root), || 41 + 1);
        t.close(root);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = t.to_json();
        assert_eq!(json.as_arr().unwrap().len(), 2);
        assert_eq!(
            json.as_arr().unwrap()[1].get("name").unwrap().as_str(),
            Some("sql.parse")
        );
        let totals = summarize(spans);
        assert_eq!(totals["query"].count, 1);
    }
}
