//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every statement gets a root span; each layer call made for it gets a
//! child span. Spans stay in memory and are written out as JSON once the
//! run ends, so writing them never lands inside a measured interval.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique in the run.
    pub id: usize,
    /// The span that made this call, if any.
    pub parent: Option<usize>,
    /// The statement the span belongs to.
    pub stmt: u64,
    /// Layer call, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    stmt: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            stmt: 0,
        }
    }
}

impl Tracer {
    /// Open the root span of the next statement.
    pub fn begin_stmt(&mut self) -> usize {
        self.stmt += 1;
        self.begin("stmt", None)
    }

    /// Open a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            stmt: self.stmt,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close span `id`; returns its duration in microseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns() as f64 / 1e3
    }

    /// Run `f` inside a span named `name` under `parent`; returns its result
    /// and the span's duration in microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, Some(parent));
        let r = f();
        (r, self.end(id))
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in microseconds, grouped by span name: its
    /// duration minus the part of it that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        self_times(&self.spans)
    }

    /// The spans and per-name self-time totals as one JSON document.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{");
        for (k, v) in header {
            let _ = write!(out, "\"{k}\":\"{v}\",");
        }
        out.push_str("\"self_us\":{");
        let selfs = self.self_times();
        for (i, (name, times)) in selfs.iter().enumerate() {
            let total: f64 = times.iter().sum();
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"calls\":{},\"total_us\":{total},\"median_us\":{}}}",
                times.len(),
                crate::stats::median(times)
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{},\"parent\":{parent},\"stmt\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.stmt, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// See [`Tracer::self_times`].
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        // Union of the children's intervals, clipped to the span.
        let (mut covered, mut reach) = (0, s.start_ns);
        for (start, end) in kids {
            let (start, end) = (start.max(reach), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        out.entry(s.name)
            .or_default()
            .push(s.duration_ns().saturating_sub(covered) as f64 / 1e3);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            stmt: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "stmt", 0, 10_000),
            span(1, Some(0), "a", 1_000, 4_000),
            // Overlaps `a` by 1 µs; counted once.
            span(2, Some(0), "b", 3_000, 6_000),
            span(3, Some(2), "c", 3_500, 4_500),
        ];
        let s = self_times(&spans);
        assert_eq!(s["stmt"], vec![5.0]);
        assert_eq!(s["a"], vec![3.0]);
        assert_eq!(s["b"], vec![2.0]);
        assert_eq!(s["c"], vec![1.0]);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::default();
        let root = t.begin_stmt();
        let (v, us) = t.time("sql.parse", root, || 7);
        t.end(root);
        assert_eq!(v, 7);
        assert!(us >= 0.0);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[1].stmt, 1);
        let json = t.to_json(&[("workload", "x".to_string())]);
        assert!(json.contains("\"name\":\"sql.parse\"") && json.contains("\"self_us\""));
    }
}
