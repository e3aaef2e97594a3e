//! In-memory spans around every call the harness makes into a layer.
//!
//! The timed repetitions run with a disabled tracer: `begin`/`end` still
//! read the clock (the harness needs the durations either way) but store
//! nothing. The traced repetition stores one span per call and writes them
//! out as JSONL when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `busy_ns` is `end_ns - start_ns` for a single
/// call; an aggregate span (many short calls of one kind inside one
/// slice, see [`Tracer::aggregate`]) spans first start to last end and
/// carries the summed call time and the call count.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    pub parent: Option<usize>,
}

/// An open span: returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let at = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                busy_ns: 0,
                calls: 1,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes `open` (spans close innermost first) and returns its
    /// duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.index {
            assert_eq!(
                self.stack.pop(),
                Some(i),
                "spans must close innermost first"
            );
            let at = self.ns(end);
            self.spans[i].end_ns = at;
            self.spans[i].busy_ns = at - self.spans[i].start_ns;
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Records a finished interval as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.aggregate(name, start, end, end.duration_since(start).as_secs_f64(), 1);
    }

    /// Records `calls` short calls of one kind, first started at `start`,
    /// last ended at `end`, that together took `busy_secs`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        busy_secs: f64,
        calls: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                busy_ns: (busy_secs * 1e9) as u64,
                calls,
                parent: self.stack.last().copied(),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its busy time minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.busy_ns);
            }
        }
        own
    }

    /// Self time summed by span name, largest first.
    pub fn self_ns_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += span.calls;
                }
                None => rows.push((span.name, own, span.calls)),
            }
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        rows
    }

    /// One JSON object per span, in start order of recording.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\
                 \"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_s = tr.end(inner);
        let outer_s = tr.end(outer);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        let own = tr.self_ns();
        assert_eq!(own[0], tr.spans()[0].busy_ns - tr.spans()[1].busy_ns);
        assert_eq!(own[1], tr.spans()[1].busy_ns);
        let text = tr.to_jsonl("w");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0,\"workload\":\"w\""));
    }

    #[test]
    fn a_disabled_tracer_times_but_stores_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin("x");
        assert!(tr.end(open) >= 0.0);
        tr.record("y", Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
    }
}
