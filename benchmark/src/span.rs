//! Benchmark-owned tracing: spans recorded around calls into each layer's
//! public functions (choosing-metrics §4). Nothing inside `crates/` changes;
//! the engine's own profiler stays off while these are recorded.
//!
//! Spans live in memory and are written out once, in Chrome trace-event
//! form, when the run ends.

use bipie_metrics::read_cycles;

use crate::json::Json;

/// Index of a span within its recorder.
pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One closed (or still open) span. Times are TSC ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Spans of one workload operation share this identifier.
    pub op: u32,
    /// Client thread (trace-file lane).
    pub lane: u32,
}

impl Span {
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span store owned by one thread. Recording stops (and is
/// counted) at `capacity` so a long run cannot grow without bound.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    /// Open spans, innermost last: the span's id ([`NO_PARENT`] when it was
    /// dropped at capacity) and its start tick.
    stack: Vec<(SpanId, u64)>,
    capacity: usize,
    dropped: u64,
    lane: u32,
    op: u32,
}

impl Recorder {
    pub fn new(lane: u32, capacity: usize) -> Recorder {
        Recorder { spans: Vec::new(), stack: Vec::new(), capacity, dropped: 0, lane, op: 0 }
    }

    /// Identifier stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            self.stack.push((NO_PARENT, read_cycles()));
            return;
        }
        let parent = self.stack.iter().rev().map(|&(id, _)| id).find(|&id| id != NO_PARENT);
        let id = self.spans.len() as SpanId;
        let start = read_cycles();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.unwrap_or(NO_PARENT),
            op: self.op,
            lane: self.lane,
        });
        self.stack.push((id, start));
    }

    /// Close the innermost open span and return its duration in TSC ticks
    /// (measured even when the span itself was dropped at capacity).
    pub fn exit(&mut self) -> u64 {
        let end = read_cycles();
        // PANIC: an exit without an enter is a bug in the harness itself.
        let (id, start) = self.stack.pop().expect("span exit without a matching enter");
        if id != NO_PARENT {
            self.spans[id as usize].end = end;
        }
        end - start
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append another recorder's spans (another client's lane), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Recorder) {
        assert!(other.stack.is_empty(), "absorbing a recorder with open spans");
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_cycles(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start.max(p.start), s.end.min(p.end));
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.cycles() - covered
        })
        .collect()
}

/// Sum of durations and of self times per span name, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_cycles(spans);
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|(n, ..)| *n == s.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += s.cycles();
                row.3 += own;
            }
            None => out.push((s.name, 1, s.cycles(), own)),
        }
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph": "X"`) event per span, microsecond timestamps relative to the
/// first span, one `tid` per client lane. Parent, op id and self time ride
/// in `args`.
pub fn chrome_trace(spans: &[Span], tsc_hz: f64, workload: &str) -> Json {
    let origin = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let us = |ticks: u64| ticks as f64 / tsc_hz * 1e6;
    let selfs = self_cycles(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, own))| {
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(workload)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.lane))),
                ("ts", Json::Num(us(s.start - origin))),
                ("dur", Json::Num(us(s.cycles()))),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(f64::from(s.parent))
                            },
                        ),
                        ("op", Json::Num(f64::from(s.op))),
                        ("self_us", Json::Num(us(own))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("displayTimeUnit", Json::str("ns")), ("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Recorder {
        fn scope(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder)) {
            self.enter(name);
            f(self);
            self.exit();
        }
    }

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span { name, start, end, parent, op: 0, lane: 0 }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_intervals() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 25, 50, 0), // overlaps `a` by 5: union is 10..50
            span("c", 60, 70, 0),
            span("a.inner", 12, 20, 1),
            span("late", 90, 120, 0), // sticks out of the parent: clipped to 90..100
        ];
        let own = self_cycles(&spans);
        assert_eq!(own[0], 100 - (40 + 10 + 10));
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 25);
        assert_eq!(own[4], 8);
        let totals = totals_by_name(&spans);
        assert_eq!(totals[0], ("op", 1, 100, 40));
    }

    #[test]
    fn recorder_nests_and_stamps_ops() {
        let mut r = Recorder::new(3, 16);
        r.set_op(7);
        r.scope("op", |r| {
            r.scope("child", |_| {});
            r.scope("child", |r| r.scope("grandchild", |_| {}));
        });
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent, s[3].parent), (NO_PARENT, 0, 0, 2));
        assert!(s.iter().all(|x| x.op == 7 && x.lane == 3 && x.end >= x.start));
        assert!(s[0].cycles() >= s[1].cycles() + s[2].cycles());
    }

    #[test]
    fn recorder_stops_at_capacity_and_counts_the_rest() {
        let mut r = Recorder::new(0, 2);
        r.scope("a", |r| {
            r.scope("b", |r| r.scope("c", |_| {}));
            r.scope("d", |_| {});
        });
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped(), 2);
        assert!(r.spans().iter().all(|s| s.end >= s.start));
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut a = Recorder::new(0, 16);
        a.scope("x", |_| {});
        let mut b = Recorder::new(1, 16);
        b.scope("y", |r| r.scope("z", |_| {}));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let spans = [span("op", 1000, 3000, NO_PARENT), span("child", 1500, 2000, 0)];
        let doc = chrome_trace(&spans, 1e6, "w");
        let text = doc.to_pretty();
        let back = crate::json::parse(&text).expect("valid JSON");
        let events = back.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(500.0));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(500.0));
        let own = events[0].get("args").and_then(|a| a.get("self_us")).and_then(Json::as_f64);
        assert_eq!(own, Some(1500.0));
    }
}
