//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing here reaches into the program: a span is two clock reads taken in
//! the benchmark's own loops. Spans stay in memory and are written once, at
//! the end of the traced run (`results/trace-<workload>.json`).

use std::time::Instant;

use crate::json::Json;

/// Raw spans at least this long are always kept (under a stalled reader these
/// are the cleanup passes); shorter ones are kept for the 1-in-64 sample.
pub const SLOW_SPAN_NS: u64 = 50_000;
/// Raw spans kept per workload, at most.
pub const SPAN_CAP: usize = 1_000_000;

/// Fixed span names; `rung:<name>` and `ref:<scheme>` are interned after them.
pub const FIXED_NAMES: [&str; 10] = [
    "run",
    "workload",
    "segment",
    "op:get",
    "op:insert",
    "op:remove",
    "op:enqueue",
    "op:dequeue",
    "batch",
    "setup",
];
/// Index of `run` in the name table.
pub const NAME_RUN: u16 = 0;
/// Index of `workload`.
pub const NAME_WORKLOAD: u16 = 1;
/// Index of `segment`.
pub const NAME_SEGMENT: u16 = 2;
/// Index of the first `op:<type>` name; add the op type.
pub const NAME_OP0: u16 = 3;
/// Index of `batch`.
pub const NAME_BATCH: u16 = 8;
/// Index of `setup`.
pub const NAME_SETUP: u16 = 9;

/// Thread number of the main thread in span records (workers are `0..`).
pub const MAIN_THREAD: u16 = 100;
/// Span id of the whole run; the root, its own parent is 0.
pub const RUN_SPAN: u64 = 1;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: u64,
    /// Thread that recorded it.
    pub thread: u16,
    /// Index into the name table.
    pub name: u16,
    /// Nanoseconds since the process's clock origin.
    pub start_ns: u64,
    /// Nanoseconds since the process's clock origin.
    pub end_ns: u64,
}

/// The id of segment `index` on `thread`: derived, so a worker can parent its
/// call spans without allocating segment ids up front.
pub fn segment_span_id(thread: u16, index: usize) -> u64 {
    ((thread as u64 + 1) << 48) | (1 << 40) | index as u64
}

/// One thread's span buffer and clock.
pub struct Recorder {
    origin: Instant,
    thread: u16,
    next: u64,
    cap: usize,
    /// Spans kept so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for `thread` keeping at most `cap` spans.
    pub fn new(origin: Instant, thread: u16, cap: usize) -> Self {
        Self {
            origin,
            thread,
            next: 0,
            cap,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the clock origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Keeps a span (dropped silently once the buffer is at its cap) and
    /// returns its id.
    pub fn push(&mut self, parent: u64, name: u16, start_ns: u64, end_ns: u64) -> u64 {
        self.next += 1;
        let id = ((self.thread as u64 + 1) << 48) | self.next;
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                id,
                parent,
                thread: self.thread,
                name,
                start_ns,
                end_ns,
            });
        }
        id
    }
}

/// Span names: the fixed ones plus whatever the rungs and legs intern.
pub struct Names(Vec<String>);

impl Default for Names {
    fn default() -> Self {
        Self(FIXED_NAMES.iter().map(|n| n.to_string()).collect())
    }
}

impl Names {
    /// The index of `name`, added if new.
    pub fn intern(&mut self, name: &str) -> u16 {
        match self.0.iter().position(|n| n == name) {
            Some(index) => index as u16,
            None => {
                self.0.push(name.to_string());
                (self.0.len() - 1) as u16
            }
        }
    }

    /// The name table in index order.
    pub fn all(&self) -> &[String] {
        &self.0
    }
}

/// Per-name totals over raw spans: `(count, total_ns, self_ns)`, where a
/// span's self time is its duration minus the part of it that its direct
/// children cover (children of one parent may overlap across threads, so the
/// covered part is the union of their intervals).
pub fn summarize(spans: &[Span], names: usize) -> Vec<(u64, u64, u64)> {
    let mut by_parent: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for span in spans {
        by_parent
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut totals = vec![(0u64, 0u64, 0u64); names];
    for span in spans {
        let duration = span.end_ns - span.start_ns;
        let mut covered = 0;
        if let Some(children) = by_parent.get_mut(&span.id) {
            children.sort_unstable();
            let mut reach = span.start_ns;
            for &(start, end) in children.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let entry = &mut totals[span.name as usize];
        entry.0 += 1;
        entry.1 += duration;
        entry.2 += duration - covered;
    }
    totals
}

/// Raw spans as rows of `[id, parent, thread, name, start_ns, end_ns]`.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(
                    [
                        s.id,
                        s.parent,
                        s.thread as u64,
                        s.name as u64,
                        s.start_ns,
                        s.end_ns,
                    ]
                    .into_iter()
                    .map(|v| Json::Num(v as f64))
                    .collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: u16, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            thread: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with children 10..40 and 30..60 (overlapping, as two
        // threads' segments do) and 90..120 (clipped to the parent).
        let spans = [
            span(1, 0, 0, 0, 100),
            span(2, 1, 1, 10, 40),
            span(3, 1, 1, 30, 60),
            span(4, 1, 1, 90, 120),
        ];
        let totals = summarize(&spans, 2);
        assert_eq!(totals[0], (1, 100, 100 - 50 - 10));
        assert_eq!(totals[1], (3, 30 + 30 + 30, 90), "leaves are all self time");
    }

    #[test]
    fn recorder_caps_but_keeps_counting_ids() {
        let mut rec = Recorder::new(Instant::now(), 3, 1);
        let a = rec.push(0, NAME_BATCH, 0, 1);
        let b = rec.push(0, NAME_BATCH, 1, 2);
        assert_ne!(a, b);
        assert_eq!(rec.spans.len(), 1);
        assert_ne!(segment_span_id(3, 0), a);
    }

    #[test]
    fn names_intern_once() {
        let mut names = Names::default();
        let a = names.intern("rung:x");
        assert_eq!(names.intern("rung:x"), a);
        assert_eq!(names.intern("segment"), NAME_SEGMENT);
        assert_eq!(names.all().len(), FIXED_NAMES.len() + 1);
    }
}
