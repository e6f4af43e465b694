//! Spans recorded by the benchmark's own code around its calls into each
//! layer (choosing-metrics §4: tracing from outside; spans inside the
//! program are a later change).
//!
//! A span is `{id, parent, name, start_ns, end_ns}`. One `chunk` root per
//! 128 ops, one child per call into a layer. Spans live in a buffer
//! allocated before the timed phase and are written out as JSON lines when
//! the run ends. A layer's self time is its span's duration minus the part
//! its children cover.

use std::io::Write;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans kept per traced run. Only the scalar workload (a child per op)
/// reaches it; the traced phase ends when the buffer is full.
pub const SPAN_CAP: usize = 400_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span buffer and the clock all spans of a run share.
pub struct Trace {
    base: Instant,
    /// [`SPAN_CAP`], or 0 for a trace that only keeps time.
    cap: usize,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            base: Instant::now(),
            cap: SPAN_CAP,
            spans: Vec::with_capacity(SPAN_CAP),
        }
    }

    /// A clock only: nothing is recorded, nothing allocated.
    pub fn off() -> Trace {
        Trace {
            base: Instant::now(),
            cap: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    #[inline]
    pub fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Whether another chunk of `spans` spans still fits.
    pub fn has_room(&self, spans: usize) -> bool {
        self.spans.len() + spans <= self.cap
    }

    /// Record a finished span; returns its id. Dropped (id [`ROOT`]) once
    /// the buffer is full — never reallocates inside a timed region.
    #[inline]
    pub fn span(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if self.spans.len() >= self.cap {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserve a root span whose end is not known yet (a pipelined chunk:
    /// its children are recorded while it is still in flight).
    #[inline]
    pub fn open(&mut self, name: &'static str, start_ns: u64) -> u32 {
        self.span(name, ROOT, start_ns, start_ns)
    }

    /// Close a span reserved with [`open`](Self::open).
    #[inline]
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part children cover.
    pub self_ns: u64,
}

/// Self time of span `i`: its duration minus the union of its children's
/// intervals, clipped to the span (children of a pipelined chunk may
/// overlap each other or stick out; covered time is counted once).
fn self_ns(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for &(start, end) in children.iter() {
        let (s, e) = (start.max(reach), end.min(span.end_ns));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Totals per span name, in first-seen order.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, NameTotal)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    let mut out: Vec<(&'static str, NameTotal)> = Vec::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let at = match out.iter().position(|(n, _)| *n == s.name) {
            Some(at) => at,
            None => {
                out.push((s.name, NameTotal::default()));
                out.len() - 1
            }
        };
        let t = &mut out[at].1;
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns(s, kids);
    }
    out
}

/// The total for `name`, zero if no such span was recorded.
pub fn total_of(totals: &[(&'static str, NameTotal)], name: &str) -> NameTotal {
    totals
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(NameTotal::default(), |(_, t)| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let mut t = Trace::new();
        let root = t.open("chunk", 100);
        t.span("a", root, 100, 130);
        t.span("b", root, 150, 180);
        // Overlaps `b` and sticks out past the root: only 180..200 is new.
        t.span("b", root, 170, 260);
        t.close(root, 200);
        let leaf = t.span("chunk", ROOT, 300, 340);
        assert_eq!(leaf, 4);

        let totals = totals(&t.spans);
        let chunk = total_of(&totals, "chunk");
        assert_eq!(chunk.count, 2);
        assert_eq!(chunk.total_ns, 100 + 40);
        // 100 - (30 + 30 + 20) for the first root, all 40 for the second.
        assert_eq!(chunk.self_ns, 20 + 40);
        let b = total_of(&totals, "b");
        assert_eq!((b.count, b.total_ns, b.self_ns), (2, 30 + 90, 30 + 90));
        assert_eq!(total_of(&totals, "missing"), NameTotal::default());
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Trace::new();
        for i in 0..SPAN_CAP as u64 {
            t.span("x", ROOT, i, i + 1);
        }
        assert!(!t.has_room(1));
        assert_eq!(t.span("x", ROOT, 0, 1), ROOT);
        assert_eq!(t.spans.len(), SPAN_CAP);
    }
}
