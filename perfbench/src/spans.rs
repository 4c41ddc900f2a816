//! In-memory spans for the traced run, recorded around calls into each
//! layer from the benchmark's own code and written out as NDJSON at
//! exit. The program itself carries no spans.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span of request `request` (`0` outside requests).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// The span's duration minus the part of it that its children
    /// cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.duration_ns(id) - covered
    }

    /// Durations of every closed child of `parent` named `name`.
    pub fn child_ns(&self, parent: SpanId, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        let mut spans = Spans::new();
        let root = spans.open("root", None, 0);
        let a = spans.open("a", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.close(a);
        let b = spans.open("b", Some(root), 0);
        spans.close(b);
        spans.close(root);
        let children = spans.duration_ns(a) + spans.duration_ns(b);
        assert_eq!(spans.self_ns(root) + children, spans.duration_ns(root));
        assert_eq!(spans.child_ns(root, "a"), spans.duration_ns(a));
        assert_eq!(spans.to_ndjson().lines().count(), 3);
    }
}
