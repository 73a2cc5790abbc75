//! The benchmark's in-memory tracer: one span per call into a layer,
//! recorded from outside the program, written out when the run ends.
//!
//! The layers are timed by calling each one's public entry point for the
//! same request id, outermost first. An outer layer's span is the
//! `parent` of the inner call made for that id, so a layer's *self time*
//! is its span minus its children's — what it adds on top of the layers
//! it wraps. (Spans inside the program, nested in real time, are a later
//! change.)

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns the span's index (to parent the
    /// next layer down on) and `f`'s result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            req,
        });
        (self.spans.len() - 1, value)
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times_ns(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Per span: its duration minus its children's (clamped at zero — a
/// child can outlast its parent by noise, never by design).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = vec![
            span("runtime.roundtrip", 0, 100, None),
            span("handle.retrieve", 100, 140, Some(0)),
            span("engine.retrieve", 140, 170, Some(1)),
            span("retriever.retrieve", 170, 195, Some(2)),
            // a second child of the root, and a child that outlasts its parent
            span("handle.retrieve", 200, 210, Some(0)),
            span("engine.retrieve", 210, 225, Some(4)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 10, 5, 25, 0, 15]);
    }

    #[test]
    fn tracer_records_parents_and_request_ids() {
        let mut tracer = Tracer::new();
        let (outer, value) = tracer.span("a", 7, None, || 41 + 1);
        assert_eq!(value, 42);
        let (inner, ()) = tracer.span("b", 7, Some(outer), || ());
        let spans = tracer.spans();
        assert_eq!((outer, inner), (0, 1));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].end_ns >= spans[0].start_ns && spans[1].start_ns >= spans[0].end_ns);
        assert_eq!(tracer.durations_us("a").len(), 1);
    }
}
