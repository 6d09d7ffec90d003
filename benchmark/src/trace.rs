//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Held in a buffer allocated before the first measured call and written
//! to `out/trace-<workload>.jsonl` when the run ends. A span that would
//! overflow the buffer is counted, not stored, so recording never
//! allocates inside a timed region.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

const CAPACITY: usize = 1 << 18;

pub const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    /// The request the span belongs to: spans of one op share it.
    op: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    /// Whether the run records at all (`--trace 1`).
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    next_op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            dropped: 0,
            next_op: 0,
        }
    }

    /// A fresh request identifier.
    pub fn op(&mut self) -> u32 {
        self.next_op = self.next_op.wrapping_add(1);
        self.next_op
    }

    /// Records `[start, end]` and returns the span's index, for children
    /// to name as their parent.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        self.span_ns(name, op, parent, start_ns, end_ns)
    }

    fn span_ns(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Attaches the stage times a profile reports as children of `parent`,
    /// laid end to end from the parent's start in execution order (the
    /// profile keeps durations, not timestamps), so that the parent's self
    /// time is its span minus its children.
    pub fn stages(&mut self, parent: u32, op: u32, stages: &[(&'static str, u64)]) {
        let Some(p) = self.spans.get(parent as usize) else {
            return;
        };
        let mut at = p.start_ns;
        for &(name, nanos) in stages {
            if nanos > 0 {
                self.span_ns(name, op, parent, at, at + nanos);
                at += nanos;
            }
        }
    }

    /// Writes one JSON object per span; returns `(written, dropped)`.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<(usize, u64)> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok((self.spans.len(), self.dropped))
    }
}
