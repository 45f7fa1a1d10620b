//! Harness-side spans: one record per call the benchmark makes into a
//! layer, kept in memory and written as JSONL when the run ends. Spans
//! *inside* the product are a later issue (ROADMAP item 1); these wrap
//! the layer boundaries from outside.

use std::io::Write;
use std::time::Instant;

use paso_wire::mini_json::Json;

/// One timed call. Spans of one request share `op`; `parent` names the
/// span that caused this one (empty for a root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u64,
    pub layer: &'static str,
    pub span: &'static str,
    pub parent: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// An append-only span buffer with a fixed time origin.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` for one call into `layer`.
    pub fn record(
        &mut self,
        op: u64,
        layer: &'static str,
        span: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.duration_since(self.epoch).as_nanos() as f64 / 1e3;
        self.spans.push(Span {
            op,
            layer,
            span,
            parent,
            start_us: us(start),
            end_us: us(end),
        });
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Writes one JSON object per line:
    /// `{workload, op, layer, span, parent, start_us, end_us}`.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let line = Json::obj([
                ("workload", Json::Str(workload.to_owned())),
                ("op", Json::UInt(s.op)),
                ("layer", Json::Str(s.layer.to_owned())),
                ("span", Json::Str(s.span.to_owned())),
                (
                    "parent",
                    if s.parent.is_empty() {
                        Json::Null
                    } else {
                        Json::Str(s.parent.to_owned())
                    },
                ),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        Ok(())
    }
}
