//! The traced run's own spans: kept in memory, written out as JSON lines
//! when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span: `parent` indexes the same log; spans of one request share
/// its ticket id.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub ticket: u64,
    pub parent: Option<usize>,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
}

/// An append-only span log with a common time origin.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRecord>,
}

impl SpanLog {
    /// An empty log whose offsets count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        SpanLog { epoch, spans: Vec::new() }
    }

    /// Appends a finished span and returns its index.
    pub fn record(
        &mut self,
        ticket: u64,
        parent: Option<usize>,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(SpanRecord { ticket, parent, name: name.into(), start, end });
        self.spans.len() - 1
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One JSON object per line: `span`, `ticket`, `parent`, `name`, and
    /// `start_us`/`end_us` from the run's start.
    pub fn to_jsonl(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"ticket\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.ticket,
                s.name.escape_default(),
                us(s.start),
                us(s.end)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}
