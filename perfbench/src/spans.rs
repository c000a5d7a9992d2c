//! In-memory spans for the traced run: name, start, end, parent span and
//! the session they belong to. Kept in memory while timing and written
//! out as JSONL once the run is over, so writing costs no measured time.

use obs::TraceRecord;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: Instant,
    end: Option<Instant>,
    parent: Option<SpanId>,
    session: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now.
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, session: u64) -> SpanId {
        self.push(name, Instant::now(), None, parent, session)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end = Some(Instant::now());
    }

    /// Record a span whose bounds were timed elsewhere (iterations, from
    /// record arrivals).
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        session: u64,
    ) -> SpanId {
        self.push(name, start, Some(end), parent, session)
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        session: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, session);
        let out = f();
        self.close(id);
        out
    }

    fn push(
        &mut self,
        name: &str,
        start: Instant,
        end: Option<Instant>,
        parent: Option<SpanId>,
        session: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            session,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span, times in microseconds since the log
    /// was created; an unclosed span has `end_us` = -1.
    pub fn to_jsonl(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let rec = TraceRecord::new("span")
                .field("id", i as u64)
                .field("name", s.name.as_str())
                .field("start_us", us(s.start))
                .field("end_us", s.end.map_or(-1.0, us))
                .field("parent", s.parent.map_or(-1, |p| p.0 as i64))
                .field("session", s.session);
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise_one_per_line() {
        let mut log = SpanLog::new();
        let root = log.open("run", None, 0);
        assert_eq!(log.time("layer", Some(root), 7, || 42), 42);
        log.close(root);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"run\"") && lines[0].contains("\"parent\":-1"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"session\":7"));
        assert!(!text.contains("\"end_us\":-1"));
    }
}
