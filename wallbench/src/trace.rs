//! In-memory span recorder used by the traced runs.
//!
//! A span is recorded by the benchmark around one call into a layer's
//! public function: name, start, end, parent span and request id. Spans
//! are kept in memory and written out as JSON lines when the run ends.
//! A layer's self time is its spans' durations minus the part their
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as a span nested under the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.ns(Instant::now());
        out
    }

    /// Record a span measured elsewhere (another thread, or a request
    /// whose start is its due instant). Returns its index for use as a
    /// parent.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            req,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Most recent span named `name` for request `req`, in nanoseconds.
    pub fn last_ns(&self, name: &str, req: u64) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.req == req)
            .map(|s| s.end - s.start)
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self time in nanoseconds summed per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object a line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let ms = std::time::Duration::from_millis;
        let outer = t.record("outer", 0, epoch, epoch + ms(10), None);
        t.record("inner", 0, epoch + ms(2), epoch + ms(5), Some(outer));
        let st = t.self_times();
        assert_eq!(st["outer"], 7_000_000);
        assert_eq!(st["inner"], 3_000_000);
    }

    #[test]
    fn nested_spans_get_parents() {
        let mut t = Tracer::new(Instant::now());
        t.span("a", 1, |t| t.span("b", 1, |_| ()));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
    }
}
