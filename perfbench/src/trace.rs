//! In-memory spans for the traced run.
//!
//! A span records its name, start, end, parent and request id. Spans are
//! kept in a vector and written out once, at the end. A layer's self time
//! is its span's duration minus the time its child spans cover. With the
//! tracer disabled, `begin`/`end` record nothing, so the same replay can
//! run twice to measure the tracer's own overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sampling.walk`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by all spans of one replayed request.
    pub request: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration in `unit_ns` units (0 when no span).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// Records spans.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    requests: u64,
}

/// Handle of a span opened by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            requests: 0,
        }
    }

    /// Starts a new request: later spans carry a fresh request id.
    pub fn next_request(&mut self) {
        self.requests += 1;
        self.request = self.requests;
    }

    /// Later spans belong to no request (request id 0): set-up work.
    pub fn outside_requests(&mut self) {
        self.request = 0;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(i);
        Open(Some(i))
    }

    /// Closes a span (the innermost open one).
    pub fn end(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
            debug_assert_eq!(self.open.last(), Some(&i), "spans close innermost first");
            self.open.pop();
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
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
        let mut t = Tracer::new(true);
        t.next_request();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].request, t.spans[1].request);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.totals().is_empty());
    }
}
