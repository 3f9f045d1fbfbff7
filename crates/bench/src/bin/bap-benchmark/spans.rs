//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written as JSONL when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The enclosing span (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// The wire request id the span served (0 = none).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A span recorder. A disabled recorder (untraced runs) keeps nothing, so
/// the end-to-end numbers carry no tracing cost.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    /// `lane` keeps span ids unique across recorders that share an epoch
    /// (one per client thread) and are merged afterwards.
    pub fn new(epoch: Instant, enabled: bool, lane: u64) -> Self {
        Spans {
            epoch,
            enabled,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished interval; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Reserve the id of a span whose children are recorded before it
    /// ends; finish it with [`Spans::record_as`].
    pub fn reserve(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id - 1
    }

    /// Record a finished interval under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    pub fn merge(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Write one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
