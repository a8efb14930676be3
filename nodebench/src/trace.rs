//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and a parent. Each driver thread
//! owns one [`Tracer`]; its root span covers that thread's timed window
//! and every call the thread makes is a child of it. The spans stay in
//! memory until the run ends, when [`write_spans`] saves them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called (`node.mine`, `raa.read`, ...).
    pub name: &'static str,
    /// Index of the parent span in the same tracer; `None` for a root.
    pub parent: Option<u32>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one driver thread. Disabled, it records nothing and
/// [`Tracer::time`] reads no clock beyond what the caller already does.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    root: Option<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing against `epoch`; `enabled = false` records nothing.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self { epoch, enabled, root: None, spans: Vec::new() }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the thread's root span at `at`.
    pub fn open_root(&mut self, name: &'static str, at: Instant) {
        if self.enabled {
            let start_ns = self.ns(at);
            self.root = Some(self.spans.len() as u32);
            self.spans.push(Span { name, parent: None, start_ns, end_ns: start_ns });
        }
    }

    /// Closes the root span at `at`.
    pub fn close_root(&mut self, at: Instant) {
        if let Some(root) = self.root.take() {
            let end_ns = self.ns(at);
            self.spans[root as usize].end_ns = end_ns;
        }
    }

    /// Records a child of the root span from `start` to `end`.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span { name, parent: self.root, start_ns: self.ns(start), end_ns: self.ns(end) };
            self.spans.push(span);
        }
    }

    /// Runs `f` inside a child span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|span| span.name == name).map(Span::ns).collect()
    }

    /// Total ns of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|span| span.name == name).map(Span::ns).sum()
    }
}

/// Writes every tracer's spans to `path`, one line per span:
/// `thread id parent name start_ns end_ns` (`parent` is `-` for a root).
pub fn write_spans(path: &Path, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "# thread id parent name start_ns end_ns")?;
    for (thread, tracer) in tracers {
        for (id, span) in tracer.spans().iter().enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_string(), |parent| parent.to_string());
            writeln!(out, "{thread} {id} {parent} {} {} {}", span.name, span.start_ns, span.end_ns)?;
        }
    }
    out.flush()
}
