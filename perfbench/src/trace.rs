//! In-memory spans for the traced replay.
//!
//! A span records one call into a layer: its name, start and end
//! (nanoseconds since the pass began), the span that caused it, and the
//! request it belongs to. Spans stay in memory while the pass runs and
//! are written out once it ends. An untraced tracer records nothing and
//! reads no clock, so the same replay code serves as the baseline for
//! the tracing overhead.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Client (tenant) index.
    pub client: u32,
    /// Request index within the client's stream.
    pub request: u32,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    client: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant, client: usize) -> Self {
        Self {
            enabled,
            origin,
            client: client as u32,
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its index (`u32::MAX` when untraced).
    pub fn open(&mut self, name: &'static str, request: usize, parent: Option<u32>) -> u32 {
        if !self.enabled {
            return u32::MAX;
        }
        let at = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            client: self.client,
            request: request as u32,
            parent,
            start_ns: at,
            end_ns: at,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, id: u32) {
        if self.enabled {
            let at = self.origin.elapsed().as_nanos() as u64;
            self.spans[id as usize].end_ns = at;
        }
    }

    /// Renames span `id` (a call classified only once it returned).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        if self.enabled {
            self.spans[id as usize].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The parent handle for children of span `id` (`None` untraced).
    pub fn parent(&self, id: u32) -> Option<u32> {
        self.enabled.then_some(id)
    }
}

/// Writes spans as tab-separated lines:
/// `pass client request span_index parent name start_ns end_ns`.
pub fn write_spans(path: &Path, passes: &[(&str, &[Vec<Span>])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "pass\tclient\trequest\tspan\tparent\tname\tstart_ns\tend_ns"
    )?;
    for (pass, per_client) in passes {
        for spans in per_client.iter() {
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
                writeln!(
                    out,
                    "{pass}\t{}\t{}\t{i}\t{parent}\t{}\t{}\t{}",
                    s.client, s.request, s.name, s.start_ns, s.end_ns
                )?;
            }
        }
    }
    out.flush()
}
