//! In-memory span tracer for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: name, start, end, the span that caused it and, for per-decision
//! spans, the request id. Nothing is written until the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Request id of a span that belongs to no single request.
pub const NO_REQ: u64 = u64::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `core.labeling.tune`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request id for per-decision spans, or [`NO_REQ`].
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Spans nest: a span opened while another is open becomes
/// its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing, for the untraced run: the same code
    /// path runs with every span a no-op.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.parent();
        self.spans.push(Span {
            name,
            start_ns: self.ns_at(Instant::now()),
            end_ns: 0,
            parent,
            req: NO_REQ,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let end = self.ns_at(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records an already-timed leaf span for request `req` under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent: self.parent(),
            req,
        };
        self.spans.push(span);
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Summed duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Summed self time of every span named `name`, seconds: each span's
    /// duration minus the part its direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.ns() as f64 - c as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Writes every span as one tab-separated line under a `# header`
    /// line: index, parent, name, start and end (ns since the tracer
    /// started) and request id (`-` for roots and for spans of no single
    /// request).
    pub fn write_tsv(&self, w: &mut impl Write, header: &str) -> io::Result<()> {
        writeln!(w, "# {header}")?;
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\treq")?;
        let opt = |v: u64, none: u64| {
            if v == none {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent as u64, NO_PARENT as u64),
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.req, NO_REQ)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        let child = t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        assert_eq!(t.spans[1].parent, 0);
        let self_root = t.self_s("root");
        assert!(self_root >= 0.0);
        assert!(self_root < t.total_s("child"));
        assert!((t.total_s("root") - t.total_s("child") - self_root).abs() < 1e-9);
    }
}
