//! In-memory spans of the traced run.
//!
//! A span is `(name, start, end, parent, request id)`, timed by the
//! benchmark around its calls into one layer. Each thread records into
//! its own [`Tracer`]; they are merged and written out when the run
//! ends. A span's self time is its duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to (`0` outside requests).
    pub request: u64,
}

/// A per-thread span recorder sharing one origin instant.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// The spans, in start order of their roots.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer; reserve room so recording does not reallocate
    /// inside measured loops.
    pub fn new(origin: Instant, capacity: usize) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index for children.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) -> u32 {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        index
    }

    /// Times `f` as a root span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.span(name, start, Instant::now(), ROOT, 0);
        r
    }

    /// Moves `other`'s spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Count, mean duration and mean self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Mean duration, ns.
    pub mean_ns: f64,
    /// Mean self time (duration minus child coverage), ns.
    pub self_mean_ns: f64,
}

/// Self time of every span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
    }
    let mut sums: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = sums.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(children);
    }
    sums.into_iter()
        .map(|(name, (count, dur, own))| {
            let n = count.max(1) as f64;
            (
                name,
                SelfTime {
                    count,
                    mean_ns: dur as f64 / n,
                    self_mean_ns: own as f64 / n,
                },
            )
        })
        .collect()
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Filesystem errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}
