//! In-memory spans around each call the benchmark makes into a layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! origin), the span that caused it, and a count of work items it covers
//! (keys, hashes, requests). Spans stay in memory until the run ends and
//! are then written out as a tab-separated file; the per-layer table is
//! computed from them. A disabled tracer records nothing and costs one
//! branch per call.

use crate::report::Samples;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Span id; 0 is "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Ids are `base + index + 1`, so tracers filled on other threads
    /// keep distinct ids once merged.
    base: SpanId,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), base: 0, spans: Vec::new() }
    }

    /// A tracer for another thread: same clock origin, disjoint ids.
    pub fn child(&self, lane: u32) -> Self {
        Self { on: self.on, origin: self.origin, base: lane << 26, spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished interval `[start, end)` covering `count` items.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.base + SpanId::try_from(self.spans.len()).unwrap_or(SpanId::MAX) + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, name, start_ns, end_ns, count });
        id
    }

    /// Run `f` inside a span covering `count` items.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, parent, start, Instant::now(), count);
        r
    }

    /// Open a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now, 0)
    }

    pub fn close(&mut self, id: SpanId, count: u64) {
        if !self.on || id == 0 {
            return;
        }
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end;
            s.count = count;
        }
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of spans named `name` per item they cover, in ns.
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let (ns, n) =
            self.named(name).fold((0u64, 0u64), |(ns, n), s| (ns + s.dur_ns(), n + s.count));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Items per second over spans named `name`.
    pub fn items_per_s(&self, name: &str) -> f64 {
        let per = self.ns_per_item(name);
        if per == 0.0 {
            0.0
        } else {
            1e9 / per
        }
    }

    /// Exact `q`-quantile of the durations of spans named `name`, in µs,
    /// with the number of spans.
    pub fn quantile_us(&self, name: &str, q: f64) -> (f64, usize) {
        let mut d = Samples::default();
        self.named(name).for_each(|s| d.push(Duration::from_nanos(s.dur_ns())));
        (d.quantile(q), d.len())
    }

    /// How many spans with one of `names` lasted longer than `ns`.
    pub fn count_over(&self, names: &[&str], ns: u64) -> usize {
        self.spans.iter().filter(|s| names.contains(&s.name) && s.dur_ns() > ns).count()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as `id parent name start_ns end_ns count`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tcount")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_item_time_divides_by_count() {
        let mut t = Tracer::new(true);
        let o = t.origin;
        let p = t.record("parent", 0, o, o + Duration::from_nanos(1000), 1);
        t.record("child", p, o + Duration::from_nanos(100), o + Duration::from_nanos(400), 3);
        assert_eq!(t.ns_per_item("child"), 100.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 0);
        t.close(id, 5);
        assert_eq!(t.time("y", 0, 1, || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
