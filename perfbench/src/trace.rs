//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call into a layer's public functions in a
//! span: name, start, end, parent span and the key or request id it
//! served. Spans stay in memory until the run ends and are then written
//! out as JSON lines. A layer's self time is its spans' durations minus
//! the part of each interval that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub key: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    spans: Vec<SpanRecord>,
}

/// Shared span sink; cloning shares the same buffer.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    inner: Arc<Mutex<Inner>>,
}

/// An open span; [`Tracer::end`] records it.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    pub start_ns: u64,
    parent: Option<u64>,
    name: &'static str,
    key: String,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            inner: Arc::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span buffer poisoned by a panicking thread")
    }

    /// Nanoseconds since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn next_id(&self) -> u64 {
        let mut inner = self.lock();
        inner.next_id += 1;
        inner.next_id
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, parent: Option<u64>, key: impl Into<String>) -> Open {
        let id = self.next_id();
        let start_ns = self.now_ns();
        Open {
            id,
            parent,
            name,
            key: key.into(),
            start_ns,
        }
    }

    /// Records a span whose start and end were measured elsewhere (for
    /// requests timed from their due time on another thread); returns its
    /// id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        key: String,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.lock().spans.push(SpanRecord {
            id,
            parent,
            name,
            key,
            start_ns,
            end_ns,
        });
        id
    }

    /// Closes `span` now.
    pub fn end(&self, span: Open) {
        let end_ns = self.now_ns();
        self.lock().spans.push(SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            key: span.key,
            start_ns: span.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span and returns its result.
    pub fn wrap<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        key: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, key);
        let out = f();
        self.end(span);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"key\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.name,
                s.key.replace(['"', '\\'], "_"),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Total busy time and self time per span name, in seconds.
pub fn layer_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += dur as f64 / 1e9;
        entry.1 += dur.saturating_sub(covered) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            key: String::new(),
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40) of a [0, 100) parent.
        let spans = vec![
            span(1, None, "pass", 0, 100),
            span(2, Some(1), "capture", 10, 30),
            span(3, Some(1), "capture", 20, 40),
            span(4, Some(2), "store", 25, 28),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["pass"], (100e-9, 70e-9));
        assert_eq!(t["capture"], (40e-9, 37e-9));
        assert_eq!(t["store"], (3e-9, 3e-9));
    }

    #[test]
    fn spans_keep_parent_and_key() {
        let tracer = Tracer::new(Instant::now());
        let root = tracer.open("pass", None, "grid-cold");
        let child = tracer.wrap("render.run", Some(root.id), "jess/mxs/conv", || 7);
        assert_eq!(child, 7);
        let root_id = root.id;
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[0].key, "jess/mxs/conv");
        assert!(spans[1].end_ns >= spans[0].end_ns);
    }
}
