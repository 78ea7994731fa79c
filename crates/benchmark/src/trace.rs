//! Benchmark-owned spans: recorded around calls into each layer's public
//! API, kept in memory, written out once at exit.

use agebo_telemetry::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. `parent` is the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span sink; timestamps are nanoseconds since creation.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves an id, so children can name a parent that is still open.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a completed span under a reserved id.
    pub fn close(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        attrs: Vec<(&'static str, f64)>,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.now_ns(),
            attrs,
        };
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .push(span);
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<R>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        attrs: Vec<(&'static str, f64)>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.reserve();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            attrs,
        };
        let secs = span.seconds();
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .push(span);
        (out, secs)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer lock poisoned by a panicking span")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children may overlap each other, run
/// on other threads, and stick out of the parent; only the covered part
/// of the parent's own interval is subtracted, once).
pub fn self_times_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Total self time in seconds per span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times_ns(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Writes `{id, parent, name, workload, start_ns, end_ns, attrs}` lines;
/// `attrs.self_ns` carries each span's self time.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let mut attrs: Vec<(&str, Json)> =
            s.attrs.iter().map(|&(k, v)| (k, Json::Num(v))).collect();
        attrs.push(("self_ns", Json::UInt(selfs[&s.id])));
        let line = Json::obj(vec![
            ("id", Json::UInt(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::UInt)),
            ("name", Json::Str(s.name.to_string())),
            ("workload", Json::Str(workload.to_string())),
            ("start_ns", Json::UInt(s.start_ns)),
            ("end_ns", Json::UInt(s.end_ns)),
            ("attrs", Json::obj(attrs)),
        ]);
        writeln!(out, "{}", line.to_string_compact())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100] > a [10,60] > b [20,30]; a's child does not count
        // against root twice.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&0], 50);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        // Two worker-thread children overlap on [30,50]; one sticks out
        // past the parent's end; one lies entirely outside.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 130),
            span(4, Some(0), 140, 150),
        ];
        let selfs = self_times_ns(&spans);
        // Covered: [10,70] ∪ [90,100] = 70.
        assert_eq!(selfs[&0], 30);
        assert_eq!(selfs[&3], 40);
    }

    #[test]
    fn timed_closure_records_one_span_with_its_parent() {
        let tracer = Tracer::default();
        let root = tracer.reserve();
        let start = tracer.now_ns();
        let (value, secs) = tracer.time(Some(root), "child", vec![("n", 4.0)], || 41 + 1);
        tracer.close(root, None, "root", start, Vec::new());
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[0].attrs, vec![("n", 4.0)]);
        assert!((spans[0].seconds() - secs).abs() < 1e-12);
        assert!(self_seconds_by_name(&spans)["root"] >= 0.0);
    }
}
