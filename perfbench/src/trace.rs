//! In-memory span recording for the traced run, the self-time
//! arithmetic, and the layer table built from the spans.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public entry points; the program itself carries no tracing. They stay
//! in memory until the run ends and are then written out in one go.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: a named interval on the run's monotonic clock, the
/// span that caused it, and the arrival (query id) it served, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub arrival: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until it is ended"]
pub struct OpenSpan {
    pub id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    pub arrival: Option<u32>,
}

/// The span recorder. Shared by reference with the worker threads a
/// layer runs on (the socket transport's host threads), hence the mutex;
/// on the benchmark's own thread the lock is uncontended.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&self, name: &'static str, parent: Option<u32>, arrival: Option<u32>) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
            arrival,
        }
    }

    pub fn end(&self, open: OpenSpan) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                arrival: open.arrival,
            });
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        arrival: Option<u32>,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let open = self.start(name, parent, arrival);
        let result = f(open.id);
        self.end(open);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a thread panicked while recording a span")
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi)`. Overlapping intervals (children running concurrently on
/// different threads) are counted once.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&parent) = span.parent.and_then(|p| index.get(&p)) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// One row of the layer table: every span of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn layer_rows(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(span.name).or_default();
        row.count += 1;
        row.total_ns += span.duration_ns();
        row.self_ns += self_ns;
    }
    rows
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Writes the spans as tab-separated lines
/// (`id parent name start_ns end_ns arrival`, `-` for none).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tarrival")?;
    let dash = |v: Option<u32>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            dash(s.parent),
            s.name,
            s.start_ns,
            s.end_ns,
            dash(s.arrival)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            arrival: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0, 100) with children [10, 30) and [50, 60); the first
        // child has its own child [12, 20).
        let spans = [
            span(3, Some(1), 12, 20),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
            span(0, None, 0, 100),
        ];
        assert_eq!(self_times(&spans), vec![8, 12, 10, 70]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two host threads answering the same wave concurrently: [10, 40)
        // and [20, 50) cover [10, 50) together, 40 ns, not 60.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 45, 48),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_spilling_past_the_parent_are_clipped() {
        let spans = [
            span(0, None, 10, 20),
            span(1, Some(0), 5, 15),
            span(2, Some(0), 18, 30),
        ];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn covered_ns_merges_and_clips() {
        let mut intervals = vec![(30, 40), (0, 10), (5, 12), (38, 70)];
        assert_eq!(covered_ns(&mut intervals, 0, 60), 12 + 30);
        assert_eq!(covered_ns(&mut Vec::new(), 0, 60), 0);
    }

    #[test]
    fn layer_rows_aggregate_by_name() {
        let tracer = Tracer::new();
        tracer.span("outer", None, Some(7), |id| {
            tracer.span("inner", Some(id), Some(7), |_| ());
            tracer.span("inner", Some(id), Some(7), |_| ());
        });
        let spans = tracer.into_spans();
        let rows = layer_rows(&spans);
        assert_eq!(rows["outer"].count, 1);
        assert_eq!(rows["inner"].count, 2);
        assert_eq!(rows["inner"].self_ns, rows["inner"].total_ns);
        assert_eq!(
            rows["outer"].self_ns + rows["inner"].total_ns,
            rows["outer"].total_ns
        );
        assert!(spans.iter().all(|s| s.arrival == Some(7)));
    }
}
