//! The benchmark's own spans: kept in memory, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One span: a named interval and the span that caused it (0 = root).
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// What the interval covers.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose timestamps count from now.
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start_ns, end_ns]` under `parent`; returns the new span's id.
    pub fn record_ns(&self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span lock").push(Span { id, parent, name, start_ns, end_ns });
        id
    }

    /// Record `[start, end]` under `parent`; returns the new span's id.
    pub fn record(&self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        self.record_ns(parent, name, self.ns(start), self.ns(end))
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Write one JSON object per span to `path`.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (children are clipped to the parent and merged).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered.min(s.duration_ns()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_children() {
        let s = |id, parent, a, b| Span { id, parent, name: "x", start_ns: a, end_ns: b };
        let spans = vec![s(1, 0, 0, 100), s(2, 1, 10, 40), s(3, 1, 30, 60), s(4, 1, 90, 120)];
        let t: std::collections::HashMap<_, _> = self_times(&spans).into_iter().collect();
        assert_eq!(t[&1], 100 - 50 - 10);
        assert_eq!(t[&2], 30);
    }
}
