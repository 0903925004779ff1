//! In-memory spans recorded around calls into the workspace's public
//! functions, written out when the run ends.
//!
//! A span has a name (`layer.call`), a start and an end relative to the
//! tracer's epoch, the span that caused it, and a request id for spans of
//! one served request. A span's self time is its duration minus the part of
//! its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Request id, for spans of one served request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and costs one branch per
/// call, so untraced runs share the traced code path.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = now;
        }
    }

    /// Records a finished span from its timestamps, under `parent` (an index
    /// returned by an earlier `record`) or else the innermost open span.
    /// Returns its index, or `None` when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.or_else(|| self.open.last().copied()),
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times (ms) of every span named `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let own = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e6)
            .collect()
    }

    /// Renders every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let own = self_times_ns(&self.spans);
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {request}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-span self time: each span's duration minus the length of the union
/// of its children's intervals, clipped to the span. Children may overlap
/// one another (spans of concurrent requests), so their union, not their
/// sum, is subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&i) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("phase1", 10, 60, Some(0)),
            span("train", 20, 50, Some(1)),
            span("phase3", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_as_their_union() {
        let spans = vec![
            span("request", 100, 200, None),
            span("a", 90, 130, Some(0)),
            span("b", 120, 150, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // covered: [100,150) + [190,200) = 60
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin("outer");
        t.begin("inner");
        t.end();
        t.end();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(t.to_json_lines().lines().count() == 2);

        let mut off = Tracer::new(false);
        off.begin("outer");
        off.end();
        let now = Instant::now();
        assert_eq!(off.record("x", now, now, None, Some(1)), None);
        assert!(off.spans().is_empty());
    }
}
