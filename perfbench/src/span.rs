//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. A disabled tracer records nothing, so the
//! untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds from the tracer's
/// origin; `parent` indexes the enclosing span of the same tracer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: Option<u64>,
}

impl Span {
    /// The layer is the span name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled. Not shared across threads: a worker
/// thread gets its own tracer from [`Tracer::fork`] and hands it back to
/// [`Tracer::merge`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_for(name, None, f)
    }

    /// As [`Tracer::span`], tagged with a request identifier.
    pub fn span_for<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A tracer for another thread: same origin and switch, and its
    /// top-level spans will hang under this tracer's innermost span.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Adopt a forked tracer's spans under the innermost open span.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = s.request.map_or("null".to_owned(), |r| r.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {request}}}{comma}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out.push('\n');
        out
    }
}

/// Each span's self time: its duration minus the part of it that its
/// children cover (children on several threads may overlap; covered
/// time is counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
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
    fn self_time_subtracts_children() {
        let spans = [
            span("bench", 0, 100, None),
            span("sim.run", 10, 40, Some(0)),
            span("core.replay", 50, 70, Some(0)),
            span("snap.encode", 15, 25, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        let layers = layer_self_s(&spans);
        assert!((layers["sim"] - 20e-9).abs() < 1e-15);
        assert!((layers["bench"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two client threads' requests overlap inside one parent.
        let spans = [
            span("bench", 0, 100, None),
            span("serve.request", 10, 60, Some(0)),
            span("serve.request", 40, 80, Some(0)),
            span("serve.request", 90, 120, Some(0)),
        ];
        // Covered: [10, 80) and [90, 100) = 80 of 100.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let mut t = Tracer::new(true);
        t.span("bench", |t| {
            t.span("trace.gen", |_| ());
            let mut worker = t.fork();
            worker.span_for("serve.request", Some(7), |w| w.span("serve.io", |_| ()));
            t.merge(worker);
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("bench", None),
                ("trace.gen", Some(0)),
                ("serve.request", Some(0)),
                ("serve.io", Some(2)),
            ]
        );
        assert_eq!(t.spans()[2].request, Some(7));
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("bench", |t| t.span("sim.run", |_| 5));
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
