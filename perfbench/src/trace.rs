//! Benchmark-side span recording around every call into a layer.
//!
//! Spans live in memory and are written out once, when the run ends.
//! Each span names its layer, its parent span and the request it
//! belongs to; a layer's *self time* is its span time minus the part of
//! that interval its child spans cover. A root `unit` span wraps the
//! timed work, so its self time is the explicit residual: per-layer
//! self times plus the residual add up to the unit's wall time.
//!
//! With tracing off, [`Tracer::span`] returns an inert guard and records
//! nothing, so the timed runs pay one branch per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the root span whose self time is the residual.
pub const UNIT: &str = "unit";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recording.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer the span times (`front_end`, `grape`, …).
    pub layer: &'static str,
    /// Request the span serves, shared by all spans of one request.
    pub request: Option<u64>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// In-memory span recorder (single-threaded: every benchmark call into
/// a layer is made from the driving thread).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            self.tracer.spans.borrow_mut()[id].end_ns = end;
            self.tracer.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn span(&self, layer: &'static str, request: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let start = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            parent: self.open.borrow().last().copied(),
            layer,
            request,
            start_ns: start,
            end_ns: start,
        });
        self.open.borrow_mut().push(id);
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Records a closed span `[start, start + duration]` under the
    /// innermost open span, for a duration a layer reported about
    /// itself (the parallel section's wall time in `ParallelStats`) or
    /// one measured on an in-process replica of a remote call.
    pub fn record(
        &self,
        layer: &'static str,
        request: Option<u64>,
        start: Instant,
        duration: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = self.at_ns(start);
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            parent: self.open.borrow().last().copied(),
            layer,
            request,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
        });
    }

    /// The recording so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time per layer, in seconds: each span's duration minus the
/// union of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
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
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Span count per layer.
pub fn counts(spans: &[Span]) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0) += 1;
    }
    out
}

/// Total wall time of the root `unit` spans, in seconds.
pub fn unit_wall(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == UNIT && s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum()
}

/// The recording as JSON: every span, then the per-layer summary.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n  " } else { ",\n  " };
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            opt(s.parent.map(|p| p as u64)),
            s.layer,
            opt(s.request),
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("\n], \"self_s\": {");
    let counts = counts(spans);
    for (i, (layer, secs)) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{layer}\": {{\"self_s\": {secs}, \"spans\": {}}}",
            counts[layer]
        );
    }
    let _ = writeln!(out, "}}, \"wall_s\": {}}}", unit_wall(spans));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            request: None,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span(0, None, UNIT, 0, 1000),
            span(1, Some(0), "serve", 100, 600),
            // Overlapping children count once; the part outside the
            // parent is clipped.
            span(2, Some(1), "grape", 200, 400),
            span(3, Some(1), "grape", 300, 500),
            span(4, Some(0), "front_end", 900, 1100),
        ];
        let t = self_times(&spans);
        let ns = |layer: &str| (t[layer] * 1e9).round() as u64;
        assert_eq!(ns("grape"), 200 + 200);
        assert_eq!(ns("serve"), 500 - 300);
        assert_eq!(ns("front_end"), 200);
        // Unit self time: 1000 minus serve [100,600] and front_end
        // clipped to [900,1000].
        assert_eq!(ns(UNIT), 1000 - 500 - 100);
    }

    #[test]
    fn self_times_plus_residual_account_for_the_wall() {
        let tracer = Tracer::new(true);
        {
            let _unit = tracer.span(UNIT, None);
            for r in 0..3 {
                let _req = tracer.span("serve", Some(r));
                let _inner = tracer.span("front_end", Some(r));
                std::hint::black_box((0..1000).sum::<u64>());
            }
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, Some(0));
        let total: f64 = self_times(&spans).values().sum();
        assert!((total - unit_wall(&spans)).abs() < 1e-9);
    }

    #[test]
    fn reported_spans_nest_under_the_open_span() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("parallel", None);
            tracer.record("grape", None, Instant::now(), Duration::from_nanos(1));
        }
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].end_ns - spans[1].start_ns, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let _s = tracer.span("serve", Some(1));
        }
        tracer.record("grape", None, Instant::now(), Duration::from_secs(1));
        assert!(tracer.spans().is_empty());
    }
}
