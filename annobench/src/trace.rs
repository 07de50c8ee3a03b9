//! The traced run's span recorder.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (the library itself is not instrumented), kept in memory, and written
//! as JSON lines when the run ends. A span's name is `<layer>.<what>`,
//! where the layer is the crate the call enters; the unit's root span
//! belongs to the `bench` layer, so its self time is whatever the
//! benchmark's own spans did not cover.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The unit of work (session, batch or fleet) the span belongs to.
    pub session: u64,
    /// Span id, unique within its session (1-based).
    pub span: u32,
    /// The enclosing span's id, `0` for the unit's root span.
    pub parent: u32,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The crate the span's call entered (`bench` for root spans).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// The trace file's JSON-lines form.
    pub fn to_json_line(&self) -> String {
        let parent = if self.parent == 0 {
            "null".to_owned()
        } else {
            self.parent.to_string()
        };
        format!(
            "{{\"session\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.session, self.span, parent, self.name, self.start_ns, self.end_ns
        )
    }
}

/// Records nested spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    session: u64,
    next: u32,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between the tracers of concurrent threads).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            session: 0,
            next: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `f` as the root span of unit `session`.
    pub fn unit<T>(&mut self, session: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(
            self.open.is_empty(),
            "a unit span cannot nest in another span"
        );
        self.session = session;
        self.next = 0;
        self.span("bench.unit", f)
    }

    /// Records `f` as a span named `name` inside the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.next += 1;
        let id = self.next;
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            session: self.session,
            span: id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer, summed over every unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Summed duration of the units' root spans, nanoseconds.
    pub unit_ns: u64,
    /// Self time (duration minus child spans) per layer, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// `layer`'s self time as a percentage of the units' wall time.
    pub fn share_pct(&self, layer: &str) -> f64 {
        let ns = self.self_ns.get(layer).copied().unwrap_or(0);
        100.0 * ns as f64 / self.unit_ns.max(1) as f64
    }
}

/// Splits the spans' time into per-layer self time.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: HashMap<(u64, u32), u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children.entry((s.session, s.parent)).or_default() += s.end_ns - s.start_ns;
    }
    let mut out = Breakdown::default();
    for s in spans {
        let duration = s.end_ns - s.start_ns;
        if s.parent == 0 {
            out.unit_ns += duration;
        }
        let child = children.get(&(s.session, s.span)).copied().unwrap_or(0);
        *out.self_ns.entry(s.layer()).or_default() += duration.saturating_sub(child);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_sum_to_wall_time() {
        let spans = vec![
            Span {
                session: 1,
                span: 1,
                parent: 0,
                name: "bench.unit",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                session: 1,
                span: 2,
                parent: 1,
                name: "codec.encode",
                start_ns: 10,
                end_ns: 60,
            },
            Span {
                session: 1,
                span: 3,
                parent: 2,
                name: "imgproc.color",
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                session: 2,
                span: 1,
                parent: 0,
                name: "bench.unit",
                start_ns: 0,
                end_ns: 50,
            },
            Span {
                session: 2,
                span: 2,
                parent: 1,
                name: "codec.encode",
                start_ns: 0,
                end_ns: 50,
            },
        ];
        let b = breakdown(&spans);
        assert_eq!(b.unit_ns, 150);
        assert_eq!(b.self_ns["bench"], 50);
        assert_eq!(b.self_ns["codec"], 90);
        assert_eq!(b.self_ns["imgproc"], 10);
        assert!((b.share_pct("codec") - 60.0).abs() < 1e-9);
        assert_eq!(b.share_pct("video"), 0.0);
    }

    #[test]
    fn tracer_nests_spans_under_the_unit() {
        let mut t = Tracer::new(Instant::now());
        let v = t.unit(7, |t| {
            t.span("codec.encode", |t| t.span("imgproc.color", |_| 3))
        });
        assert_eq!(v, 3);
        let spans = t.into_spans();
        let parents: Vec<(u32, u32)> = spans.iter().map(|s| (s.span, s.parent)).collect();
        assert_eq!(parents, vec![(1, 0), (2, 1), (3, 2)]);
        assert!(spans
            .iter()
            .all(|s| s.session == 7 && s.end_ns >= s.start_ns));
        assert_eq!(
            spans[0].to_json_line(),
            format!(
                "{{\"session\":7,\"span\":1,\"parent\":null,\"name\":\"bench.unit\",\"start_ns\":{},\"end_ns\":{}}}",
                spans[0].start_ns, spans[0].end_ns
            )
        );
    }
}
