//! The harness's own span recorder (tracing *from outside*: one span
//! per call across a layer boundary; spans inside the engine are a
//! later change).
//!
//! Spans are kept in memory, written out as JSON lines when the run
//! ends, and folded into *self time*: a span's duration minus the part
//! of that interval its children cover (overlapping children are
//! unioned, so a stretch two children share is subtracted once).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans the harness opens around its own bookkeeping carry this
/// prefix; every other span is a call into a layer of the engine.
pub const HARNESS_PREFIX: &str = "harness.";

/// One recorded span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier.
    pub op: u64,
}

/// Handle to an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// An in-memory span log for one thread of the harness. A recorder
/// that is *off* (an untraced pass) records nothing: `enter`, `exit`
/// and `span` cost a branch, so a loop is written once for both kinds
/// of pass.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder whose clock starts now; off unless `on`.
    pub fn new(on: bool) -> Self {
        Self::with_origin(on, Instant::now())
    }

    /// A recorder on a shared clock, so the logs of several threads
    /// line up.
    pub fn with_origin(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next operation: later spans carry its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let index = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes a span; spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_ns(name, f).0
    }

    /// Runs `f` inside a span; also returns the span's nanoseconds
    /// (0 when off).
    pub fn span_ns<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        let ns = self.spans.get(open.0).map_or(0, |s| s.end_ns - s.start_ns);
        (out, ns)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The JSON-lines rendering, one span per line.
    pub fn to_jsonl(&self, thread: usize) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op, thread
            );
        }
        out
    }
}

/// Self time per span name, in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = union_within(kids, s.start_ns, s.end_ns);
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// What a traced pass must show about its span tree.
#[derive(Debug, Clone, Copy)]
pub struct Coverage {
    /// Share of the root span covered by calls into engine layers
    /// (everything but `harness.*` self time).
    pub layer_share: f64,
    /// |Σ self times − root duration| ÷ root duration.
    pub self_time_gap: f64,
}

/// Folds one thread's spans against its root (the first span).
/// `reference_ns` of the root's own time went into reference chunks
/// (the calibrated clock); that is not part of the loop being covered.
pub fn coverage(spans: &[Span], reference_ns: u64) -> Coverage {
    let root = spans.first().expect("a traced pass records a root span");
    let root_ns = (root.end_ns - root.start_ns).max(1) as f64;
    let selfs = self_times(spans);
    let total: u64 = selfs.values().sum();
    let harness: u64 = selfs
        .iter()
        .filter(|(name, _)| name.starts_with(HARNESS_PREFIX))
        .map(|(_, ns)| ns)
        .sum();
    let loop_ns = (root_ns - reference_ns as f64).max(1.0);
    Coverage {
        layer_share: 1.0 - harness.saturating_sub(reference_ns) as f64 / loop_ns,
        self_time_gap: (total as f64 - root_ns).abs() / root_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn children_are_subtracted_once() {
        let spans = [
            span("harness.loop", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 55, 65, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["harness.loop"], 30);
        assert_eq!(t["a"], 30);
        assert_eq!(t["b"], 30);
        assert_eq!(t["c"], 10);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "nested self times sum to the root"
        );
        let c = coverage(&spans, 0);
        assert!((c.layer_share - 0.7).abs() < 1e-12);
        // 20 of the root's 30 ns of self time were reference chunks.
        assert!((coverage(&spans, 20).layer_share - 0.875).abs() < 1e-12);
        assert_eq!(c.self_time_gap, 0.0);
    }

    #[test]
    fn overlapping_children_are_unioned() {
        // Two children share [30, 40): the parent loses 10..60 once,
        // not 10..40 plus 30..60.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)["root"], 50);
        // A child reaching past its parent is clipped to it.
        let spans = [span("root", 0, 100, None), span("x", 90, 130, Some(0))];
        assert_eq!(self_times(&spans)["root"], 90);
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut off = Recorder::new(false);
        let root = off.enter("harness.loop");
        assert_eq!(off.span_ns("layer.call", || 7), (7, 0));
        off.exit(root);
        assert!(off.spans().is_empty() && !off.is_on());

        let mut rec = Recorder::new(true);
        let root = rec.enter("harness.loop");
        rec.next_op();
        let got = rec.span("layer.call", || 7);
        rec.exit(root);
        assert_eq!(got, 7);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op), (0, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.to_jsonl(0).lines().count(), 2);
        assert!(rec.to_jsonl(0).contains("\"parent\":null"));
    }
}
