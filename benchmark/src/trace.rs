//! Benchmark-side span recorder for the traced run.
//!
//! No file under `crates/` carries spans for the benchmark: each layer
//! is measured from outside, by a span around every call into one of
//! its public functions. Spans are kept in memory and written to
//! `benchmark/out/<workload>.trace.json` when the run ends. A layer's
//! self time is its span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = u32;

/// Parent of a top-level span.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// 1-based; [`ROOT`] is "no span".
    pub id: SpanId,
    /// `<crate>.<call>`, e.g. `ah_core.build`.
    pub name: &'static str,
    pub parent: SpanId,
    /// Spans of one request share it; 0 for work that is no request.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread. Disabled (the untraced run) it
/// records nothing and `span` costs one branch.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Adds a finished span; returns its id ([`ROOT`] when disabled).
    pub fn add(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder user panics while holding the lock");
        let id = spans.len() as SpanId + 1;
        spans.push(SpanRec {
            id,
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` inside a span. The span's id is handed to `f` so calls
    /// made within can name it as their parent.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.enabled {
            return f(ROOT);
        }
        // Reserve the id first so children recorded inside `f` can
        // point at it; the end stamp is patched in afterwards.
        let start_ns = self.now_ns();
        let id = self.add(name, parent, 0, start_ns, start_ns);
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no recorder user panics while holding the lock")[id as usize - 1]
            .end_ns = end_ns;
        out
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("no recorder user panics while holding the lock")
            .clone()
    }

    /// The trace document: one object per span, plus anything the
    /// program's own tracer exported (`/debug/traces`), verbatim.
    pub fn to_json(&self, header_json: &str, server_traces_json: &str) -> String {
        let spans = self.spans();
        let mut out = String::with_capacity(64 + spans.len() * 96);
        out.push_str(&format!("{{\"run\":{header_json},\"spans\":[\n"));
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}\n",
                s.id, s.name, s.parent, s.request, s.start_ns, s.end_ns
            ));
        }
        out.push_str(&format!("],\"server_traces\":{server_traces_json}}}\n"));
        out
    }
}

/// Per span name: `(calls, total_ns, self_ns)`, self time being the
/// span's duration minus the time its direct children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(child_ns[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let r = Recorder::new(true);
        let outer = r.add("outer", ROOT, 0, 0, 100);
        r.add("inner", outer, 7, 10, 40);
        r.add("inner", outer, 8, 50, 70);
        let t = self_times(&r.spans());
        assert_eq!(t["outer"], (1, 100, 50));
        assert_eq!(t["inner"], (2, 50, 50));
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let r = Recorder::new(true);
        r.span("a", ROOT, |a| r.span("b", a, |_| ()));
        let spans = r.spans();
        assert_eq!((spans[0].name, spans[0].parent), ("a", ROOT));
        assert_eq!((spans[1].name, spans[1].parent), ("b", spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(r.to_json("{}", "null").contains("\"name\":\"b\""));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.span("a", ROOT, |id| id), ROOT);
        assert_eq!(r.add("b", ROOT, 1, 0, 1), ROOT);
        assert!(r.spans().is_empty());
    }
}
