//! Sampled per-request traces: fixed-size stage-stamped spans, a
//! lock-free seqlock ring of recent completions, and the tracer that
//! ties them to the metric registry.
//!
//! The stage model mirrors the life of one admitted request through
//! the serving stack:
//!
//! ```text
//! parse → enqueue → dequeue → cache_probe → compute → serialize → flush
//!   edge     edge     worker      worker       worker     edge      edge
//! ```
//!
//! Sampling is deterministic 1-in-N on the trace ID (`id % N == 0`),
//! so A/B runs at the same N sample the *same* requests and the
//! overhead of a non-sampled request is one relaxed `fetch_add` plus
//! one modulo. A sampled request carries a heap-boxed [`Span`] through
//! the queue; workers stamp stages with [`now_ns`](crate::now_ns)
//! reads — no locks, no allocation after admission.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::now_ns;
use crate::cost::{CostCounters, NUM_COST_FIELDS};
use crate::metrics::{Counter, Histogram};
use crate::registry::Registry;

/// Number of stamped stages in a span.
pub const NUM_STAGES: usize = 7;

/// Stage names, indexed by `Stage as usize`.
pub const STAGE_NAMES: [&str; NUM_STAGES] = [
    "parse",
    "enqueue",
    "dequeue",
    "cache_probe",
    "compute",
    "serialize",
    "flush",
];

/// Names of the six intervals *between* consecutive stages, used as
/// the `stage` label on `ah_stage_duration_seconds`: `admit` =
/// parse→enqueue, `queue` = enqueue→dequeue (the queue-wait), then
/// each stage named for the work that ends it.
pub const INTERVAL_NAMES: [&str; NUM_STAGES - 1] = [
    "admit",
    "queue",
    "cache_probe",
    "compute",
    "serialize",
    "flush",
];

/// One checkpoint in a request's life. Numeric values index
/// [`SpanRecord::stages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Request line + query string parsed and admitted at the edge.
    Parse = 0,
    /// Pushed onto the bounded worker queue.
    Enqueue = 1,
    /// Popped by a worker (enqueue→dequeue is the queue-wait).
    Dequeue = 2,
    /// Distance-cache probe finished (hit or miss).
    CacheProbe = 3,
    /// Backend compute finished (skipped work on a cache hit is
    /// stamped immediately, yielding a ~0 ns compute interval).
    Compute = 4,
    /// Response bytes rendered into the connection's write buffer.
    Serialize = 5,
    /// Last response byte accepted by the socket.
    Flush = 6,
}

/// The fixed-size record a finished span leaves behind: stage stamps
/// are nanoseconds since the process epoch, `0` meaning "stage never
/// reached" (real stamps are forced to ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Deterministically sampled request ID (≥ 1; 0 marks an empty
    /// ring slot).
    pub trace_id: u64,
    /// Request kind: 0 = distance, 1 = path, other values free.
    pub kind: u8,
    /// Final HTTP-ish status (200, 429, …); 0 while in flight.
    pub status: u16,
    /// Per-stage stamps, indexed by [`Stage`].
    pub stages: [u64; NUM_STAGES],
    /// Algorithmic cost of the traced query (nodes settled, edges
    /// relaxed, label entries merged, …) — what the request *did*, not
    /// just when it did it.
    pub cost: CostCounters,
}

impl SpanRecord {
    /// True when every stage was stamped.
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(|&t| t != 0)
    }

    /// True when the stamped stages are non-decreasing in stage order
    /// (unstamped stages are skipped).
    pub fn is_monotonic(&self) -> bool {
        let mut prev = 0u64;
        for &t in &self.stages {
            if t == 0 {
                continue;
            }
            if t < prev {
                return false;
            }
            prev = t;
        }
        true
    }

    /// Wall time from the first to the last stamped stage (0 when
    /// fewer than two stages are stamped).
    pub fn total_ns(&self) -> u64 {
        let stamped: Vec<u64> = self.stages.iter().copied().filter(|&t| t != 0).collect();
        match (stamped.first(), stamped.last()) {
            (Some(&a), Some(&b)) if b >= a => b - a,
            _ => 0,
        }
    }
}

/// A live, sampled request trace. Heap-boxed (`Box<Span>`) so carrying
/// it through queues moves one pointer.
#[derive(Debug)]
pub struct Span {
    rec: SpanRecord,
}

impl Span {
    fn new(trace_id: u64, kind: u8) -> Self {
        Span {
            rec: SpanRecord {
                trace_id,
                kind,
                status: 0,
                stages: [0; NUM_STAGES],
                cost: CostCounters::default(),
            },
        }
    }

    /// Stamps `stage` with the current monotonic time (idempotent in
    /// effect: re-stamping overwrites, but the pipeline stamps each
    /// stage once).
    #[inline]
    pub fn stamp(&mut self, stage: Stage) {
        self.rec.stages[stage as usize] = now_ns().max(1);
    }

    /// The trace ID assigned at admission.
    pub fn trace_id(&self) -> u64 {
        self.rec.trace_id
    }

    /// Read access to the record under construction.
    pub fn record(&self) -> &SpanRecord {
        &self.rec
    }

    /// Merges per-query algorithmic cost into the span. Additive, so
    /// the worker's kernel tally and the edge's later bytes-out stamp
    /// compose into one record.
    #[inline]
    pub fn add_cost(&mut self, cost: &CostCounters) {
        self.rec.cost.merge(cost);
    }
}

const RING_WORDS: usize = 2 + NUM_STAGES + NUM_COST_FIELDS;

struct RingSlot {
    /// Seqlock: even = stable, odd = write in progress. Starts at 0;
    /// a slot with `seq < 2` has never been written.
    seq: AtomicU64,
    /// `[trace_id, kind<<32|status, stages[0..7], cost[0..9]]`.
    words: [AtomicU64; RING_WORDS],
}

/// A lock-free ring of recently finished [`SpanRecord`]s.
///
/// Each slot is a tiny seqlock built from plain `AtomicU64` words:
/// writers claim a slot by CAS-ing its sequence from even to odd,
/// store the record's words, then publish with `seq + 2`; a writer
/// that loses the CAS simply drops its record (the ring prefers losing
/// one sample over blocking a worker). Readers snapshot the words and
/// discard the slot if the sequence changed underneath them — no locks
/// anywhere, no torn records ever surfaced.
pub struct SpanRing {
    slots: Box<[RingSlot]>,
    cursor: AtomicU64,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl SpanRing {
    /// Creates a ring holding the last `capacity.max(1)` records.
    pub fn new(capacity: usize) -> Self {
        let n = capacity.max(1);
        SpanRing {
            slots: (0..n)
                .map(|_| RingSlot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publishes a finished record, overwriting the oldest slot. May
    /// silently drop the record if another writer holds the same slot
    /// mid-write (never blocks).
    pub fn push(&self, rec: &SpanRecord) {
        let i = (self.cursor.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        let slot = &self.slots[i];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            return; // another writer mid-flight; drop this sample
        }
        if slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        slot.words[0].store(rec.trace_id, Ordering::Relaxed);
        slot.words[1].store(
            (u64::from(rec.kind) << 32) | u64::from(rec.status),
            Ordering::Relaxed,
        );
        for (k, &t) in rec.stages.iter().enumerate() {
            slot.words[2 + k].store(t, Ordering::Relaxed);
        }
        for (k, c) in rec.cost.as_array().into_iter().enumerate() {
            slot.words[2 + NUM_STAGES + k].store(c, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Snapshot of every stable record currently in the ring (slots
    /// mid-write or overwritten during the read are skipped).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 < 2 || seq1 & 1 == 1 {
                continue;
            }
            let trace_id = slot.words[0].load(Ordering::Relaxed);
            let ks = slot.words[1].load(Ordering::Relaxed);
            let mut stages = [0u64; NUM_STAGES];
            for (k, s) in stages.iter_mut().enumerate() {
                *s = slot.words[2 + k].load(Ordering::Relaxed);
            }
            let mut cost = [0u64; NUM_COST_FIELDS];
            for (k, c) in cost.iter_mut().enumerate() {
                *c = slot.words[2 + NUM_STAGES + k].load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) != seq1 {
                continue; // torn read; skip
            }
            out.push(SpanRecord {
                trace_id,
                kind: (ks >> 32) as u8,
                status: (ks & 0xFFFF) as u16,
                stages,
                cost: CostCounters::from_array(cost),
            });
        }
        out
    }
}

/// Slots in the recent-trace ring behind `/debug/traces`.
const RING_CAPACITY: usize = 256;

/// Request-kind names, indexed by the span `kind` code
/// (`ah_server::trace_kind`); the per-kind cost counters use the same
/// order. Codes past the end render as `"other"`.
pub const KIND_NAMES: [&str; 5] = ["distance", "path", "via", "knn", "matrix"];

/// Tracing knobs, carried in `ServerConfig`.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Sample 1 request in `sample_every` (deterministic on the trace
    /// ID). `1` traces everything, `0` disables tracing entirely.
    pub sample_every: u64,
    /// Sampled spans whose wall time meets this threshold are written
    /// to the slow-query log (stderr). `0` disables the log.
    pub slow_threshold_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 64,
            slow_threshold_ns: 0,
        }
    }
}

/// Starts, finishes, and aggregates sampled spans.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    next_id: AtomicU64,
    ring: SpanRing,
    spans_total: Arc<Counter>,
    slow_total: Arc<Counter>,
    stage_ns: [Arc<Histogram>; NUM_STAGES - 1],
}

impl Tracer {
    /// Creates a tracer with the given knobs, and its metrics in `reg`:
    /// `ah_trace_spans_total`, `ah_trace_slow_total`, and one
    /// `ah_stage_duration_seconds` histogram per stage interval, under a
    /// `stage` label.
    pub fn new(cfg: TraceConfig, reg: &Registry) -> Self {
        Tracer {
            cfg,
            next_id: AtomicU64::new(0),
            ring: SpanRing::new(RING_CAPACITY),
            spans_total: reg.counter(
                "ah_trace_spans_total",
                &[],
                "Sampled request spans finished",
            ),
            slow_total: reg.counter(
                "ah_trace_slow_total",
                &[],
                "Sampled spans at or above the slow-query threshold",
            ),
            stage_ns: std::array::from_fn(|i| {
                reg.histogram(
                    "ah_stage_duration_seconds",
                    &[("stage", INTERVAL_NAMES[i])],
                    "Per-stage duration of sampled request spans",
                )
            }),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Admits one request: assigns the next trace ID and returns a
    /// live span iff the ID is sampled (`id % sample_every == 0`;
    /// `None` always when tracing is disabled). The returned span has
    /// [`Stage::Parse`] already stamped.
    pub fn start(&self, kind: u8) -> Option<Box<Span>> {
        if self.cfg.sample_every == 0 {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        if !id.is_multiple_of(self.cfg.sample_every) {
            return None;
        }
        let mut span = Box::new(Span::new(id, kind));
        span.stamp(Stage::Parse);
        Some(span)
    }

    /// Finishes a sampled span: records each present stage interval
    /// into its duration histogram, feeds the slow-query log, and
    /// publishes the record to the recent-trace ring.
    pub fn finish(&self, mut span: Span, status: u16) {
        span.rec.status = status;
        self.spans_total.inc();
        for i in 0..NUM_STAGES - 1 {
            let (a, b) = (span.rec.stages[i], span.rec.stages[i + 1]);
            if a != 0 && b >= a {
                self.stage_ns[i].record_ns(b - a);
            }
        }
        let total = span.rec.total_ns();
        if self.cfg.slow_threshold_ns > 0 && total >= self.cfg.slow_threshold_ns {
            self.slow_total.inc();
            eprintln!(
                "[slow-query] trace_id={} kind={} status={} total_us={:.1} stages={:?}",
                span.rec.trace_id,
                kind_name(span.rec.kind),
                status,
                total as f64 / 1e3,
                span.rec.stages,
            );
        }
        self.ring.push(&span.rec);
    }

    /// Recent finished records (unordered snapshot of the ring).
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
    }

    /// Finished-span count (sampled spans only).
    pub fn spans_finished(&self) -> u64 {
        self.spans_total.get()
    }

    /// The interval histogram feeding `ah_stage_duration_seconds`
    /// for `stage` = [`INTERVAL_NAMES`]`[i]`.
    pub fn stage_histogram(&self, i: usize) -> &Arc<Histogram> {
        &self.stage_ns[i]
    }

    /// Renders the recent-trace ring as the `/debug/traces` JSON
    /// document (hand-rolled: the workspace serde is an offline stub).
    pub fn traces_json(&self) -> String {
        let spans = self.recent();
        let mut out = String::with_capacity(256 + spans.len() * 256);
        out.push_str(&format!(
            "{{\"sample_every\":{},\"finished\":{},\"spans\":[",
            self.cfg.sample_every,
            self.spans_finished()
        ));
        for (i, r) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let stages = STAGE_NAMES
                .iter()
                .zip(r.stages.iter())
                .map(|(n, t)| format!("\"{n}\":{t}"))
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!(
                concat!(
                    "{{\"trace_id\":{},\"kind\":\"{}\",\"status\":{},",
                    "\"complete\":{},\"monotonic\":{},\"total_ns\":{},",
                    "\"stages\":{{{}}},\"cost\":{}}}"
                ),
                r.trace_id,
                kind_name(r.kind),
                r.status,
                r.is_complete(),
                r.is_monotonic(),
                r.total_ns(),
                stages,
                r.cost.to_json(),
            ));
        }
        out.push_str("]}\n");
        out
    }
}

fn kind_name(kind: u8) -> &'static str {
    KIND_NAMES.get(kind as usize).copied().unwrap_or("other")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer whose metrics live in a registry of its own.
    fn tracer(cfg: TraceConfig) -> Tracer {
        Tracer::new(cfg, &Registry::new())
    }

    fn full_span(tracer: &Tracer) -> Box<Span> {
        let mut s = tracer.start(0).expect("sampled");
        for st in [
            Stage::Enqueue,
            Stage::Dequeue,
            Stage::CacheProbe,
            Stage::Compute,
            Stage::Serialize,
            Stage::Flush,
        ] {
            s.stamp(st);
        }
        s
    }

    #[test]
    fn sampling_is_deterministic_one_in_n() {
        let t = tracer(TraceConfig {
            sample_every: 4,
            ..Default::default()
        });
        let sampled = (0..100).filter(|_| t.start(0).is_some()).count();
        assert_eq!(sampled, 25);

        let off = tracer(TraceConfig {
            sample_every: 0,
            ..Default::default()
        });
        assert!(off.start(0).is_none());

        let all = tracer(TraceConfig {
            sample_every: 1,
            ..Default::default()
        });
        assert!(all.start(1).is_some());
    }

    #[test]
    fn finished_spans_are_complete_and_monotonic() {
        let t = tracer(TraceConfig {
            sample_every: 1,
            ..Default::default()
        });
        let s = full_span(&t);
        assert!(s.record().is_complete());
        t.finish(*s, 200);
        let recent = t.recent();
        assert_eq!(recent.len(), 1);
        let r = recent[0];
        assert!(r.is_complete() && r.is_monotonic(), "{r:?}");
        assert_eq!(r.status, 200);
        assert!(r.trace_id >= 1);
        // Stage intervals were recorded: every interval histogram saw
        // exactly one observation.
        for i in 0..NUM_STAGES - 1 {
            assert_eq!(t.stage_histogram(i).count(), 1, "interval {i}");
        }
    }

    #[test]
    fn partial_spans_survive_without_panicking() {
        let t = tracer(TraceConfig {
            sample_every: 1,
            ..Default::default()
        });
        let mut s = t.start(1).unwrap();
        s.stamp(Stage::Enqueue); // rejected before dequeue
        t.finish(*s, 429);
        let r = t.recent()[0];
        assert!(!r.is_complete());
        assert!(r.is_monotonic());
        assert_eq!(r.status, 429);
        assert_eq!(r.kind, 1);
        // Only the parse→enqueue interval exists.
        assert_eq!(t.stage_histogram(0).count(), 1);
        assert_eq!(t.stage_histogram(1).count(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_never_tears() {
        let ring = SpanRing::new(4);
        for id in 1..=10u64 {
            let rec = SpanRecord {
                trace_id: id,
                kind: 0,
                status: 200,
                stages: [id; NUM_STAGES],
                cost: CostCounters::from_array([id; NUM_COST_FIELDS]),
            };
            ring.push(&rec);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        for r in &snap {
            assert!(r.trace_id >= 7, "{r:?}"); // only the newest survive
            assert_eq!(r.stages, [r.trace_id; NUM_STAGES]); // no torn slots
            assert_eq!(r.cost.as_array(), [r.trace_id; NUM_COST_FIELDS]);
        }
    }

    #[test]
    fn ring_concurrent_pushes_and_snapshots_stay_consistent() {
        // Seqlock torn-read regression test: 4 writers hammer an
        // 8-slot ring far past capacity while a reader snapshots.
        // Every record's stage stamps *and* cost words are derived
        // from its trace_id, so any half-written slot surfacing — in
        // the original stage words or the newer cost words — fails the
        // internal-consistency assertion.
        let ring = SpanRing::new(8);
        std::thread::scope(|scope| {
            for tid in 0..4u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let v = tid * 1000 + i + 1;
                        ring.push(&SpanRecord {
                            trace_id: v,
                            kind: 0,
                            status: 200,
                            stages: [v; NUM_STAGES],
                            cost: CostCounters::from_array([v.wrapping_mul(3); NUM_COST_FIELDS]),
                        });
                    }
                });
            }
            let ring = &ring;
            scope.spawn(move || {
                for _ in 0..200 {
                    for r in ring.snapshot() {
                        // Every surfaced record is internally
                        // consistent — the seqlock never exposes a
                        // half-written slot.
                        assert_eq!(r.stages, [r.trace_id; NUM_STAGES], "torn: {r:?}");
                        assert_eq!(
                            r.cost.as_array(),
                            [r.trace_id.wrapping_mul(3); NUM_COST_FIELDS],
                            "torn cost words: {r:?}"
                        );
                    }
                }
            });
        });
    }

    #[test]
    fn traces_json_shape() {
        let t = tracer(TraceConfig {
            sample_every: 1,
            slow_threshold_ns: 0,
        });
        let s = full_span(&t);
        t.finish(*s, 200);
        let json = t.traces_json();
        assert!(json.starts_with("{\"sample_every\":1"), "{json}");
        assert!(json.contains("\"status\":200"), "{json}");
        assert!(json.contains("\"complete\":true"), "{json}");
        assert!(json.contains("\"stages\":{\"parse\":"), "{json}");
    }

    #[test]
    fn slow_log_counts_threshold_hits() {
        let r = Registry::new();
        let t = Tracer::new(
            TraceConfig {
                sample_every: 1,
                slow_threshold_ns: 1, // everything with ≥ 2 stamps is "slow"
            },
            &r,
        );
        let mut s = t.start(0).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.stamp(Stage::Flush);
        t.finish(*s, 200);
        assert_eq!(t.spans_finished(), 1);
        let text = r.render();
        assert!(text.contains("ah_trace_slow_total 1"), "{text}");
        assert!(text.contains("ah_trace_spans_total 1"), "{text}");
        assert!(
            text.contains("ah_stage_duration_seconds_bucket{stage=\"flush\""),
            "{text}"
        );
    }
}
