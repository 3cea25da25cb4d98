//! Rolling per-second windows and multi-window burn-rate SLO
//! evaluation.
//!
//! [`SloWindows`] is a lock-free ring of per-second aggregate slots:
//! each slot carries the request count, error count, and a full
//! log₂-bucket latency [`Histogram`] for one wall-clock second. Writers
//! tag the slot for the current second and reset it lazily when the
//! ring wraps onto a stale second, so recording stays O(1) with no
//! background thread. Readers merge the last *W* tagged slots into one
//! [`WindowStats`] — that is what makes the same ring answer both the
//! fast (seconds) and slow (minutes) windows of a classic
//! multi-window, multi-burn-rate SLO policy.
//!
//! [`SloPolicy`] holds the objectives (a p99 latency target and an
//! error budget) and evaluates them over a fast and a slow window. The
//! *burn rate* is the observed error rate divided by the budget: a
//! burn rate of 1 spends the budget exactly at the sustainable pace,
//! `x > 1` exhausts it `x`× faster. Readiness (`/readyz`) keys off the
//! **fast** window so a sudden regression degrades within seconds and
//! recovery is equally quick once the bad second ages out of the
//! window; the slow window rides along in `/debug/slo` for trend
//! context. See `docs/OBSERVABILITY.md` for the full model.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::Histogram;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Ring capacity in seconds. Must exceed the largest window anyone
/// evaluates ([`SLOW_WINDOW_SECS`], checked at compile time); 128
/// leaves headroom and makes the modulo cheap.
const RING_SECONDS: usize = 128;

/// One per-second aggregate slot.
struct Slot {
    /// Wall-clock second this slot currently describes
    /// (`u64::MAX` = never written).
    second: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
}

impl Slot {
    fn new() -> Self {
        Slot {
            second: AtomicU64::new(u64::MAX),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }
}

/// A lock-free ring of per-second aggregate slots — the substrate for
/// windowed QPS / error-rate / quantile queries.
///
/// Timestamps are caller-provided nanoseconds from one monotonic epoch
/// (use [`crate::now_ns`]); only their *second* matters. Observations
/// racing a slot reset exactly at a second boundary are counted
/// best-effort — a handful may be dropped per wrap, which is
/// irrelevant at the rates the windows summarize and keeps recording
/// free of locks and allocation.
pub struct SloWindows {
    slots: Box<[Slot]>,
}

impl Default for SloWindows {
    fn default() -> Self {
        Self::new()
    }
}

impl SloWindows {
    /// Creates an empty ring covering `RING_SECONDS` (128) seconds.
    pub fn new() -> Self {
        SloWindows {
            slots: (0..RING_SECONDS).map(|_| Slot::new()).collect(),
        }
    }

    fn slot_for(&self, sec: u64) -> &Slot {
        &self.slots[(sec as usize) % self.slots.len()]
    }

    /// Claims the slot for `sec`, lazily resetting it if the ring
    /// wrapped onto a stale second. The CAS winner does the zeroing;
    /// losers proceed and record into the (now-current) slot.
    fn claim(&self, sec: u64) -> &Slot {
        let slot = self.slot_for(sec);
        let tag = slot.second.load(Ordering::Acquire);
        if tag != sec
            && slot
                .second
                .compare_exchange(tag, sec, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            slot.requests.store(0, Ordering::Relaxed);
            slot.errors.store(0, Ordering::Relaxed);
            slot.latency.reset();
        }
        slot
    }

    /// Records one served request: its latency and whether it was an
    /// error (any non-2xx answer, including admission rejections).
    pub fn record(&self, now_ns: u64, latency_ns: u64, error: bool) {
        let slot = self.claim(now_ns / NANOS_PER_SEC);
        slot.requests.fetch_add(1, Ordering::Relaxed);
        if error {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
        slot.latency.record_ns(latency_ns);
    }

    /// Aggregates the last `window_secs` seconds (ending at and
    /// including the second of `now_ns`) into one [`WindowStats`].
    /// Windows longer than the ring are clamped to the ring.
    pub fn stats(&self, now_ns: u64, window_secs: u64) -> WindowStats {
        let window_secs = window_secs.clamp(1, self.slots.len() as u64);
        let now_sec = now_ns / NANOS_PER_SEC;
        let first = now_sec.saturating_sub(window_secs - 1);
        let merged = Histogram::new();
        let mut requests = 0u64;
        let mut errors = 0u64;
        for sec in first..=now_sec {
            let slot = self.slot_for(sec);
            if slot.second.load(Ordering::Acquire) == sec {
                requests += slot.requests.load(Ordering::Relaxed);
                errors += slot.errors.load(Ordering::Relaxed);
                merged.merge(&slot.latency);
            }
        }
        WindowStats {
            window_secs,
            requests,
            errors,
            qps: requests as f64 / window_secs as f64,
            error_rate: if requests == 0 {
                0.0
            } else {
                errors as f64 / requests as f64
            },
            p50_ns: merged.quantile_ns(0.50),
            p99_ns: merged.quantile_ns(0.99),
        }
    }
}

/// Aggregate view of one rolling window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window length in seconds (after clamping to the ring).
    pub window_secs: u64,
    /// Requests observed in the window.
    pub requests: u64,
    /// Errors observed in the window.
    pub errors: u64,
    /// Requests per second averaged over the window.
    pub qps: f64,
    /// `errors / requests` (0 when the window is empty).
    pub error_rate: f64,
    /// Median latency over the window's merged histogram, ns.
    pub p50_ns: f64,
    /// 99th-percentile latency over the window's merged histogram, ns.
    pub p99_ns: f64,
}

impl WindowStats {
    /// Burn rate against an error budget: `error_rate / budget`
    /// (0 when the budget objective is disabled).
    pub fn burn_rate(&self, error_budget: f64) -> f64 {
        if error_budget > 0.0 {
            self.error_rate / error_budget
        } else {
            0.0
        }
    }

    /// Renders the window as a JSON object.
    pub fn to_json(&self, error_budget: f64) -> String {
        format!(
            "{{\"window_secs\":{},\"requests\":{},\"errors\":{},\"qps\":{:.3},\
             \"error_rate\":{:.6},\"burn_rate\":{:.3},\"p50_ns\":{:.0},\"p99_ns\":{:.0}}}",
            self.window_secs,
            self.requests,
            self.errors,
            self.qps,
            self.error_rate,
            self.burn_rate(error_budget),
            self.p50_ns,
            self.p99_ns,
        )
    }
}

/// Fast window length, seconds — the readiness trigger.
const FAST_WINDOW_SECS: u64 = 5;

/// Slow window length, seconds — trend context in `/debug/slo`.
const SLOW_WINDOW_SECS: u64 = 60;

/// Error burn rate over the fast window that trips readiness (classic
/// fast-burn paging threshold; 1.0 = budget spent exactly at the
/// sustainable pace).
const FAST_BURN_THRESHOLD: f64 = 4.0;

/// Minimum fast-window requests before any objective can trip — a
/// single failed probe must not flip readiness.
const MIN_REQUESTS: u64 = 10;

const _: () = assert!(
    FAST_WINDOW_SECS <= SLOW_WINDOW_SECS && SLOW_WINDOW_SECS < RING_SECONDS as u64,
    "the SLO windows must fit the per-second ring"
);

/// The service-level objectives, judged over a fast (5 s) and a slow
/// (60 s) window. The default has no active objective.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloPolicy {
    /// 99th-percentile latency target in nanoseconds (0 disables the
    /// latency objective).
    pub p99_target_ns: u64,
    /// Error budget as a fraction of requests allowed to fail
    /// (e.g. `0.01` = 1%; 0 disables the error objective).
    pub error_budget: f64,
}

impl SloPolicy {
    /// Evaluates both windows at `now_ns` and decides readiness off
    /// the fast window: not ready when (with at least 10 fast-window
    /// samples) the error burn rate exceeds 4, or the fast-window p99
    /// exceeds the latency target.
    pub fn evaluate(&self, windows: &SloWindows, now_ns: u64) -> SloStatus {
        let fast = windows.stats(now_ns, FAST_WINDOW_SECS);
        let slow = windows.stats(now_ns, SLOW_WINDOW_SECS);
        let mut reason = String::new();
        if fast.requests >= MIN_REQUESTS {
            if self.error_budget > 0.0 {
                let burn = fast.burn_rate(self.error_budget);
                if burn > FAST_BURN_THRESHOLD {
                    reason = format!(
                        "fast-window error rate {:.4} burns budget {:.4} at {:.1}x \
                         (threshold {:.1}x)",
                        fast.error_rate, self.error_budget, burn, FAST_BURN_THRESHOLD
                    );
                }
            }
            if reason.is_empty() && self.p99_target_ns > 0 && fast.p99_ns > self.p99_target_ns as f64
            {
                reason = format!(
                    "fast-window p99 {:.0}ns exceeds target {}ns",
                    fast.p99_ns, self.p99_target_ns
                );
            }
        }
        SloStatus {
            ready: reason.is_empty(),
            reason,
            fast,
            slow,
            policy: self.clone(),
        }
    }
}

/// One point-in-time SLO evaluation: the readiness verdict, the
/// tripping reason (empty when ready), and both window views.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Whether the service should report ready (200 on `/readyz`).
    pub ready: bool,
    /// Human-readable trip reason; empty when ready.
    pub reason: String,
    /// The fast (readiness-driving) window.
    pub fast: WindowStats,
    /// The slow (trend) window.
    pub slow: WindowStats,
    /// The policy that produced this verdict.
    pub policy: SloPolicy,
}

impl SloStatus {
    /// Renders the full evaluation as the `/debug/slo` JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ready\":{},\"reason\":{},\
             \"policy\":{{\"p99_target_ns\":{},\"error_budget\":{:.6},\
             \"fast_window_secs\":{},\"slow_window_secs\":{},\
             \"fast_burn_threshold\":{:.2},\"min_requests\":{}}},\
             \"fast\":{},\"slow\":{}}}",
            self.ready,
            crate::json_string(&self.reason),
            self.policy.p99_target_ns,
            self.policy.error_budget,
            FAST_WINDOW_SECS,
            SLOW_WINDOW_SECS,
            FAST_BURN_THRESHOLD,
            MIN_REQUESTS,
            self.fast.to_json(self.policy.error_budget),
            self.slow.to_json(self.policy.error_budget),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = NANOS_PER_SEC;

    fn policy() -> SloPolicy {
        SloPolicy {
            p99_target_ns: 1_000_000, // 1 ms
            error_budget: 0.01,       // 1%
        }
    }

    #[test]
    fn empty_windows_are_ready() {
        let w = SloWindows::new();
        let s = policy().evaluate(&w, 100 * SEC);
        assert!(s.ready);
        assert_eq!(s.fast.requests, 0);
        assert_eq!(s.fast.error_rate, 0.0);
    }

    #[test]
    fn healthy_traffic_stays_ready() {
        let w = SloWindows::new();
        for i in 0..100 {
            w.record(100 * SEC + i, 100_000, false); // 100 µs, ok
        }
        let s = policy().evaluate(&w, 100 * SEC);
        assert!(s.ready, "{}", s.reason);
        assert_eq!(s.fast.requests, 100);
        assert_eq!(s.fast.qps, 20.0, "100 requests over a 5 s window");
        assert!(s.fast.p99_ns < 1_000_000.0);
    }

    #[test]
    fn error_burn_trips_and_recovers_as_the_window_slides() {
        let w = SloWindows::new();
        // Second 100: half the traffic fails — 50× the 1% budget.
        for i in 0..100 {
            w.record(100 * SEC, 100_000, i % 2 == 0);
        }
        let s = policy().evaluate(&w, 100 * SEC);
        assert!(!s.ready);
        assert!(s.reason.contains("error rate"), "{}", s.reason);
        assert!(s.fast.burn_rate(0.01) > 4.0);
        // Slow window sees the same burn (same single second of data).
        assert_eq!(s.slow.errors, 50);
        // 5 seconds later the bad second has left the fast window.
        let s = policy().evaluate(&w, 105 * SEC);
        assert!(s.ready, "recovered: {}", s.reason);
        assert_eq!(s.fast.requests, 0);
        // …but still burdens the slow trend window.
        assert_eq!(s.slow.errors, 50);
    }

    #[test]
    fn latency_objective_trips_on_slow_p99() {
        let w = SloWindows::new();
        for _ in 0..100 {
            w.record(200 * SEC, 10_000_000, false); // 10 ms against a 1 ms target
        }
        let s = policy().evaluate(&w, 200 * SEC);
        assert!(!s.ready);
        assert!(s.reason.contains("p99"), "{}", s.reason);
    }

    #[test]
    fn min_requests_guards_small_samples() {
        let w = SloWindows::new();
        for _ in 0..5 {
            w.record(300 * SEC, 10_000_000, true); // all errors, but only 5
        }
        let s = policy().evaluate(&w, 300 * SEC);
        assert!(s.ready, "below MIN_REQUESTS nothing can trip");
    }

    #[test]
    fn ring_wrap_reclaims_stale_slots() {
        let w = SloWindows::new();
        w.record(10 * SEC, 1_000, false);
        // RING_SECONDS later the same slot serves a new second; the old
        // tally must not leak in.
        let later = (10 + RING_SECONDS as u64) * SEC;
        w.record(later, 2_000, true);
        let st = w.stats(later, 1);
        assert_eq!(st.requests, 1);
        assert_eq!(st.errors, 1);
    }

    #[test]
    fn stats_clamp_oversized_windows() {
        let w = SloWindows::new();
        let st = w.stats(50 * SEC, 10_000);
        assert_eq!(st.window_secs, RING_SECONDS as u64);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let w = SloWindows::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let w = &w;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        w.record(400 * SEC + i, 50_000, (t + i) % 10 == 0);
                    }
                });
            }
        });
        let st = w.stats(400 * SEC, 5);
        assert_eq!(st.requests, 4000, "single-second slot, no resets racing");
        assert_eq!(st.errors, 400);
    }

    #[test]
    fn status_json_is_well_formed() {
        let w = SloWindows::new();
        for i in 0..200 {
            w.record(500 * SEC, 100_000, i == 0); // 0.5% errors: within budget
        }
        let s = policy().evaluate(&w, 500 * SEC);
        let j = s.to_json();
        assert!(j.contains("\"ready\":true"), "{j}");
        assert!(j.contains("\"fast\":{"), "{j}");
        assert!(j.contains("\"slow\":{"), "{j}");
        assert!(j.contains("\"burn_rate\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }
}
