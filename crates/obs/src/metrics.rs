//! Lock-free metric primitives: counter, gauge, log₂ histogram.
//!
//! All three are plain structs over relaxed atomics — safe to share by
//! `Arc` or reference across the worker pool, no locks on the hot
//! path, no per-observation allocation. The histogram's bucket layout
//! is a *documented contract* (see [`Histogram::bucket_of`] /
//! [`Histogram::bucket_le_ns`]), property-tested in
//! `tests/properties.rs`, because the Prometheus `_bucket` series and
//! per-run merges both depend on every instance agreeing on it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ histogram buckets: covers 1 ns … `u64::MAX` ns
/// (580+ years), so no observation is ever out of range.
pub const BUCKETS: usize = 64;

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge (set, not accumulated).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket, lock-free histogram over nanoseconds.
///
/// Bucket `b` holds observations in `[2^b, 2^(b+1))` nanoseconds,
/// except bucket 0 which also absorbs 0 ns (so `bucket_of(0) ==
/// bucket_of(1) == 0`) and bucket 63 which absorbs everything from
/// `2^63` up to `u64::MAX` inclusive. Quantiles are read off the
/// cumulative bucket counts at each bucket's geometric midpoint; the
/// log₂ bucketing bounds the relative error of any reported quantile
/// by 2×, which is plenty to compare backends and thread counts.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    total_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The bucket an observation of `ns` nanoseconds lands in:
    /// `⌊log₂ ns⌋`, with 0 and 1 ns both in bucket 0. In particular
    /// every power of two `2^k` lands exactly in bucket `k` — the
    /// lower *inclusive* edge of its bucket (property-tested).
    #[inline]
    pub fn bucket_of(ns: u64) -> usize {
        (64 - ns.max(1).leading_zeros() as usize).saturating_sub(1)
    }

    /// Inclusive upper bound of bucket `b` in nanoseconds — the value
    /// rendered as the Prometheus `le` boundary. `2^(b+1) - 1` for
    /// `b < 63`; the last bucket saturates to `u64::MAX` (computing
    /// `2^64 - 1` naively would overflow — this was the historical
    /// edge-behavior bug this API exists to pin down).
    #[inline]
    pub fn bucket_le_ns(b: usize) -> u64 {
        assert!(b < BUCKETS, "bucket index {b} out of range");
        if b >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (b + 1)) - 1
        }
    }

    /// Records one observation (relaxed atomics; callable from any thread).
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.counts[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-bucket counts (relaxed reads — buckets
    /// recorded concurrently may or may not be visible, each at most
    /// once).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|b| self.counts[b].load(Ordering::Relaxed))
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_ns() as f64 / n as f64
        }
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the
    /// geometric midpoint of the first bucket whose cumulative count
    /// reaches `q · total`. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum >= rank {
                // Bucket b spans [2^b, 2^(b+1)); report its geometric mean.
                let lo = (1u64 << b) as f64;
                return lo * std::f64::consts::SQRT_2;
            }
        }
        (1u64 << (BUCKETS - 1)) as f64
    }

    /// Clears every bucket and the running totals (relaxed stores).
    /// Not linearizable against concurrent [`Histogram::record_ns`]
    /// calls — an observation racing the reset may land partially and
    /// be dropped. Exists for windowed per-second slots
    /// ([`crate::SloWindows`]) where best-effort zeroing at a second
    /// boundary is acceptable; lifetime metrics never reset.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.total_ns.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    /// Merges another histogram's counts into this one, bucket by
    /// bucket — lossless because every instance shares the same fixed
    /// bucket layout (this is what lets per-run/per-worker histograms
    /// aggregate without losing fidelity).
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.counts.iter().zip(other.counts.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.total_ns
            .fetch_add(other.total_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_saturate_without_overflow() {
        assert_eq!(Histogram::bucket_le_ns(0), 1);
        assert_eq!(Histogram::bucket_le_ns(1), 3);
        assert_eq!(Histogram::bucket_le_ns(10), 2047);
        // The last bucket's bound must saturate, not wrap: 2^64 - 1
        // is not representable via 1 << 64.
        assert_eq!(Histogram::bucket_le_ns(62), (1u64 << 63) - 1);
        assert_eq!(Histogram::bucket_le_ns(63), u64::MAX);
    }

    #[test]
    fn quantiles_bound_observations() {
        let h = Histogram::new();
        for ns in [100u64, 200, 300, 400, 10_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5);
        // Median observation is 300 ns → bucket (256, 512]; within 2×.
        assert!((150.0..=600.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((5_000.0..=20_000.0).contains(&p99), "p99 = {p99}");
        assert!((h.mean_ns() - 2200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.5), 0.0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.total_ns(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_ns(100);
        b.record_ns(1000);
        b.record_ns(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean_ns() - 3100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 1..=1000u64 {
                        h.record_ns(i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 4000);
    }
}
