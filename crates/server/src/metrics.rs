//! Serving telemetry over the `ah_obs` substrate.
//!
//! Workers record each query's wall-clock latency into a shared
//! [`LatencyHistogram`] (the log₂-bucket `ah_obs::Histogram` — relaxed
//! atomic increments only, no locks on the hot path, bucket layout
//! property-tested in `ah_obs`), and the queue records each job's
//! enqueue→dequeue wait into a second one. All fields are `Arc`s so
//! the same metric objects can live in a [`ah_obs::Registry`] and be
//! rendered as Prometheus text (`_bucket`/`_sum`/`_count` series) by
//! the edge while workers keep writing to them lock-free.

use std::sync::Arc;

use ah_obs::{CostCounters, Counter, Gauge, Metric, Registry, COST_FIELD_NAMES, NUM_COST_FIELDS};

/// The serving layer's latency histogram — a re-export of
/// [`ah_obs::Histogram`], kept under its historical name. Buckets are
/// `⌊log₂ ns⌋`; see [`ah_obs::Histogram::bucket_of`] for the
/// documented (and property-tested) boundary contract.
pub use ah_obs::Histogram as LatencyHistogram;

/// Shared serving counters, updated by all workers.
///
/// Every field is an `Arc` so the identical objects can be registered
/// in an [`ah_obs::Registry`] (shared with the edge)
/// while remaining plain lock-free metrics on the worker hot path.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Latency of every query (cache hits included — they are part of the
    /// service-time distribution a client observes).
    pub latency: Arc<LatencyHistogram>,
    /// Enqueue→dequeue wait of every job that passed through a queue
    /// with [`crate::BoundedQueue::set_wait_histogram`] attached —
    /// queue saturation as a *latency*, not just a depth gauge.
    pub queue_wait: Arc<LatencyHistogram>,
    /// Distance and via queries answered from the cache — the one
    /// ledger of cache outcomes ([`crate::Server::cache_hit_rate`]
    /// reads it). Path, knn and matrix requests never probe the cache
    /// and are excluded from both counters.
    pub cache_hits: Arc<Counter>,
    /// Distance and via queries that went to the backend.
    pub cache_misses: Arc<Counter>,
    /// Requests refused at admission because the bounded queue was full
    /// (the edge answers these with 429). Always 0 for closed-loop runs,
    /// whose feeder blocks instead of rejecting.
    pub rejected: Arc<Counter>,
    /// Via-detour scenario requests served (`QueryKind::Via`).
    pub via_requests: Arc<Counter>,
    /// k-nearest-POI scenario requests served (`QueryKind::Knn`).
    pub knn_requests: Arc<Counter>,
    /// Batched distance-table requests served (`QueryKind::Matrix`) —
    /// counted per request, not per cell.
    pub matrix_requests: Arc<Counter>,
    /// Deepest the request queue has been — saturation headroom. A
    /// high-water mark at the queue's capacity means admission control
    /// engaged (or was one request away from engaging).
    pub queue_high_water: Arc<Gauge>,
    /// Queue depth when the metrics were last sampled (a gauge, not a
    /// counter; 0 after a drained run).
    pub queue_depth: Arc<Gauge>,
    /// Per-kind algorithmic cost totals (the `ah_query_*` families):
    /// what each request class *did* — nodes settled, edges relaxed,
    /// label entries merged — not just how long it took.
    pub cost: CostMetrics,
}

/// Request-kind names indexing [`CostMetrics`] rows; the order matches
/// the trace-span kind ids (`ah_obs` span `kind` word).
pub const COST_KIND_NAMES: [&str; 5] = ["distance", "path", "via", "knn", "matrix"];

/// Lock-free per-kind aggregation of [`CostCounters`]: one atomic
/// counter per `(request kind, cost field)` pair, rendered as one
/// Prometheus family per field (`ah_query_settled_nodes`,
/// `ah_query_relaxed_edges`, …) with a `kind` label on each series.
#[derive(Debug)]
pub struct CostMetrics {
    /// `counters[kind][field]`, kinds indexed by [`COST_KIND_NAMES`],
    /// fields by [`ah_obs::COST_FIELD_NAMES`].
    counters: Vec<[Arc<Counter>; NUM_COST_FIELDS]>,
}

impl Default for CostMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl CostMetrics {
    /// Creates zeroed per-kind cost counters.
    pub fn new() -> Self {
        CostMetrics {
            counters: (0..COST_KIND_NAMES.len())
                .map(|_| std::array::from_fn(|_| Arc::new(Counter::new())))
                .collect(),
        }
    }

    /// Folds one drained per-query tally into the `kind` row. Out-of-range
    /// kinds (future span ids) are dropped rather than misattributed.
    pub fn record(&self, kind: usize, cost: &CostCounters) {
        let Some(row) = self.counters.get(kind) else {
            return;
        };
        for (counter, v) in row.iter().zip(cost.as_array()) {
            if v > 0 {
                counter.add(v);
            }
        }
    }

    /// The accumulated tally for one request kind.
    pub fn kind_total(&self, kind: usize) -> CostCounters {
        let mut arr = [0u64; NUM_COST_FIELDS];
        if let Some(row) = self.counters.get(kind) {
            for (slot, counter) in arr.iter_mut().zip(row) {
                *slot = counter.get();
            }
        }
        CostCounters::from_array(arr)
    }

    /// The accumulated tally summed across every request kind.
    pub fn total(&self) -> CostCounters {
        let mut c = CostCounters::default();
        for kind in 0..COST_KIND_NAMES.len() {
            c.merge(&self.kind_total(kind));
        }
        c
    }

    /// Adds another cost table's counts into this one.
    pub fn merge_from(&self, other: &CostMetrics) {
        for (mine, theirs) in self.counters.iter().zip(&other.counters) {
            for (counter, v) in mine.iter().zip(theirs) {
                counter.add(v.get());
            }
        }
    }

    /// Registers one `ah_query_<field>` counter family per cost field,
    /// each with one series per request kind (a `kind` label).
    pub fn register_into(&self, reg: &Registry) {
        for (field, name) in COST_FIELD_NAMES.iter().enumerate() {
            let family = format!("ah_query_{name}");
            let help = format!("Per-query algorithmic cost: {name}, by request kind");
            for (kind, kind_name) in COST_KIND_NAMES.iter().enumerate() {
                reg.register(
                    &family,
                    &[("kind", kind_name)],
                    &help,
                    Metric::Counter(Arc::clone(&self.counters[kind][field])),
                );
            }
        }
    }
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another metrics object's counts into this one (used to roll a
    /// per-run measurement into the server's lifetime totals). Counters
    /// add, histograms merge bucket-by-bucket (lossless — same layout),
    /// the queue high-water takes the max of the two marks and the
    /// depth gauge takes the other's (more recent) sample.
    pub fn merge_from(&self, other: &ServerMetrics) {
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.cache_hits.add(other.cache_hits.get());
        self.cache_misses.add(other.cache_misses.get());
        self.rejected.add(other.rejected.get());
        self.via_requests.add(other.via_requests.get());
        self.knn_requests.add(other.knn_requests.get());
        self.matrix_requests.add(other.matrix_requests.get());
        self.queue_high_water.set_max(other.queue_high_water.get());
        self.queue_depth.set(other.queue_depth.get());
        self.cost.merge_from(&other.cost);
    }

    /// Folds a queue's saturation state into the metrics: the depth
    /// gauge is overwritten, the high-water mark maxed, and the
    /// rejected counter **added**. Call exactly once per queue, at the
    /// end of its life (a closed-loop run, one edge `serve`): adding
    /// rather than storing means a server reused across several queues
    /// accumulates rejections instead of forgetting earlier runs'.
    pub fn record_queue<T: Send>(&self, queue: &crate::BoundedQueue<T>) {
        self.queue_depth.set(queue.len() as u64);
        self.queue_high_water.set_max(queue.high_water() as u64);
        self.rejected.add(queue.rejected());
    }

    /// Registers the metrics under their stable names (see
    /// `docs/OBSERVABILITY.md`):
    /// `ah_server_query_latency_seconds` and `ah_queue_wait_seconds`
    /// as real Prometheus histograms, the cache outcomes as counters.
    /// Re-registering (e.g. a fresh per-run `ServerMetrics`) replaces
    /// the previous series instead of double-counting.
    pub fn register_into(&self, reg: &Registry) {
        reg.register(
            "ah_server_query_latency_seconds",
            &[],
            "Per-query service time (cache hits included)",
            Metric::Histogram(Arc::clone(&self.latency)),
        );
        reg.register(
            "ah_queue_wait_seconds",
            &[],
            "Enqueue-to-dequeue wait in the bounded worker queue",
            Metric::Histogram(Arc::clone(&self.queue_wait)),
        );
        reg.register(
            "ah_server_cache_hits_total",
            &[],
            "Distance queries answered from the cache",
            Metric::Counter(Arc::clone(&self.cache_hits)),
        );
        reg.register(
            "ah_server_cache_misses_total",
            &[],
            "Distance queries computed by the backend",
            Metric::Counter(Arc::clone(&self.cache_misses)),
        );
        // One series per scenario kind, distinguished by a `scenario`
        // label.
        for (scenario, counter) in [
            ("via", &self.via_requests),
            ("knn", &self.knn_requests),
            ("matrix", &self.matrix_requests),
        ] {
            reg.register(
                "ah_server_scenario_requests_total",
                &[("scenario", scenario)],
                "Scenario queries served, by kind",
                Metric::Counter(Arc::clone(counter)),
            );
        }
        self.cost.register_into(reg);
    }

    /// Immutable snapshot for reporting.
    pub fn snapshot(&self, wall_secs: f64) -> MetricsSnapshot {
        let count = self.latency.count();
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        MetricsSnapshot {
            queries: count,
            wall_secs,
            qps: if wall_secs > 0.0 {
                count as f64 / wall_secs
            } else {
                0.0
            },
            p50_us: self.latency.quantile_ns(0.50) / 1e3,
            p99_us: self.latency.quantile_ns(0.99) / 1e3,
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            rejected: self.rejected.get(),
            scenario_via: self.via_requests.get(),
            scenario_knn: self.knn_requests.get(),
            scenario_matrix: self.matrix_requests.get(),
            queue_high_water: self.queue_high_water.get(),
            queue_depth: self.queue_depth.get(),
            queue_wait_mean_us: self.queue_wait.mean_ns() / 1e3,
        }
    }
}

/// Point-in-time view of [`ServerMetrics`] plus derived rates.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries served.
    pub queries: u64,
    /// Wall-clock duration of the measured run, in seconds.
    pub wall_secs: f64,
    /// Aggregate throughput over the run (queries / wall second).
    pub qps: f64,
    /// Median per-query latency, microseconds (log₂-bucket resolution).
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Distance queries answered from cache.
    pub cache_hits: u64,
    /// Distance queries sent to the backend.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, over distance queries
    /// (the only kind that probes the cache).
    pub cache_hit_rate: f64,
    /// Requests refused at admission (bounded queue full → 429 at the
    /// edge). 0 for closed-loop runs.
    pub rejected: u64,
    /// Via-detour scenario requests served.
    pub scenario_via: u64,
    /// k-nearest-POI scenario requests served.
    pub scenario_knn: u64,
    /// Batched distance-table requests served.
    pub scenario_matrix: u64,
    /// Deepest the request queue has been.
    pub queue_high_water: u64,
    /// Queue depth at sampling time (0 after a drained run).
    pub queue_depth: u64,
    /// Mean enqueue→dequeue wait, microseconds (0 when no wait
    /// histogram was attached to the queue).
    pub queue_wait_mean_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_bound_observations() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400, 10_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ns(0.5);
        // Median observation is 300 ns → bucket (256, 512]; within 2×.
        assert!(p50 >= 150.0 && p50 <= 600.0, "p50 = {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 5_000.0 && p99 <= 20_000.0, "p99 = {p99}");
        assert!((h.mean_ns() - 2200.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record_ns(100);
        b.record_ns(1000);
        b.record_ns(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean_ns() - 3100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
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
    }

    #[test]
    fn snapshot_derives_rates() {
        let m = ServerMetrics::new();
        m.latency.record_ns(1_000);
        m.latency.record_ns(2_000);
        m.cache_hits.inc();
        m.cache_misses.inc();
        m.queue_wait.record_ns(5_000);
        let s = m.snapshot(2.0);
        assert_eq!(s.queries, 2);
        assert!((s.qps - 1.0).abs() < 1e-12);
        assert!((s.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!((s.queue_wait_mean_us - 5.0).abs() < 1e-12);
        assert_eq!((s.rejected, s.queue_high_water), (0, 0));
    }

    #[test]
    fn record_queue_samples_saturation() {
        let q: crate::BoundedQueue<u8> = crate::BoundedQueue::new(2);
        q.push(1);
        q.push(2);
        let _ = q.try_push(3); // rejected
        let m = ServerMetrics::new();
        m.record_queue(&q);
        let s = m.snapshot(1.0);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_high_water, 2);
        assert_eq!(s.rejected, 1);

        // Merging keeps the deeper high-water mark and adds rejections.
        let total = ServerMetrics::new();
        total.queue_high_water.set(5);
        total.merge_from(&m);
        assert_eq!(total.queue_high_water.get(), 5);
        assert_eq!(total.rejected.get(), 1);
    }

    #[test]
    fn registered_metrics_render_as_histograms() {
        let m = ServerMetrics::new();
        m.latency.record_ns(1_500);
        m.queue_wait.record_ns(800);
        m.cache_hits.inc();
        let reg = ah_obs::Registry::new();
        m.register_into(&reg);
        let text = reg.render();
        assert!(
            text.contains("# TYPE ah_server_query_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("ah_server_query_latency_seconds_bucket{le="),
            "{text}"
        );
        assert!(text.contains("ah_server_query_latency_seconds_count 1"), "{text}");
        assert!(text.contains("ah_queue_wait_seconds_bucket{le="), "{text}");
        assert!(text.contains("ah_server_cache_hits_total 1"), "{text}");
    }
}
