//! Serving telemetry over the `ah_obs` substrate.
//!
//! Workers record each query's wall-clock latency into a shared
//! [`LatencyHistogram`] (the log₂-bucket `ah_obs::Histogram` — relaxed
//! atomic increments only, no locks on the hot path, bucket layout
//! property-tested in `ah_obs`), and the queue records each job's
//! enqueue→dequeue wait into a second one. [`ServerMetrics::new`]
//! creates every series in the server's [`Registry`], so the edge
//! renders them as Prometheus text (`_bucket`/`_sum`/`_count` series)
//! while workers keep writing to them lock-free.

use std::sync::Arc;

use ah_obs::{CostCounters, Counter, Registry, COST_FIELD_NAMES, KIND_NAMES, NUM_COST_FIELDS};

/// The serving layer's latency histogram — a re-export of
/// [`ah_obs::Histogram`], kept under its historical name. Buckets are
/// `⌊log₂ ns⌋`; see [`ah_obs::Histogram::bucket_of`] for the
/// documented (and property-tested) boundary contract.
pub use ah_obs::Histogram as LatencyHistogram;

/// Shared serving counters, updated by all workers.
///
/// Each quantity has one ledger: cache outcomes are the `cache_probes`
/// / `cache_hits` rows of [`ServerMetrics::cost`], queries served are
/// the latency histogram's count, and the queue's depth, high-water
/// mark and rejections are read off the [`crate::BoundedQueue`] itself.
/// [`ServerMetrics::new`] creates the series in a registry;
/// `ServerMetrics::default()` builds an unregistered set (one run's
/// measurement, folded into the lifetime set by
/// [`ServerMetrics::merge_from`]).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Latency of every query (cache hits included — they are part of the
    /// service-time distribution a client observes).
    pub latency: Arc<LatencyHistogram>,
    /// Enqueue→dequeue wait of every job that passed through a queue
    /// with [`crate::BoundedQueue::set_wait_histogram`] attached —
    /// queue saturation as a *latency*, not just a depth gauge.
    pub queue_wait: Arc<LatencyHistogram>,
    /// Via-detour scenario requests served (`QueryKind::Via`).
    pub via_requests: Arc<Counter>,
    /// k-nearest-POI scenario requests served (`QueryKind::Knn`).
    pub knn_requests: Arc<Counter>,
    /// Batched distance-table requests served (`QueryKind::Matrix`) —
    /// counted per request, not per cell.
    pub matrix_requests: Arc<Counter>,
    /// Per-kind algorithmic cost totals (the `ah_query_*` families):
    /// what each request class *did* — nodes settled, edges relaxed,
    /// label entries merged, cache probes and hits — not just how long
    /// it took.
    pub cost: CostMetrics,
}

/// Lock-free per-kind aggregation of [`CostCounters`]: one atomic
/// counter per `(request kind, cost field)` pair, rendered as one
/// Prometheus family per field (`ah_query_settled_nodes`,
/// `ah_query_relaxed_edges`, …) with a `kind` label on each series.
#[derive(Debug, Default)]
pub struct CostMetrics {
    /// `counters[kind][field]`, kinds indexed by [`KIND_NAMES`],
    /// fields by [`ah_obs::COST_FIELD_NAMES`].
    counters: [[Arc<Counter>; NUM_COST_FIELDS]; KIND_NAMES.len()],
}

impl CostMetrics {
    /// Creates one `ah_query_<field>` counter family per cost field in
    /// `reg`, each with one series per request kind (a `kind` label).
    pub fn new(reg: &Registry) -> Self {
        CostMetrics {
            counters: std::array::from_fn(|kind| {
                std::array::from_fn(|field| {
                    let name = COST_FIELD_NAMES[field];
                    reg.counter(
                        &format!("ah_query_{name}"),
                        &[("kind", KIND_NAMES[kind])],
                        &format!("Per-query algorithmic cost: {name}, by request kind"),
                    )
                })
            }),
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
        for kind in 0..KIND_NAMES.len() {
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
}

impl ServerMetrics {
    /// Creates the serving metrics in `reg` under their stable names
    /// (see `docs/OBSERVABILITY.md`): `ah_server_query_latency_seconds`
    /// and `ah_queue_wait_seconds` as Prometheus histograms, one
    /// `ah_server_scenario_requests_total` series per scenario kind, and
    /// the `ah_query_*` cost families.
    pub fn new(reg: &Registry) -> Self {
        let scenario = |name: &str| {
            reg.counter(
                "ah_server_scenario_requests_total",
                &[("scenario", name)],
                "Scenario queries served, by kind",
            )
        };
        ServerMetrics {
            latency: reg.histogram(
                "ah_server_query_latency_seconds",
                &[],
                "Per-query service time (cache hits included)",
            ),
            queue_wait: reg.histogram(
                "ah_queue_wait_seconds",
                &[],
                "Enqueue-to-dequeue wait in the bounded worker queue",
            ),
            via_requests: scenario("via"),
            knn_requests: scenario("knn"),
            matrix_requests: scenario("matrix"),
            cost: CostMetrics::new(reg),
        }
    }

    /// Folds another metrics object's counts into this one (used to roll a
    /// per-run measurement into the server's lifetime totals). Counters
    /// add, histograms merge bucket-by-bucket (lossless — same layout).
    pub fn merge_from(&self, other: &ServerMetrics) {
        self.latency.merge(&other.latency);
        self.queue_wait.merge(&other.queue_wait);
        self.via_requests.add(other.via_requests.get());
        self.knn_requests.add(other.knn_requests.get());
        self.matrix_requests.add(other.matrix_requests.get());
        self.cost.merge_from(&other.cost);
    }

    /// Immutable snapshot for reporting. `queue_high_water` reads 0
    /// here: the queue is its ledger, and [`crate::Server::run`] fills
    /// it in from the run's own queue.
    pub fn snapshot(&self, wall_secs: f64) -> MetricsSnapshot {
        let count = self.latency.count();
        let cost = self.cost.total();
        let hits = cost.cache_hits;
        let probes = cost.cache_probes;
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
            // Saturating: a snapshot racing a worker can count a hit
            // whose probe it read before the worker recorded it.
            cache_misses: probes.saturating_sub(hits),
            cache_hit_rate: if probes > 0 {
                hits as f64 / probes as f64
            } else {
                0.0
            },
            scenario_via: self.via_requests.get(),
            scenario_knn: self.knn_requests.get(),
            scenario_matrix: self.matrix_requests.get(),
            queue_high_water: 0,
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
    /// Distance queries answered from cache (Σ of the cost ledger's
    /// `cache_hits`).
    pub cache_hits: u64,
    /// Distance queries that probed the cache and went to the backend
    /// (`cache_probes − cache_hits`). 0 when the cache is off: nothing
    /// probes it.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, over the distance
    /// queries (the only kind that probes the cache).
    pub cache_hit_rate: f64,
    /// Via-detour scenario requests served.
    pub scenario_via: u64,
    /// k-nearest-POI scenario requests served.
    pub scenario_knn: u64,
    /// Batched distance-table requests served.
    pub scenario_matrix: u64,
    /// Deepest the run's request queue got (set by
    /// [`crate::Server::run`]; 0 in a lifetime snapshot).
    pub queue_high_water: u64,
    /// Mean enqueue→dequeue wait, microseconds (0 when no wait
    /// histogram was attached to the queue).
    pub queue_wait_mean_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_rates() {
        let m = ServerMetrics::default();
        m.latency.record_ns(1_000);
        m.latency.record_ns(2_000);
        m.cost.record(
            0,
            &CostCounters {
                cache_probes: 2,
                cache_hits: 1,
                ..Default::default()
            },
        );
        m.queue_wait.record_ns(5_000);
        let s = m.snapshot(2.0);
        assert_eq!(s.queries, 2);
        assert!((s.qps - 1.0).abs() < 1e-12);
        assert!((s.cache_hit_rate - 0.5).abs() < 1e-12);
        assert!((s.queue_wait_mean_us - 5.0).abs() < 1e-12);
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert_eq!(s.queue_high_water, 0);
    }

    #[test]
    fn registered_metrics_render_as_histograms() {
        let reg = Registry::new();
        let m = ServerMetrics::new(&reg);
        m.latency.record_ns(1_500);
        m.queue_wait.record_ns(800);
        m.cost.record(
            0,
            &CostCounters {
                cache_probes: 1,
                cache_hits: 1,
                ..Default::default()
            },
        );
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
        assert!(text.contains("ah_query_cache_hits{kind=\"distance\"} 1"), "{text}");
    }
}
