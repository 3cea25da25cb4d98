//! `ah_obs` — the observability substrate for the serving stack.
//!
//! Dependency-free tracing + metrics, shared by the HTTP edge
//! (`ah_net`) and the worker pool (`ah_server`):
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: lock-free primitives
//!   (relaxed atomics, no per-observation allocation). The histogram is
//!   the log₂-bucket latency histogram the serving layer has always
//!   used, now with *documented, property-tested* bucket boundaries
//!   ([`Histogram::bucket_of`] / [`Histogram::bucket_le_ns`]) so
//!   per-run and per-worker instances can be merged and rendered
//!   without guessing.
//! - [`Registry`]: named metric families with per-series labels
//!   (`kind`, `stage`, `code`, …), each created once by the part that
//!   owns it, rendered as Prometheus text — including real
//!   `_bucket`/`le` series derived from the histogram buckets.
//! - [`Tracer`] / [`Span`]: deterministic 1-in-N sampled request
//!   traces. Each sampled request carries a fixed-size [`SpanRecord`]
//!   with monotonic stage timestamps (parse → enqueue → dequeue →
//!   cache probe → compute → serialize → flush) stamped from one
//!   process-wide monotonic epoch ([`now_ns`]). Finished spans land in
//!   a lock-free seqlock ring ([`SpanRing`]) feeding the
//!   `/debug/traces` endpoint and a threshold-gated slow-query log;
//!   per-stage durations feed `ah_stage_duration_seconds` histograms
//!   in the registry.
//! - [`CostCounters`]: per-query *algorithmic* cost tallies (nodes
//!   settled, edges relaxed, label entries merged, shard hops, …) that
//!   the search kernels fill in and the serving layer aggregates into
//!   `ah_query_*` families — the paper's search-space metric made
//!   observable in production.
//! - [`SloWindows`] / [`SloPolicy`]: a lock-free ring of per-second
//!   aggregate slots (request/error counts + latency histograms)
//!   evaluated with multi-window burn rates against latency and
//!   error-budget objectives, feeding `/debug/slo` and the `/readyz`
//!   degradation decision.
//! - [`json_string`]: the one JSON string escaper the hand-rolled
//!   documents (`/debug/slo`, the edge's admin replies) share.
//!
//! See `docs/OBSERVABILITY.md` for the metric-name catalog, label
//! schema, trace record layout, and sampling/overhead guidance.

mod clock;
mod cost;
mod json;
mod metrics;
mod registry;
mod slo;
mod trace;

pub use clock::now_ns;
pub use cost::{CostCounters, COST_FIELD_NAMES, NUM_COST_FIELDS};
pub use json::json_string;
pub use metrics::{Counter, Gauge, Histogram, BUCKETS};
pub use registry::Registry;
pub use slo::{SloPolicy, SloStatus, SloWindows, WindowStats};
pub use trace::{
    Span, SpanRecord, SpanRing, Stage, TraceConfig, Tracer, INTERVAL_NAMES, KIND_NAMES,
    NUM_STAGES, STAGE_NAMES,
};
