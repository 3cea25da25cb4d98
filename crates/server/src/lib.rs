//! **Concurrent query serving** over the workspace's shortest-path indexes.
//!
//! The paper's claim is that Arterial Hierarchies make exact road-network
//! queries fast enough for *practice* — and practice means sustained
//! concurrent traffic, not one query at a time from a figure binary. This
//! crate is the serving layer the ROADMAP's production north star asks
//! for: many threads multiplexing queries over one immutable index.
//!
//! Five pieces compose:
//!
//! * [`DistanceBackend`] / [`BackendSession`] — the method abstraction.
//!   A backend is the shared `Sync` index half; a session is the mutable
//!   per-worker scratch (heaps, stamped arrays) created once per thread.
//!   [`AhBackend`], [`ChBackend`] and [`DijkstraBackend`] wrap the AH
//!   index, the CH hierarchy and plain bidirectional Dijkstra, and
//!   [`LabelBackend`] answers distances from hub labels and paths from
//!   the AH index, so the serving engine — and every test and benchmark
//!   built on it — treats the methods interchangeably. A session prices
//!   distances (point queries and one batched `matrix`); its knn and via
//!   answers are ranked from them by `ah_search::scenario`.
//! * [`Server`] — the engine: a `std::thread::scope` worker pool draining
//!   a [`BoundedQueue`] in batches, with a sharded LRU cache of `(s, t)`
//!   distances consulted before a distance request reaches the backend
//!   (paths and scenario answers are always computed). The feeder blocks
//!   when the bounded queue fills, making every run closed-loop.
//! * [`ServerMetrics`] — lock-free telemetry over the `ah_obs`
//!   substrate: log₂-bucket latency and queue-wait histograms
//!   (p50/p95/p99), scenario counts and the per-kind cost ledger (which
//!   also carries the cache probes and hits), each series created once
//!   in the server's [`ah_obs::Registry`], with deterministic 1-in-N
//!   request tracing ([`ah_obs::Tracer`]) threaded through the queue
//!   via [`Job`] (see `docs/OBSERVABILITY.md`).
//! * [`SnapshotServer`] — the lifecycle layer over `ah_store` snapshots:
//!   [`Server::from_snapshot`] restarts a server from a persisted index
//!   without paying the build, and an atomic index swap (with cache
//!   invalidation) reindexes under live traffic with zero downtime. It
//!   serves one [`Tier`]: AH, or — between a delta reload's first
//!   publish and its AH upgrade — CH under the serving order.
//! * [`ShardedServer`] — one [`Server`] over the [`ShardedBackend`]
//!   (`ah_shard`): each pair is routed inside its session, same-shard
//!   pairs answered from that shard's index and cross-shard answers
//!   composed exactly through boundary nodes; the pool is fed in
//!   source-shard order. `docs/SHARDING.md` is the operator's guide.
//!
//! ```
//! use ah_core::{AhIndex, BuildConfig};
//! use ah_server::{AhBackend, Request, Server, ServerConfig};
//!
//! let g = ah_data::fixtures::lattice(6, 6, 12);
//! let idx = AhIndex::build(&g, &BuildConfig::default());
//! let server = Server::new(ServerConfig::with_workers(4));
//! let requests: Vec<Request> = (0..64)
//!     .map(|i| Request::distance(i, (i % 36) as u32, ((i * 5 + 2) % 36) as u32))
//!     .collect();
//! let report = server.run(&AhBackend::new(&idx), &requests);
//! assert_eq!(report.responses.len(), 64);
//! assert!(report.snapshot.qps > 0.0);
//! ```

mod backend;
mod cache;
mod metrics;
mod queue;
mod reload;
mod server;
mod sharded;
mod snapshot;

pub use backend::{
    AhBackend, BackendSession, ChBackend, DelayBackend, DijkstraBackend, DistanceBackend,
    LabelBackend,
};
pub use metrics::{CostMetrics, LatencyHistogram, MetricsSnapshot, ServerMetrics};
pub use queue::{BoundedQueue, TryPushError};
pub use server::{
    trace_kind, Job, MatrixRequest, QueryKind, Request, Response, RunReport, ScenarioResult,
    Server, ServerConfig,
};

// Re-exported so scenario consumers (the edge, workloads, benches) can
// name the POI wire contract and the via answer without depending on
// `ah_search` directly.
pub use ah_search::{PoiSet, ScenarioEngine, ViaAnswer, POI_CATEGORIES, POI_SEED};

// Re-exported so serving-layer callers (the edge, the bench bins) can
// configure tracing and inspect spans without naming `ah_obs` as a
// separate dependency.
pub use ah_obs::{
    now_ns, CostCounters, Registry, SloPolicy, SloStatus, SloWindows, Span, SpanRecord, Stage,
    TraceConfig, Tracer, WindowStats, COST_FIELD_NAMES, NUM_COST_FIELDS,
};
pub use sharded::{ShardedBackend, ShardedRunReport, ShardedServer, ShardedServerConfig};
pub use reload::{DeltaReloader, ReloadError, ReloadOutcome};
pub use snapshot::{SnapshotBackend, SnapshotServer, Tier};
