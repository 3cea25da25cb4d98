//! The worker pool and serving loop.
//!
//! A [`Server`] owns the shared serving state — the sharded distance cache
//! and the metrics — and runs *closed-loop* request streams against a
//! [`DistanceBackend`]: the calling thread feeds a bounded queue (blocking
//! when the pool falls behind, so the queue depth is the admission window),
//! while `workers` scoped threads drain it in batches. Each worker creates
//! one [`crate::BackendSession`] up front and reuses its heaps and stamped
//! arrays for every query it serves, exactly like the single-threaded
//! figure harnesses reuse one `AhQuery` — the index is only ever read.
//!
//! The cache and metrics persist across [`Server::run`] calls, so repeated
//! runs model a warmed-up service; [`Server::new`] starts cold.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ah_graph::NodeId;
use ah_obs::{now_ns, Registry, SloWindows, Span, Stage, TraceConfig, Tracer};
use ah_search::{PoiSet, ViaAnswer};

use crate::backend::DistanceBackend;
use crate::cache::DistanceCache;
use crate::metrics::{MetricsSnapshot, ServerMetrics};
use crate::queue::BoundedQueue;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Network distance only (cacheable).
    Distance,
    /// Full shortest path (always computed; the response keeps the hop
    /// count and distance, not the node list, to stay allocation-light).
    Path,
    /// Optimal detour `s → p → t` through the best POI `p` of category
    /// `cat` (cacheable per `(s, t, cat)`; the winning POI rides in the
    /// cache entry's aux word).
    Via {
        /// POI category to detour through.
        cat: u32,
    },
    /// The `k` nearest POIs of category `cat` from the source, by
    /// network distance (never cached — the answer is a list).
    Knn {
        /// POI category to search.
        cat: u32,
        /// Result count cap.
        k: u32,
    },
    /// A batched distance table. The endpoint sets are too big for the
    /// `Copy` request word and ride in [`Job::batch`] instead; `s` and
    /// `t` are ignored.
    Matrix,
}

/// One query in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen identifier; responses are sorted by it.
    pub id: u64,
    /// Source node.
    pub s: NodeId,
    /// Target node.
    pub t: NodeId,
    /// Distance or path.
    pub kind: QueryKind,
}

impl Request {
    /// Distance request `s → t` with identifier `id`.
    pub fn distance(id: u64, s: NodeId, t: NodeId) -> Self {
        Request {
            id,
            s,
            t,
            kind: QueryKind::Distance,
        }
    }

    /// Path request `s → t` with identifier `id`.
    pub fn path(id: u64, s: NodeId, t: NodeId) -> Self {
        Request {
            id,
            s,
            t,
            kind: QueryKind::Path,
        }
    }

    /// Via-detour request `s → best POI of cat → t`.
    pub fn via(id: u64, s: NodeId, t: NodeId, cat: u32) -> Self {
        Request {
            id,
            s,
            t,
            kind: QueryKind::Via { cat },
        }
    }

    /// k-nearest-POI request from `s` over category `cat`.
    pub fn knn(id: u64, s: NodeId, cat: u32, k: u32) -> Self {
        Request {
            id,
            s,
            t: s, // unused by knn; kept in range so generic checks pass
            kind: QueryKind::Knn { cat, k },
        }
    }

    /// Batched distance-table request; the endpoint sets travel in the
    /// enclosing [`Job::batch`].
    pub fn matrix(id: u64) -> Self {
        Request {
            id,
            s: 0,
            t: 0,
            kind: QueryKind::Matrix,
        }
    }
}

/// Endpoint sets for one [`QueryKind::Matrix`] request: the answer is
/// the full `sources × targets` table of network distances.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MatrixRequest {
    /// Row endpoints (one table row per source).
    pub sources: Vec<NodeId>,
    /// Column endpoints.
    pub targets: Vec<NodeId>,
}

/// The structured payload of a scenario answer, delivered alongside the
/// fixed-size [`Response`] word (which only carries a headline
/// distance). `None` for plain distance/path requests and for via
/// requests with no reachable POI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioResult {
    /// The winning detour: POI, total length and both legs.
    Via(ViaAnswer),
    /// Nearest POIs `(poi, distance)`, ascending by `(distance, poi)`.
    Knn(Vec<(NodeId, u64)>),
    /// The distance table, row-major over the request's sources.
    Matrix(Vec<Vec<Option<u64>>>),
}

/// The answer to one [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Identifier of the request this answers.
    pub id: u64,
    /// Network distance, `None` if the target is unreachable.
    pub distance: Option<u64>,
    /// Edge count of the returned path (path requests only).
    pub hops: Option<usize>,
    /// Whether the answer came from the distance cache.
    pub cache_hit: bool,
}

/// One unit of queued work: the request, its (optional) sampled trace
/// span, and the producer's opaque routing tag.
///
/// The span rides *inside* the queue so stage stamps survive the
/// producer→worker handoff: the edge stamps [`Stage::Enqueue`] before
/// pushing, the worker stamps [`Stage::Dequeue`] after popping, and
/// the compute stages in between — one `Box` move per sampled request,
/// nothing at all for unsampled ones.
#[derive(Debug)]
pub struct Job<T> {
    /// The query to serve.
    pub req: Request,
    /// Endpoint sets for [`QueryKind::Matrix`] requests (boxed: matrix
    /// requests are rare and heavy; everything else pays one `None`).
    pub batch: Option<Box<MatrixRequest>>,
    /// Sampled trace span (`None` for the 1 − 1/N unsampled majority).
    pub span: Option<Box<Span>>,
    /// Opaque routing state returned to the producer with the
    /// response (the edge uses it to find the connection and pipeline
    /// slot the answer belongs to).
    pub tag: T,
}

/// Serving parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (`0` is clamped to 1).
    pub workers: usize,
    /// Bounded queue depth — the closed-loop admission window.
    pub queue_capacity: usize,
    /// Total distance-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Requests a worker claims per queue lock (amortizes contention).
    pub batch_size: usize,
    /// Request-tracing knobs (deterministic 1-in-N span sampling, the
    /// recent-trace ring behind `/debug/traces`, and the slow-query
    /// threshold). `sample_every: 0` disables tracing entirely.
    pub trace: TraceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
            queue_capacity: 1024,
            cache_capacity: 64 * 1024,
            batch_size: 32,
            trace: TraceConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Config with an explicit worker count and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        ServerConfig {
            workers,
            ..Default::default()
        }
    }
}

/// Outcome of one [`Server::run`] call.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One response per request, sorted by request id.
    pub responses: Vec<Response>,
    /// Wall-clock seconds from first enqueue to last response.
    pub wall_secs: f64,
    /// Telemetry accumulated *during this run only*.
    pub snapshot: MetricsSnapshot,
}

/// A multi-threaded query server over one immutable index.
pub struct Server {
    cfg: ServerConfig,
    cache: Option<DistanceCache>,
    metrics: ServerMetrics,
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    slo: Arc<SloWindows>,
}

impl Server {
    /// Creates a cold server (empty cache, zeroed metrics) with its own
    /// metric registry, in which its lifetime metrics and its tracer's
    /// stage histograms are created. A [`crate::DeltaReloader`] adds its
    /// series to the same registry ([`Server::registry`]).
    pub fn new(cfg: ServerConfig) -> Self {
        let cache = (cfg.cache_capacity > 0).then(|| DistanceCache::new(cfg.cache_capacity));
        let registry = Arc::new(Registry::new());
        let metrics = ServerMetrics::new(&registry);
        let tracer = Arc::new(Tracer::new(cfg.trace.clone(), &registry));
        Server {
            cfg,
            cache,
            metrics,
            registry,
            tracer,
            slo: Arc::new(SloWindows::new()),
        }
    }

    /// Telemetry accumulated over the server's lifetime (all runs).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The metric registry this server reports into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The request tracer (sampling collector + recent-trace ring).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The rolling per-second window ring every served query feeds.
    /// The edge shares this ring so its rejections (429/503) land in
    /// the same error-rate windows the SLO policy evaluates.
    pub fn slo_windows(&self) -> &Arc<SloWindows> {
        &self.slo
    }

    /// Lifetime cache hit rate over the distance and via requests
    /// served (0 when caching is disabled: nothing probes the cache).
    pub fn cache_hit_rate(&self) -> f64 {
        self.metrics.snapshot(0.0).cache_hit_rate
    }

    /// Drops every cached distance. Must be called whenever the backend's
    /// underlying index changes (snapshot swap, reindex): cached answers
    /// describe the *old* network, and serving them against the new one
    /// would silently return stale distances.
    pub fn reset_cache(&self) {
        if let Some(c) = &self.cache {
            c.clear();
        }
    }

    /// Serves every request in `requests` on the worker pool and returns
    /// the responses sorted by request id.
    ///
    /// Requests naming nodes outside the backend's network are answered
    /// with `distance: None` without reaching the backend. The call is
    /// synchronous: it returns once the stream is fully served. Panics in
    /// worker threads (a backend bug) propagate — a drop guard closes the
    /// queue during unwinding so neither the feeder nor the surviving
    /// workers can block on a dead peer.
    pub fn run(&self, backend: &dyn DistanceBackend, requests: &[Request]) -> RunReport {
        let workers = self.cfg.workers.max(1);
        let num_nodes = backend.num_nodes();
        // One synthetic POI set per run, shared read-only by the pool —
        // the deterministic wire contract every client can reproduce.
        let pois = PoiSet::default_for(num_nodes);
        let queue: BoundedQueue<Job<()>> = BoundedQueue::new(self.cfg.queue_capacity);
        let run_metrics = ServerMetrics::default();
        // Queue-wait latency flows into this run's own histogram (and is
        // merged into the lifetime metrics below with everything else).
        queue.set_wait_histogram(Arc::clone(&run_metrics.queue_wait));
        let results: Mutex<Vec<Response>> = Mutex::new(Vec::with_capacity(requests.len()));
        // Workers build their sessions (O(n) allocations) before this
        // barrier; the clock starts after it, so wall_secs measures
        // serving, not pool startup — otherwise higher worker counts pay
        // proportionally more untimed-work inside the timed window and
        // short runs under-report their scaling.
        let ready = std::sync::Barrier::new(workers + 1);

        let mut start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _close = CloseOnPanic(&queue);
                    // If make_session panics, this guard still reaches the
                    // barrier during unwinding so the feeder is not
                    // stranded waiting for a dead worker.
                    let mut at_barrier = BarrierOnUnwind {
                        barrier: &ready,
                        armed: true,
                    };
                    let mut session = backend.make_session();
                    ready.wait();
                    at_barrier.armed = false;
                    let mut local: Vec<Response> = Vec::new();
                    // Closed-loop runs keep only the fixed-size response
                    // word (scenario payloads are for open-loop consumers,
                    // the edge) and have no serialize/flush stages — the
                    // (honest, partial) span finishes right after compute.
                    self.drain(
                        session.as_mut(),
                        num_nodes,
                        &pois,
                        &queue,
                        &run_metrics,
                        |(), resp, _payload, span| {
                            local.push(resp);
                            if let Some(s) = span {
                                self.tracer.finish(s, 200);
                            }
                        },
                    );
                    results.lock().unwrap().append(&mut local);
                });
            }
            ready.wait();
            start = Instant::now();
            // Closed-loop feeder: the run thread itself back-pressures on
            // the bounded queue. If every worker died, push returns false
            // (their guards closed the queue) and feeding stops.
            for req in requests {
                let mut span = self.tracer.start(trace_kind(req.kind));
                if let Some(s) = span.as_deref_mut() {
                    s.stamp(Stage::Enqueue);
                }
                if !queue.push(Job {
                    req: *req,
                    batch: None,
                    span,
                    tag: (),
                }) {
                    break;
                }
            }
            queue.close();
        });
        let wall_secs = start.elapsed().as_secs_f64();

        // Fold this run's telemetry into the server's lifetime metrics in
        // one step, keeping the per-query loop down to one histogram.
        self.metrics.merge_from(&run_metrics);

        let mut responses = results.into_inner().unwrap();
        responses.sort_unstable_by_key(|r| r.id);
        let mut snapshot = run_metrics.snapshot(wall_secs);
        // Closed-loop runs never reject, but the high-water mark shows
        // how hard the feeder leaned on the back-pressure.
        snapshot.queue_high_water = queue.high_water() as u64;
        RunReport {
            responses,
            wall_secs,
            snapshot,
        }
    }

    /// Open-loop worker entry: drains `queue` until it is closed *and*
    /// empty, serving each [`Job`] against `backend` through this
    /// server's cache and lifetime metrics, and handing every completed
    /// `(tag, Response, span)` to `on_done`. The tag is opaque routing
    /// state (the network edge uses it to find the connection and
    /// pipeline slot a response belongs to); the span — present for
    /// sampled requests — has its dequeue/cache/compute stages stamped
    /// here and is returned so the producer can stamp serialize/flush
    /// and finish it once the bytes hit the socket.
    ///
    /// This is the backend-session handoff an open service builds on:
    /// producers admit work with [`BoundedQueue::try_push`] (answering
    /// overload themselves when it returns `Full`), while one thread per
    /// worker runs `serve_queue`, each with its own reusable
    /// [`crate::BackendSession`]. Scenario requests (via / knn /
    /// matrix) deliver their structured answer as the third `on_done`
    /// argument; plain distance and path requests pass `None` there.
    ///
    /// **Graceful-shutdown ordering** — drain before exit, in this
    /// order, so no accepted request is ever dropped:
    ///
    /// 1. the producer stops accepting new work (edge: stops reading
    ///    sockets, closes its listener);
    /// 2. [`BoundedQueue::close`] — late producers fail fast, the
    ///    admitted backlog stays;
    /// 3. workers drain the backlog and flush their in-flight batches
    ///    (`pop_batch` keeps returning items after `close` until the
    ///    buffer is empty), delivering every completion, then return;
    /// 4. the caller flushes what `on_done` delivered and only then
    ///    closes connections.
    ///
    /// For a hard stop that discards the backlog instead, use
    /// [`BoundedQueue::abort`] — it returns the dropped items so the
    /// caller can still answer their originators (e.g. with 503s).
    /// If this worker (or the backend underneath it) panics, a drop
    /// guard closes the queue — the same guard [`Server::run`]'s
    /// workers hold — so producers observe
    /// [`BoundedQueue::is_closed`] and can fail fast instead of waiting
    /// forever for completions a dead worker will never deliver.
    pub fn serve_queue<T: Send>(
        &self,
        backend: &dyn DistanceBackend,
        queue: &BoundedQueue<Job<T>>,
        on_done: impl FnMut(T, Response, Option<Box<ScenarioResult>>, Option<Box<Span>>),
    ) {
        let _guard = CloseOnPanic(queue);
        let num_nodes = backend.num_nodes();
        let pois = PoiSet::default_for(num_nodes);
        let mut session = backend.make_session();
        self.drain(
            session.as_mut(),
            num_nodes,
            &pois,
            queue,
            &self.metrics,
            on_done,
        );
    }

    /// The one worker loop: pops batches off `queue` until it is closed
    /// *and* empty, stamps [`Stage::Dequeue`], serves each job through
    /// [`timed_serve`] into `metrics` (a run's own, or the lifetime
    /// set), and hands the completion to `on_done`.
    fn drain<T: Send>(
        &self,
        session: &mut dyn crate::backend::BackendSession,
        num_nodes: usize,
        pois: &PoiSet,
        queue: &BoundedQueue<Job<T>>,
        metrics: &ServerMetrics,
        mut on_done: impl FnMut(T, Response, Option<Box<ScenarioResult>>, Option<Box<Span>>),
    ) {
        let mut batch: Vec<Job<T>> = Vec::with_capacity(self.cfg.batch_size);
        while queue.pop_batch(self.cfg.batch_size, &mut batch) > 0 {
            for job in batch.drain(..) {
                let Job {
                    req,
                    batch: endpoints,
                    mut span,
                    tag,
                } = job;
                if let Some(s) = span.as_deref_mut() {
                    s.stamp(Stage::Dequeue);
                }
                let (resp, payload) = timed_serve(
                    &req,
                    endpoints.as_deref(),
                    num_nodes,
                    pois,
                    session,
                    self.cache.as_ref(),
                    metrics,
                    &self.slo,
                    span.as_deref_mut(),
                );
                on_done(tag, resp, payload, span);
            }
        }
    }
}

/// Closes the queue if the owning worker is unwinding from a panic (and
/// only then), so a dying worker can never leave the producer blocked on
/// a full queue, waiting for completions that will never come, or its
/// peers parked on an empty one. On a normal exit this is a no-op: the
/// producer closes the queue after the last request.
struct CloseOnPanic<'a, T: Send>(&'a BoundedQueue<T>);

impl<T: Send> Drop for CloseOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Reaches the ready barrier during a panic unwind if the worker died
/// before its normal `wait()` call (i.e. inside `make_session`), so the
/// barrier's member count still adds up and the feeder proceeds.
struct BarrierOnUnwind<'a> {
    barrier: &'a std::sync::Barrier,
    armed: bool,
}

impl Drop for BarrierOnUnwind<'_> {
    fn drop(&mut self) {
        if self.armed && std::thread::panicking() {
            self.barrier.wait();
        }
    }
}

/// Trace-span kind code for a query (the tracer groups its per-stage
/// histograms and slow-query ring entries by this). Public so edges
/// admitting jobs directly into a [`BoundedQueue`] start their spans
/// with the same codes the closed-loop engine uses.
pub fn trace_kind(kind: QueryKind) -> u8 {
    match kind {
        QueryKind::Distance => 0,
        QueryKind::Path => 1,
        QueryKind::Via { .. } => 2,
        QueryKind::Knn { .. } => 3,
        QueryKind::Matrix => 4,
    }
}

/// Serves one request and records its latency and scenario kind into
/// `metrics`, its latency into the `slo` window ring, and its drained
/// algorithmic cost and cache outcome into the per-kind cost counters
/// (and the sampled span, when present) — the per-query body
/// of the worker loop ([`Server::drain`]). A sampled span gets its
/// cache-probe and compute stages stamped inside [`serve_one`].
#[allow(clippy::too_many_arguments)]
fn timed_serve(
    req: &Request,
    batch: Option<&MatrixRequest>,
    num_nodes: usize,
    pois: &PoiSet,
    session: &mut dyn crate::backend::BackendSession,
    cache: Option<&DistanceCache>,
    metrics: &ServerMetrics,
    slo: &SloWindows,
    mut span: Option<&mut Span>,
) -> (Response, Option<Box<ScenarioResult>>) {
    let t0 = Instant::now();
    let (resp, payload) = serve_one(
        req,
        batch,
        num_nodes,
        pois,
        session,
        cache,
        span.as_deref_mut(),
    );
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    metrics.latency.record_ns(elapsed_ns);
    // Served queries are successes by definition here; errors (edge
    // rejections, malformed requests) are recorded by the layer that
    // refuses them, into this same ring.
    slo.record(now_ns(), elapsed_ns, false);
    // Drain what the kernels tallied for this request, add the
    // serving-layer cache outcome, and attribute it to the request
    // kind — this is the "what did the algorithm do" ledger next to
    // the wall-clock one above.
    let mut cost = session.take_cost();
    if matches!(req.kind, QueryKind::Distance | QueryKind::Via { .. }) && cache.is_some() {
        cost.cache_probes += 1;
        if resp.cache_hit {
            cost.cache_hits += 1;
        }
    }
    metrics.cost.record(trace_kind(req.kind) as usize, &cost);
    if let Some(s) = span.as_deref_mut() {
        s.add_cost(&cost);
    }
    match req.kind {
        QueryKind::Via { .. } => metrics.via_requests.inc(),
        QueryKind::Knn { .. } => metrics.knn_requests.inc(),
        QueryKind::Matrix => metrics.matrix_requests.inc(),
        QueryKind::Distance | QueryKind::Path => {}
    }
    (resp, payload)
}

/// Serves one request on a worker: bounds check, cache probe (distance
/// and via queries), then the backend session. Stage stamps:
/// `CacheProbe` when the probe settles (immediately for the kinds that
/// never probe) and `Compute` when the answer exists (immediately on a
/// cache hit — the ~0 ns compute interval *is* the signal the backend
/// was skipped). Scenario kinds return their structured answer as the
/// second tuple element; plain distance/path requests return `None`.
fn serve_one(
    req: &Request,
    batch: Option<&MatrixRequest>,
    num_nodes: usize,
    pois: &PoiSet,
    session: &mut dyn crate::backend::BackendSession,
    cache: Option<&DistanceCache>,
    mut span: Option<&mut Span>,
) -> (Response, Option<Box<ScenarioResult>>) {
    let stamp = |stage: Stage, span: &mut Option<&mut Span>| {
        if let Some(s) = span.as_deref_mut() {
            s.stamp(stage);
        }
    };
    let in_range = |v: NodeId| (v as usize) < num_nodes;
    let endpoints_ok = match req.kind {
        // Matrix ignores `s`/`t`; its batch ids are validated per cell.
        QueryKind::Matrix => true,
        // knn has no target; `t` mirrors `s` but is not consulted.
        QueryKind::Knn { .. } => in_range(req.s),
        _ => in_range(req.s) && in_range(req.t),
    };
    if !endpoints_ok {
        // Malformed request: answered, never forwarded to the backend
        // (whose index arrays it would overrun).
        stamp(Stage::CacheProbe, &mut span);
        stamp(Stage::Compute, &mut span);
        return (
            Response {
                id: req.id,
                distance: None,
                hops: None,
                cache_hit: false,
            },
            None,
        );
    }
    // Captured before the probe/compute: if the index is swapped (and
    // the cache cleared) while this query is in flight, the epoch check
    // in `put_at` drops the old-generation answer instead of inserting
    // it into the fresh cache.
    let epoch = cache.map(DistanceCache::epoch);
    match req.kind {
        QueryKind::Distance => {
            if let Some(c) = cache {
                let cached = c.get(req.s, req.t);
                stamp(Stage::CacheProbe, &mut span);
                if let Some(cached) = cached {
                    stamp(Stage::Compute, &mut span);
                    return (
                        Response {
                            id: req.id,
                            distance: cached,
                            hops: None,
                            cache_hit: true,
                        },
                        None,
                    );
                }
            } else {
                stamp(Stage::CacheProbe, &mut span);
            }
            let d = session.distance(req.s, req.t);
            stamp(Stage::Compute, &mut span);
            if let Some(c) = cache {
                c.put_at(req.s, req.t, d, epoch.unwrap());
            }
            (
                Response {
                    id: req.id,
                    distance: d,
                    hops: None,
                    cache_hit: false,
                },
                None,
            )
        }
        QueryKind::Path => {
            stamp(Stage::CacheProbe, &mut span);
            let p = session.path(req.s, req.t);
            stamp(Stage::Compute, &mut span);
            let (distance, hops) = match p {
                Some(p) => (Some(p.dist.length), Some(p.num_edges())),
                None => (None, None),
            };
            // Paths carry the distance too; feed the cache so later
            // distance queries for the pair hit.
            if let Some(c) = cache {
                c.put_at(req.s, req.t, distance, epoch.unwrap());
            }
            (
                Response {
                    id: req.id,
                    distance,
                    hops,
                    cache_hit: false,
                },
                None,
            )
        }
        QueryKind::Via { cat } => {
            if let Some(c) = cache {
                let cached = c.get_via(req.s, req.t, cat);
                stamp(Stage::CacheProbe, &mut span);
                if let Some(cached) = cached {
                    // The cache keeps (poi, total); the legs are
                    // reconstructed with two point queries — exact,
                    // because shortest distances are unique, and far
                    // cheaper than re-scanning the whole category.
                    let payload = cached.map(|(poi, total)| {
                        let to_poi = session.distance(req.s, poi).unwrap_or(u64::MAX);
                        let from_poi = session.distance(poi, req.t).unwrap_or(u64::MAX);
                        Box::new(ScenarioResult::Via(ViaAnswer {
                            poi,
                            total,
                            to_poi,
                            from_poi,
                        }))
                    });
                    stamp(Stage::Compute, &mut span);
                    return (
                        Response {
                            id: req.id,
                            distance: cached.map(|(_, total)| total),
                            hops: None,
                            cache_hit: true,
                        },
                        payload,
                    );
                }
            } else {
                stamp(Stage::CacheProbe, &mut span);
            }
            let answer = session.via(req.s, req.t, pois.category(cat));
            stamp(Stage::Compute, &mut span);
            if let Some(c) = cache {
                c.put_via_at(
                    req.s,
                    req.t,
                    cat,
                    answer.map(|a| (a.poi, a.total)),
                    epoch.unwrap(),
                );
            }
            (
                Response {
                    id: req.id,
                    distance: answer.map(|a| a.total),
                    hops: None,
                    cache_hit: false,
                },
                answer.map(|a| Box::new(ScenarioResult::Via(a))),
            )
        }
        QueryKind::Knn { cat, k } => {
            stamp(Stage::CacheProbe, &mut span);
            let results = session.knn(req.s, pois.category(cat), k as usize);
            stamp(Stage::Compute, &mut span);
            (
                Response {
                    id: req.id,
                    // Headline: distance to the nearest hit, if any.
                    distance: results.first().map(|&(_, d)| d),
                    hops: None,
                    cache_hit: false,
                },
                Some(Box::new(ScenarioResult::Knn(results))),
            )
        }
        QueryKind::Matrix => {
            stamp(Stage::CacheProbe, &mut span);
            let table = match batch {
                None => Vec::new(),
                Some(b) => {
                    // Out-of-range endpoints answer as unreachable without
                    // touching the backend: one call prices the in-range
                    // sub-table, scattered back among `None` cells.
                    let valid = |ids: &[NodeId]| -> Vec<NodeId> {
                        ids.iter().copied().filter(|&v| in_range(v)).collect()
                    };
                    let sub = session.matrix(&valid(&b.sources), &valid(&b.targets));
                    let mut rows = sub.into_iter();
                    b.sources
                        .iter()
                        .map(|&s| {
                            if !in_range(s) {
                                return vec![None; b.targets.len()];
                            }
                            let mut row = rows.next().unwrap().into_iter();
                            b.targets
                                .iter()
                                .map(|&t| {
                                    if in_range(t) {
                                        row.next().unwrap()
                                    } else {
                                        None
                                    }
                                })
                                .collect()
                        })
                        .collect()
                }
            };
            stamp(Stage::Compute, &mut span);
            (
                Response {
                    id: req.id,
                    distance: None,
                    hops: None,
                    cache_hit: false,
                },
                Some(Box::new(ScenarioResult::Matrix(table))),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AhBackend, DijkstraBackend};
    use ah_core::{AhIndex, BuildConfig};
    use ah_search::dijkstra_distance;

    fn test_requests(n: u32, total: usize) -> Vec<Request> {
        (0..total as u64)
            .map(|id| {
                let s = (id as u32 * 7 + 3) % n;
                let t = (id as u32 * 13 + 5) % n;
                if id % 5 == 0 {
                    Request::path(id, s, t)
                } else {
                    Request::distance(id, s, t)
                }
            })
            .collect()
    }

    #[test]
    fn concurrent_responses_match_single_threaded_truth() {
        let g = ah_data::fixtures::lattice(8, 8, 12);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let backend = AhBackend::new(&idx);
        let reqs = test_requests(g.num_nodes() as u32, 300);

        let server = Server::new(ServerConfig {
            workers: 4,
            queue_capacity: 16,
            cache_capacity: 1024,
            batch_size: 8,
            trace: TraceConfig::default(),
        });
        let report = server.run(&backend, &reqs);
        assert_eq!(report.responses.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&report.responses) {
            assert_eq!(resp.id, req.id, "sorted by id, one response each");
            let want = dijkstra_distance(&g, req.s, req.t).map(|d| d.length);
            assert_eq!(resp.distance, want, "req {}", req.id);
            if req.kind == QueryKind::Path && want.is_some() {
                assert!(resp.hops.is_some());
            }
        }
        assert_eq!(report.snapshot.queries, reqs.len() as u64);
        assert!(report.snapshot.qps > 0.0);
    }

    #[test]
    fn cache_persists_across_runs_and_preserves_answers() {
        let g = ah_data::fixtures::lattice(6, 6, 10);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let backend = AhBackend::new(&idx);
        let reqs: Vec<Request> = (0..100u64)
            .map(|id| Request::distance(id, (id % 36) as u32, ((id * 3 + 1) % 36) as u32))
            .collect();

        let server = Server::new(ServerConfig {
            workers: 2,
            cache_capacity: 4096,
            ..Default::default()
        });
        let cold = server.run(&backend, &reqs);
        let warm = server.run(&backend, &reqs);
        assert_eq!(warm.snapshot.cache_hits, reqs.len() as u64, "fully warmed");
        for (a, b) in cold.responses.iter().zip(&warm.responses) {
            assert_eq!(a.distance, b.distance, "hit equals miss for id {}", a.id);
        }
        assert!(server.cache_hit_rate() > 0.0);
        assert_eq!(server.metrics().latency.count(), 2 * reqs.len() as u64);
    }

    #[test]
    fn cache_outcomes_agree_with_the_cost_ledger() {
        let g = ah_data::fixtures::lattice(6, 6, 10);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let backend = AhBackend::new(&idx);
        // All five kinds over 7 repeating pairs, so distance and via
        // requests hit within the one run.
        let reqs: Vec<Request> = (0..200u64)
            .map(|id| {
                let pair = id % 7;
                let (s, t) = ((pair * 5) as u32, (35 - pair * 3) as u32);
                match id % 5 {
                    0 => Request::distance(id, s, t),
                    1 => Request::path(id, s, t),
                    2 => Request::via(id, s, t, (pair % 4) as u32),
                    3 => Request::knn(id, s, (pair % 4) as u32, 2),
                    _ => Request::matrix(id),
                }
            })
            .collect();
        let probing = reqs
            .iter()
            .filter(|r| matches!(r.kind, QueryKind::Distance | QueryKind::Via { .. }))
            .count() as u64;

        let server = Server::new(ServerConfig::with_workers(2));
        let report = server.run(&backend, &reqs);
        let cost = server.metrics().cost.total();
        let s = &report.snapshot;
        assert!(s.cache_hits > 0, "repeated pairs must hit");
        assert_eq!(s.cache_hits, cost.cache_hits);
        assert_eq!(s.cache_hits + s.cache_misses, cost.cache_probes);
        assert_eq!(cost.cache_probes, probing, "only distance and via probe");

        let uncached = Server::new(ServerConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        });
        uncached.run(&backend, &reqs);
        assert_eq!(uncached.cache_hit_rate(), 0.0);
        assert_eq!(uncached.metrics().cost.total().cache_probes, 0);
    }

    #[test]
    fn cache_disabled_still_serves() {
        let g = ah_data::fixtures::ring(12);
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig {
            workers: 2,
            cache_capacity: 0,
            ..Default::default()
        });
        let reqs = test_requests(12, 50);
        let report = server.run(&backend, &reqs);
        assert_eq!(report.snapshot.cache_hits, 0);
        assert_eq!(report.responses.len(), 50);
    }

    #[test]
    fn unreachable_pairs_serve_and_cache_none() {
        let mut b = ah_graph::GraphBuilder::new();
        b.add_node(ah_graph::Point::new(0, 0));
        b.add_node(ah_graph::Point::new(9, 9));
        b.add_edge(0, 1, 4); // one-way
        let g = b.build();
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig::with_workers(2));
        let reqs = vec![
            Request::distance(0, 1, 0),
            Request::distance(1, 0, 1),
            Request::distance(2, 1, 0), // may hit the negative cache entry
        ];
        let report = server.run(&backend, &reqs);
        assert_eq!(report.responses[0].distance, None);
        assert_eq!(report.responses[1].distance, Some(4));
        assert_eq!(report.responses[2].distance, None);
    }

    #[test]
    fn out_of_range_requests_answer_none_without_reaching_backend() {
        let g = ah_data::fixtures::ring(8);
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig::with_workers(2));
        let reqs = vec![
            Request::distance(0, 0, 7),
            Request::distance(1, 99, 0),  // invalid source
            Request::distance(2, 0, 999), // invalid target
            Request::path(3, 8, 8),       // invalid both (== num_nodes)
        ];
        let report = server.run(&backend, &reqs);
        assert_eq!(report.responses.len(), 4);
        assert!(report.responses[0].distance.is_some());
        for resp in &report.responses[1..] {
            assert_eq!(resp.distance, None, "id {}", resp.id);
            assert_eq!(resp.hops, None);
        }
    }

    /// A backend whose sessions always panic (models an indexing bug).
    struct PanicBackend;
    struct PanicSession;

    impl crate::backend::DistanceBackend for PanicBackend {
        fn name(&self) -> &'static str {
            "Panic"
        }
        fn num_nodes(&self) -> usize {
            1 << 20
        }
        fn make_session(&self) -> Box<dyn crate::backend::BackendSession + '_> {
            Box::new(PanicSession)
        }
    }

    impl crate::backend::BackendSession for PanicSession {
        fn distance(&mut self, _s: u32, _t: u32) -> Option<u64> {
            panic!("backend bug");
        }
        fn path(&mut self, _s: u32, _t: u32) -> Option<ah_graph::Path> {
            panic!("backend bug");
        }
        fn take_cost(&mut self) -> ah_obs::CostCounters {
            ah_obs::CostCounters::default()
        }
    }

    /// A backend that cannot even build a session.
    struct PanicOnSessionBackend;

    impl crate::backend::DistanceBackend for PanicOnSessionBackend {
        fn name(&self) -> &'static str {
            "PanicOnSession"
        }
        fn num_nodes(&self) -> usize {
            8
        }
        fn make_session(&self) -> Box<dyn crate::backend::BackendSession + '_> {
            panic!("session build bug");
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn session_build_panic_releases_the_ready_barrier() {
        let server = Server::new(ServerConfig {
            workers: 2,
            queue_capacity: 2,
            cache_capacity: 0,
            batch_size: 1,
            trace: TraceConfig::default(),
        });
        let reqs: Vec<Request> = (0..16).map(|i| Request::distance(i, 0, 1)).collect();
        let _ = server.run(&PanicOnSessionBackend, &reqs);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // More requests than the queue holds, one worker: without the
        // CloseOnPanic guard the feeder would block forever on the full
        // queue after the sole worker died.
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 0,
            batch_size: 2,
            trace: TraceConfig::default(),
        });
        let reqs: Vec<Request> = (0..64).map(|i| Request::distance(i, 0, 1)).collect();
        let _ = server.run(&PanicBackend, &reqs);
    }

    #[test]
    fn serve_queue_drains_backlog_after_close() {
        // The open-loop drain contract: requests admitted before close()
        // are all served and completed, even though the queue was closed
        // while they were still buffered.
        let g = ah_data::fixtures::lattice(6, 6, 10);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let backend = AhBackend::new(&idx);
        let server = Server::new(ServerConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            batch_size: 4,
            trace: TraceConfig {
                sample_every: 1, // trace every request
                ..Default::default()
            },
        });
        let queue: BoundedQueue<Job<u64>> = BoundedQueue::new(64);
        queue.set_wait_histogram(Arc::clone(&server.metrics().queue_wait));
        let done = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..2 {
                let queue = &queue;
                let done = &done;
                let server = &server;
                let backend = &backend;
                scope.spawn(move || {
                    server.serve_queue(backend, queue, |tag, resp, _payload, span| {
                        // The worker stamped dequeue → compute; the
                        // producer (us) owns serialize/flush.
                        let span = span.expect("sample_every=1 traces everything");
                        assert!(span.record().is_monotonic());
                        assert_ne!(span.record().stages[Stage::Compute as usize], 0);
                        server.tracer().finish(span, 200);
                        done.lock().unwrap().push((tag, resp));
                    });
                });
            }
            // Admit a backlog, then close *before* it can possibly have
            // drained; everything admitted must still complete.
            for id in 0..40u64 {
                let req = Request::distance(id, (id % 36) as u32, ((id * 7 + 3) % 36) as u32);
                let mut span = server.tracer().start(0).expect("sampled");
                span.stamp(Stage::Enqueue);
                assert!(queue.push(Job {
                    req,
                    batch: None,
                    span: Some(span),
                    tag: id ^ 0xABCD,
                }));
            }
            queue.close();
        });

        let mut done = done.into_inner().unwrap();
        assert_eq!(done.len(), 40, "every admitted request completes");
        done.sort_unstable_by_key(|(_, r)| r.id);
        for (tag, resp) in &done {
            assert_eq!(*tag, resp.id ^ 0xABCD, "tags route back unmangled");
            let want =
                dijkstra_distance(&g, (resp.id % 36) as u32, ((resp.id * 7 + 3) % 36) as u32)
                    .map(|d| d.length);
            assert_eq!(resp.distance, want, "req {}", resp.id);
        }
        assert_eq!(server.metrics().latency.count(), 40);
        assert_eq!(
            server.metrics().queue_wait.count(),
            40,
            "every popped job left a queue-wait observation"
        );
        assert_eq!(server.tracer().spans_finished(), 40);
        // try_push on the closed queue is a shutdown refusal, not overload.
        let late = Request::distance(99, 0, 1);
        assert!(matches!(
            queue.try_push(Job {
                req: late,
                batch: None,
                span: None,
                tag: 0u64,
            }),
            Err(crate::queue::TryPushError::Closed(_))
        ));
        assert_eq!(queue.rejected(), 0);
    }

    #[test]
    fn run_reports_queue_saturation() {
        let g = ah_data::fixtures::ring(16);
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 0,
            batch_size: 2,
            trace: TraceConfig::default(),
        });
        let reqs: Vec<Request> = (0..64)
            .map(|i| Request::distance(i, (i % 16) as u32, ((i * 5 + 1) % 16) as u32))
            .collect();
        let report = server.run(&backend, &reqs);
        assert!(report.snapshot.queue_high_water >= 1);
        assert!(report.snapshot.queue_high_water <= 4, "bounded by capacity");
    }

    #[test]
    fn run_traces_spans_and_queue_wait_when_sampling_everything() {
        let g = ah_data::fixtures::ring(16);
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig {
            workers: 2,
            trace: TraceConfig {
                sample_every: 1,
                ..Default::default()
            },
            ..Default::default()
        });
        let reqs: Vec<Request> = (0..50)
            .map(|i| Request::distance(i, (i % 16) as u32, ((i * 5 + 1) % 16) as u32))
            .collect();
        let report = server.run(&backend, &reqs);
        assert_eq!(report.responses.len(), 50);
        assert_eq!(server.tracer().spans_finished(), 50);
        assert_eq!(server.metrics().queue_wait.count(), 50);
        for r in server.tracer().recent() {
            assert!(r.is_monotonic(), "{r:?}");
            assert_ne!(r.stages[Stage::Enqueue as usize], 0);
            assert_ne!(r.stages[Stage::Dequeue as usize], 0);
            assert_ne!(r.stages[Stage::Compute as usize], 0);
            // Closed-loop runs never touch a socket: no flush stage.
            assert_eq!(r.stages[Stage::Flush as usize], 0);
        }
        // The whole pipeline lands in one registry render.
        let text = server.registry().render();
        assert!(text.contains("ah_server_query_latency_seconds_bucket"), "{text}");
        assert!(text.contains("ah_queue_wait_seconds_bucket"), "{text}");
        assert!(text.contains("ah_stage_duration_seconds_bucket"), "{text}");
        assert!(text.contains("ah_trace_spans_total 50"), "{text}");
    }

    #[test]
    fn tracing_disabled_runs_without_spans() {
        let g = ah_data::fixtures::ring(8);
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig {
            workers: 1,
            trace: TraceConfig {
                sample_every: 0,
                ..Default::default()
            },
            ..Default::default()
        });
        let reqs: Vec<Request> = (0..20).map(|i| Request::distance(i, 0, 4)).collect();
        let report = server.run(&backend, &reqs);
        assert_eq!(report.responses.len(), 20);
        assert_eq!(server.tracer().spans_finished(), 0);
        assert!(server.tracer().recent().is_empty());
    }

    #[test]
    fn scenario_requests_answer_exactly_in_closed_loop() {
        let g = ah_data::fixtures::lattice(7, 7, 21);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let backend = AhBackend::new(&idx);
        let n = g.num_nodes() as u32;
        let pois = PoiSet::default_for(n as usize);
        let mut engine = ah_search::ScenarioEngine::new();

        let reqs: Vec<Request> = (0..30u64)
            .map(|i| {
                let s = (i as u32 * 11 + 2) % n;
                let t = (i as u32 * 17 + 5) % n;
                let cat = (i % 8) as u32;
                if i % 2 == 0 {
                    Request::via(i, s, t, cat)
                } else {
                    Request::knn(i, s, cat, 3)
                }
            })
            .collect();
        let server = Server::new(ServerConfig::with_workers(3));
        let report = server.run(&backend, &reqs);
        assert_eq!(report.responses.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&report.responses) {
            let want = match req.kind {
                QueryKind::Via { cat } => engine
                    .via(&g, req.s, req.t, pois.category(cat))
                    .map(|a| a.total),
                QueryKind::Knn { cat, k } => engine
                    .knn(&g, req.s, pois.category(cat), k as usize)
                    .first()
                    .map(|&(_, d)| d),
                _ => unreachable!(),
            };
            assert_eq!(resp.distance, want, "req {}", req.id);
        }
        assert_eq!(report.snapshot.scenario_via, 15);
        assert_eq!(report.snapshot.scenario_knn, 15);
        assert_eq!(report.snapshot.scenario_matrix, 0);
    }

    #[test]
    fn via_cache_hit_replays_the_full_payload() {
        let g = ah_data::fixtures::lattice(6, 6, 33);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let backend = AhBackend::new(&idx);
        let pois = PoiSet::default_for(g.num_nodes());
        let cat = (0..pois.categories())
            .find(|&c| !pois.category(c).is_empty())
            .expect("a 36-node set has POIs somewhere");
        let server = Server::new(ServerConfig::with_workers(1));
        let queue: BoundedQueue<Job<u64>> = BoundedQueue::new(8);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let queue = &queue;
            let done = &done;
            let server = &server;
            let backend = &backend;
            scope.spawn(move || {
                server.serve_queue(backend, queue, |tag, resp, payload, _span| {
                    done.lock().unwrap().push((tag, resp, payload));
                });
            });
            for id in 0..2u64 {
                assert!(queue.push(Job {
                    req: Request::via(id, 3, 30, cat),
                    batch: None,
                    span: None,
                    tag: id,
                }));
            }
            queue.close();
        });
        let done = done.into_inner().unwrap();
        assert_eq!(done.len(), 2);
        let (_, first, first_payload) = &done[0];
        let (_, second, second_payload) = &done[1];
        assert!(!first.cache_hit && second.cache_hit);
        assert_eq!(first.distance, second.distance);
        assert!(first_payload.is_some(), "a 6x6 lattice has POIs in range");
        assert_eq!(
            first_payload, second_payload,
            "cached answers replay bit-identically, legs included"
        );
    }

    #[test]
    fn matrix_jobs_deliver_tables_and_mask_out_of_range_ids() {
        let g = ah_data::fixtures::lattice(5, 5, 9);
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig::with_workers(1));
        let queue: BoundedQueue<Job<()>> = BoundedQueue::new(4);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let queue = &queue;
            let done = &done;
            let server = &server;
            let backend = &backend;
            scope.spawn(move || {
                server.serve_queue(backend, queue, |_tag, resp, payload, _span| {
                    done.lock().unwrap().push((resp, payload));
                });
            });
            assert!(queue.push(Job {
                req: Request::matrix(0),
                batch: Some(Box::new(MatrixRequest {
                    sources: vec![0, 99, 12],
                    targets: vec![3, 24, 999],
                })),
                span: None,
                tag: (),
            }));
            queue.close();
        });
        let done = done.into_inner().unwrap();
        let Some(ScenarioResult::Matrix(table)) = done[0].1.as_deref() else {
            panic!("matrix payload expected, got {:?}", done[0].1);
        };
        assert_eq!(table.len(), 3);
        assert_eq!(table[1], vec![None, None, None], "invalid source row");
        let mut session = backend.make_session();
        for (&s, row) in [0u32, 12].iter().zip([&table[0], &table[2]]) {
            assert_eq!(row[0], session.distance(s, 3));
            assert_eq!(row[1], session.distance(s, 24));
            assert_eq!(row[2], None, "invalid target column");
        }
        assert_eq!(server.metrics().matrix_requests.get(), 1);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let g = ah_data::fixtures::ring(8);
        let backend = DijkstraBackend::new(&g);
        let server = Server::new(ServerConfig {
            workers: 0,
            ..Default::default()
        });
        let report = server.run(&backend, &[Request::distance(7, 0, 4)]);
        assert_eq!(report.responses.len(), 1);
        assert_eq!(report.responses[0].id, 7);
    }
}
