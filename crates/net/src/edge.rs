//! The network edge: an event-looped HTTP front door over the serving
//! queue.
//!
//! One thread runs a readiness loop ([`crate::sys::Poller`]: epoll on
//! Linux, `poll` elsewhere) that owns *all* sockets: it accepts
//! connections, reads and parses pipelined HTTP requests, and writes
//! responses — never blocking, never spawning per connection. Query
//! work is handed to `workers` threads running
//! [`ah_server::Server::serve_queue`], each with its own reusable
//! backend session, through the same bounded MPMC queue the closed-loop
//! harness uses. That queue is the **admission window**: when it is
//! full, [`BoundedQueue::try_push`] hands the request straight back and
//! the edge answers `429 Too Many Requests` with a `Retry-After` hint —
//! overload sheds load at the door instead of growing buffers.
//!
//! Per-connection state machines enforce the rest of the paranoia a
//! public listener needs: header/body size caps (`431`/`413`), malformed
//! input classification (`400`), a pipelining cap that simply stops
//! reading a socket until its backlog drains (TCP back-pressure does the
//! rest), read/write/idle timeouts, and a connection cap that sheds
//! with `503`.
//!
//! Responses are written strictly in pipeline order per connection:
//! each parsed request claims a *slot*; backend completions fill slots
//! out of order but only the front slot's bytes ever enter the socket.
//!
//! **Graceful shutdown** (via [`EdgeHandle::shutdown`] or the
//! `/admin/shutdown` endpoint when enabled) follows the drain contract
//! of [`ah_server::Server::serve_queue`]: stop accepting and reading,
//! close the job queue, let workers drain every admitted request, flush
//! every response, then close connections and return.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ah_obs::{now_ns, CostCounters, Counter, Gauge, Registry, SloPolicy};
use ah_server::{
    trace_kind, BoundedQueue, DeltaReloader, DistanceBackend, Job, MatrixRequest, QueryKind,
    ReloadError, Request, Response, ScenarioResult, Server, Span, Stage, Tracer, TryPushError,
};

use crate::http::{self, HttpError, HttpLimits, ParseOutcome};
use crate::sys::{Event, Poller, WakePipe};

/// Poller token of the listening socket.
const LISTENER: u64 = 0;
/// Poller token of the wake pipe's read end.
const WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

/// Routing tag carried through the job queue: (connection token, slot id).
type Tag = (u64, u64);

/// Worker → event-loop handoff: the response headline, the optional
/// scenario payload (via/knn/matrix bodies), and the sampled span.
type Completions = Vec<(Tag, Response, Option<Box<ScenarioResult>>, Option<Box<Span>>)>;

/// Maximum unanswered pipelined requests per connection; past it the
/// edge stops reading that socket until slots drain.
const MAX_PIPELINE: usize = 64;

/// Maximum buffered unsent response bytes per connection; past it the
/// edge stops reading that socket and stops converting answered
/// pipeline slots into response bytes (a client that sends requests
/// but never reads responses cannot grow the write buffer without
/// bound — the write timeout then reaps it).
const MAX_WRITE_BACKLOG: usize = 256 * 1024;

/// Floor of the per-connection read backlog: past the backlog the edge
/// stops reading that socket until parsing catches up, so a client
/// pipelining faster than the edge serves cannot grow the read buffer
/// without bound. [`read_backlog`] raises it to one whole request.
const MIN_READ_BACKLOG: usize = 64 * 1024;

/// The read backlog under `limits`: at least [`MIN_READ_BACKLOG`], and
/// always room for one whole request (head plus body caps), so a
/// request the caps admit can always complete its parse.
fn read_backlog(limits: &HttpLimits) -> usize {
    MIN_READ_BACKLOG.max(limits.max_head_bytes.saturating_add(limits.max_body_bytes))
}

/// Upper bound on `k` for `/v1/knn` — bounds the response body the
/// same way [`MAX_WRITE_BACKLOG`] bounds everything else.
const MAX_KNN_K: u32 = 256;

/// Per-side cap on `/v1/matrix` dimensions. A table beyond it is
/// refused `413` (same class as an oversized body): 64×64 is already
/// 4096 point answers in one response.
pub const MAX_MATRIX_DIM: usize = 64;

/// Statuses the edge emits, in reporting order.
pub const STATUSES: [u16; 11] = [200, 202, 400, 404, 405, 408, 409, 413, 429, 431, 503];

/// Tuning knobs for the edge.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Worker threads draining the job queue (0 clamps to 1).
    pub workers: usize,
    /// Bounded job-queue depth — the admission window. Requests beyond
    /// it are answered `429`.
    pub queue_capacity: usize,
    /// Maximum simultaneously open connections; excess accepts are shed
    /// with a best-effort `503` and an immediate close.
    pub max_connections: usize,
    /// HTTP parsing caps (head/body bytes, header count). The
    /// per-connection read backlog grows with them, so one whole
    /// request always fits.
    pub limits: HttpLimits,
    /// How long a partially received request may stall before the
    /// connection is answered `408` and closed.
    pub read_timeout: Duration,
    /// How long a pending write may stall before the connection is
    /// dropped (the peer stopped reading).
    pub write_timeout: Duration,
    /// How long a connection may sit idle (no request in flight) before
    /// it is closed.
    pub idle_timeout: Duration,
    /// Value of the `Retry-After` header on `429`/`503` responses.
    pub retry_after_secs: u32,
    /// Expose `GET /admin/shutdown` (for loopback process tests and
    /// supervised deployments; leave off on untrusted networks).
    pub allow_shutdown: bool,
    /// Service-level objectives evaluated by `GET /readyz` and
    /// `GET /debug/slo` against the server's rolling windows (which
    /// also absorb the edge's own `429`/`503` rejections as errors).
    /// The default policy has no active objective: `/readyz` always
    /// answers `200`.
    pub slo: SloPolicy,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
            queue_capacity: 1024,
            max_connections: 1024,
            limits: HttpLimits::default(),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            retry_after_secs: 1,
            allow_shutdown: false,
            slo: SloPolicy::default(),
        }
    }
}

/// Edge-level counters (connection and response accounting; query-level
/// latency lives in [`ah_server::ServerMetrics`]), created in the
/// edge's own [`Registry`] when it binds, bumped lock-free by the event
/// loop, and readable from any thread via [`EdgeHandle::metrics`].
#[derive(Debug)]
pub struct EdgeMetrics {
    connections: Arc<Counter>,
    connections_closed: Arc<Counter>,
    shed_connections: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    timeouts: Arc<Counter>,
    responses: [Arc<Counter>; STATUSES.len()],
}

impl EdgeMetrics {
    /// Creates every edge counter in `reg` under its stable name (the
    /// per-status response counters carry a `code` label).
    fn new(reg: &Registry) -> Self {
        EdgeMetrics {
            connections: reg.counter(
                "ah_edge_connections_total",
                &[],
                "Connections accepted over the edge's lifetime",
            ),
            connections_closed: reg.counter(
                "ah_edge_connections_closed_total",
                &[],
                "Connections closed (any reason)",
            ),
            shed_connections: reg.counter(
                "ah_edge_shed_connections_total",
                &[],
                "Connections shed at accept time (connection cap)",
            ),
            timeouts: reg.counter(
                "ah_edge_timeouts_total",
                &[],
                "Connections reaped by read/write/idle timeout",
            ),
            bytes_in: reg.counter("ah_edge_bytes_in_total", &[], "Request bytes read off sockets"),
            bytes_out: reg.counter(
                "ah_edge_bytes_out_total",
                &[],
                "Response bytes written to sockets",
            ),
            responses: STATUSES.map(|status| {
                reg.counter(
                    "ah_edge_responses_total",
                    &[("code", &status.to_string())],
                    "Responses sent, by status code",
                )
            }),
        }
    }

    fn count_response(&self, status: u16) {
        if let Some(i) = STATUSES.iter().position(|&s| s == status) {
            self.responses[i].inc();
        }
    }

    /// Responses sent with `status`.
    pub fn responses(&self, status: u16) -> u64 {
        STATUSES
            .iter()
            .position(|&s| s == status)
            .map_or(0, |i| self.responses[i].get())
    }

    /// Total responses sent, any status.
    pub fn total_responses(&self) -> u64 {
        self.responses.iter().map(|c| c.get()).sum()
    }

    /// Connections accepted over the edge's lifetime.
    pub fn connections(&self) -> u64 {
        self.connections.get()
    }

    /// Request bytes read off sockets.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.get()
    }

    /// Response bytes written to sockets.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.get()
    }

    /// Connections reaped by read/write/idle timeout.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.get()
    }
}

/// Point-in-time gauges the event loop samples just before each
/// `/metrics` render (open connections, admission-queue state, uptime).
/// The backend and build-identity gauges are constant 1 and set once.
struct SampledGauges {
    uptime: Arc<Gauge>,
    /// When this edge began serving — drives `ah_uptime_seconds`.
    started: Instant,
    connections_open: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    queue_capacity: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    queue_high_water: Arc<Gauge>,
}

impl SampledGauges {
    fn new(reg: &Registry, backend_name: &str) -> Self {
        reg.gauge(
            "ah_edge_backend",
            &[("name", backend_name)],
            "The distance backend serving this edge (always 1)",
        )
        .set(1);
        let format_version = ah_store::VERSION.to_string();
        reg.gauge(
            "ah_build_info",
            &[
                ("version", env!("CARGO_PKG_VERSION")),
                ("format_version", &format_version),
                ("backend", backend_name),
            ],
            "Build and serving identity (value is always 1)",
        )
        .set(1);
        SampledGauges {
            uptime: reg.gauge("ah_uptime_seconds", &[], "Seconds since this edge began serving"),
            started: Instant::now(),
            connections_open: reg.gauge("ah_edge_connections_open", &[], "Connections currently open"),
            in_flight: reg.gauge(
                "ah_edge_in_flight",
                &[],
                "Requests admitted to the queue whose completions are still due",
            ),
            queue_capacity: reg.gauge(
                "ah_queue_capacity",
                &[],
                "Bounded admission-queue capacity",
            ),
            queue_depth: reg.gauge("ah_queue_depth", &[], "Admission-queue depth at scrape time"),
            queue_high_water: reg.gauge(
                "ah_queue_high_water",
                &[],
                "Deepest the admission queue has been",
            ),
        }
    }
}

/// State shared between the event loop, the workers and [`EdgeHandle`]s.
struct Shared {
    stop: AtomicBool,
    waker: WakePipe,
    /// The edge's own series; `/metrics` renders it after the server's.
    registry: Registry,
    metrics: EdgeMetrics,
}

/// A clonable remote control for a running edge: request graceful
/// shutdown and read live metrics from any thread.
#[derive(Clone)]
pub struct EdgeHandle {
    shared: Arc<Shared>,
}

impl EdgeHandle {
    /// Begins graceful shutdown: stop accepting, drain admitted
    /// requests, flush responses, close. [`EdgeServer::serve`] returns
    /// once the drain completes.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.waker.wake();
    }

    /// Whether shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Live edge counters.
    pub fn metrics(&self) -> &EdgeMetrics {
        &self.shared.metrics
    }
}

/// Final accounting returned by [`EdgeServer::serve`].
#[derive(Debug, Clone)]
pub struct EdgeReport {
    /// `(status, count)` for every status the edge emits, in
    /// [`STATUSES`] order.
    pub responses_by_status: Vec<(u16, u64)>,
    /// Connections accepted.
    pub connections: u64,
    /// Requests rejected at admission (the `429` source; equals the job
    /// queue's rejected counter).
    pub rejected: u64,
    /// Deepest the job queue got.
    pub queue_high_water: usize,
    /// Request bytes read.
    pub bytes_in: u64,
    /// Response bytes written.
    pub bytes_out: u64,
    /// Connections reaped by timeout.
    pub timeouts: u64,
}

/// One pipelined exchange: claimed when the request is parsed, filled
/// when its response bytes are ready, flushed strictly in claim order.
struct Slot {
    id: u64,
    keep_alive: bool,
    state: SlotState,
    /// Sampled trace span returned by the worker with the completion;
    /// stamped `Serialize` when the response bytes were rendered, and
    /// finished (with `Flush`) once those bytes clear the socket.
    span: Option<Box<Span>>,
}

enum SlotState {
    /// Admitted to the backend: the request, and for a matrix request
    /// its `(rows, cols)` — everything needed to render the response
    /// body once the worker's completion arrives (the dimensions let
    /// the renderer emit a fully-masked table should the worker return
    /// no payload).
    Waiting(Request, (usize, usize)),
    /// Response bytes ready to enter the write buffer.
    Ready(Vec<u8>),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    slots: VecDeque<Slot>,
    next_slot: u64,
    last_activity: Instant,
    /// When the partial request at the head of `rbuf` started waiting
    /// for its remaining bytes. Unlike `last_activity` this does NOT
    /// reset on every received byte, so a client trickling one byte per
    /// second cannot hold a request open past the read timeout.
    partial_since: Option<Instant>,
    /// When the pending write backlog appeared. Measured separately
    /// from `last_activity` so a client that keeps *sending* while
    /// never *reading* still trips the write timeout.
    write_stalled_since: Option<Instant>,
    /// No more reads: peer EOF, fatal request, shutdown, or scheduled close.
    read_shut: bool,
    /// Close once every slot is answered and flushed.
    close_after_flush: bool,
    /// Socket error — close immediately, abandon pending writes.
    dead: bool,
    /// Interest currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
    /// Lifetime response bytes moved into `wbuf` / confirmed written to
    /// the socket. `wbuf` itself is compacted after every flush, so
    /// span flush accounting runs on these absolute counters instead.
    bytes_queued: u64,
    bytes_flushed: u64,
    /// Spans awaiting their flush stamp, each due once `bytes_flushed`
    /// reaches the recorded mark (responses leave `wbuf` in FIFO order,
    /// so the front span is always the next due).
    pending_spans: VecDeque<(u64, Box<Span>)>,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            slots: VecDeque::new(),
            next_slot: 0,
            last_activity: now,
            partial_since: None,
            write_stalled_since: None,
            read_shut: false,
            close_after_flush: false,
            dead: false,
            reg_read: true,
            reg_write: false,
            bytes_queued: 0,
            bytes_flushed: 0,
            pending_spans: VecDeque::new(),
        }
    }

    fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Everything answered and on the wire?
    fn drained(&self) -> bool {
        self.slots.is_empty() && !self.has_pending_write()
    }

    fn push_ready(&mut self, keep_alive: bool, bytes: Vec<u8>) {
        let id = self.next_slot;
        self.next_slot += 1;
        self.slots.push_back(Slot {
            id,
            keep_alive,
            state: SlotState::Ready(bytes),
            span: None,
        });
    }
}

/// A bound, not-yet-serving edge. [`EdgeServer::bind`] then
/// [`EdgeServer::serve`] (which blocks until shutdown).
pub struct EdgeServer {
    listener: TcpListener,
    cfg: EdgeConfig,
    shared: Arc<Shared>,
}

impl EdgeServer {
    /// Binds the listening socket (non-blocking) without serving yet, so
    /// the caller can learn the ephemeral port and keep an
    /// [`EdgeHandle`] before traffic starts.
    pub fn bind(addr: impl ToSocketAddrs, cfg: EdgeConfig) -> io::Result<EdgeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let registry = Registry::new();
        let metrics = EdgeMetrics::new(&registry);
        Ok(EdgeServer {
            listener,
            cfg,
            shared: Arc::new(Shared {
                stop: AtomicBool::new(false),
                waker: WakePipe::new()?,
                registry,
                metrics,
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A remote control usable from other threads while `serve` runs.
    pub fn handle(&self) -> EdgeHandle {
        EdgeHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// final accounting. Queries run on `cfg.workers` threads through
    /// `server`'s cache and metrics against `backend`; the calling
    /// thread becomes the event loop.
    pub fn serve(
        self,
        server: &Server,
        backend: &dyn DistanceBackend,
    ) -> io::Result<EdgeReport> {
        self.serve_with_admin(server, backend, None)
    }

    /// [`EdgeServer::serve`], additionally exposing
    /// `POST /admin/reload-delta?path=...` wired to `reload`: the
    /// endpoint starts [`DeltaReloader::start_from_file`] (which rebuilds
    /// on a background thread) and answers `202`, or `409` while a
    /// reload is in flight or the delta does not apply, or `400` when
    /// the file cannot be loaded. Like `/admin/shutdown`, the endpoint
    /// is for loopback process tests and supervised deployments — leave
    /// it unwired on untrusted networks.
    pub fn serve_with_admin(
        self,
        server: &Server,
        backend: &dyn DistanceBackend,
        reload: Option<&Arc<DeltaReloader>>,
    ) -> io::Result<EdgeReport> {
        let EdgeServer {
            listener,
            cfg,
            shared,
        } = self;
        let workers = cfg.workers.max(1);
        let jobs: BoundedQueue<Job<Tag>> = BoundedQueue::new(cfg.queue_capacity);
        // Enqueue→dequeue waits land straight in the engine's lifetime
        // histogram (`ah_queue_wait_seconds`).
        jobs.set_wait_histogram(Arc::clone(&server.metrics().queue_wait));
        let gauges = SampledGauges::new(&shared.registry, backend.name());
        let completions: Mutex<Completions> = Mutex::new(Vec::new());

        let result = std::thread::scope(|scope| {
            for _ in 0..workers {
                let jobs = &jobs;
                let completions = &completions;
                let shared = &shared;
                scope.spawn(move || {
                    server.serve_queue(backend, jobs, |tag, resp, payload, span| {
                        let mut done = completions.lock().unwrap();
                        let was_empty = done.is_empty();
                        done.push((tag, resp, payload, span));
                        drop(done);
                        // A non-empty list already has a wake pending;
                        // skipping the syscall batches completions.
                        if was_empty {
                            shared.waker.wake();
                        }
                    });
                });
            }

            let mut ev_loop = EventLoop {
                cfg: &cfg,
                listener: Some(listener),
                poller: Poller::new()?,
                rbuf_cap: read_backlog(&cfg.limits),
                shared: &shared,
                server,
                jobs: &jobs,
                completions: &completions,
                conns: HashMap::new(),
                next_token: FIRST_CONN,
                in_flight: 0,
                failed_tags: std::collections::HashSet::new(),
                next_req_id: 0,
                num_nodes: backend.num_nodes(),
                jobs_closed: false,
                gauges,
                reload,
            };
            let out = ev_loop.run();
            // Whatever happened in the loop, release the workers.
            jobs.close();
            out
        });

        result.map(|()| {
            let m = &shared.metrics;
            EdgeReport {
                responses_by_status: STATUSES.iter().map(|&s| (s, m.responses(s))).collect(),
                connections: m.connections(),
                rejected: jobs.rejected(),
                queue_high_water: jobs.high_water(),
                bytes_in: m.bytes_in(),
                bytes_out: m.bytes_out(),
                timeouts: m.timeouts(),
            }
        })
    }
}

/// Everything the event loop touches, borrowed for the scope of one
/// [`EdgeServer::serve`] call.
struct EventLoop<'a> {
    cfg: &'a EdgeConfig,
    listener: Option<TcpListener>,
    poller: Poller,
    /// Per-connection cap on buffered unparsed bytes, from
    /// [`read_backlog`].
    rbuf_cap: usize,
    shared: &'a Shared,
    server: &'a Server,
    jobs: &'a BoundedQueue<Job<Tag>>,
    completions: &'a Mutex<Completions>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Requests admitted to the queue whose completions are still due.
    in_flight: usize,
    /// Tags answered 503 by [`EventLoop::fail_waiting_slots`] (worker
    /// crash); their late completions must not be double-counted.
    failed_tags: std::collections::HashSet<Tag>,
    next_req_id: u64,
    num_nodes: usize,
    jobs_closed: bool,
    gauges: SampledGauges,
    reload: Option<&'a Arc<DeltaReloader>>,
}

impl EventLoop<'_> {
    fn run(&mut self) -> io::Result<()> {
        let listener_fd = self.listener.as_ref().unwrap().as_raw_fd();
        self.poller.register(listener_fd, LISTENER, true, false)?;
        self.poller
            .register(self.shared.waker.read_fd(), WAKER, true, false)?;

        let mut events: Vec<Event> = Vec::new();
        loop {
            if !self.jobs_closed && self.jobs.is_closed() {
                // We did not close the queue, so a worker's panic guard
                // did (see `Server::serve_queue`). Completions for the
                // waiting slots may never arrive: answer them 503 and
                // drain what can still be flushed — the worker's panic
                // then propagates when the thread scope joins.
                self.jobs_closed = true;
                self.fail_waiting_slots();
                self.shared.stop.store(true, Ordering::Relaxed);
            }
            if self.shared.stop.load(Ordering::Relaxed) {
                self.enter_drain()?;
                if self.conns.is_empty() {
                    break;
                }
            }
            self.poller.wait(&mut events, 50)?;
            let now = Instant::now();
            for &ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(now)?,
                    WAKER => self.shared.waker.drain(),
                    token => self.service_conn(token, ev, now)?,
                }
            }
            self.drain_completions(now)?;
            self.sweep_timeouts(now)?;
        }
        Ok(())
    }

    /// Transition into draining: close the listener, stop reading every
    /// socket, close the job queue (workers drain the backlog), and
    /// schedule every connection to close once flushed.
    fn enter_drain(&mut self) -> io::Result<()> {
        if let Some(listener) = self.listener.take() {
            self.poller.deregister(listener.as_raw_fd())?;
            // Dropped here: pending SYNs get RST, new clients see ECONNREFUSED.
        }
        if !self.jobs_closed {
            self.jobs.close();
            self.jobs_closed = true;
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let now = Instant::now();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.read_shut = true;
                conn.close_after_flush = true;
            }
            self.pump_and_settle(token, now)?;
        }
        Ok(())
    }

    /// Emergency path for a crashed worker pool: every slot still
    /// waiting on a completion is answered `503` so its connection can
    /// flush and close instead of hanging on an answer that will never
    /// come. Only the first failed slot per connection is counted as a
    /// response — the `Connection: close` it carries discards everything
    /// pipelined behind it, so later 503s are never delivered. Failed
    /// tags are remembered so a surviving worker's late completion for
    /// one of them does not decrement `in_flight` a second time.
    fn fail_waiting_slots(&mut self) {
        for (&token, conn) in &mut self.conns {
            let mut first_on_conn = true;
            for slot in &mut conn.slots {
                if matches!(slot.state, SlotState::Waiting { .. }) {
                    if first_on_conn {
                        self.shared.metrics.count_response(503);
                        first_on_conn = false;
                    }
                    let body = http::json_error("backend failure");
                    slot.keep_alive = false;
                    slot.state = SlotState::Ready(http::response(
                        503,
                        "application/json",
                        &body,
                        false,
                        &[],
                    ));
                    self.in_flight = self.in_flight.saturating_sub(1);
                    self.failed_tags.insert((token, slot.id));
                }
            }
        }
    }

    fn accept_ready(&mut self, now: Instant) -> io::Result<()> {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return Ok(());
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.cfg.max_connections {
                        // Shed at the door: best-effort 503, then close.
                        self.shared.metrics.shed_connections.inc();
                        self.shared.metrics.count_response(503);
                        self.server.slo_windows().record(now_ns(), 0, true);
                        let _ = stream.set_nonblocking(true);
                        let body = http::json_error("connection limit reached");
                        let retry = self.cfg.retry_after_secs.to_string();
                        let resp = http::response(
                            503,
                            "application/json",
                            &body,
                            false,
                            &[("Retry-After", &retry)],
                        );
                        let _ = (&stream).write(&resp);
                        continue;
                    }
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.register(stream.as_raw_fd(), token, true, false)?;
                    self.conns.insert(token, Conn::new(stream, now));
                    self.shared.metrics.connections.inc();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Anything else — ECONNABORTED (transient, safe to retry
                // next tick) but also EMFILE/ENFILE, where accept fails
                // *without* dequeuing the pending connection. Return to
                // the event loop instead of retrying inline: the
                // level-triggered poller re-offers the listener next
                // wait, so existing connections keep being serviced
                // instead of livelocking in this accept loop.
                Err(_) => return Ok(()),
            }
        }
    }

    /// Handles one readiness event for a connection: write what can be
    /// written, read and parse what arrived, then settle registration
    /// and close-state.
    fn service_conn(&mut self, token: u64, ev: Event, now: Instant) -> io::Result<()> {
        let Some(conn) = self.conns.get_mut(&token) else {
            return Ok(()); // closed earlier in this batch
        };

        if ev.hangup && conn.read_shut {
            // The kernel reports errors/hangups even with an empty
            // interest set. A read-shut connection will not observe
            // them through a read, so without this the level-triggered
            // poller would re-deliver the event every wait (a busy
            // spin) while a backend completion is still pending. The
            // peer is gone either way — its response is undeliverable.
            conn.dead = true;
        }
        if ev.writable {
            pump_write(conn, &self.shared.metrics, self.server.tracer(), now);
        }
        if ev.readable && !conn.read_shut && !conn.dead {
            read_some(conn, &self.shared.metrics, now, self.rbuf_cap);
        }
        self.pump_and_settle(token, now)
    }

    /// Parses every complete pipelined request buffered on `conn` and
    /// routes each one (immediate response, or admission to the queue).
    /// Consumed bytes are tracked as an offset and drained from the
    /// read buffer once at the end — one memmove per pass, not one per
    /// request, so deep pipelined bursts parse in linear time.
    fn parse_conn(&mut self, token: u64, stopping: bool) {
        let mut pos = 0usize;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // connection gone; its buffers went with it
            };
            if conn.dead || conn.close_after_flush || stopping || conn.slots.len() >= MAX_PIPELINE {
                break;
            }
            match http::parse_request(&conn.rbuf[pos..], &self.cfg.limits) {
                ParseOutcome::Incomplete => {
                    if conn.read_shut && conn.rbuf.len() > pos {
                        // Peer half-closed mid-request: nothing to answer.
                        conn.rbuf.clear();
                        pos = 0;
                        conn.close_after_flush = true;
                    }
                    break;
                }
                ParseOutcome::Error(err) => {
                    // answer_parse_error clears the whole buffer.
                    pos = 0;
                    self.answer_parse_error(token, err);
                    break;
                }
                ParseOutcome::Request(req) => {
                    pos += req.consumed;
                    let keep = req.keep_alive;
                    self.route(token, req);
                    if !keep {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.read_shut = true;
                            conn.close_after_flush = true;
                        }
                        break;
                    }
                }
            }
        }
        if pos > 0 {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.rbuf.drain(..pos);
            }
        }
    }

    /// Fatal framing error: answer with its status and schedule close —
    /// request boundaries can no longer be trusted.
    fn answer_parse_error(&mut self, token: u64, err: HttpError) {
        let status = err.status();
        self.shared.metrics.count_response(status);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let body = http::json_error(err.detail());
        conn.push_ready(
            false,
            http::response(status, "application/json", &body, false, &[]),
        );
        conn.rbuf.clear();
        conn.read_shut = true;
        conn.close_after_flush = true;
    }

    /// Routes one well-framed request: answer immediately (health,
    /// metrics, admin, errors) or admit a query to the job queue —
    /// rejecting with `429 Retry-After` when the admission window is
    /// full.
    fn route(&mut self, token: u64, req: http::ParsedRequest) {
        let keep = req.keep_alive;
        let path = http::path_of(&req.target);

        if req.method == "POST" && path == "/admin/reload-delta" {
            let Some(reloader) = self.reload else {
                self.respond_now(token, 404, keep, http::json_error("unknown path"));
                return;
            };
            let Some(p) = http::query_param(&req.target, "path") else {
                self.respond_now(
                    token,
                    400,
                    keep,
                    http::json_error("path query parameter is required"),
                );
                return;
            };
            let (status, detail) = match reloader.start_from_file(p) {
                Ok(()) => {
                    let body = format!(
                        "{{\"status\":\"reloading\",\"path\":{}}}",
                        ah_obs::json_string(p)
                    );
                    self.respond_now(token, 202, keep, body.into_bytes());
                    return;
                }
                Err(ReloadError::Busy) => (409, "a reload is already in progress".to_string()),
                Err(ReloadError::Delta(e)) => (409, e.to_string()),
                Err(ReloadError::Snapshot(e)) => (400, e.to_string()),
            };
            self.respond_now(token, status, keep, http::json_error(&detail));
            return;
        }
        if req.method == "POST" && path == "/v1/matrix" {
            match parse_matrix_body(&req.body) {
                Ok(m) => self.admit(token, Request::matrix(0), Some(Box::new(m)), keep),
                Err((status, detail)) => {
                    self.respond_now(token, status, keep, http::json_error(detail));
                }
            }
            return;
        }
        if req.method != "GET" {
            self.respond_now(
                token,
                405,
                keep,
                http::json_error("only GET (and POST /v1/matrix) is supported"),
            );
            return;
        }
        match path {
            "/healthz" => {
                let body = format!(
                    "{{\"status\":\"ok\",\"nodes\":{},\"open_connections\":{}}}",
                    self.num_nodes,
                    self.conns.len()
                )
                .into_bytes();
                self.respond_now(token, 200, keep, body);
            }
            "/metrics" => {
                let body = self.render_metrics().into_bytes();
                self.shared.metrics.count_response(200);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.push_ready(
                        keep,
                        http::response(200, "text/plain; version=0.0.4", &body, keep, &[]),
                    );
                }
            }
            "/readyz" => {
                // Readiness keys off the SLO policy's fast window: a
                // tripped objective degrades to 503 within seconds and
                // recovers as soon as the bad seconds age out. The
                // probe itself is never recorded as traffic.
                let status = self.cfg.slo.evaluate(self.server.slo_windows(), now_ns());
                let code = if status.ready { 200 } else { 503 };
                self.respond_now(token, code, keep, status.to_json().into_bytes());
            }
            "/debug/slo" => {
                let status = self.cfg.slo.evaluate(self.server.slo_windows(), now_ns());
                self.respond_now(token, 200, keep, status.to_json().into_bytes());
            }
            "/debug/traces" => {
                let body = self.server.tracer().traces_json().into_bytes();
                self.respond_now(token, 200, keep, body);
            }
            "/admin/shutdown" if self.cfg.allow_shutdown => {
                self.shared.stop.store(true, Ordering::Relaxed);
                self.respond_now(token, 200, keep, b"{\"status\":\"draining\"}".to_vec());
            }
            "/v1/distance" | "/v1/path" => {
                let is_path = path == "/v1/path";
                let (src, dst) = match (
                    http::query_param(&req.target, "src").and_then(|v| v.parse::<u32>().ok()),
                    http::query_param(&req.target, "dst").and_then(|v| v.parse::<u32>().ok()),
                ) {
                    (Some(s), Some(d)) => (s, d),
                    _ => {
                        // Well-framed but unusable: answer 400 and keep
                        // the connection (framing is intact).
                        self.respond_now(
                            token,
                            400,
                            keep,
                            http::json_error("src and dst must be u32 query parameters"),
                        );
                        return;
                    }
                };
                let req = if is_path {
                    Request::path(0, src, dst)
                } else {
                    Request::distance(0, src, dst)
                };
                self.admit(token, req, None, keep);
            }
            "/v1/via" => {
                let parsed = (
                    http::query_param(&req.target, "src").and_then(|v| v.parse::<u32>().ok()),
                    http::query_param(&req.target, "dst").and_then(|v| v.parse::<u32>().ok()),
                    http::query_param(&req.target, "cat").and_then(|v| v.parse::<u32>().ok()),
                );
                let (Some(src), Some(dst), Some(cat)) = parsed else {
                    self.respond_now(
                        token,
                        400,
                        keep,
                        http::json_error("src, dst and cat must be u32 query parameters"),
                    );
                    return;
                };
                self.admit(token, Request::via(0, src, dst, cat), None, keep);
            }
            "/v1/knn" => {
                let parsed = (
                    http::query_param(&req.target, "src").and_then(|v| v.parse::<u32>().ok()),
                    http::query_param(&req.target, "cat").and_then(|v| v.parse::<u32>().ok()),
                    http::query_param(&req.target, "k").and_then(|v| v.parse::<u32>().ok()),
                );
                let (Some(src), Some(cat), Some(k)) = parsed else {
                    self.respond_now(
                        token,
                        400,
                        keep,
                        http::json_error("src, cat and k must be u32 query parameters"),
                    );
                    return;
                };
                if k == 0 || k > MAX_KNN_K {
                    self.respond_now(
                        token,
                        400,
                        keep,
                        http::json_error("k must be between 1 and 256"),
                    );
                    return;
                }
                self.admit(token, Request::knn(0, src, cat, k), None, keep);
            }
            _ => {
                self.respond_now(token, 404, keep, http::json_error("unknown path"));
            }
        }
    }

    /// Admission control: claim a pipeline slot and try to enqueue; a
    /// full queue turns the slot into an immediate `429`. Sampled
    /// requests get their trace span here — parse and enqueue stamped
    /// at the edge, the rest by whichever worker pops the job (a
    /// rejected request's span is finished immediately with its
    /// rejection status, leaving an honest partial trace). `req.id` is
    /// overwritten with the edge's next request number.
    fn admit(
        &mut self,
        token: u64,
        mut req: Request,
        batch: Option<Box<MatrixRequest>>,
        keep: bool,
    ) {
        req.id = self.next_req_id;
        self.next_req_id += 1;
        let dims = batch
            .as_deref()
            .map_or((0, 0), |m| (m.sources.len(), m.targets.len()));
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let slot_id = conn.next_slot;
        conn.next_slot += 1;
        let mut span = self.server.tracer().start(trace_kind(req.kind));
        if let Some(s) = span.as_deref_mut() {
            s.stamp(Stage::Enqueue);
        }
        match self.jobs.try_push(Job {
            req,
            batch,
            span,
            tag: (token, slot_id),
        }) {
            Ok(()) => {
                self.in_flight += 1;
                conn.slots.push_back(Slot {
                    id: slot_id,
                    keep_alive: keep,
                    state: SlotState::Waiting(req, dims),
                    span: None,
                });
            }
            Err(TryPushError::Full(job)) => {
                // The admission window is full: shed *this* request,
                // keep the connection — the client is told when to come
                // back. (try_push already counted the rejection.)
                if let Some(s) = job.span {
                    self.server.tracer().finish(*s, 429);
                }
                self.shared.metrics.count_response(429);
                // A shed request is an error in the same windows the
                // SLO policy evaluates — overload burns the budget.
                self.server.slo_windows().record(now_ns(), 0, true);
                let retry = self.cfg.retry_after_secs.to_string();
                let body = http::json_error("server overloaded, retry later");
                conn.slots.push_back(Slot {
                    id: slot_id,
                    keep_alive: keep,
                    state: SlotState::Ready(http::response(
                        429,
                        "application/json",
                        &body,
                        keep,
                        &[("Retry-After", &retry)],
                    )),
                    span: None,
                });
            }
            Err(TryPushError::Closed(job)) => {
                // Shutting down: this request arrived after the drain
                // began.
                if let Some(s) = job.span {
                    self.server.tracer().finish(*s, 503);
                }
                self.shared.metrics.count_response(503);
                self.server.slo_windows().record(now_ns(), 0, true);
                let body = http::json_error("shutting down");
                conn.slots.push_back(Slot {
                    id: slot_id,
                    keep_alive: false,
                    state: SlotState::Ready(http::response(
                        503,
                        "application/json",
                        &body,
                        false,
                        &[],
                    )),
                    span: None,
                });
                conn.read_shut = true;
                conn.close_after_flush = true;
            }
        }
    }

    /// Queues an immediate JSON response on the connection.
    fn respond_now(&mut self, token: u64, status: u16, keep: bool, body: Vec<u8>) {
        self.shared.metrics.count_response(status);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.push_ready(
                keep,
                http::response(status, "application/json", &body, keep, &[]),
            );
        }
    }

    /// Moves worker completions into their slots and flushes the
    /// affected connections.
    fn drain_completions(&mut self, now: Instant) -> io::Result<()> {
        let done = std::mem::take(&mut *self.completions.lock().unwrap());
        if done.is_empty() {
            return Ok(());
        }
        let mut touched: Vec<u64> = Vec::with_capacity(done.len());
        for ((token, slot_id), resp, payload, span) in done {
            if self.failed_tags.remove(&(token, slot_id)) {
                // fail_waiting_slots already answered this slot (503)
                // and accounted for it; a surviving worker's late
                // completion must not decrement in_flight again.
                if let Some(s) = span {
                    self.server.tracer().finish(*s, 503);
                }
                continue;
            }
            self.in_flight = self.in_flight.saturating_sub(1);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection died while the query ran (span
                          // dropped unfinished — nothing was delivered)
            };
            let Some(slot) = conn.slots.iter_mut().find(|s| s.id == slot_id) else {
                continue;
            };
            if let SlotState::Waiting(req, (rows, cols)) = slot.state {
                let (src, dst) = (req.s, req.t);
                let body = match req.kind {
                    QueryKind::Distance => render_query_json(src, dst, false, &resp),
                    QueryKind::Path => render_query_json(src, dst, true, &resp),
                    QueryKind::Via { cat } => {
                        render_via_json(src, dst, cat, &resp, payload.as_deref())
                    }
                    QueryKind::Knn { cat, k } => render_knn_json(src, cat, k, payload.as_deref()),
                    QueryKind::Matrix => render_matrix_json(rows, cols, payload.as_deref()),
                };
                // The worker drained the kernel-side cost in
                // `timed_serve`; the response body size is only known
                // here, so `bytes_out` joins the same per-kind families
                // (and the sampled span) at serialize time.
                let out_cost = CostCounters {
                    bytes_out: body.len() as u64,
                    ..Default::default()
                };
                self.server
                    .metrics()
                    .cost
                    .record(trace_kind(req.kind) as usize, &out_cost);
                slot.state = SlotState::Ready(http::response(
                    200,
                    "application/json",
                    &body,
                    slot.keep_alive,
                    &[],
                ));
                if let Some(mut s) = span {
                    s.stamp(Stage::Serialize);
                    s.add_cost(&out_cost);
                    slot.span = Some(s);
                }
                self.shared.metrics.count_response(200);
                touched.push(token);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.pump_and_settle(token, now)?;
        }
        Ok(())
    }

    /// Drives a connection as far as it can go without new input —
    /// alternating flush (which frees pipeline slots) and parse (which
    /// fills them from buffered bytes) until neither makes progress —
    /// then reconciles poller interest with what the connection still
    /// wants, and closes it when it is finished (or dead).
    ///
    /// The alternation matters: after the *last* completion of a burst
    /// flushes, no further event would arrive to parse the rest of a
    /// deeply pipelined read buffer; looping here is what keeps a
    /// backlog larger than [`MAX_PIPELINE`] moving.
    fn pump_and_settle(&mut self, token: u64, now: Instant) -> io::Result<()> {
        let stopping = self.shared.stop.load(Ordering::Relaxed);
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return Ok(());
            };
            let before = (
                conn.slots.len(),
                conn.rbuf.len(),
                conn.wbuf.len() - conn.wpos,
            );
            pump_write(conn, &self.shared.metrics, self.server.tracer(), now);
            self.parse_conn(token, stopping);
            let Some(conn) = self.conns.get_mut(&token) else {
                return Ok(());
            };
            let after = (
                conn.slots.len(),
                conn.rbuf.len(),
                conn.wbuf.len() - conn.wpos,
            );
            if before == after {
                break;
            }
        }
        let conn = self.conns.get_mut(&token).expect("checked in loop");
        // Start (or clear) the partial-request clock: bytes left in the
        // read buffer with no request in flight can only be an
        // incomplete head/body awaiting the rest.
        if !conn.rbuf.is_empty() && conn.slots.is_empty() && !conn.read_shut {
            conn.partial_since.get_or_insert(now);
        } else {
            conn.partial_since = None;
        }
        // Same idea for the write side: the clock runs from when the
        // backlog appeared, not from the peer's last send.
        if conn.has_pending_write() {
            conn.write_stalled_since.get_or_insert(now);
        } else {
            conn.write_stalled_since = None;
        }
        let finished = conn.drained() && (conn.close_after_flush || conn.read_shut);
        if conn.dead || finished {
            let conn = self.conns.remove(&token).unwrap();
            self.poller.deregister(conn.stream.as_raw_fd())?;
            self.shared.metrics.connections_closed.inc();
            return Ok(());
        }

        let want_read = !conn.read_shut
            && conn.slots.len() < MAX_PIPELINE
            && conn.rbuf.len() < self.rbuf_cap
            && conn.wbuf.len() - conn.wpos < MAX_WRITE_BACKLOG;
        let want_write = conn.has_pending_write();
        if want_read != conn.reg_read || want_write != conn.reg_write {
            conn.reg_read = want_read;
            conn.reg_write = want_write;
            self.poller
                .modify(conn.stream.as_raw_fd(), token, want_read, want_write)?;
        }
        Ok(())
    }

    /// Enforces read/write/idle timeouts across all connections.
    fn sweep_timeouts(&mut self, now: Instant) -> io::Result<()> {
        let mut expired: Vec<(u64, bool)> = Vec::new(); // (token, hard drop)
        for (&token, conn) in &self.conns {
            let idle = now.duration_since(conn.last_activity);
            // The clocks are checked independently — an armed (but not
            // yet expired) write-stall clock must not shadow the
            // read-stall check, or a client keeping a token write
            // backlog alive could trickle a partial request forever.
            let write_stalled = conn
                .write_stalled_since
                .is_some_and(|t0| now.duration_since(t0) > self.cfg.write_timeout);
            let read_stalled = conn
                .partial_since
                .is_some_and(|t0| now.duration_since(t0) > self.cfg.read_timeout);
            if write_stalled {
                expired.push((token, true)); // peer stopped reading
            } else if read_stalled {
                // Measured from when the partial request *started*, not
                // from the last byte — trickling bytes buys no time.
                expired.push((token, false)); // stalled mid-request → 408
            } else if conn.slots.is_empty()
                && !conn.has_pending_write()
                && idle > self.cfg.idle_timeout
            {
                expired.push((token, true)); // idle keep-alive, close silently
            }
        }
        for (token, hard) in expired {
            self.shared.metrics.timeouts.inc();
            if hard {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.dead = true;
                }
            } else {
                self.shared.metrics.count_response(408);
                if let Some(conn) = self.conns.get_mut(&token) {
                    let body = http::json_error("request timed out");
                    conn.push_ready(
                        false,
                        http::response(408, "application/json", &body, false, &[]),
                    );
                    conn.rbuf.clear();
                    conn.read_shut = true;
                    conn.close_after_flush = true;
                }
            }
            self.pump_and_settle(token, now)?;
        }
        Ok(())
    }

    /// Prometheus text exposition: sample the point-in-time gauges,
    /// then render the server's registry (the serving engine's
    /// latency/queue-wait histograms as `_bucket`/`_sum`/`_count`, the
    /// cost ledger, the tracer's per-stage durations, reload state)
    /// followed by the edge's own (connection, byte and status
    /// counters, admission-queue state). The two share no family name,
    /// so the result is one valid exposition.
    fn render_metrics(&self) -> String {
        let g = &self.gauges;
        g.uptime.set(g.started.elapsed().as_secs());
        g.connections_open.set(self.conns.len() as u64);
        g.in_flight.set(self.in_flight as u64);
        g.queue_capacity.set(self.jobs.capacity() as u64);
        g.queue_depth.set(self.jobs.len() as u64);
        g.queue_high_water.set(self.jobs.high_water() as u64);
        let mut out = self.server.registry().render();
        out.push_str(&self.shared.registry.render());
        out
    }
}

/// Renders the JSON body of a completed query response.
fn render_query_json(src: u32, dst: u32, is_path: bool, resp: &Response) -> Vec<u8> {
    let distance = match resp.distance {
        Some(d) => d.to_string(),
        None => "null".to_string(),
    };
    if is_path {
        let hops = match resp.hops {
            Some(h) => h.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"src\":{src},\"dst\":{dst},\"distance\":{distance},\"hops\":{hops}}}"
        )
        .into_bytes()
    } else {
        format!(
            "{{\"src\":{src},\"dst\":{dst},\"distance\":{distance},\"cache_hit\":{}}}",
            resp.cache_hit
        )
        .into_bytes()
    }
}

/// Renders the JSON body of a completed `/v1/via` response. No payload
/// means no POI of the category was reachable: every answer field is
/// `null`, mirroring an unreachable `/v1/distance`.
fn render_via_json(
    src: u32,
    dst: u32,
    cat: u32,
    resp: &Response,
    payload: Option<&ScenarioResult>,
) -> Vec<u8> {
    let mut out = format!("{{\"src\":{src},\"dst\":{dst},\"cat\":{cat},");
    match payload {
        Some(ScenarioResult::Via(a)) => {
            out.push_str(&format!(
                "\"poi\":{},\"total\":{},\"to_poi\":{},\"from_poi\":{},",
                a.poi, a.total, a.to_poi, a.from_poi
            ));
        }
        _ => out.push_str("\"poi\":null,\"total\":null,\"to_poi\":null,\"from_poi\":null,"),
    }
    out.push_str(&format!("\"cache_hit\":{}}}", resp.cache_hit));
    out.into_bytes()
}

/// Renders the JSON body of a completed `/v1/knn` response. The
/// results array is already sorted by `(distance, poi)` and truncated
/// to `k` by the engine; fewer than `k` entries means the category ran
/// out of reachable POIs.
fn render_knn_json(src: u32, cat: u32, k: u32, payload: Option<&ScenarioResult>) -> Vec<u8> {
    let mut out = format!("{{\"src\":{src},\"cat\":{cat},\"k\":{k},\"results\":[");
    if let Some(ScenarioResult::Knn(results)) = payload {
        for (i, &(poi, d)) in results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"poi\":{poi},\"distance\":{d}}}"));
        }
    }
    out.push_str("]}");
    out.into_bytes()
}

/// Renders the JSON body of a completed `/v1/matrix` response:
/// row-major `distances`, one row per source, `null` cells for
/// unreachable or out-of-range pairs. A missing payload (worker could
/// not produce a table) renders as a fully-masked `rows`×`cols` table
/// so the body shape always matches the request.
fn render_matrix_json(rows: usize, cols: usize, payload: Option<&ScenarioResult>) -> Vec<u8> {
    let mut out = format!("{{\"rows\":{rows},\"cols\":{cols},\"distances\":[");
    let table: Option<&Vec<Vec<Option<u64>>>> = match payload {
        Some(ScenarioResult::Matrix(t)) => Some(t),
        _ => None,
    };
    for r in 0..rows {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for c in 0..cols {
            if c > 0 {
                out.push(',');
            }
            match table.and_then(|t| t.get(r)).and_then(|row| row.get(c)) {
                Some(Some(d)) => out.push_str(&d.to_string()),
                _ => out.push_str("null"),
            }
        }
        out.push(']');
    }
    out.push_str("]}");
    out.into_bytes()
}

/// Parses the `POST /v1/matrix` body:
/// `{"sources":[u32,...],"targets":[u32,...]}` (key order free,
/// whitespace tolerated, no other JSON accepted). Malformed bodies are
/// `400`; tables over [`MAX_MATRIX_DIM`] per side are `413`, the same
/// class as an oversized body. Hand-rolled like every other JSON
/// surface in this workspace — no serde.
fn parse_matrix_body(body: &[u8]) -> Result<MatrixRequest, (u16, &'static str)> {
    let text = std::str::from_utf8(body).map_err(|_| (400u16, "body must be UTF-8 JSON"))?;
    let trimmed = text.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err((400, "body must be a JSON object"));
    }
    let sources = extract_u32_array(trimmed, "sources")?;
    let targets = extract_u32_array(trimmed, "targets")?;
    if sources.is_empty() || targets.is_empty() {
        return Err((400, "sources and targets must be non-empty"));
    }
    if sources.len() > MAX_MATRIX_DIM || targets.len() > MAX_MATRIX_DIM {
        return Err((413, "matrix dimensions exceed the per-side cap"));
    }
    Ok(MatrixRequest { sources, targets })
}

/// Pulls `"key": [u32, ...]` out of a JSON object body.
fn extract_u32_array(text: &str, key: &str) -> Result<Vec<u32>, (u16, &'static str)> {
    let needle = format!("\"{key}\"");
    let at = text
        .find(&needle)
        .ok_or((400u16, "sources and targets arrays are required"))?;
    let rest = text[at + needle.len()..].trim_start();
    let rest = rest
        .strip_prefix(':')
        .ok_or((400u16, "expected ':' after key"))?
        .trim_start();
    let rest = rest
        .strip_prefix('[')
        .ok_or((400u16, "sources and targets must be arrays"))?;
    let end = rest.find(']').ok_or((400u16, "unterminated array"))?;
    let inner = rest[..end].trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<u32>()
                .map_err(|_| (400u16, "array elements must be u32 node ids"))
        })
        .collect()
}

/// Reads whatever the socket has (until `WouldBlock`, EOF, or a
/// backlog cap suggests stopping), appending to the connection's parse
/// buffer. The read-backlog cap also bounds how long one fast sender
/// can occupy the event loop in a single pass.
fn read_some(conn: &mut Conn, metrics: &EdgeMetrics, now: Instant, rbuf_cap: usize) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if conn.slots.len() >= MAX_PIPELINE || conn.rbuf.len() >= rbuf_cap {
            return; // stop reading; TCP back-pressure takes over
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_shut = true;
                return;
            }
            Ok(n) => {
                metrics.bytes_in.add(n as u64);
                conn.rbuf.extend_from_slice(&chunk[..n]);
                conn.last_activity = now;
                if n < chunk.len() {
                    return; // drained the socket buffer
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Moves ready front slots into the write buffer (strict pipeline
/// order) and writes as much as the socket accepts. Slot conversion
/// stops once the unsent backlog reaches [`MAX_WRITE_BACKLOG`], so a
/// peer that never reads cannot turn buffered requests into unbounded
/// response bytes — parked `Ready` slots count against the pipeline
/// cap, which in turn halts parsing and (via the settle gate) reading.
///
/// Sampled spans ride along: a slot entering the write buffer records
/// the byte mark its response ends at, and once the socket has
/// accepted that many lifetime bytes the span is stamped `Flush` and
/// finished — the trace ends when the *last byte* clears, not when the
/// response is merely buffered.
fn pump_write(conn: &mut Conn, metrics: &EdgeMetrics, tracer: &Tracer, now: Instant) {
    loop {
        while let Some(front) = conn.slots.front() {
            if !matches!(front.state, SlotState::Ready(_)) {
                break;
            }
            if conn.wbuf.len() - conn.wpos >= MAX_WRITE_BACKLOG {
                break; // backlog cap: leave the slot parked
            }
            let slot = conn.slots.pop_front().unwrap();
            let SlotState::Ready(bytes) = slot.state else {
                unreachable!()
            };
            conn.wbuf.extend_from_slice(&bytes);
            conn.bytes_queued += bytes.len() as u64;
            if let Some(span) = slot.span {
                conn.pending_spans.push_back((conn.bytes_queued, span));
            }
            if !slot.keep_alive {
                // This response is the last one this connection will
                // carry; anything the client pipelined after it is
                // abandoned by protocol (dropped slots take their
                // unfinished spans with them).
                conn.read_shut = true;
                conn.close_after_flush = true;
                conn.slots.clear();
                break;
            }
        }
        if !conn.has_pending_write() {
            conn.wbuf.clear();
            conn.wpos = 0;
            return;
        }
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.wpos += n;
                conn.bytes_flushed += n as u64;
                while conn
                    .pending_spans
                    .front()
                    .is_some_and(|p| p.0 <= conn.bytes_flushed)
                {
                    let (_, mut span) = conn.pending_spans.pop_front().unwrap();
                    span.stamp(Stage::Flush);
                    tracer.finish(*span, 200);
                }
                metrics.bytes_out.add(n as u64);
                conn.last_activity = now;
                // Any progress restarts the write-stall clock (the
                // settle pass re-arms it if a backlog remains), so the
                // write timeout measures *stalls*, not slow-but-steady
                // consumption.
                conn.write_stalled_since = None;
                if !conn.has_pending_write() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    // Loop again: more slots may have become movable.
                    if conn.slots.is_empty() {
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reclaim the flushed prefix before parking: retaining
                // it would let a long-lived connection's buffer grow
                // with total bytes sent rather than with its backlog.
                if conn.wpos > 0 {
                    conn.wbuf.drain(..conn.wpos);
                    conn.wpos = 0;
                }
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}
