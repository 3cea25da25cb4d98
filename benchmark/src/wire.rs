//! `wire_points`: HTTP/1.1 over loopback to an in-process `EdgeServer`
//! on the AH backend — 85 % `/v1/distance`, 15 % `/v1/path`, every pair
//! distinct so no request is answered from the cache. Depth-1 closed
//! loop for round-trip time, then depth-16 pipelining on two
//! connections for throughput. The traced run adds
//! the program's own 1-in-1 tracer (A/B, round by round, against the
//! untraced pass), the same stream through in-process `serve_queue`,
//! open-loop rate steps and an overload probe.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ah_net::blocking::Client;
use ah_net::{EdgeConfig, EdgeHandle, EdgeReport, EdgeServer};
use ah_server::{AhBackend, BoundedQueue, DistanceBackend, Job, Request, Server};

use crate::affinity::{self, Side};
use crate::engine::server_config;
use crate::pairs::{Pair, Rng};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::trace::SpanId;
use crate::world::World;
use crate::{Batches, Ctx};

/// Pipelined requests in flight per connection.
const PIPELINE_DEPTH: usize = 16;
/// Open-loop offered rates, requests per second.
const OPEN_RATES: [f64; 4] = [5_000.0, 10_000.0, 20_000.0, 40_000.0];
/// The open-loop latency limit on p99, microseconds.
const LIMIT_US: f64 = 2_000.0;
/// The six stage intervals of `ah_stage_duration_seconds`, with the
/// layer each belongs to.
const STAGES: [(&str, &str); 6] = [
    ("ah_net.stage_admit_us", "admit"),
    ("ah_server.stage_queue_us", "queue"),
    ("ah_server.stage_cache_probe_us", "cache_probe"),
    ("ah_server.stage_compute_us", "compute"),
    ("ah_net.stage_serialize_us", "serialize"),
    ("ah_net.stage_flush_us", "flush"),
];

/// The edge as the end-to-end numbers see it: event loop + one worker.
pub(crate) fn edge_config() -> EdgeConfig {
    EdgeConfig {
        workers: 1,
        ..Default::default()
    }
}

/// Serves `backend` on an ephemeral loopback port for the duration of
/// `client`, then drains the edge through [`EdgeHandle::shutdown`] (also
/// when `client` panics), so a run never leaks a listener. The event
/// loop and its workers run on the program's CPUs, `client` (and any
/// thread it spawns) on the load generator's.
pub(crate) fn with_edge<T>(
    server: &Server,
    backend: &dyn DistanceBackend,
    cfg: EdgeConfig,
    client: impl FnOnce(SocketAddr, &EdgeHandle) -> T,
) -> (T, EdgeReport) {
    struct ShutdownOnDrop<'a>(&'a EdgeHandle);
    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    let edge = EdgeServer::bind("127.0.0.1:0", cfg).expect("bind an ephemeral loopback port");
    let addr = edge.local_addr().expect("read the bound port back");
    let handle = edge.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            affinity::pin(Side::Program);
            edge.serve(server, backend)
        });
        let out = {
            let _drain = ShutdownOnDrop(&handle);
            affinity::on(Side::Load, || client(addr, &handle))
        };
        let report = serving
            .join()
            .expect("the edge thread panicked")
            .expect("the edge event loop failed");
        (out, report)
    })
}

pub(crate) fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the in-process edge")
}

/// One pre-rendered point request and the distance it must return.
pub(crate) struct PointOp {
    pub raw: Vec<u8>,
    pub pair: Pair,
    pub path: bool,
}

/// The `i`-th request of the run's point stream: the `i`-th pair of
/// the distinct-pair pool, as a path request for a seeded 15 % of them.
/// A function of `(seed, i)` alone, so every depth the stream is
/// replayed at (socket, traced socket, in-process queue) sees the same
/// requests, and a server that is sent each position once never sees a
/// pair twice.
fn point_op(world: &World, seed: u64, i: usize) -> PointOp {
    let pool = &world.pairs.pool;
    let pair = pool[i % pool.len()];
    let path = Rng::new(seed ^ 0x31AE_0001 ^ i as u64).below(100) < 15;
    let endpoint = if path { "path" } else { "distance" };
    let raw = format!(
        "GET /v1/{endpoint}?src={}&dst={} HTTP/1.1\r\nHost: b\r\n\r\n",
        pair.s, pair.t
    );
    PointOp {
        raw: raw.into_bytes(),
        pair,
        path,
    }
}

/// A cursor over the point stream.
struct PointStream<'w> {
    world: &'w World,
    seed: u64,
    next: usize,
}

impl Iterator for PointStream<'_> {
    type Item = PointOp;

    fn next(&mut self) -> Option<PointOp> {
        self.next += 1;
        Some(point_op(self.world, self.seed, self.next - 1))
    }
}

/// Latency samples of one kind of request, microseconds, ascending.
pub(crate) struct Latencies(Vec<f64>);

impl Latencies {
    pub fn new(samples: Vec<f64>) -> Latencies {
        Latencies(sorted(samples))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The exact `p`-th percentile; 0 of no samples (a phase that got
    /// no reply has already counted its requests as failed).
    pub fn p(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            percentile(&self.0, p)
        }
    }

    pub fn p50(&self) -> f64 {
        self.p(50.0)
    }

    /// `n=… p50 … pXX …` with the highest percentile the count supports.
    pub fn note(&self) -> String {
        let n = self.0.len();
        match tail_percentile(n) {
            Some(p) => format!("n={n}, p50 {:.1} us, p{p} {:.1} us", self.p50(), self.p(p)),
            None => format!("n={n}, p50 {:.1} us", self.p50()),
        }
    }
}

struct ClosedLoop {
    /// Round-trip times after the warm-up, microseconds, in send order.
    rtt: Vec<f64>,
    /// Every exchange, warm-up included: what the server's own stage
    /// histograms also saw.
    all_sum_us: f64,
    all_count: u64,
    failed: u64,
}

/// Depth-1 closed loop: send, wait for the reply, repeat — for
/// `budget_s` seconds and at least `min_samples` requests, after
/// `wire_warmup` unrecorded ones.
fn closed_loop(
    ctx: &Ctx,
    client: &mut Client,
    ops: &mut impl Iterator<Item = PointOp>,
    budget_s: f64,
    parent: SpanId,
) -> ClosedLoop {
    let mut out = ClosedLoop {
        rtt: Vec::new(),
        all_sum_us: 0.0,
        all_count: 0,
        failed: 0,
    };
    let mut timed_from = Instant::now();
    for (i, op) in ops.enumerate() {
        if i == ctx.sizes.wire_warmup {
            timed_from = Instant::now();
        }
        let recording = i >= ctx.sizes.wire_warmup;
        if recording
            && out.rtt.len() >= ctx.sizes.min_samples
            && timed_from.elapsed().as_secs_f64() >= budget_s
        {
            break;
        }
        let t = Instant::now();
        let reply = client.send(&op.raw).and_then(|()| client.recv());
        let rtt = t.elapsed();
        out.all_count += 1;
        out.all_sum_us += rtt.as_nanos() as f64 / 1e3;
        match reply {
            Ok(r) if r.status == 200 && r.distance() == Some(op.pair.dist.length) => {}
            Ok(r) => {
                out.failed += 1;
                eprintln!(
                    "[benchmark] {} -> {}: {} {}",
                    op.pair.s,
                    op.pair.t,
                    r.status,
                    r.text()
                );
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("[benchmark] transport error: {e}");
                break;
            }
        }
        if recording {
            out.rtt.push(rtt.as_nanos() as f64 / 1e3);
            ctx.rec.add(
                "ah_net.request",
                parent,
                out.all_count,
                ctx.rec.at_ns(t),
                ctx.rec.at_ns(t + rtt),
            );
        }
    }
    out
}

/// Sends `ops` on one connection keeping [`PIPELINE_DEPTH`] in flight.
/// Returns `(start, end, wrong answers)`.
fn pipelined(client: &mut Client, ops: &[PointOp], start: &Barrier) -> (Instant, Instant, u64) {
    let mut wrong = 0u64;
    start.wait();
    let t0 = Instant::now();
    let primed = PIPELINE_DEPTH.min(ops.len());
    let head: Vec<u8> = ops[..primed]
        .iter()
        .flat_map(|op| op.raw.iter().copied())
        .collect();
    let mut alive = client.send(&head).is_ok();
    for (i, op) in ops.iter().enumerate() {
        if !alive {
            wrong += (ops.len() - i) as u64;
            break;
        }
        match client.recv() {
            Ok(r) if r.status == 200 && r.distance() == Some(op.pair.dist.length) => {}
            Ok(_) => wrong += 1,
            Err(_) => alive = false,
        }
        if let Some(next) = ops.get(i + primed) {
            alive &= client.send(&next.raw).is_ok();
        }
    }
    (t0, Instant::now(), wrong)
}

/// `(sum seconds, count)` of one `ah_stage_duration_seconds` stage in a
/// Prometheus text scrape.
fn stage_totals(metrics_text: &str, stage: &str) -> (f64, f64) {
    let series = |suffix: &str| -> f64 {
        let prefix = format!("ah_stage_duration_seconds{suffix}{{");
        let label = format!("stage=\"{stage}\"");
        metrics_text
            .lines()
            .filter(|l| l.starts_with(&prefix) && l.contains(&label))
            .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
            .sum()
    };
    (series("_sum"), series("_count"))
}

/// One configuration of the edge (program tracer off, or 1-in-1),
/// measured round by round against one long-lived engine. The pass
/// walks the point stream once, front to back, so its engine never
/// sees a pair twice.
struct Pass<'w> {
    sample_every: u64,
    server: Server,
    stream: PointStream<'w>,
    /// Depth-1 round-trip times of all rounds, microseconds.
    rtt: Vec<f64>,
    qps: Batches,
    attempted: u64,
    failed: u64,
    bytes_in: u64,
    bytes_out: u64,
    answered: u64,
    /// Traced pass: per stage, seconds and count accumulated over the
    /// RTT parts of all rounds, and what the client saw of the same
    /// exchanges.
    stage_sums: [(f64, f64); 6],
    client_sum_us: f64,
    client_count: u64,
    traces_json: String,
}

impl<'w> Pass<'w> {
    fn new(world: &'w World, seed: u64, sample_every: u64) -> Self {
        Pass {
            sample_every,
            server: Server::new(server_config(1, sample_every)),
            stream: PointStream {
                world,
                seed,
                next: 0,
            },
            rtt: Vec::new(),
            qps: Batches::new(),
            attempted: 0,
            failed: 0,
            bytes_in: 0,
            bytes_out: 0,
            answered: 0,
            stage_sums: [(0.0, 0.0); 6],
            client_sum_us: 0.0,
            client_count: 0,
            traces_json: String::new(),
        }
    }

    fn round(&mut self, ctx: &Ctx, budget_s: f64, parent: SpanId) {
        let world = self.stream.world;
        let backend = AhBackend::new(&world.ah);
        let batch = ctx.sizes.pipeline_batch;
        let traced = self.sample_every > 0;
        let (server, stream) = (&self.server, &mut self.stream);
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut stage_delta = [(0.0, 0.0); 6];
        let mut traces_json = String::new();

        let ((closed, qps), edge) = with_edge(server, &backend, edge_config(), |addr, _| {
            let scrape = |target: &str| {
                connect(addr)
                    .get(target)
                    .map(|r| r.text())
                    .unwrap_or_default()
            };
            let before = if traced {
                scrape("/metrics")
            } else {
                String::new()
            };
            let mut client = connect(addr);
            let closed = closed_loop(ctx, &mut client, stream, budget_s * 0.55, parent);
            if traced {
                let after = scrape("/metrics");
                for (delta, (_, stage)) in stage_delta.iter_mut().zip(STAGES) {
                    let (s0, c0) = stage_totals(&before, stage);
                    let (s1, c1) = stage_totals(&after, stage);
                    *delta = (s1 - s0, c1 - c0);
                }
                traces_json = scrape("/debug/traces");
            }

            let mut clients = [client, connect(addr)];
            let start = Barrier::new(clients.len());
            let qps = ctx.timed_batches(budget_s * 0.45, || {
                let ops: Vec<Vec<PointOp>> = clients
                    .iter()
                    .map(|_| (&mut *stream).take(batch).collect())
                    .collect();
                let ends: Vec<(Instant, Instant, u64)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = clients
                        .iter_mut()
                        .zip(&ops)
                        .map(|(c, ops)| scope.spawn(|| pipelined(c, ops, &start)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("pipelining client"))
                        .collect()
                });
                let t0 = ends.iter().map(|e| e.0).min().expect("two connections");
                let t1 = ends.iter().map(|e| e.1).max().expect("two connections");
                attempted += (ops.len() * batch) as u64;
                failed += ends.iter().map(|e| e.2).sum::<u64>();
                ctx.rec.add(
                    "ah_net.pipelined_batch",
                    parent,
                    0,
                    ctx.rec.at_ns(t0),
                    ctx.rec.at_ns(t1),
                );
                (ops.len() * batch) as f64 / (t1 - t0).as_secs_f64()
            });
            (closed, qps)
        });

        self.attempted += attempted + closed.all_count;
        self.failed += failed + closed.failed;
        self.rtt.extend(closed.rtt);
        self.qps.extend(qps);
        self.bytes_in += edge.bytes_in;
        self.bytes_out += edge.bytes_out;
        self.answered += edge
            .responses_by_status
            .iter()
            .map(|&(_, n)| n)
            .sum::<u64>();
        for (sum, delta) in self.stage_sums.iter_mut().zip(stage_delta) {
            *sum = (sum.0 + delta.0, sum.1 + delta.1);
        }
        self.client_sum_us += closed.all_sum_us;
        self.client_count += closed.all_count;
        if !traces_json.trim().is_empty() {
            self.traces_json = traces_json.trim().to_string();
        }
    }
}

pub(crate) struct Wire<'w> {
    world: &'w World,
    plain: Pass<'w>,
    traced: Option<Pass<'w>>,
}

impl<'w> Wire<'w> {
    pub fn new(world: &'w World, ctx: &Ctx) -> Self {
        Wire {
            world,
            plain: Pass::new(world, ctx.opts.seed, 0),
            traced: ctx.opts.traced.then(|| Pass::new(world, ctx.opts.seed, 1)),
        }
    }

    pub fn round(&mut self, ctx: &Ctx, budget_s: f64, parent: SpanId) {
        self.plain.round(ctx, budget_s, parent);
        if let Some(traced) = &mut self.traced {
            traced.round(ctx, budget_s, parent);
        }
    }

    /// Reports the phase; returns the program tracer's `/debug/traces`
    /// document (JSON `null` when untraced) for the trace file.
    pub fn finish(self, ctx: &mut Ctx, parent: SpanId) -> String {
        let Wire {
            world,
            plain,
            traced,
        } = self;
        let hit_ratio = plain.server.cache_hit_rate();
        let rtt = Latencies::new(plain.rtt);
        let (rtt_p50, qps) = (rtt.p50(), plain.qps.median());
        let r = &mut ctx.report;
        r.put("rtt_p50_us", rtt_p50, rtt.note());
        r.put("rtt_p90_us", rtt.p(90.0), rtt.note());
        r.put(
            "pipelined_qps",
            qps,
            plain.qps.note(&format!(
                "batches x 2 connections x {} requests, depth {PIPELINE_DEPTH}",
                ctx.sizes.pipeline_batch
            )),
        );
        r.check_many(
            plain.attempted,
            plain.failed,
            "wire answer wrong, refused or lost",
        );
        // The traffic is what the workload says it is: distinct pairs,
        // so (next to) nothing was answered from the cache.
        r.check(hit_ratio < 0.01, || {
            format!("wire_points cache hit ratio {hit_ratio}: the pairs are not distinct")
        });
        let Some(traced) = traced else {
            return "null".to_string();
        };

        r.put(
            "ah_server.cache_hit_ratio.wire",
            hit_ratio,
            "lifetime of the untraced pass's engine",
        );
        r.put("ah_net.rtt_p99_us", rtt.p(99.0), rtt.note());
        r.put(
            "ah_net.bytes_in_per_req",
            plain.bytes_in as f64 / plain.answered as f64,
            format!("{} requests", plain.answered),
        );
        r.put(
            "ah_net.bytes_out_per_resp",
            plain.bytes_out as f64 / plain.answered as f64,
            format!("{} responses", plain.answered),
        );

        // The program's tracer at 1-in-1: its cost, and its own account
        // of where a request's time goes.
        r.check_many(
            traced.attempted,
            traced.failed,
            "wire answer wrong, refused or lost (traced pass)",
        );
        let traced_p50 = Latencies::new(traced.rtt).p50();
        let traced_qps = traced.qps.median();
        r.put(
            "ah_obs.trace_overhead_pct.rtt",
            100.0 * (traced_p50 - rtt_p50) / rtt_p50,
            format!("rtt p50 {traced_p50:.1} us traced vs {rtt_p50:.1} us"),
        );
        r.put(
            "ah_obs.trace_overhead_pct.qps",
            100.0 * (qps - traced_qps) / qps,
            format!("pipelined {traced_qps:.0} qps traced vs {qps:.0}"),
        );
        let mut stage_sum_us = 0.0;
        for ((name, _), (secs, count)) in STAGES.iter().zip(traced.stage_sums) {
            let mean_us = if count > 0.0 { secs / count * 1e6 } else { 0.0 };
            stage_sum_us += mean_us;
            r.put(
                name,
                mean_us,
                format!("mean of {count:.0} spans, /metrics ah_stage_duration_seconds"),
            );
        }
        let client_mean_us = traced.client_sum_us / traced.client_count as f64;
        r.put(
            "ah_net.stage_coverage_ratio",
            stage_sum_us / client_mean_us,
            format!(
                "stage means sum {stage_sum_us:.1} us / client mean rtt {client_mean_us:.1} us"
            ),
        );

        let sojourn = queue_sojourn(world, ctx, parent, rtt.len().min(5_000));
        ctx.report.put(
            "ah_net.self_us",
            rtt_p50 - sojourn.p50(),
            format!(
                "rtt p50 - p50 sojourn of the stream's first {} requests through serve_queue, {:.1} us",
                sojourn.len(),
                sojourn.p50()
            ),
        );
        probes(world, ctx);
        if traced.traces_json.is_empty() {
            "null".to_string()
        } else {
            traced.traces_json
        }
    }
}

/// Closes a queue when dropped, so the worker blocked in `serve_queue`
/// ends however its feeder leaves.
struct CloseOnDrop<'a>(&'a BoundedQueue<Job<()>>);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The point stream's first `len` requests (after the warm-up's) through
/// in-process `serve_queue` on a fresh engine — queue, worker hand-off,
/// cache miss and kernel, as the socket pass paid for the same requests,
/// but no socket and no HTTP. Returns sojourn times.
fn queue_sojourn(world: &World, ctx: &mut Ctx, parent: SpanId, len: usize) -> Latencies {
    let backend = AhBackend::new(&world.ah);
    let server = Server::new(server_config(1, 0));
    let ops: Vec<PointOp> = (0..len + ctx.sizes.wire_warmup)
        .map(|i| point_op(world, ctx.opts.seed, i))
        .collect();
    let queue: BoundedQueue<Job<()>> = BoundedQueue::new(1024);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut samples = Vec::with_capacity(len);
    let (mut asked, mut wrong) = (0u64, 0u64);
    std::thread::scope(|scope| {
        // `tx` moves into the worker, so a dead worker ends `recv`.
        let (server, backend, queue) = (&server, &backend, &queue);
        scope.spawn(move || {
            affinity::pin(Side::Program);
            server.serve_queue(backend, queue, |(), resp, _, _| {
                let _ = tx.send(resp);
            })
        });
        let _close = CloseOnDrop(queue);
        affinity::pin(Side::Load);
        for (i, op) in ops.iter().enumerate() {
            let (s, t) = (op.pair.s, op.pair.t);
            let req = if op.path {
                Request::path(i as u64, s, t)
            } else {
                Request::distance(i as u64, s, t)
            };
            asked += 1;
            let t0 = Instant::now();
            let job = Job {
                req,
                batch: None,
                span: None,
                tag: (),
            };
            let resp = match queue.try_push(job) {
                Ok(()) => rx.recv().ok(),
                Err(_) => None,
            };
            let dt = t0.elapsed();
            let Some(resp) = resp else {
                // Refused, or the worker is gone: nothing more will come.
                wrong += (ops.len() - i) as u64;
                asked = ops.len() as u64;
                break;
            };
            wrong += u64::from(resp.distance != Some(op.pair.dist.length));
            if i >= ctx.sizes.wire_warmup {
                samples.push(dt.as_nanos() as f64 / 1e3);
                ctx.rec.add(
                    "ah_server.serve_queue",
                    parent,
                    i as u64 + 1,
                    ctx.rec.at_ns(t0),
                    ctx.rec.at_ns(t0 + dt),
                );
            }
        }
        affinity::pin(Side::Any);
    });
    ctx.report
        .check_many(asked, wrong, "serve_queue answer wrong, refused or lost");
    Latencies::new(samples)
}

struct OpenLoop {
    /// Latency from each request's due time, ascending, microseconds.
    latency: Latencies,
    /// How late the generator sent, ascending, microseconds.
    lag: Latencies,
    sheds: u64,
    wrong: u64,
    /// Median latency of the last quarter over that of the first.
    backlog_growth: f64,
}

/// Open loop on one connection: a writer sends request `i` at
/// `i / rate` seconds whether or not replies have come back, a reader
/// times each reply from its due time.
fn open_loop(addr: SocketAddr, ops: &[PointOp], rate: f64) -> OpenLoop {
    let mut reader = connect(addr);
    let mut writer = reader
        .stream()
        .try_clone()
        .expect("clone the socket for the writer");
    let interval = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + interval * i as u32;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lag = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                // Sleep most of the wait, spin the rest: sleep alone
                // overshoots by more than an interval at these rates.
                loop {
                    let wait = due(i).saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        break;
                    }
                    if wait > Duration::from_micros(200) {
                        std::thread::sleep(wait - Duration::from_micros(100));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                lag.push(Instant::now().saturating_duration_since(due(i)).as_nanos() as f64 / 1e3);
                if writer.write_all(&op.raw).is_err() {
                    break;
                }
            }
            lag
        });
        let (mut latency, mut sheds, mut wrong) = (Vec::with_capacity(ops.len()), 0u64, 0u64);
        for (i, op) in ops.iter().enumerate() {
            match reader.recv() {
                Ok(r) => {
                    latency.push(
                        Instant::now().saturating_duration_since(due(i)).as_nanos() as f64 / 1e3,
                    );
                    match r.status {
                        200 if r.distance() == Some(op.pair.dist.length) => {}
                        429 | 503 => sheds += 1,
                        _ => wrong += 1,
                    }
                }
                Err(_) => {
                    wrong += (ops.len() - i) as u64;
                    break;
                }
            }
        }
        let lag = sender.join().expect("open-loop writer");
        let quarter = (latency.len() / 4).max(1);
        let med = |part: &[f64]| median(&sorted(part.to_vec()));
        let backlog_growth = if latency.is_empty() {
            f64::INFINITY
        } else {
            med(&latency[latency.len() - quarter..]) / med(&latency[..quarter])
        };
        OpenLoop {
            latency: Latencies::new(latency),
            lag: Latencies::new(lag),
            sheds,
            wrong,
            backlog_growth,
        }
    })
}

struct Overload {
    /// Latency of each admitted request, microseconds.
    accepted: Vec<f64>,
    shed: u64,
    wrong: u64,
    wall_s: f64,
}

/// Unpaced pipelining, 64 in flight per connection, against an edge
/// whose queue admits 64: the excess must be shed with `429` while
/// every admitted request still completes correctly. Cycles through
/// `ops` should the probe outlast them.
fn overload_connection(addr: SocketAddr, ops: &[PointOp], secs: f64) -> Overload {
    const DEPTH: usize = 64;
    let mut client = connect(addr);
    let mut sent_at: VecDeque<(Instant, usize)> = VecDeque::new();
    let (mut accepted, mut shed, mut wrong) = (Vec::new(), 0u64, 0u64);
    let t0 = Instant::now();
    let mut next = 0usize;
    loop {
        let sending = t0.elapsed().as_secs_f64() < secs;
        while sending && sent_at.len() < DEPTH {
            let op = &ops[next % ops.len()];
            if client.send(&op.raw).is_err() {
                break;
            }
            sent_at.push_back((Instant::now(), next % ops.len()));
            next += 1;
        }
        let Some((at, i)) = sent_at.pop_front() else {
            break;
        };
        match client.recv() {
            Ok(r) if r.status == 200 && r.distance() == Some(ops[i].pair.dist.length) => {
                accepted.push(at.elapsed().as_nanos() as f64 / 1e3)
            }
            Ok(r) if r.status == 429 => shed += 1,
            Ok(_) => wrong += 1,
            Err(_) => {
                wrong += 1 + sent_at.len() as u64;
                break;
            }
        }
    }
    Overload {
        accepted,
        shed,
        wrong,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Traced run: open-loop rate steps and the overload probe, each on a
/// fresh edge and engine, each walking the point stream from its start.
fn probes(world: &World, ctx: &mut Ctx) {
    let backend = AhBackend::new(&world.ah);
    let stream = || PointStream {
        world,
        seed: ctx.opts.seed,
        next: 0,
    };
    let (mut asked, mut wrong) = (0u64, 0u64);
    let mut best_rate = 0.0f64;
    let mut worst_lag = 0.0f64;
    let server = Server::new(server_config(1, 0));
    let (steps, _) = with_edge(&server, &backend, edge_config(), |addr, _| {
        let mut stream = stream();
        OPEN_RATES.map(|rate| {
            let n = (rate * ctx.sizes.probe_secs) as usize;
            let ops: Vec<PointOp> = (&mut stream).take(n).collect();
            (rate, ops.len(), open_loop(addr, &ops, rate))
        })
    });
    for (rate, n, step) in &steps {
        asked += *n as u64;
        wrong += step.wrong;
        worst_lag = worst_lag.max(step.lag.p(99.0));
        let steady = step.sheds == 0 && step.backlog_growth <= 2.0;
        if step.latency.len() == *n && step.latency.p(99.0) <= LIMIT_US && steady {
            best_rate = best_rate.max(*rate);
        }
        let note = format!(
            "{}, sheds {}, generator lag p99 {:.1} us, last/first-quarter median {:.2}",
            step.latency.note(),
            step.sheds,
            step.lag.p(99.0),
            step.backlog_growth
        );
        if *rate == 10_000.0 {
            ctx.report
                .put("ah_net.open10k_p50_us", step.latency.p50(), note.clone());
            ctx.report
                .put("ah_net.open10k_p99_us", step.latency.p(99.0), note);
        } else if *rate == 20_000.0 {
            ctx.report
                .put("ah_net.open20k_p99_us", step.latency.p(99.0), note);
        }
    }
    ctx.report.put(
        "ah_net.open_lag_p99_us",
        worst_lag,
        "worst p99 send lateness over the rate steps",
    );
    ctx.report.put(
        "ah_net.max_rate_under_2ms",
        best_rate,
        "highest of 5k/10k/20k/40k req/s with p99 <= 2 ms from due time, no sheds, no growing backlog",
    );

    let server = Server::new(server_config(1, 0));
    let cfg = EdgeConfig {
        queue_capacity: 64,
        ..edge_config()
    };
    // Each connection its own stretch of the stream, so neither is
    // served pairs the other has just put in the cache.
    let per_connection = (world.pairs.pool.len() / 2).min(1 << 16);
    let ops: Vec<PointOp> = stream().take(2 * per_connection).collect();
    let secs = ctx.sizes.probe_secs * 2.0;
    let (conns, _) = with_edge(&server, &backend, cfg, |addr, _| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = ops
                .chunks(per_connection)
                .map(|ops| scope.spawn(move || overload_connection(addr, ops, secs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("overload client"))
                .collect::<Vec<_>>()
        })
    });
    let accepted = Latencies::new(
        conns
            .iter()
            .flat_map(|c| c.accepted.iter().copied())
            .collect(),
    );
    let shed: u64 = conns.iter().map(|c| c.shed).sum();
    let lost: u64 = conns.iter().map(|c| c.wrong).sum();
    let wall = conns.iter().map(|c| c.wall_s).fold(0.0, f64::max);
    let answered = accepted.len() as u64 + shed;
    asked += answered + lost;
    wrong += lost;
    ctx.report.put(
        "ah_net.overload_shed_ratio",
        shed as f64 / answered.max(1) as f64,
        format!("{shed} x 429 of {answered}"),
    );
    ctx.report.put(
        "ah_net.overload_goodput_qps",
        accepted.len() as f64 / wall,
        format!("{wall:.2} s"),
    );
    ctx.report.put(
        "ah_net.overload_accepted_p50_us",
        accepted.p50(),
        accepted.note(),
    );
    ctx.report
        .check_many(asked, wrong, "probe answer wrong or lost");
}
