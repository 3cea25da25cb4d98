//! `engine_points`: in-process `Server::run` on the AH backend — queue,
//! cache and worker pool, no socket. Three phases: *hot* (a pool that
//! fits the LRU, so the kernel is bypassed), *cold* (distinct pairs,
//! each once, so every request pays kernel + miss path) and *sharded*
//! (the cold stream through a K=4 `ShardedServer`).

use ah_server::{
    AhBackend, BackendSession, DistanceBackend, MetricsSnapshot, Request, Response, Server,
    ServerConfig, ShardedServer, ShardedServerConfig, TraceConfig,
};

use crate::affinity::{self, Side};
use crate::pairs::Pair;
use crate::trace::SpanId;
use crate::world::{World, SHARDS};
use crate::{Batches, Ctx};

/// The engine as the end-to-end numbers see it: default queue, cache
/// and batch size, the program's own tracer off.
pub(crate) fn server_config(workers: usize, sample_every: u64) -> ServerConfig {
    ServerConfig {
        workers,
        trace: TraceConfig {
            sample_every,
            ..Default::default()
        },
        ..Default::default()
    }
}

pub(crate) fn distance_requests(pairs: &[Pair]) -> Vec<Request> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, p)| Request::distance(i as u64, p.s, p.t))
        .collect()
}

/// A backend whose worker threads pin themselves to the program's CPUs
/// as they create their session — the one hook a pool spawned inside
/// `Server::run` offers from outside.
pub(crate) struct OnProgramCpus<'a>(pub &'a dyn DistanceBackend);

impl DistanceBackend for OnProgramCpus<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        affinity::pin(Side::Program);
        self.0.make_session()
    }
}

/// Responses (sorted by request id) that differ from the pairs'
/// Dijkstra distances.
fn wrong(pairs: &[Pair], responses: &[Response]) -> u64 {
    let mismatches = pairs
        .iter()
        .zip(responses)
        .filter(|(p, r)| r.distance != Some(p.dist.length))
        .count();
    (mismatches + pairs.len().abs_diff(responses.len())) as u64
}

pub(crate) struct Engine<'w> {
    world: &'w World,
    workers: usize,
    lane_workers: usize,
    hot_pairs: Vec<Pair>,
    hot_requests: Vec<Request>,
    hot_server: Server,
    cold_server: Server,
    sharded_server: ShardedServer,
    /// Where the pair pool's cold part starts, and how far the cold and
    /// sharded streams have consumed it (each pair is served once per
    /// server, so it can never be a cache hit).
    pool_from: usize,
    cold_next: usize,
    sharded_next: usize,
    attempted: u64,
    failed: u64,
    hot: Batches,
    cold: Batches,
    sharded: Batches,
    /// Cold windows served, for the traced run's direct-kernel replay.
    cold_windows: Vec<usize>,
    hot_hit_ratio: f64,
    cold_snapshot: Option<MetricsSnapshot>,
    cross_shard_ratio: f64,
}

impl<'w> Engine<'w> {
    pub fn new(world: &'w World, ctx: &Ctx) -> Self {
        let workers = ctx.opts.workers;
        let pool = &world.pairs.pool;
        let hot_pool = &pool[..ctx.sizes.hot_pool.min(pool.len() / 2)];
        let hot_pairs: Vec<Pair> = hot_pool
            .iter()
            .copied()
            .cycle()
            .take(ctx.sizes.hot_batch)
            .collect();
        let hot_server = Server::new(server_config(workers, 0));
        // One pass of misses fills the cache; every hot request after it hits.
        hot_server.run(&AhBackend::new(&world.ah), &distance_requests(hot_pool));
        let lane_workers = (workers / SHARDS).max(1);
        Engine {
            world,
            workers,
            lane_workers,
            hot_requests: distance_requests(&hot_pairs),
            hot_pairs,
            hot_server,
            cold_server: Server::new(server_config(workers, 0)),
            sharded_server: ShardedServer::new(
                world.sharded.clone(),
                ShardedServerConfig {
                    per_shard: server_config(lane_workers, 0),
                },
            ),
            pool_from: hot_pool.len(),
            cold_next: 0,
            sharded_next: 0,
            attempted: 0,
            failed: 0,
            hot: Batches::new(),
            cold: Batches::new(),
            sharded: Batches::new(),
            cold_windows: Vec::new(),
            hot_hit_ratio: 0.0,
            cold_snapshot: None,
            cross_shard_ratio: 0.0,
        }
    }

    /// The `i`-th window of `len` distinct pairs past the hot pool.
    fn window(&self, i: usize, len: usize) -> &'w [Pair] {
        let cold = &self.world.pairs.pool[self.pool_from..];
        let windows = cold.len() / len;
        assert!(windows >= 1, "the pair pool is too small for a cold batch");
        &cold[(i % windows) * len..][..len]
    }

    pub fn round(&mut self, ctx: &Ctx, budget_s: f64, parent: SpanId) {
        let ah_backend = AhBackend::new(&self.world.ah);
        let backend = OnProgramCpus(&ah_backend);

        // hot and cold: the feeder (this thread) on the load CPU, the
        // pool on the program's.
        affinity::pin(Side::Load);
        let hot = ctx.timed_batches(budget_s * 0.25, || {
            let report = ctx.rec.span("ah_server.run.hot", parent, |_| {
                self.hot_server.run(&backend, &self.hot_requests)
            });
            self.attempted += self.hot_pairs.len() as u64;
            self.failed += wrong(&self.hot_pairs, &report.responses);
            self.hot_hit_ratio = report.snapshot.cache_hit_rate;
            self.hot_pairs.len() as f64 / report.wall_secs
        });
        self.hot.extend(hot);
        let cold = ctx.timed_batches(budget_s * 0.4, || {
            let pairs = self.window(self.cold_next, ctx.sizes.cold_batch);
            self.cold_windows.push(self.cold_next);
            self.cold_next += 1;
            let requests = distance_requests(pairs);
            let report = ctx.rec.span("ah_server.run.cold", parent, |_| {
                self.cold_server.run(&backend, &requests)
            });
            self.attempted += pairs.len() as u64;
            self.failed += wrong(pairs, &report.responses);
            let qps = pairs.len() as f64 / report.wall_secs;
            self.cold_snapshot = Some(report.snapshot);
            qps
        });
        self.cold.extend(cold);

        // sharded: K lanes, each a feeder plus its pool, all spawned
        // inside `ShardedServer::run` — 2K threads, more than a small
        // machine has cores. Left to float over every CPU the number is
        // bimodal (it halves whenever the host gives the VM's second CPU
        // away for a while), so the lanes are confined to the program's
        // CPUs and the number reads as sharded work per CPU-second.
        // Smaller batches than cold's: composing across shards costs an
        // order of magnitude more per request.
        affinity::pin(Side::Program);
        let sharded = ctx.timed_batches(budget_s * 0.35, || {
            let pairs = self.window(self.sharded_next, ctx.sizes.sharded_batch);
            self.sharded_next += 1;
            let requests = distance_requests(pairs);
            let report = ctx.rec.span("ah_server.sharded_run", parent, |_| {
                self.sharded_server.run(&requests)
            });
            self.attempted += pairs.len() as u64;
            self.failed += wrong(pairs, &report.responses);
            self.cross_shard_ratio = report.cross_shard_fraction();
            pairs.len() as f64 / report.wall_secs
        });
        self.sharded.extend(sharded);
        affinity::pin(Side::Any);
    }

    pub fn finish(self, ctx: &mut Ctx, parent: SpanId) {
        let (workers, lane_workers) = (self.workers, self.lane_workers);
        let (hot_qps, cold_qps) = (self.hot.median(), self.cold.median());
        let r = &mut ctx.report;
        r.put(
            "hot_qps",
            hot_qps,
            self.hot.note(&format!(
                "runs x {} requests, {workers} workers",
                self.hot_pairs.len()
            )),
        );
        r.put(
            "cold_qps",
            cold_qps,
            self.cold.note(&format!(
                "runs x {} requests, {workers} workers",
                ctx.sizes.cold_batch
            )),
        );
        r.put(
            "sharded_qps",
            self.sharded.median(),
            self.sharded.note(&format!(
                "runs x {} requests, {SHARDS} lanes x {lane_workers} workers",
                ctx.sizes.sharded_batch
            )),
        );
        r.check_many(
            self.attempted,
            self.failed,
            "engine answer differs from Dijkstra",
        );
        if !ctx.opts.traced {
            return;
        }

        // The identical cold stream straight into the kernel, one
        // session, no queue and no cache: what the engine's compute
        // stage costs. Median over the windows, as `cold_qps` is.
        let backend = AhBackend::new(&self.world.ah);
        let mut session = backend.make_session();
        let per_window: Vec<f64> = self
            .cold_windows
            .iter()
            .map(|&i| {
                let pairs = self.window(i, ctx.sizes.cold_batch);
                ctx.rec.span("ah_core.replay_cold", parent, |_| {
                    let t = std::time::Instant::now();
                    for p in pairs {
                        std::hint::black_box(session.distance(p.s, p.t));
                    }
                    t.elapsed().as_nanos() as f64 / pairs.len() as f64
                })
            })
            .collect();
        let replay_ns = crate::stats::median(&crate::stats::sorted(per_window));
        let hit_ns = workers as f64 * 1e9 / hot_qps;
        let cold_ns = workers as f64 * 1e9 / cold_qps;
        let r = &mut ctx.report;
        r.put(
            "ah_server.hit_ns_per_req",
            hit_ns,
            "workers x 1e9 / hot_qps",
        );
        r.put(
            "ah_server.miss_overhead_ns_per_req",
            cold_ns - replay_ns,
            format!("cold {cold_ns:.0} ns/req - direct kernel replay {replay_ns:.0} ns/query"),
        );
        r.put(
            "ah_server.compute_reconcile_ratio",
            replay_ns / (cold_ns - hit_ns),
            "kernel replay / (cold - hot) ns per request; expect 0.8-1.25",
        );
        let cold_snapshot = self.cold_snapshot.expect("at least one cold batch ran");
        r.put(
            "ah_server.cache_hit_ratio.hot",
            self.hot_hit_ratio,
            "last hot run",
        );
        r.put(
            "ah_server.cache_hit_ratio.cold",
            cold_snapshot.cache_hit_rate,
            "last cold run",
        );
        r.put(
            "ah_server.queue_wait_mean_us",
            cold_snapshot.queue_wait_mean_us,
            "last cold run",
        );
        r.put(
            "ah_server.queue_high_water",
            cold_snapshot.queue_high_water as f64,
            "last cold run",
        );

        let served = (self.sharded_next * ctx.sizes.sharded_batch) as f64;
        let mut cost = ah_obs::CostCounters::default();
        self.sharded_server
            .pools()
            .iter()
            .for_each(|p| cost.merge(&p.metrics().cost.total()));
        r.put(
            "ah_shard.build_s",
            self.world.shard_build_s,
            "ShardedIndex::from_global, in set-up",
        );
        r.put(
            "ah_shard.cross_shard_ratio",
            self.cross_shard_ratio,
            "last sharded run",
        );
        r.put(
            "ah_shard.hops_per_query",
            cost.shard_hops as f64 / served,
            "exact count",
        );
        r.put(
            "ah_shard.boundary_lookups_per_query",
            cost.boundary_lookups as f64 / served,
            "exact count",
        );
    }
}
