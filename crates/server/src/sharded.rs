//! Region-sharded serving: one worker pool over a [`ShardedIndex`].
//!
//! A [`ShardedServer`] is the plain [`crate::Server`] pipeline (queue,
//! cache, workers, metrics, tracing) running the [`ShardedBackend`].
//! Every pair is routed inside its session by [`ShardedQuery`]:
//! same-shard pairs are answered from that shard's small AH index,
//! cross-shard pairs compose exactly through the boundary graph. The
//! server adds two things on top: it counts the run's same-shard and
//! cross-shard requests, and it feeds the pool in source-shard order.

use std::sync::Arc;

use ah_graph::{NodeId, Path};
use ah_shard::{ShardedIndex, ShardedQuery};

use crate::backend::{BackendSession, DistanceBackend};
use crate::metrics::MetricsSnapshot;
use crate::server::{Request, Response, Server, ServerConfig};

/// A [`DistanceBackend`] over a [`ShardedIndex`]: exact composed
/// distances, global-index paths. [`ShardedServer`] runs it on one
/// [`Server`]; `serve_edge --shards` serves it over HTTP.
pub struct ShardedBackend<'a> {
    idx: &'a ShardedIndex,
}

impl<'a> ShardedBackend<'a> {
    /// Serves queries from a prebuilt sharded index.
    pub fn new(idx: &'a ShardedIndex) -> Self {
        ShardedBackend { idx }
    }
}

impl DistanceBackend for ShardedBackend<'_> {
    fn name(&self) -> &'static str {
        "AH-sharded"
    }

    fn num_nodes(&self) -> usize {
        self.idx.num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(ShardedSession {
            idx: self.idx,
            q: ShardedQuery::new(),
        })
    }
}

struct ShardedSession<'a> {
    idx: &'a ShardedIndex,
    q: ShardedQuery,
}

impl BackendSession for ShardedSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        self.q.distance(self.idx, s, t)
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path> {
        self.q.path(self.idx, s, t)
    }

    fn take_cost(&mut self) -> ah_obs::CostCounters {
        self.q.take_cost()
    }
}

/// Serving parameters for a [`ShardedServer`].
#[derive(Debug, Clone, Default)]
pub struct ShardedServerConfig {
    /// One shard's share of the pool. [`ShardedServer::new`] gives the
    /// pool `workers × K` worker threads and `cache_capacity × K` cache
    /// entries for K shards; queue depth and tracing are taken as given
    /// (workers claim the engine's fixed batch of 32 requests per queue
    /// lock).
    pub per_shard: ServerConfig,
}

impl ShardedServerConfig {
    /// `workers` worker threads per shard, defaults elsewhere.
    pub fn with_workers_per_shard(workers: usize) -> Self {
        ShardedServerConfig {
            per_shard: ServerConfig::with_workers(workers),
        }
    }
}

/// Outcome of one [`ShardedServer::run`] call.
#[derive(Debug, Clone)]
pub struct ShardedRunReport {
    /// One response per request, sorted by request id — bit-equal to
    /// what the unsharded AH backend answers.
    pub responses: Vec<Response>,
    /// Wall-clock seconds of the serving run (see [`Server::run`]).
    pub wall_secs: f64,
    /// The pool's telemetry for this run.
    pub snapshot: MetricsSnapshot,
    /// Requests whose endpoints share a shard (served locally).
    /// `same_shard + cross_shard` can be less than the response count:
    /// requests naming out-of-range nodes have no region and are
    /// counted in neither bucket.
    pub same_shard: usize,
    /// Requests whose endpoints straddle shards (composed through the
    /// boundary graph).
    pub cross_shard: usize,
}

impl ShardedRunReport {
    /// Requests served per wall-clock second.
    pub fn qps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.responses.len() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Fraction of requests that crossed shards.
    pub fn cross_shard_fraction(&self) -> f64 {
        let total = self.same_shard + self.cross_shard;
        if total == 0 {
            0.0
        } else {
            self.cross_shard as f64 / total as f64
        }
    }
}

/// A query server over a [`ShardedIndex`]: one [`Server`] running the
/// [`ShardedBackend`]. Its cache and metrics persist across
/// [`ShardedServer::run`] calls, modelling a warmed-up service.
pub struct ShardedServer {
    index: Arc<ShardedIndex>,
    server: Server,
}

impl ShardedServer {
    /// Builds the pool for `index`, sized as [`ShardedServerConfig`]
    /// documents.
    pub fn new(index: Arc<ShardedIndex>, cfg: ShardedServerConfig) -> Self {
        let k = index.num_shards();
        let per = cfg.per_shard;
        let server = Server::new(ServerConfig {
            workers: per.workers.max(1) * k,
            cache_capacity: per.cache_capacity * k,
            ..per
        });
        ShardedServer { index, server }
    }

    /// The serving pool (metrics, cache statistics) as a one-element
    /// slice.
    pub fn pools(&self) -> &[Server] {
        std::slice::from_ref(&self.server)
    }

    /// Serves every request and returns the responses sorted by
    /// request id, the run's telemetry and its traffic mix.
    ///
    /// Requests naming an out-of-range node are answered with
    /// `distance: None` as [`Server::run`] documents.
    pub fn run(&self, requests: &[Request]) -> ShardedRunReport {
        let idx = &*self.index;
        let shard = |v: NodeId| ((v as usize) < idx.num_nodes()).then(|| idx.shard_of(v));
        let (mut same_shard, mut cross_shard) = (0, 0);
        for req in requests {
            // Requests naming out-of-range nodes have no region and are
            // counted in neither bucket, so the published cross-shard
            // fraction describes only genuinely routed traffic.
            if let (Some(a), Some(b)) = (shard(req.s), shard(req.t)) {
                if a == b {
                    same_shard += 1;
                } else {
                    cross_shard += 1;
                }
            }
        }
        // Feed the pool one source shard at a time (out-of-range
        // sources sort with shard 0): each worker's batches then stay
        // in one shard's index and sweep state instead of mixing
        // shards (mixing them read ~5 % lower `sharded_qps` on 2 vCPUs).
        let mut ordered = requests.to_vec();
        ordered.sort_by_key(|r| shard(r.s).unwrap_or(0));
        let report = self.server.run(&ShardedBackend::new(idx), &ordered);
        ShardedRunReport {
            responses: report.responses,
            wall_secs: report.wall_secs,
            snapshot: report.snapshot,
            same_shard,
            cross_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AhBackend;
    use ah_core::{AhIndex, BuildConfig};
    use ah_search::dijkstra_distance;
    use ah_shard::ShardConfig;

    fn sharded_fixture() -> (ah_graph::Graph, Arc<ShardedIndex>) {
        let g = ah_data::fixtures::lattice(8, 8, 12);
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 4,
                ..Default::default()
            },
        );
        (g, Arc::new(idx))
    }

    fn mixed_requests(n: u32, total: usize) -> Vec<Request> {
        (0..total as u64)
            .map(|id| {
                let s = (id as u32 * 7 + 3) % n;
                let t = (id as u32 * 13 + 5) % n;
                if id % 7 == 0 {
                    Request::path(id, s, t)
                } else {
                    Request::distance(id, s, t)
                }
            })
            .collect()
    }

    #[test]
    fn sharded_server_matches_unsharded_bit_for_bit() {
        let (g, idx) = sharded_fixture();
        let reqs = mixed_requests(g.num_nodes() as u32, 300);

        let sharded = ShardedServer::new(
            idx.clone(),
            ShardedServerConfig::with_workers_per_shard(2),
        );
        let report = sharded.run(&reqs);
        assert_eq!(report.responses.len(), reqs.len());
        assert!(report.cross_shard > 0, "workload must straddle shards");
        assert!(report.same_shard > 0);
        assert_eq!(report.snapshot.queries, reqs.len() as u64);

        let unsharded_idx = AhIndex::build(&g, &BuildConfig::default());
        let unsharded = Server::new(ServerConfig::with_workers(2));
        let want = unsharded.run(&AhBackend::new(&unsharded_idx), &reqs);
        for (a, b) in report.responses.iter().zip(&want.responses) {
            assert_eq!((a.id, a.distance), (b.id, b.distance), "req {}", a.id);
        }
        assert!(report.qps() > 0.0);
    }

    #[test]
    fn backend_works_under_a_plain_server_too() {
        let (g, idx) = sharded_fixture();
        let server = Server::new(ServerConfig::with_workers(3));
        let reqs = mixed_requests(g.num_nodes() as u32, 120);
        let report = server.run(&ShardedBackend::new(&idx), &reqs);
        for (req, resp) in reqs.iter().zip(&report.responses) {
            let want = dijkstra_distance(&g, req.s, req.t).map(|d| d.length);
            assert_eq!(resp.distance, want, "req {}", req.id);
        }
    }

    #[test]
    fn out_of_range_requests_are_answered_none() {
        let (_, idx) = sharded_fixture();
        let server = ShardedServer::new(idx, ShardedServerConfig::with_workers_per_shard(1));
        let report = server.run(&[
            Request::distance(0, 0, 9),
            Request::distance(1, 9999, 0),
            Request::distance(2, 0, 9999),
        ]);
        assert_eq!(report.responses.len(), 3);
        assert!(report.responses[0].distance.is_some());
        assert_eq!(report.responses[1].distance, None);
        assert_eq!(report.responses[2].distance, None);
        // Only the routable request is counted in the traffic mix.
        assert_eq!(report.same_shard + report.cross_shard, 1);
    }

    #[test]
    fn route_telemetry_reports_composition() {
        use ah_shard::Route;
        let (_, idx) = sharded_fixture();
        let mut q = ShardedQuery::new();
        // Find a definite cross-shard pair.
        let s = 0u32;
        let t = (idx.num_nodes() - 1) as u32;
        assert_ne!(idx.shard_of(s), idx.shard_of(t));
        q.distance(&idx, s, t);
        assert_eq!(q.last_route, Route::Composed);
    }
}
