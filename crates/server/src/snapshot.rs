//! Restarting from and hot-swapping index snapshots.
//!
//! Two serving-lifecycle gaps close here, both backed by `ah_store`:
//!
//! * **Fast restart** — [`Server::from_snapshot`] brings a server up from
//!   a persisted [`AhIndex`] in milliseconds, skipping the multi-second
//!   build (the snapshot is written once, e.g. by
//!   `serve_edge --save-index`).
//! * **Zero-downtime reindexing** — a [`SnapshotServer`] owns its serving
//!   [`Tier`] behind an atomically swappable handle. Road data changed?
//!   Build or load the new index *off the serving path*, then
//!   [`SnapshotServer::swap_index`]: in-flight request streams finish
//!   against the old generation (the swap waits for them to drain), then
//!   the new index is published and the distance cache cleared under the
//!   same lock — so no answer computed against the old network can ever
//!   survive the swap, not even from a worker that was mid-stream when
//!   the swap began. The old tier is returned to the caller (for
//!   diffing or deferred teardown) and freed when the last `Arc` drops.
//!
//! The serving tier is an AH index in steady state. A delta reload
//! ([`crate::DeltaReloader`]) first publishes a CH index re-contracted
//! under the serving order — a new generation, answering the patched
//! graph within a fraction of a second — and then swaps the rebuilt AH
//! index in as an *upgrade* of that same generation: both tiers answer
//! the same graph with bit-identical `(length, nuance)`, so the upgrade
//! neither bumps the generation nor clears the cache.
//!
//! Workers never lock per query: a run takes the generation read-lock
//! once and serves its whole stream under it. Concurrent runs share the
//! read side; only a swap takes the write side, and only for the
//! pointer exchange plus cache clear.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ah_ch::{ChIndex, ChQuery};
use ah_core::{AhIndex, AhQuery};
use ah_graph::NodeId;
use ah_obs::CostCounters;
use ah_store::{Snapshot, SnapshotError};

use crate::backend::{AhBackend, BackendSession, ChBackend, DistanceBackend};
use crate::server::{Request, RunReport, Server, ServerConfig};

impl Server {
    /// Builds a swappable serving engine from the snapshot at `path`.
    ///
    /// The snapshot must contain an `ah.index` section (write one with
    /// [`ah_store::SnapshotContents::ah`]); anything else in the file is
    /// ignored. Fails with a typed [`SnapshotError`] — never panics — on
    /// missing files, corruption, version skew or a missing section.
    pub fn from_snapshot(
        path: impl AsRef<Path>,
        cfg: ServerConfig,
    ) -> Result<SnapshotServer, SnapshotError> {
        let index = Snapshot::load_ah(path)?;
        Ok(SnapshotServer::new(Arc::new(index), cfg))
    }
}

/// The index a [`SnapshotServer`] answers from.
#[derive(Clone)]
pub enum Tier {
    /// An Arterial Hierarchy — the steady state.
    Ah(Arc<AhIndex>),
    /// A Contraction Hierarchy contracted under the order of the index
    /// it replaced: what a delta reload serves while AH is rebuilt.
    Ch(Arc<ChIndex>),
}

impl Tier {
    /// The contraction order of the hierarchy under the tier (`[0]`
    /// contracted first): the order a delta reload re-contracts by.
    pub fn contraction_order(&self) -> Vec<NodeId> {
        match self {
            Tier::Ah(idx) => idx.hierarchy().contraction_order(),
            Tier::Ch(idx) => idx.hierarchy().contraction_order(),
        }
    }

    /// Number of nodes of the network the tier answers.
    pub fn num_nodes(&self) -> usize {
        match self {
            Tier::Ah(idx) => idx.num_nodes(),
            Tier::Ch(idx) => idx.hierarchy().num_nodes(),
        }
    }
}

/// A [`Server`] bound to an atomically swappable serving [`Tier`].
///
/// Unlike the bare engine — which borrows a backend per [`Server::run`]
/// call — this owns the index generation, so the index a request stream
/// is served against can be replaced between runs without stopping the
/// process. It boots on an AH index; a delta reload may serve a CH tier
/// between its first publish and the AH upgrade.
pub struct SnapshotServer {
    server: Server,
    tier: RwLock<Tier>,
    generation: AtomicU64,
}

impl SnapshotServer {
    /// Serves from `index` with the given configuration.
    pub fn new(index: Arc<AhIndex>, cfg: ServerConfig) -> Self {
        Self::with_server(index, Server::new(cfg))
    }

    /// Serves from `index` through an already-built engine, whose
    /// [`Server::registry`] the edge and a [`crate::DeltaReloader`]
    /// then register into.
    pub fn with_server(index: Arc<AhIndex>, server: Server) -> Self {
        SnapshotServer {
            server,
            tier: RwLock::new(Tier::Ah(index)),
            generation: AtomicU64::new(0),
        }
    }

    /// How many times a new network has been published since startup.
    /// Generation 0 is the index the server booted with; an AH upgrade
    /// of the serving graph keeps the generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The engine underneath (metrics, cache statistics, config).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The currently serving tier: always an index of the current
    /// generation's graph, AH or — mid-reload — CH.
    pub fn tier(&self) -> Tier {
        self.tier.read().unwrap().clone()
    }

    /// Atomically replaces the serving tier with `new` and clears the
    /// distance cache. Returns the previous tier.
    ///
    /// Runs hold the generation read-lock for their whole duration, so
    /// this call first waits for in-flight [`SnapshotServer::run`]s to
    /// drain (they finish against the old index), then — still holding
    /// the write lock, so no run can race the two steps — publishes the
    /// new index and clears the cache. That ordering is what makes the
    /// staleness guarantee airtight: an old-generation worker can never
    /// insert an answer after the clear, because no old-generation
    /// worker exists once the write lock is held.
    pub fn swap_index(&self, new: Arc<AhIndex>) -> Tier {
        self.publish(Tier::Ah(new))
    }

    /// [`SnapshotServer::swap_index`] for any tier: a new network, a new
    /// generation, an empty cache.
    pub(crate) fn publish(&self, new: Tier) -> Tier {
        let mut slot = self.tier.write().unwrap();
        let old = std::mem::replace(&mut *slot, new);
        self.server.reset_cache();
        // Bumped while the write lock is held, so the generation a
        // reader observes after taking the read lock is never behind
        // the index it got.
        self.generation.fetch_add(1, Ordering::SeqCst);
        old
    }

    /// Replaces the serving tier with `ah`, which must answer the same
    /// graph as the tier it replaces: the generation stays and cached
    /// answers stay valid, since every tier answers a graph with the
    /// same `(length, nuance)`.
    pub(crate) fn upgrade(&self, ah: Arc<AhIndex>) {
        *self.tier.write().unwrap() = Tier::Ah(ah);
    }

    /// Serves `requests` against the current tier (see [`Server::run`]
    /// for the execution model).
    ///
    /// Holds the generation read-lock for the duration of the run: any
    /// concurrent [`SnapshotServer::swap_index`] waits for this stream
    /// to finish, which is what keeps old-generation answers out of the
    /// post-swap cache. Concurrent `run` calls do not block each other.
    pub fn run(&self, requests: &[Request]) -> RunReport {
        match &*self.tier.read().unwrap() {
            Tier::Ah(idx) => self.server.run(&AhBackend::new(idx), requests),
            Tier::Ch(idx) => self.server.run(&ChBackend::new(idx), requests),
        }
    }
}

/// A [`DistanceBackend`] view over a [`SnapshotServer`] that follows
/// tier swaps *between queries* instead of pinning one generation.
///
/// [`AhBackend`] borrows a fixed index, so open-loop workers created
/// over it before a swap would keep serving the old generation forever.
/// A `SnapshotBackend` session instead re-reads the swappable handle on
/// every query: each answer is computed against whatever tier is
/// current when the query starts, and a long-running worker picks up a
/// published swap on its very next query — the piece that makes
/// `/admin/reload-delta` visible to workers that never restart. Each
/// query clones an `Arc` under the read lock (uncontended outside the
/// microseconds of an actual swap), so a swap never waits on an
/// open-loop worker and vice versa.
pub struct SnapshotBackend<'a> {
    server: &'a SnapshotServer,
}

impl<'a> SnapshotBackend<'a> {
    /// Serves queries against `server`'s *current* tier.
    pub fn new(server: &'a SnapshotServer) -> Self {
        SnapshotBackend { server }
    }
}

impl DistanceBackend for SnapshotBackend<'_> {
    fn name(&self) -> &'static str {
        "AH"
    }

    fn num_nodes(&self) -> usize {
        // Weight deltas keep the topology, so the node count is stable
        // across the swaps this backend is built to follow.
        self.server.tier().num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(SnapshotSession {
            server: self.server,
            ah: AhQuery::new(),
            ch: ChQuery::new(),
        })
    }
}

/// One query state per tier; each query runs on the tier current when
/// it starts.
struct SnapshotSession<'a> {
    server: &'a SnapshotServer,
    ah: AhQuery,
    ch: ChQuery,
}

impl BackendSession for SnapshotSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        match self.server.tier() {
            Tier::Ah(idx) => self.ah.distance(&idx, s, t),
            Tier::Ch(idx) => self.ch.distance(&idx, s, t),
        }
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<ah_graph::Path> {
        match self.server.tier() {
            Tier::Ah(idx) => self.ah.path(&idx, s, t),
            Tier::Ch(idx) => self.ch.path(&idx, s, t),
        }
    }

    fn take_cost(&mut self) -> CostCounters {
        let mut c = self.ah.take_cost();
        c.merge(&self.ch.take_cost());
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_core::BuildConfig;
    use ah_search::dijkstra_distance;
    use ah_store::SnapshotContents;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ah_server_{name}_{}.snap", std::process::id()))
    }

    #[test]
    fn from_snapshot_serves_identically_to_fresh_build() {
        let g = ah_data::fixtures::lattice(6, 6, 12);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let path = tmp("restart");
        Snapshot::write(&path, SnapshotContents::new().ah(&idx)).unwrap();

        let server = Server::from_snapshot(&path, ServerConfig::with_workers(2)).unwrap();
        let reqs: Vec<Request> = (0..40)
            .map(|i| Request::distance(i, (i as u32 * 3) % 36, (i as u32 * 7 + 1) % 36))
            .collect();
        let report = server.run(&reqs);
        for (req, resp) in reqs.iter().zip(&report.responses) {
            let want = dijkstra_distance(&g, req.s, req.t).map(|d| d.length);
            assert_eq!(resp.distance, want, "req {}", req.id);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn swap_changes_answers_and_clears_cache() {
        // Two networks, same shape, different weights: the same (s, t)
        // pair answers differently across generations, so a stale cache
        // entry would be visible immediately.
        let g1 = ah_data::fixtures::lattice(5, 5, 10);
        let g2 = ah_data::fixtures::lattice(5, 5, 30);
        let idx1 = Arc::new(AhIndex::build(&g1, &BuildConfig::default()));
        let idx2 = Arc::new(AhIndex::build(&g2, &BuildConfig::default()));

        let server = SnapshotServer::new(idx1.clone(), ServerConfig::with_workers(2));
        let reqs: Vec<Request> = (0..25)
            .map(|i| Request::distance(i, i as u32 % 25, (i as u32 * 11 + 2) % 25))
            .collect();

        let before = server.run(&reqs);
        for (req, resp) in reqs.iter().zip(&before.responses) {
            let want = dijkstra_distance(&g1, req.s, req.t).map(|d| d.length);
            assert_eq!(resp.distance, want, "generation 1, req {}", req.id);
        }

        let old = server.swap_index(idx2);
        assert!(
            matches!(old, Tier::Ah(old) if Arc::ptr_eq(&old, &idx1)),
            "swap returns the old generation"
        );

        let after = server.run(&reqs);
        for (req, resp) in reqs.iter().zip(&after.responses) {
            let want = dijkstra_distance(&g2, req.s, req.t).map(|d| d.length);
            assert_eq!(resp.distance, want, "generation 2, req {}", req.id);
        }
    }

    #[test]
    fn generation_counts_swaps() {
        let g = ah_data::fixtures::ring(8);
        let idx = Arc::new(AhIndex::build(&g, &BuildConfig::default()));
        let server = SnapshotServer::new(idx.clone(), ServerConfig::with_workers(1));
        assert_eq!(server.generation(), 0);
        server.swap_index(idx.clone());
        server.swap_index(idx);
        assert_eq!(server.generation(), 2);
    }

    #[test]
    fn snapshot_backend_follows_swaps_without_new_sessions() {
        let g1 = ah_data::fixtures::lattice(5, 5, 10);
        // Second generation: the same lattice with both arcs *out of*
        // node 0 re-weighted, so every route from 0 — including 0 → 24
        // — answers differently.
        let changes = [
            ah_graph::WeightChange::new(0, 1, 9),
            ah_graph::WeightChange::new(0, 5, 9),
        ];
        let g2 = ah_graph::WeightDelta::new(&g1, changes).unwrap().apply(&g1).unwrap().graph;
        let idx1 = Arc::new(AhIndex::build(&g1, &BuildConfig::default()));
        let idx2 = Arc::new(AhIndex::build(&g2, &BuildConfig::default()));
        let server = SnapshotServer::new(idx1, ServerConfig::with_workers(1));

        let backend = SnapshotBackend::new(&server);
        let mut session = backend.make_session();
        let want1 = dijkstra_distance(&g1, 0, 24).map(|d| d.length);
        assert_eq!(session.distance(0, 24), want1);

        // Swap while the session lives: the *same* session must answer
        // from the new generation on its next query.
        server.swap_index(idx2);
        let want2 = dijkstra_distance(&g2, 0, 24).map(|d| d.length);
        assert_ne!(want1, want2, "fixture weights must differ for this test");
        assert_eq!(session.distance(0, 24), want2);
        if let Some(p) = session.path(0, 24) {
            assert_eq!(p.dist.length, want2.unwrap());
            p.verify(&g2).unwrap();
        }
    }

    #[test]
    fn snapshot_session_drains_kernel_cost_across_swaps() {
        let g = ah_data::fixtures::lattice(5, 5, 10);
        let idx = Arc::new(AhIndex::build(&g, &BuildConfig::default()));
        let server = SnapshotServer::new(idx.clone(), ServerConfig::with_workers(1));
        let backend = SnapshotBackend::new(&server);
        let mut session = backend.make_session();

        assert!(session.distance(0, 24).is_some());
        assert!(session.take_cost().nodes_settled > 0, "generation 0 query cost lost");
        assert_eq!(session.take_cost(), CostCounters::default(), "drain resets");

        server.swap_index(idx);
        assert!(session.distance(0, 24).is_some());
        assert!(session.take_cost().nodes_settled > 0, "post-swap query cost lost");
    }

    #[test]
    fn from_snapshot_without_ah_section_is_typed() {
        let g = ah_data::fixtures::ring(8);
        let path = tmp("graph_only");
        Snapshot::write(&path, SnapshotContents::new().graph(&g)).unwrap();
        assert!(matches!(
            Server::from_snapshot(&path, ServerConfig::default()),
            Err(SnapshotError::MissingSection { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
