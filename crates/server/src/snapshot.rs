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
//!   [`SnapshotServer::swap_index`]: the new index is published and the
//!   distance cache cleared under the tier's write lock. Queries read the
//!   tier one at a time ([`SnapshotBackend`]), so the swap waits for no
//!   request stream; an answer computed against the old network can never
//!   reach the fresh cache, because the cache's epoch check
//!   (`DistanceCache::put_at`) refuses a write that predates the clear.
//!   The old tier is returned to the caller (for diffing or deferred
//!   teardown) and freed when the last `Arc` drops.
//!
//! The serving tier is an AH index in steady state. A delta reload
//! ([`crate::DeltaReloader`]) first publishes a CH index re-contracted
//! under the serving order — a new generation, answering the patched
//! graph within a fraction of a second — and then swaps the rebuilt AH
//! index in as an *upgrade* of that same generation: both tiers answer
//! the same graph with bit-identical `(length, nuance)`, so the upgrade
//! neither bumps the generation nor clears the cache.
//!
//! The `SnapshotServer` is the one ledger of what serves: it creates
//! `ah_index_generation` and `ah_index_tier{tier}` in its engine's
//! registry and sets them under the same write lock that swaps the tier.

use std::path::Path;
use std::sync::{Arc, RwLock};

use ah_ch::{ChIndex, ChQuery};
use ah_core::{AhIndex, AhQuery};
use ah_graph::NodeId;
use ah_obs::{CostCounters, Gauge};
use ah_store::{Snapshot, SnapshotError};

use crate::backend::{BackendSession, DistanceBackend};
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
/// call — this owns the index generation, so the index requests are
/// served against can be replaced without stopping the process. It
/// boots on an AH index; a delta reload may serve a CH tier between its
/// first publish and the AH upgrade.
pub struct SnapshotServer {
    server: Server,
    tier: RwLock<Tier>,
    /// `ah_index_generation`: bumped by every publish, under the write
    /// lock of `tier`. The gauge's relaxed atomic is enough: the lock
    /// orders the writes and the one read that decides something (in
    /// `upgrade`); every other read is a report.
    generation: Arc<Gauge>,
    /// `ah_index_tier{tier="ah"}` and `{tier="ch"}`.
    tier_ah: Arc<Gauge>,
    tier_ch: Arc<Gauge>,
}

impl SnapshotServer {
    /// Serves from `index` with the given configuration.
    pub fn new(index: Arc<AhIndex>, cfg: ServerConfig) -> Self {
        Self::with_server(index, Server::new(cfg))
    }

    /// Serves from `index` through an already-built engine, whose
    /// [`Server::registry`] receives the generation and tier series
    /// (and those of the edge and a [`crate::DeltaReloader`]).
    pub fn with_server(index: Arc<AhIndex>, server: Server) -> Self {
        let reg = server.registry();
        let generation = reg.gauge(
            "ah_index_generation",
            &[],
            "Serving index generation (networks published since startup)",
        );
        let tier = |label| {
            reg.gauge(
                "ah_index_tier",
                &[("tier", label)],
                "1 for the tier the index is served from (ah, or ch mid-reload), else 0",
            )
        };
        let (tier_ah, tier_ch) = (tier("ah"), tier("ch"));
        tier_ah.set(1);
        SnapshotServer {
            server,
            tier: RwLock::new(Tier::Ah(index)),
            generation,
            tier_ah,
            tier_ch,
        }
    }

    /// How many times a new network has been published since startup.
    /// Generation 0 is the index the server booted with; an AH upgrade
    /// of the serving graph keeps the generation.
    pub fn generation(&self) -> u64 {
        self.generation.get()
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
    /// Publishing and clearing happen under the tier's write lock; a
    /// query already running on the old index finishes there, and the
    /// cache's epoch check drops its answer instead of storing it.
    pub fn swap_index(&self, new: Arc<AhIndex>) -> Tier {
        self.publish(Tier::Ah(new)).0
    }

    /// [`SnapshotServer::swap_index`] for any tier: a new network, a new
    /// generation, an empty cache. Returns the previous tier and the
    /// generation `new` serves as.
    pub(crate) fn publish(&self, new: Tier) -> (Tier, u64) {
        let mut slot = self.tier.write().unwrap();
        self.show(&new);
        let old = std::mem::replace(&mut *slot, new);
        self.server.reset_cache();
        let generation = self.generation.get() + 1;
        self.generation.set(generation);
        (old, generation)
    }

    /// Replaces the serving tier with `ah`, which must answer the graph
    /// `generation` published — but only while that generation still
    /// serves: an index rebuilt for a network that a later publish has
    /// replaced is dropped. The generation stays and cached answers stay
    /// valid, since every tier answers a graph with the same
    /// `(length, nuance)`.
    pub(crate) fn upgrade(&self, ah: Arc<AhIndex>, generation: u64) {
        let mut slot = self.tier.write().unwrap();
        if self.generation() == generation {
            *slot = Tier::Ah(ah);
            self.show(&slot);
        }
    }

    /// Points `ah_index_tier` at `tier`; the caller holds the write lock.
    fn show(&self, tier: &Tier) {
        let ch = matches!(tier, Tier::Ch(_));
        self.tier_ah.set(u64::from(!ch));
        self.tier_ch.set(u64::from(ch));
    }

    /// Serves `requests` against the current tier through a
    /// [`SnapshotBackend`] (see [`Server::run`] for the execution
    /// model): each query answers from the tier current when it starts.
    pub fn run(&self, requests: &[Request]) -> RunReport {
        self.server.run(&SnapshotBackend::new(self), requests)
    }
}

/// A [`DistanceBackend`] view over a [`SnapshotServer`] that follows
/// tier swaps *between queries* instead of pinning one generation.
///
/// [`crate::AhBackend`] borrows a fixed index, so open-loop workers
/// created over it before a swap would keep serving the old generation
/// forever. A `SnapshotBackend` session instead re-reads the swappable
/// handle on every query: each answer is computed against whatever tier
/// is current when the query starts, and a long-running worker picks up
/// a published swap on its very next query — the piece that makes
/// `/admin/reload-delta` visible to workers that never restart. Each
/// query clones an `Arc` under the read lock (uncontended outside the
/// microseconds of an actual swap), so a swap never waits on a worker
/// and vice versa.
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
    fn the_generation_and_tier_series_belong_to_the_server() {
        let g = ah_data::fixtures::ring(8);
        let idx = Arc::new(AhIndex::build(&g, &BuildConfig::default()));
        let server = SnapshotServer::new(idx.clone(), ServerConfig::with_workers(1));
        server.swap_index(idx);
        let text = server.server().registry().render();
        let gauge = |series: &str| -> u64 {
            let key = format!("{series} ");
            let lines: Vec<&str> = text.lines().filter(|l| l.starts_with(&key)).collect();
            assert_eq!(lines.len(), 1, "{series} must render exactly once:\n{text}");
            lines[0][key.len()..].parse().unwrap()
        };
        assert_eq!(gauge("ah_index_generation"), 1);
        assert_eq!(gauge("ah_index_tier{tier=\"ah\"}"), 1);
        assert_eq!(gauge("ah_index_tier{tier=\"ch\"}"), 0);
        assert_eq!(server.generation(), gauge("ah_index_generation"));
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
