//! Swappable query backends.
//!
//! The serving engine is method-agnostic: anything that can answer distance
//! and path queries from a shared immutable index can sit behind the worker
//! pool. A [`DistanceBackend`] is the shared, `Sync` half (the index); a
//! [`BackendSession`] is the per-worker mutable half (heaps, stamped arrays)
//! created once per thread and reused across every query that worker serves
//! — mirroring how the figure binaries reuse one `AhQuery` across a query
//! set, but multiplied across threads.

use ah_ch::{ChIndex, ChQuery};
use ah_core::{AhIndex, AhQuery};
use ah_graph::{Graph, NodeId, Path};
use ah_labels::LabelIndex;
use ah_obs::CostCounters;
use ah_search::scenario::{best_via, nearest};
use ah_search::{BidirectionalDijkstra, ScenarioEngine, ViaAnswer};

/// A query method that can serve concurrent traffic from a shared index.
///
/// Implementations hold only immutable state (`&self` everywhere), so one
/// backend instance can be shared by any number of worker threads; the
/// `Sync` supertrait makes that contract explicit. All per-query scratch
/// lives in the [`BackendSession`] each worker creates for itself.
pub trait DistanceBackend: Sync {
    /// Method name used in reports (`"AH"`, `"CH"`, `"Dijkstra"`).
    fn name(&self) -> &'static str;

    /// Number of nodes of the underlying network (for request validation).
    fn num_nodes(&self) -> usize;

    /// Creates the per-worker reusable query state.
    fn make_session(&self) -> Box<dyn BackendSession + '_>;
}

/// Per-worker mutable query state tied to one backend instance.
///
/// A session prices distances; it does not rank. [`matrix`](Self::matrix)
/// is the one batched shape it prices (by default one point query per
/// cell); [`knn`](Self::knn) and [`via`](Self::via) rank one of its rows
/// by the scenario determinism contract,
/// `ah_search::scenario::{nearest, best_via}` — `(length, node id)`
/// order, unreachable candidates dropped — so every backend's scenario
/// answers are bit-identical. A session overrides a scenario method only
/// where it prices more cheaply: Dijkstra (one sweep per source, one
/// backward sweep for every second via leg), hub labels (targets
/// bucketed once) and [`DelayBackend`] (one sleep per request).
pub trait BackendSession {
    /// Network distance from `s` to `t`, or `None` if unreachable.
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64>;

    /// Shortest path from `s` to `t` in the original network.
    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path>;

    /// Full distance table `sources × targets` (`None` = unreachable):
    /// cell `(i, j)` is `distance(sources[i], targets[j])`.
    fn matrix(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Vec<Vec<Option<u64>>> {
        sources
            .iter()
            .map(|&s| targets.iter().map(|&t| self.distance(s, t)).collect())
            .collect()
    }

    /// The `k` nearest `candidates` from `source`, sorted ascending by
    /// `(distance, node id)`: one [`matrix`](Self::matrix) row, ranked
    /// by [`nearest`].
    fn knn(&mut self, source: NodeId, candidates: &[NodeId], k: usize) -> Vec<(NodeId, u64)> {
        let row = self.matrix(&[source], candidates).remove(0);
        nearest(candidates, &row, k)
    }

    /// The optimal detour `s → p → t` over `candidates`, minimizing
    /// `(total, poi)`; `None` when no candidate has both legs. One
    /// [`matrix`](Self::matrix) row prices the first legs; [`best_via`]
    /// scans them in ascending order and prices a second leg with
    /// [`distance`](Self::distance) only for the candidates it scans.
    fn via(&mut self, s: NodeId, t: NodeId, candidates: &[NodeId]) -> Option<ViaAnswer> {
        let to_poi = self.matrix(&[s], candidates).remove(0);
        best_via(candidates, &to_poi, |p| self.distance(p, t))
    }

    /// Drains the algorithmic cost accumulated since the last drain —
    /// typically everything the current request did, however many
    /// kernel runs it took (a via detour is several point queries; a
    /// matrix is many sweeps). Deliberately without a default: a
    /// session that forgot it would report zero work in `/metrics`.
    fn take_cost(&mut self) -> CostCounters;
}

/// The Arterial Hierarchy backend (the paper's contribution, and the
/// serving default).
pub struct AhBackend<'a> {
    idx: &'a AhIndex,
}

impl<'a> AhBackend<'a> {
    /// Serves queries from a prebuilt AH index with default constraints.
    pub fn new(idx: &'a AhIndex) -> Self {
        AhBackend { idx }
    }
}

impl DistanceBackend for AhBackend<'_> {
    fn name(&self) -> &'static str {
        "AH"
    }

    fn num_nodes(&self) -> usize {
        self.idx.num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(AhSession {
            idx: self.idx,
            q: AhQuery::new(),
        })
    }
}

struct AhSession<'a> {
    idx: &'a AhIndex,
    q: AhQuery,
}

impl BackendSession for AhSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        self.q.distance(self.idx, s, t)
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path> {
        self.q.path(self.idx, s, t)
    }

    fn take_cost(&mut self) -> CostCounters {
        self.q.take_cost()
    }
}

/// The Contraction Hierarchies backend (strongest baseline).
pub struct ChBackend<'a> {
    idx: &'a ChIndex,
}

impl<'a> ChBackend<'a> {
    /// Serves queries from a prebuilt CH index.
    pub fn new(idx: &'a ChIndex) -> Self {
        ChBackend { idx }
    }
}

impl DistanceBackend for ChBackend<'_> {
    fn name(&self) -> &'static str {
        "CH"
    }

    fn num_nodes(&self) -> usize {
        self.idx.hierarchy().num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(ChSession {
            idx: self.idx,
            q: ChQuery::new(),
        })
    }
}

struct ChSession<'a> {
    idx: &'a ChIndex,
    q: ChQuery,
}

impl BackendSession for ChSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        self.q.distance(self.idx, s, t)
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path> {
        self.q.path(self.idx, s, t)
    }

    fn take_cost(&mut self) -> CostCounters {
        self.q.take_cost()
    }
}

/// Index-free bidirectional Dijkstra on the plain graph (the floor every
/// index must beat, still exact).
pub struct DijkstraBackend<'a> {
    graph: &'a Graph,
}

impl<'a> DijkstraBackend<'a> {
    /// Serves queries straight from the road network, no index.
    pub fn new(graph: &'a Graph) -> Self {
        DijkstraBackend { graph }
    }
}

impl DistanceBackend for DijkstraBackend<'_> {
    fn name(&self) -> &'static str {
        "Dijkstra"
    }

    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(DijkstraSession {
            graph: self.graph,
            q: BidirectionalDijkstra::new(),
            scenarios: ScenarioEngine::new(),
        })
    }
}

struct DijkstraSession<'a> {
    graph: &'a Graph,
    q: BidirectionalDijkstra,
    scenarios: ScenarioEngine,
}

impl BackendSession for DijkstraSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        self.q.distance(self.graph, s, t).map(|d| d.length)
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path> {
        self.q.path(self.graph, s, t)
    }

    // One single-source sweep prices a whole row, replacing |targets|
    // separate bidirectional runs.
    fn matrix(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Vec<Vec<Option<u64>>> {
        self.scenarios.matrix(self.graph, sources, targets)
    }

    // One backward sweep from `t` prices every second leg.
    fn via(&mut self, s: NodeId, t: NodeId, candidates: &[NodeId]) -> Option<ViaAnswer> {
        self.scenarios.via(self.graph, s, t, candidates)
    }

    fn take_cost(&mut self) -> CostCounters {
        let mut c = self.q.take_cost();
        c.merge(&self.scenarios.take_cost());
        c
    }
}

/// The hub-labeling backend: distance queries answered from sorted
/// label arrays (no graph search at all), path queries delegated to the
/// AH index — labels certify *lengths*, not edge sequences, so the
/// engine that can unpack an actual route serves `/v1/path`.
pub struct LabelBackend<'a> {
    labels: &'a LabelIndex,
    ah: &'a AhIndex,
}

impl<'a> LabelBackend<'a> {
    /// Serves distances from `labels` and paths from `ah`. Both must
    /// index the same network (same node-id space).
    ///
    /// # Panics
    /// Panics if the two indexes disagree on the node count.
    pub fn new(labels: &'a LabelIndex, ah: &'a AhIndex) -> Self {
        assert_eq!(
            labels.num_nodes(),
            ah.num_nodes(),
            "labels and AH index cover different networks"
        );
        LabelBackend { labels, ah }
    }
}

impl DistanceBackend for LabelBackend<'_> {
    fn name(&self) -> &'static str {
        "labels"
    }

    fn num_nodes(&self) -> usize {
        self.labels.num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(LabelSession {
            labels: self.labels,
            ah: self.ah,
            q: AhQuery::new(),
            cost: CostCounters::default(),
        })
    }
}

struct LabelSession<'a> {
    labels: &'a LabelIndex,
    ah: &'a AhIndex,
    q: AhQuery,
    cost: CostCounters,
}

impl BackendSession for LabelSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        self.labels
            .distance_full_with_cost(s, t, &mut self.cost)
            .map(|d| d.length)
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path> {
        self.q.path(self.ah, s, t)
    }

    // Bucket-style batched sweep (see `ah_labels::scenario`): each
    // target's in-label is bucketed by hub once, then every source
    // scans its out-label once — no per-pair merges.
    fn matrix(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Vec<Vec<Option<u64>>> {
        self.labels.many_to_many(sources, targets, &mut self.cost)
    }

    fn take_cost(&mut self) -> CostCounters {
        // Label merges plus whatever the AH engine spent on path
        // requests (labels certify lengths, not routes).
        let mut c = self.cost.take();
        c.merge(&self.q.take_cost());
        c
    }
}

/// Wraps any backend and sleeps a fixed delay before each query — a
/// fault-injection stand-in for heavier backends (bigger networks,
/// remote shards). The `serve_edge` process suite uses it (`--slow-us`)
/// to make overload deterministic: with a known per-query cost, a burst
/// larger than the admission window *must* shed `429`s.
pub struct DelayBackend<'a> {
    inner: &'a dyn DistanceBackend,
    delay: std::time::Duration,
}

impl<'a> DelayBackend<'a> {
    /// Serves through `inner`, sleeping `delay` before every query.
    pub fn new(inner: &'a dyn DistanceBackend, delay: std::time::Duration) -> Self {
        DelayBackend { inner, delay }
    }
}

impl DistanceBackend for DelayBackend<'_> {
    fn name(&self) -> &'static str {
        // The wrapped backend's identity matters more in reports than
        // the fact of the delay (which callers log separately).
        self.inner.name()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(DelaySession {
            inner: self.inner.make_session(),
            delay: self.delay,
        })
    }
}

struct DelaySession<'a> {
    inner: Box<dyn BackendSession + 'a>,
    delay: std::time::Duration,
}

impl BackendSession for DelaySession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<u64> {
        std::thread::sleep(self.delay);
        self.inner.distance(s, t)
    }

    fn path(&mut self, s: NodeId, t: NodeId) -> Option<Path> {
        std::thread::sleep(self.delay);
        self.inner.path(s, t)
    }

    // One delay per scenario *request* (not per internal point query):
    // the wrapped call goes straight to the inner session's own pricing.
    // `knn` needs no override: its one `matrix` call sleeps once.

    fn matrix(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Vec<Vec<Option<u64>>> {
        std::thread::sleep(self.delay);
        self.inner.matrix(sources, targets)
    }

    fn via(&mut self, s: NodeId, t: NodeId, candidates: &[NodeId]) -> Option<ViaAnswer> {
        std::thread::sleep(self.delay);
        self.inner.via(s, t, candidates)
    }

    fn take_cost(&mut self) -> CostCounters {
        self.inner.take_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_core::BuildConfig;
    use ah_search::dijkstra_distance;

    #[test]
    fn backends_agree_with_oneshot_dijkstra() {
        let g = ah_data::fixtures::lattice(6, 6, 14);
        let ah = AhIndex::build(&g, &BuildConfig::default());
        let ch = ChIndex::build(&g);
        let labels = LabelIndex::build(&g, ch.order());
        let backends: Vec<Box<dyn DistanceBackend>> = vec![
            Box::new(AhBackend::new(&ah)),
            Box::new(ChBackend::new(&ch)),
            Box::new(DijkstraBackend::new(&g)),
            Box::new(LabelBackend::new(&labels, &ah)),
        ];
        for b in &backends {
            assert_eq!(b.num_nodes(), g.num_nodes());
            let mut session = b.make_session();
            for (s, t) in [(0u32, 35u32), (5, 30), (17, 17), (35, 0)] {
                let want = dijkstra_distance(&g, s, t).map(|d| d.length);
                assert_eq!(session.distance(s, t), want, "{} ({s},{t})", b.name());
                if let Some(p) = session.path(s, t) {
                    p.verify(&g).unwrap();
                    assert_eq!(p.dist.length, want.unwrap());
                }
            }
        }
    }

    #[test]
    fn scenario_methods_agree_across_backends() {
        let g = ah_data::fixtures::lattice(6, 6, 14);
        let ah = AhIndex::build(&g, &BuildConfig::default());
        let ch = ChIndex::build(&g);
        let labels = LabelIndex::build(&g, ch.order());
        let label_backend = LabelBackend::new(&labels, &ah);
        let backends: Vec<Box<dyn DistanceBackend>> = vec![
            Box::new(AhBackend::new(&ah)),
            Box::new(ChBackend::new(&ch)),
            Box::new(DijkstraBackend::new(&g)),
            Box::new(LabelBackend::new(&labels, &ah)),
            Box::new(DelayBackend::new(&label_backend, std::time::Duration::ZERO)),
        ];
        let pois = ah_search::PoiSet::synthetic(g.num_nodes(), 4, 77);
        let cands = pois.category(1);
        assert!(!cands.is_empty());
        let sources = [0u32, 7, 20];
        let targets = [3u32, 35, 18, 0];
        let reference_backend = DijkstraBackend::new(&g);
        let mut reference = reference_backend.make_session();
        let want_matrix = reference.matrix(&sources, &targets);
        let want_knn = reference.knn(2, cands, 3);
        let want_via = reference.via(0, 35, cands);
        assert!(want_via.is_some());
        for b in &backends {
            let mut session = b.make_session();
            assert_eq!(session.matrix(&sources, &targets), want_matrix, "{}", b.name());
            assert_eq!(session.matrix(&[0], &targets)[0], want_matrix[0], "{}", b.name());
            assert_eq!(session.knn(2, cands, 3), want_knn, "{}", b.name());
            assert_eq!(session.via(0, 35, cands), want_via, "{}", b.name());
        }
    }

    #[test]
    fn delay_backend_answers_identically_just_slower() {
        let g = ah_data::fixtures::ring(10);
        let plain = DijkstraBackend::new(&g);
        let delayed = DelayBackend::new(&plain, std::time::Duration::from_millis(2));
        assert_eq!(delayed.num_nodes(), 10);
        let mut s = delayed.make_session();
        let t0 = std::time::Instant::now();
        assert_eq!(
            s.distance(0, 5),
            dijkstra_distance(&g, 0, 5).map(|d| d.length)
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn backend_is_object_safe_and_shareable() {
        fn assert_sync<T: Sync + ?Sized>() {}
        assert_sync::<dyn DistanceBackend>();
    }
}
