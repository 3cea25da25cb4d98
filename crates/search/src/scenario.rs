//! Scenario query kernels: synthetic POI sets, optimal via-POI detours,
//! k-nearest-POI queries, and batched one-to-many distance tables.
//!
//! The serving layer opens three workloads beyond point-to-point
//! distance/path traffic (`/v1/via`, `/v1/knn`, `/v1/matrix` — see
//! `docs/SCENARIOS.md`). All three reduce to plain Dijkstra runs over
//! the original graph, which makes this module the *reference kernel*:
//! every faster engine (hub labels, repeated index point queries) must
//! produce bit-identical answers, and the shared test oracle
//! (`tests/support/oracle.rs`) re-derives the same results from first
//! principles.
//!
//! # Determinism contract
//!
//! Scenario answers are ordered by **(path length, node id)** — the
//! nuance tie-break component (paper Appendix A) canonicalizes *which*
//! shortest path is reported per pair, but scenario *ranking* uses the
//! plain length so that engines exposing only lengths agree
//! bit-for-bit with the kernels here. An engine prices distances; the
//! ranking is written once, here, and every engine calls it:
//!
//! * [`nearest`] ranks a priced row for k-NN: ascending by
//!   `(distance, poi id)`, unreachable POIs dropped, truncated to `k`.
//! * [`best_via`] picks the via answer minimizing `(d(s,p) + d(p,t), p)`
//!   over the candidate set; candidates missing either leg are skipped.
//! * Matrix cells are independent point distances (`None` = unreachable).

use ah_graph::NodeId;

use crate::driver::{DijkstraDriver, Direction, SearchOptions};
use crate::search_graph::SearchGraph;

/// Default seed of the synthetic POI assignment. Servers, benchmark
/// drivers and test oracles that agree on `(num_nodes, categories,
/// seed)` reconstruct the identical [`PoiSet`] with no wire exchange.
pub const POI_SEED: u64 = 0x90AD_51DE_0DE7_0042;

/// Default number of POI categories.
pub const POI_CATEGORIES: u32 = 8;

/// SplitMix64 — the stateless mixing function behind the synthetic POI
/// assignment. Public so independent reimplementations (oracle, wire
/// clients) can cite one definition.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic assignment of POIs (points of interest) to graph
/// nodes, partitioned into categories.
///
/// Membership is a pure function of `(seed, node id)`: node `v` is a POI
/// iff `splitmix64(seed ^ v) & 3 == 0` (≈ 25 % of nodes), and its
/// category is `(h >> 2) % categories`. Category slices are sorted by
/// node id and duplicate-free by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoiSet {
    categories: u32,
    seed: u64,
    by_category: Vec<Vec<NodeId>>,
}

impl PoiSet {
    /// Builds the synthetic POI assignment for a graph of `num_nodes`
    /// nodes.
    ///
    /// # Panics
    /// Panics if `categories` is zero.
    pub fn synthetic(num_nodes: usize, categories: u32, seed: u64) -> PoiSet {
        assert!(categories > 0, "a POI set needs at least one category");
        let mut by_category = vec![Vec::new(); categories as usize];
        for v in 0..num_nodes as NodeId {
            let h = splitmix64(seed ^ u64::from(v));
            if h & 3 == 0 {
                by_category[((h >> 2) % u64::from(categories)) as usize].push(v);
            }
        }
        PoiSet {
            categories,
            seed,
            by_category,
        }
    }

    /// The POI set every component reconstructs by default:
    /// [`POI_CATEGORIES`] categories under [`POI_SEED`].
    pub fn default_for(num_nodes: usize) -> PoiSet {
        PoiSet::synthetic(num_nodes, POI_CATEGORIES, POI_SEED)
    }

    /// Number of categories.
    pub fn categories(&self) -> u32 {
        self.categories
    }

    /// The seed the assignment was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// POIs of one category, sorted by node id. Out-of-range categories
    /// yield an empty slice (the serving layer treats them as "no
    /// reachable POI", not an error).
    pub fn category(&self, cat: u32) -> &[NodeId] {
        self.by_category
            .get(cat as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total POIs across all categories.
    pub fn len(&self) -> usize {
        self.by_category.iter().map(Vec::len).sum()
    }

    /// True when no node is a POI (tiny graphs).
    pub fn is_empty(&self) -> bool {
        self.by_category.iter().all(Vec::is_empty)
    }
}

/// The optimal detour through a POI: the `p` minimizing
/// `(d(s,p) + d(p,t), p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViaAnswer {
    /// The chosen POI node.
    pub poi: NodeId,
    /// Total detour length `d(s, poi) + d(poi, t)`.
    pub total: u64,
    /// First leg `d(s, poi)`.
    pub to_poi: u64,
    /// Second leg `d(poi, t)`.
    pub from_poi: u64,
}

/// The `k` nearest `candidates`, sorted ascending by `(distance, node
/// id)`. `row[i]` is the priced distance to `candidates[i]`; `None`
/// (unreachable) is dropped.
pub fn nearest(candidates: &[NodeId], row: &[Option<u64>], k: usize) -> Vec<(NodeId, u64)> {
    let mut found: Vec<(u64, NodeId)> = candidates
        .iter()
        .zip(row)
        .filter_map(|(&p, d)| d.map(|d| (d, p)))
        .collect();
    found.sort_unstable();
    found.truncate(k);
    found.into_iter().map(|(d, p)| (p, d)).collect()
}

/// The optimal detour over `candidates`, minimizing `(total, poi)`, or
/// `None` when no candidate has both legs. `to_poi` holds the priced
/// first legs `d(s, p)` (`to_poi[i]` belongs to `candidates[i]`);
/// `from_poi(p)` prices a second leg `d(p, t)`.
///
/// Candidates are scanned in ascending `(d(s,p), p)` order; since the
/// first leg alone lower-bounds the total, the scan stops at the first
/// candidate whose first leg exceeds the best total, and `from_poi` is
/// asked only about the candidates scanned before that.
pub fn best_via(
    candidates: &[NodeId],
    to_poi: &[Option<u64>],
    mut from_poi: impl FnMut(NodeId) -> Option<u64>,
) -> Option<ViaAnswer> {
    let mut order: Vec<(u64, NodeId)> = candidates
        .iter()
        .zip(to_poi)
        .filter_map(|(&p, d)| d.map(|d| (d, p)))
        .collect();
    order.sort_unstable();
    let mut best: Option<ViaAnswer> = None;
    for (to_poi, p) in order {
        if best.is_some_and(|b| to_poi > b.total) {
            break;
        }
        let Some(from_poi) = from_poi(p) else {
            continue;
        };
        let total = to_poi.saturating_add(from_poi);
        if best.is_none_or(|b| (total, p) < (b.total, b.poi)) {
            best = Some(ViaAnswer {
                poi: p,
                total,
                to_poi,
                from_poi,
            });
        }
    }
    best
}

/// Reusable scenario-query state: one forward and one backward
/// [`DijkstraDriver`], reset in O(1) between runs. Construct once per
/// worker, call many times.
#[derive(Debug, Default)]
pub struct ScenarioEngine {
    fwd: DijkstraDriver,
    bwd: DijkstraDriver,
}

impl ScenarioEngine {
    /// Creates an engine; buffers grow to fit the first graph it runs on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the algorithmic cost both drivers accumulated since the
    /// last drain — one tally per scenario query, however many sweeps
    /// it ran.
    pub fn take_cost(&mut self) -> ah_obs::CostCounters {
        let mut c = self.fwd.take_cost();
        c.merge(&self.bwd.take_cost());
        c
    }

    /// Distances from `source` to each of `targets` (`None` =
    /// unreachable), from one forward Dijkstra run.
    pub fn one_to_many<G: SearchGraph>(
        &mut self,
        g: &G,
        source: NodeId,
        targets: &[NodeId],
    ) -> Vec<Option<u64>> {
        self.fwd.run(g, source, &SearchOptions::default(), |_| true);
        targets
            .iter()
            .map(|&t| {
                let d = self.fwd.dist(t);
                (!d.is_infinite()).then_some(d.length)
            })
            .collect()
    }

    /// Full distance table `sources × targets`: one forward Dijkstra per
    /// source. Row `i` equals [`Self::one_to_many`] from `sources[i]`.
    pub fn matrix<G: SearchGraph>(
        &mut self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> Vec<Vec<Option<u64>>> {
        sources
            .iter()
            .map(|&s| self.one_to_many(g, s, targets))
            .collect()
    }

    /// The `k` nearest `candidates` from `source` by network distance,
    /// sorted ascending by `(distance, node id)`; unreachable candidates
    /// are dropped.
    pub fn knn<G: SearchGraph>(
        &mut self,
        g: &G,
        source: NodeId,
        candidates: &[NodeId],
        k: usize,
    ) -> Vec<(NodeId, u64)> {
        let row = self.one_to_many(g, source, candidates);
        nearest(candidates, &row, k)
    }

    /// The optimal detour `s → p → t` over `candidates` ([`best_via`]),
    /// or `None` when no candidate has both legs reachable. One forward
    /// run from `s` prices every first leg and one backward run from
    /// `t` every second leg.
    pub fn via<G: SearchGraph>(
        &mut self,
        g: &G,
        s: NodeId,
        t: NodeId,
        candidates: &[NodeId],
    ) -> Option<ViaAnswer> {
        let to_poi = self.one_to_many(g, s, candidates);
        self.bwd.run(
            g,
            t,
            &SearchOptions {
                direction: Direction::Backward,
                ..Default::default()
            },
            |_| true,
        );
        best_via(candidates, &to_poi, |p| {
            let d = self.bwd.dist(p);
            (!d.is_infinite()).then_some(d.length)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::dijkstra_distance;
    use ah_graph::Graph;

    fn grid() -> Graph {
        ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 9,
            height: 9,
            one_way: 0.2,
            seed: 1234,
            ..Default::default()
        })
    }

    fn naive_dist(g: &Graph, s: NodeId, t: NodeId) -> Option<u64> {
        dijkstra_distance(g, s, t).map(|d| d.length)
    }

    #[test]
    fn poi_set_is_deterministic_and_partitioned() {
        let a = PoiSet::synthetic(500, 8, 42);
        let b = PoiSet::synthetic(500, 8, 42);
        assert_eq!(a, b);
        let c = PoiSet::synthetic(500, 8, 43);
        assert_ne!(a, c, "different seeds must shuffle the assignment");

        let mut seen = std::collections::HashSet::new();
        for cat in 0..a.categories() {
            let slice = a.category(cat);
            assert!(slice.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &p in slice {
                assert!((p as usize) < 500);
                assert!(seen.insert(p), "categories must not overlap");
            }
        }
        assert_eq!(seen.len(), a.len());
        // ≈ 25 % membership on a sample this size.
        assert!(a.len() > 60 && a.len() < 190, "got {}", a.len());
        assert!(a.category(999).is_empty(), "out-of-range category is empty");
    }

    #[test]
    fn nearest_breaks_ties_by_id_and_drops_unreachable() {
        let candidates = [9, 4, 7, 2, 5];
        let row = [Some(3), Some(3), None, Some(1), Some(3)];
        assert_eq!(nearest(&candidates, &row, 3), vec![(2, 1), (4, 3), (5, 3)]);
        assert_eq!(
            nearest(&candidates, &row, 10),
            vec![(2, 1), (4, 3), (5, 3), (9, 3)],
            "the unreachable candidate 7 is dropped, not ranked last"
        );
        assert_eq!(nearest(&candidates, &row, 0), vec![]);
    }

    #[test]
    fn best_via_breaks_a_total_tie_toward_the_smaller_id() {
        // 8: 2 + 5 = 7 is scanned first; 3: 4 + 3 = 7 ties and wins on id.
        let candidates = [8, 3];
        let back = |p: NodeId| Some(if p == 8 { 5 } else { 3 });
        let got = best_via(&candidates, &[Some(2), Some(4)], back).unwrap();
        assert_eq!(
            got,
            ViaAnswer {
                poi: 3,
                total: 7,
                to_poi: 4,
                from_poi: 3
            }
        );
    }

    #[test]
    fn best_via_scans_a_first_leg_equal_to_the_best_total() {
        // 6 gives total 5; 4 has first leg 5 = the best total and a
        // zero second leg, so it ties on the total and wins on id.
        let candidates = [6, 4];
        let back = |p: NodeId| Some(if p == 6 { 4 } else { 0 });
        let got = best_via(&candidates, &[Some(1), Some(5)], back).unwrap();
        assert_eq!((got.poi, got.total, got.from_poi), (4, 5, 0));
    }

    #[test]
    fn best_via_never_prices_a_second_leg_past_the_stop() {
        // First legs 1..=8 on candidates 10..=17; every second leg is 2,
        // so the best total is 3 and the scan stops at the first leg 4.
        let candidates: Vec<NodeId> = (10..18).collect();
        let to_poi: Vec<Option<u64>> = (1..=8).map(Some).collect();
        let mut asked = Vec::new();
        let got = best_via(&candidates, &to_poi, |p| {
            asked.push(p);
            Some(2)
        });
        assert_eq!(got.map(|v| (v.poi, v.total)), Some((10, 3)));
        assert_eq!(asked, vec![10, 11, 12], "first legs 4.. exceed 3");

        // Candidates without a first leg are never asked about either,
        // and a missing second leg only skips its candidate.
        asked.clear();
        let got = best_via(&[1, 2, 3], &[None, Some(4), Some(6)], |p| {
            asked.push(p);
            (p == 3).then_some(1)
        });
        assert_eq!(got.map(|v| (v.poi, v.total)), Some((3, 7)));
        assert_eq!(asked, vec![2, 3]);
        assert_eq!(best_via(&[1], &[None], |_| unreachable!()), None);
    }

    #[test]
    fn one_to_many_matches_point_queries() {
        let g = grid();
        let mut eng = ScenarioEngine::new();
        let targets: Vec<NodeId> = (0..g.num_nodes() as NodeId).step_by(7).collect();
        let got = eng.one_to_many(&g, 3, &targets);
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(got[i], naive_dist(&g, 3, t), "target {t}");
        }
    }

    #[test]
    fn matrix_rows_equal_one_to_many() {
        let g = grid();
        let mut eng = ScenarioEngine::new();
        let last = g.num_nodes() as NodeId - 1;
        let sources = [0, 5, 17, 40];
        let targets = [2, 9, 33, last, 11];
        let m = eng.matrix(&g, &sources, &targets);
        assert_eq!(m.len(), sources.len());
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(m[i], eng.one_to_many(&g, s, &targets), "row {i}");
        }
    }

    #[test]
    fn knn_is_sorted_truncated_and_exact() {
        let g = grid();
        let pois = PoiSet::synthetic(g.num_nodes(), 4, 7);
        let mut eng = ScenarioEngine::new();
        for cat in 0..4 {
            let cands = pois.category(cat);
            let got = eng.knn(&g, 10, cands, 3);
            assert!(got.len() <= 3);
            assert!(got.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)));
            // Every reported pair is the true distance, and nothing
            // closer was skipped.
            let mut all: Vec<(u64, NodeId)> = cands
                .iter()
                .filter_map(|&p| naive_dist(&g, 10, p).map(|d| (d, p)))
                .collect();
            all.sort_unstable();
            all.truncate(3);
            let want: Vec<(NodeId, u64)> = all.into_iter().map(|(d, p)| (p, d)).collect();
            assert_eq!(got, want, "category {cat}");
        }
    }

    #[test]
    fn via_matches_exhaustive_scan() {
        let g = grid();
        let pois = PoiSet::synthetic(g.num_nodes(), 4, 9);
        let mut eng = ScenarioEngine::new();
        let last = g.num_nodes() as NodeId - 1;
        for (s, t, cat) in [(0, last, 0), (5, last - 3, 1), (33, 2, 2), (60, 60, 3)] {
            let got = eng.via(&g, s, t, pois.category(cat));
            let want = pois
                .category(cat)
                .iter()
                .filter_map(|&p| {
                    let a = naive_dist(&g, s, p)?;
                    let b = naive_dist(&g, p, t)?;
                    Some((a + b, p, a, b))
                })
                .min();
            let want = want.map(|(total, poi, to_poi, from_poi)| ViaAnswer {
                poi,
                total,
                to_poi,
                from_poi,
            });
            assert_eq!(got, want, "({s},{t}) cat {cat}");
        }
    }

    #[test]
    fn via_handles_unreachable_candidates() {
        // Two-component graph: candidates in the far component are
        // skipped, not reported.
        let mut b = ah_graph::GraphBuilder::new();
        for i in 0..6 {
            b.add_node(ah_graph::Point::new(i, 0));
        }
        b.add_bidirectional_edge(0, 1, 3);
        b.add_bidirectional_edge(1, 2, 4);
        b.add_bidirectional_edge(3, 4, 1);
        b.add_bidirectional_edge(4, 5, 1);
        let g = b.build();
        let mut eng = ScenarioEngine::new();
        assert_eq!(
            eng.via(&g, 0, 2, &[4, 5]),
            None,
            "detour through the far component is impossible"
        );
        let got = eng.via(&g, 0, 2, &[1, 4]).unwrap();
        assert_eq!(
            got,
            ViaAnswer {
                poi: 1,
                total: 7,
                to_poi: 3,
                from_poi: 4
            }
        );
        assert_eq!(eng.knn(&g, 0, &[1, 4, 5], 5), vec![(1, 3)]);
    }
}
