//! The AH query algorithm (Section 4.3): the shared bidirectional upward
//! search of [`ah_contraction`] under AH's rule, which adds the proximity
//! constraint and elevating-edge jumps.

use ah_contraction::{BidirUpwardQuery, Hierarchy, UpwardRule};
use ah_graph::{Dist, NodeId, Path};
use ah_grid::Cell;
use ah_obs::CostCounters;
use ah_search::ParentArc;

use crate::config::QueryConfig;
use crate::elevating::{hops, ElevArc, ElevatingSide};
use crate::index::{AhIndex, LevelCell};

/// Reusable AH query state. Create once per thread, run many queries.
#[derive(Debug, Default)]
pub struct AhQuery {
    /// Constraint toggles (ablation).
    pub cfg: QueryConfig,
    search: BidirUpwardQuery,
}

impl AhQuery {
    /// Creates a query engine with the paper's default constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a query engine with explicit constraint toggles.
    pub fn with_config(cfg: QueryConfig) -> Self {
        AhQuery {
            cfg,
            search: BidirUpwardQuery::new(),
        }
    }

    /// Drains the cost accumulated since the last drain. It spans
    /// queries, so a request composed of several point queries drains one
    /// total.
    pub fn take_cost(&mut self) -> CostCounters {
        self.search.take_cost()
    }

    /// Network distance from `s` to `t`, or `None` if unreachable.
    pub fn distance(&mut self, idx: &AhIndex, s: NodeId, t: NodeId) -> Option<u64> {
        self.distance_full(idx, s, t).map(|d| d.length)
    }

    /// Distance with the nuance component (for cross-method equivalence
    /// tests).
    pub fn distance_full(&mut self, idx: &AhIndex, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search
            .distance(&AhRule::new(idx, self.cfg, s, t), s, t)
    }

    /// Shortest path from `s` to `t` in the original network.
    pub fn path(&mut self, idx: &AhIndex, s: NodeId, t: NodeId) -> Option<Path> {
        self.search.path(&AhRule::new(idx, self.cfg, s, t), s, t)
    }
}

/// AH's rule for one query `s → t`.
struct AhRule<'a> {
    idx: &'a AhIndex,
    cfg: QueryConfig,
    /// The `R_1` cells of `s` (forward side) and `t` (backward side).
    ends: [Cell; 2],
    /// Lemma 3: the shortest path must climb to the separation level of
    /// `s` and `t`, so elevating jumps may target it directly.
    sep: u8,
}

impl<'a> AhRule<'a> {
    fn new(idx: &'a AhIndex, cfg: QueryConfig, s: NodeId, t: NodeId) -> Self {
        let ends = [
            idx.level_cells[s as usize].cell,
            idx.level_cells[t as usize].cell,
        ];
        let sep = idx
            .grid
            .separation_level_of_cells(ends[0], ends[1])
            .unwrap_or(0) as u8;
        AhRule {
            idx,
            cfg,
            ends,
            sep,
        }
    }

    /// The elevating sets of one search side.
    fn side(&self, forward: bool) -> &'a ElevatingSide {
        if forward {
            &self.idx.elevating.forward
        } else {
            &self.idx.elevating.backward
        }
    }
}

impl UpwardRule for AhRule<'_> {
    type Jump = ElevArc;

    fn hierarchy(&self) -> &Hierarchy {
        &self.idx.hierarchy
    }

    /// A node below the separation level jumps through its best complete
    /// elevating set, skipping its hierarchy arcs.
    #[inline]
    fn jumps(&self, u: NodeId, forward: bool) -> Option<&[ElevArc]> {
        let own_level = self.idx.level[u as usize];
        if !self.cfg.elevating || own_level >= self.sep {
            return None;
        }
        let (_lvl, arcs) = self.side(forward).best_set(u, own_level, self.sep)?;
        Some(arcs)
    }

    #[inline]
    fn admits(&self, forward: bool, x: NodeId) -> bool {
        !self.cfg.proximity || proximity_ok(self.idx, self.ends[!forward as usize], x)
    }

    /// An elevating arc's interior nodes live in the elevating sets of
    /// the side that took it, in forward path order; each hop `tail →
    /// interior… → head` is one hierarchy arc.
    fn unpack(
        &self,
        forward: bool,
        tail: NodeId,
        head: NodeId,
        arc: ParentArc,
        nodes: &mut Vec<NodeId>,
    ) {
        let h = &self.idx.hierarchy;
        match arc.chain() {
            Some(range) => {
                for (a, b) in hops(tail, self.side(forward).chain(range), head) {
                    let hop = h
                        .arc_between(a, b)
                        .expect("elevating chains are checked at build and load");
                    h.unpack_arc(a, b, hop.middle, nodes);
                }
            }
            None => h.unpack_arc(tail, head, arc.middle(), nodes),
        }
    }

    #[inline]
    fn stall_on_demand(&self) -> bool {
        self.cfg.stall_on_demand
    }
}

/// Proximity constraint (Sections 3.2/4.3): a level-`i` node may be
/// relaxed only if it shares a (3×3)-cell region of `R_(i+1)` with the
/// side's query endpoint, whose `R_1` cell is `endpoint`. Top-level nodes
/// always pass.
#[inline]
fn proximity_ok(idx: &AhIndex, endpoint: Cell, x: NodeId) -> bool {
    let LevelCell { cell, level } = idx.level_cells[x as usize];
    let lx = level as u32;
    lx >= idx.grid.levels()
        || cell
            .coarsened(lx)
            .shares_3x3_region(&endpoint.coarsened(lx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AhIndex, BuildConfig, QueryConfig};
    use ah_search::{dijkstra_distance, dijkstra_path};

    fn check_all_pairs(g: &ah_graph::Graph, idx: &AhIndex, cfg: QueryConfig, stride: usize) {
        let mut q = AhQuery::with_config(cfg);
        let n = g.num_nodes() as NodeId;
        for s in (0..n).step_by(stride) {
            for t in (0..n).step_by(stride) {
                let want = dijkstra_distance(g, s, t);
                let got = q.distance_full(idx, s, t);
                assert_eq!(got, want, "distance ({s},{t}) with cfg {cfg:?}");
                if let Some(want_path) = dijkstra_path(g, s, t) {
                    let p = q.path(idx, s, t).expect("path exists");
                    p.verify(g).unwrap();
                    assert_eq!(p.dist, want_path.dist, "path ({s},{t})");
                    assert_eq!(p.source(), s);
                    assert_eq!(p.target(), t);
                }
            }
        }
    }

    fn all_configs() -> Vec<QueryConfig> {
        let mut v = Vec::new();
        for proximity in [false, true] {
            for elevating in [false, true] {
                for stall in [false, true] {
                    v.push(QueryConfig {
                        proximity,
                        elevating,
                        stall_on_demand: stall,
                    });
                }
            }
        }
        v
    }

    #[test]
    fn exhaustive_on_lattice() {
        let g = ah_data::fixtures::lattice(7, 7, 16);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        for cfg in all_configs() {
            check_all_pairs(&g, &idx, cfg, 3);
        }
    }

    #[test]
    fn exhaustive_on_figure1() {
        let g = ah_data::fixtures::figure1_like();
        let idx = AhIndex::build(&g, &BuildConfig::default());
        for cfg in all_configs() {
            check_all_pairs(&g, &idx, cfg, 1);
        }
    }

    #[test]
    fn road_network_with_one_ways() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 14,
            height: 14,
            one_way: 0.25,
            seed: 21,
            ..Default::default()
        });
        let idx = AhIndex::build(&g, &BuildConfig::default());
        check_all_pairs(&g, &idx, QueryConfig::default(), 7);
        check_all_pairs(
            &g,
            &idx,
            QueryConfig {
                proximity: true,
                elevating: false,
                stall_on_demand: false,
            },
            7,
        );
    }

    #[test]
    fn random_geometric_stress() {
        let g = ah_data::random_geometric(90, 700, 150, 17);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        check_all_pairs(&g, &idx, QueryConfig::default(), 5);
    }

    #[test]
    fn ring_and_line() {
        for g in [ah_data::fixtures::ring(16), ah_data::fixtures::line(24, 12)] {
            let idx = AhIndex::build(&g, &BuildConfig::default());
            check_all_pairs(&g, &idx, QueryConfig::default(), 1);
        }
    }

    #[test]
    fn build_config_ablations_stay_correct() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 12,
            height: 12,
            seed: 5,
            ..Default::default()
        });
        for vc in [false, true] {
            for dg in [false, true] {
                for el in [false, true] {
                    let cfg = BuildConfig {
                        vertex_cover_rank: vc,
                        downgrade_non_cover: dg,
                        elevating_edges: el,
                        ..Default::default()
                    };
                    let idx = AhIndex::build(&g, &cfg);
                    check_all_pairs(&g, &idx, QueryConfig::default(), 11);
                }
            }
        }
    }

    #[test]
    fn unreachable_and_self() {
        let mut b = ah_graph::GraphBuilder::new();
        b.add_node(ah_graph::Point::new(0, 0));
        b.add_node(ah_graph::Point::new(100, 100));
        b.add_edge(0, 1, 9);
        let g = b.build();
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let mut q = AhQuery::new();
        assert_eq!(q.distance(&idx, 0, 1), Some(9));
        assert_eq!(q.distance(&idx, 1, 0), None);
        assert!(q.path(&idx, 1, 0).is_none());
        assert_eq!(q.distance(&idx, 1, 1), Some(0));
    }
}
