//! FC — the *first-cut* index (paper Section 3).
//!
//! FC demonstrates the core idea of the paper in its simplest form:
//!
//! 1. assign each node the level of the most important arterial edge it
//!    touches (here via the shared incremental construction in
//!    [`ah_arterial`]),
//! 2. add shortcuts that bypass lower-level nodes (realized as contraction
//!    in `(level, tie-break)` order — the same construction AH uses, minus
//!    AH's in-level vertex-cover refinement),
//! 3. answer queries with the bidirectional upward search shared with CH
//!    and AH ([`ah_contraction::BidirUpwardQuery`]): the **level
//!    constraint** (only climb) is its upward arcs, and FC's rule adds the
//!    **proximity constraint** (a level-`i` node is visited only inside
//!    the (5×5)-cell window of `R_(i+1)` around the query endpoint).
//!
//! Compared to AH (the `ah-core` crate), FC lacks the in-level ordering,
//! the downgrading optimization, elevating edges and O(k) path unpacking
//! tuning — exactly the gaps Section 4 closes. FC remains exact; it is
//! kept as a comparison point and as the conceptual stepping stone.
//! `docs/ARCHITECTURE.md` shows where FC sits in the crate graph.
//!
//! ```
//! use ah_fc::{FcIndex, FcQuery};
//!
//! let g = ah_data::fixtures::lattice(6, 6, 16);
//! let idx = FcIndex::build(&g);
//! let mut q = FcQuery::new();
//! assert_eq!(
//!     q.distance(&idx, 0, 35),
//!     ah_search::dijkstra_distance(&g, 0, 35).map(|d| d.length)
//! );
//! ```

use ah_arterial::{assign_levels, SelectionConfig};
use ah_contraction::{
    contract_with_order, BidirUpwardQuery, ContractionConfig, HArc, Hierarchy, UpwardRule,
};
use ah_graph::{Dist, Graph, NodeId, Path, Point};
use ah_grid::GridHierarchy;
use ah_obs::CostCounters;

/// Build-time options for FC.
#[derive(Debug, Clone, Copy)]
pub struct FcBuildConfig {
    /// Cap on grid levels `h`.
    pub max_levels: u32,
    /// Witness budget for shortcut construction.
    pub contraction: ContractionConfig,
}

impl Default for FcBuildConfig {
    fn default() -> Self {
        FcBuildConfig {
            max_levels: 26,
            contraction: ContractionConfig::default(),
        }
    }
}

/// The FC index: node levels, the level-ordered shortcut hierarchy and the
/// grid geometry for the proximity constraint.
pub struct FcIndex {
    grid: GridHierarchy,
    level: Vec<u8>,
    hierarchy: Hierarchy,
    coords: Vec<Point>,
}

impl FcIndex {
    /// Builds the index with defaults.
    pub fn build(g: &Graph) -> FcIndex {
        Self::build_with_config(g, &FcBuildConfig::default())
    }

    /// Builds the index.
    pub fn build_with_config(g: &Graph, cfg: &FcBuildConfig) -> FcIndex {
        let la = assign_levels(
            g,
            &SelectionConfig {
                max_levels: cfg.max_levels,
            },
        );
        // Level-primary order with a deterministic hash tie-break (FC has
        // no in-level refinement).
        let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        order.sort_unstable_by_key(|&v| (la.level[v as usize], hash_id(v), v));
        let hierarchy = contract_with_order(g, &order, cfg.contraction);
        FcIndex {
            grid: la.grid,
            level: la.level,
            hierarchy,
            coords: g.coords().to_vec(),
        }
    }

    /// Hierarchy level of `v`.
    pub fn level_of(&self, v: NodeId) -> u8 {
        self.level[v as usize]
    }

    /// Number of shortcuts in the hierarchy.
    pub fn num_shortcuts(&self) -> usize {
        self.hierarchy.num_shortcuts()
    }

    /// Approximate index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.hierarchy.size_bytes()
            + self.level.len()
            + self.coords.len() * std::mem::size_of::<Point>()
    }

    fn rule(&self, s: NodeId, t: NodeId) -> FcRule<'_> {
        FcRule {
            idx: self,
            ends: [self.coords[s as usize], self.coords[t as usize]],
        }
    }

    /// Proximity predicate for one query endpoint (see crate docs).
    fn proximity_ok(&self, endpoint: Point, x: NodeId) -> bool {
        let lx = self.level[x as usize] as u32;
        if lx >= self.grid.levels() {
            return true;
        }
        self.grid
            .same_3x3_region(lx + 1, self.coords[x as usize], endpoint)
    }
}

fn hash_id(v: NodeId) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FC's rule for the shared upward search: CH's arcs and unpacking, with
/// each side admitting only heads that pass the proximity test against
/// its own query endpoint.
struct FcRule<'a> {
    idx: &'a FcIndex,
    /// Coordinates of `s` (forward side) and `t` (backward side).
    ends: [Point; 2],
}

impl UpwardRule for FcRule<'_> {
    type Jump = HArc;

    fn hierarchy(&self) -> &Hierarchy {
        &self.idx.hierarchy
    }

    #[inline]
    fn admits(&self, forward: bool, x: NodeId) -> bool {
        self.idx.proximity_ok(self.ends[!forward as usize], x)
    }
}

/// Reusable FC query state.
#[derive(Default)]
pub struct FcQuery {
    search: BidirUpwardQuery,
}

impl FcQuery {
    /// Creates a query engine.
    pub fn new() -> FcQuery {
        FcQuery::default()
    }

    /// Network distance from `s` to `t`.
    pub fn distance(&mut self, idx: &FcIndex, s: NodeId, t: NodeId) -> Option<u64> {
        self.distance_full(idx, s, t).map(|d| d.length)
    }

    /// Distance with the nuance component.
    pub fn distance_full(&mut self, idx: &FcIndex, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search.distance(&idx.rule(s, t), s, t)
    }

    /// Shortest path from `s` to `t` in the original network.
    pub fn path(&mut self, idx: &FcIndex, s: NodeId, t: NodeId) -> Option<Path> {
        self.search.path(&idx.rule(s, t), s, t)
    }

    /// Drains the cost accumulated since the last drain (possibly
    /// several queries).
    pub fn take_cost(&mut self) -> CostCounters {
        self.search.take_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_search::{dijkstra_distance, dijkstra_path};

    fn check(g: &Graph, stride: usize) {
        let idx = FcIndex::build(g);
        let mut q = FcQuery::new();
        let n = g.num_nodes() as NodeId;
        for s in (0..n).step_by(stride) {
            for t in (0..n).step_by(stride) {
                assert_eq!(
                    q.distance_full(&idx, s, t),
                    dijkstra_distance(g, s, t),
                    "({s},{t})"
                );
                if let Some(want) = dijkstra_path(g, s, t) {
                    let p = q.path(&idx, s, t).unwrap();
                    p.verify(g).unwrap();
                    assert_eq!(p.dist, want.dist);
                }
            }
        }
    }

    #[test]
    fn correct_on_lattice() {
        check(&ah_data::fixtures::lattice(7, 6, 14), 3);
    }

    #[test]
    fn correct_on_figure1() {
        check(&ah_data::fixtures::figure1_like(), 1);
    }

    #[test]
    fn correct_on_road_network() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 12,
            height: 12,
            one_way: 0.15,
            seed: 31,
            ..Default::default()
        });
        check(&g, 7);
    }

    #[test]
    fn correct_on_random_geometric() {
        let g = ah_data::random_geometric(80, 600, 140, 4);
        check(&g, 5);
    }

    #[test]
    fn accounting() {
        let g = ah_data::fixtures::lattice(6, 6, 14);
        let idx = FcIndex::build(&g);
        assert!(idx.size_bytes() > 0);
        for v in 0..36u32 {
            let _ = idx.level_of(v);
        }
    }
}
