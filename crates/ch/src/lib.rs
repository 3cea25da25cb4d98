//! Contraction Hierarchies (CH) — the paper's strongest baseline
//! (Geisberger, Sanders, Schultes, Delling, WEA 2008; reference \[11\]).
//!
//! CH heuristically imposes a total order on the nodes (edge difference +
//! deleted neighbours, lazily maintained), contracts them in that order
//! with witness searches, and answers queries with a bidirectional upward
//! Dijkstra. It is the method AH is benchmarked against throughout
//! Section 6: CH has the cheapest preprocessing and smallest index, AH
//! beats it on query time, especially for long-range queries.
//!
//! The heavy lifting lives in [`ah_contraction`]; this crate packages it
//! behind the same `build / distance / path` surface the other methods
//! expose, so the benchmark harness treats all methods uniformly.
//!
//! ```
//! use ah_ch::{ChIndex, ChQuery};
//!
//! let g = ah_data::fixtures::lattice(6, 6, 16);
//! let idx = ChIndex::build(&g);
//! let mut q = ChQuery::new();
//! assert_eq!(
//!     q.distance(&idx, 0, 35),
//!     ah_search::dijkstra_distance(&g, 0, 35).map(|d| d.length)
//! );
//! ```

use ah_contraction::{contract_adaptive, BidirUpwardQuery, ContractionConfig, Hierarchy};
use ah_graph::{Dist, Graph, NodeId, Path};
use ah_obs::CostCounters;

/// A built Contraction Hierarchies index.
pub struct ChIndex {
    hierarchy: Hierarchy,
    order: Vec<NodeId>,
}

impl ChIndex {
    /// Builds the index with default witness budgets.
    pub fn build(g: &Graph) -> ChIndex {
        Self::build_with_config(g, ContractionConfig::default())
    }

    /// Builds the index with an explicit contraction configuration.
    pub fn build_with_config(g: &Graph, cfg: ContractionConfig) -> ChIndex {
        let (hierarchy, order) = contract_adaptive(g, cfg);
        ChIndex { hierarchy, order }
    }

    /// The contraction order (`order[0]` contracted first).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Number of shortcut arcs.
    pub fn num_shortcuts(&self) -> usize {
        self.hierarchy.num_shortcuts()
    }

    /// Approximate index size in bytes (Figure 10a accounting).
    pub fn size_bytes(&self) -> usize {
        self.hierarchy.size_bytes() + self.order.len() * std::mem::size_of::<NodeId>()
    }

    /// Reassembles an index from a hierarchy and its contraction order
    /// (snapshot loading). Requires `order` to be consistent with the
    /// hierarchy's ranks: `order[i]` must be the node with rank `i`.
    pub fn from_raw_parts(
        hierarchy: Hierarchy,
        order: Vec<NodeId>,
    ) -> Result<ChIndex, &'static str> {
        if order.len() != hierarchy.num_nodes() {
            return Err("contraction order length disagrees with the hierarchy");
        }
        for (i, &v) in order.iter().enumerate() {
            if v as usize >= order.len() || hierarchy.rank(v) as usize != i {
                return Err("contraction order disagrees with hierarchy ranks");
            }
        }
        Ok(ChIndex { hierarchy, order })
    }
}

/// Reusable CH query state (one per thread): the shared upward search
/// under the plain CH rule, the hierarchy itself.
#[derive(Default)]
pub struct ChQuery {
    search: BidirUpwardQuery,
}

// Concurrency contract, checked at compile time: one `ChIndex` is shared
// across `ah_server` workers, each owning its `ChQuery`.
const fn _assert_send_sync<T: Send + Sync>() {}
const fn _assert_send<T: Send>() {}
const _: () = _assert_send_sync::<ChIndex>();
const _: () = _assert_send::<ChQuery>();

impl ChQuery {
    /// Creates a query engine.
    pub fn new() -> ChQuery {
        ChQuery::default()
    }

    /// Network distance from `s` to `t`.
    pub fn distance(&mut self, idx: &ChIndex, s: NodeId, t: NodeId) -> Option<u64> {
        self.distance_full(idx, s, t).map(|d| d.length)
    }

    /// Distance with the nuance tie-break component.
    pub fn distance_full(&mut self, idx: &ChIndex, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search.distance(&idx.hierarchy, s, t)
    }

    /// Shortest path from `s` to `t` in the original network.
    pub fn path(&mut self, idx: &ChIndex, s: NodeId, t: NodeId) -> Option<Path> {
        self.search.path(&idx.hierarchy, s, t)
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
        let idx = ChIndex::build(g);
        let mut q = ChQuery::new();
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
        check(&ah_data::fixtures::lattice(7, 5, 12), 3);
    }

    #[test]
    fn correct_on_road_network() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 13,
            height: 13,
            one_way: 0.2,
            seed: 77,
            ..Default::default()
        });
        check(&g, 7);
    }

    #[test]
    fn index_accounting() {
        let g = ah_data::fixtures::lattice(6, 6, 12);
        let idx = ChIndex::build(&g);
        assert_eq!(idx.order().len(), 36);
        assert!(idx.size_bytes() > 0);
        let mut q = ChQuery::new();
        q.distance(&idx, 0, 35);
        assert!(q.take_cost().nodes_settled > 0);
    }
}
