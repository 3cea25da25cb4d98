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

use ah_contraction::{
    contract_adaptive, contract_with_order, BidirUpwardQuery, ContractionConfig, Hierarchy,
};
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
        let (hierarchy, order) = contract_adaptive(g, ContractionConfig::default());
        ChIndex { hierarchy, order }
    }

    /// Contracts `g` in exactly the given `order` (`order[0]` first)
    /// instead of choosing one. An order stays valid under any weights,
    /// so a weight delta can be re-contracted under the order of the
    /// index it replaces — AH's or CH's — in a fraction of a full build.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `g`'s node ids.
    pub fn build_with_order(g: &Graph, order: &[NodeId], cfg: ContractionConfig) -> ChIndex {
        ChIndex {
            hierarchy: contract_with_order(g, order, cfg),
            order: order.to_vec(),
        }
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
    fn build_with_order_reuses_an_order_under_new_weights() {
        let g = ah_data::fixtures::lattice(7, 5, 12);
        let order = ChIndex::build(&g).order().to_vec();
        // The same shape, other weights (one road closed): the old order
        // must still give an exact hierarchy, and one `from_raw_parts`
        // accepts.
        let changes = [
            ah_graph::WeightChange::new(0, 1, 90),
            ah_graph::WeightChange::new(8, 9, 1),
            ah_graph::WeightChange::close(16, 17),
        ];
        let delta = ah_graph::WeightDelta::new(&g, changes).unwrap();
        let reweighted = delta.apply(&g).unwrap().graph;
        let idx = ChIndex::build_with_order(&reweighted, &order, ContractionConfig::default());
        assert_eq!(idx.order(), &order[..]);
        assert_eq!(idx.hierarchy().contraction_order(), order);
        let parts = ChIndex::from_raw_parts(idx.hierarchy().clone(), order.clone()).unwrap();
        assert_eq!(parts.num_shortcuts(), idx.num_shortcuts());
        let mut q = ChQuery::new();
        let n = reweighted.num_nodes() as NodeId;
        for s in (0..n).step_by(4) {
            for t in (0..n).step_by(3) {
                assert_eq!(
                    q.distance_full(&idx, s, t),
                    dijkstra_distance(&reweighted, s, t),
                    "({s},{t})"
                );
            }
        }
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
