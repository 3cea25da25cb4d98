//! SILC — *Spatially Induced Linkage Cognizance* (Samet, Sankaranarayanan,
//! Alborzi, SIGMOD 2008; the paper's reference \[21\]).
//!
//! SILC is the worst-case-efficient baseline of Section 6: for every source
//! node it precomputes the *first hop* of the shortest path to every other
//! node, and compresses that coloring into a region quadtree over the node
//! coordinates (shortest paths are spatially coherent, so huge quadrants
//! share one first hop). Queries walk the path hop by hop — `O(k log n)` —
//! by repeated quadtree lookups; distances accumulate edge weights along
//! the walk.
//!
//! The construction computes `n` shortest-path trees (`O(n² log n)` work,
//! `O(n √n)` expected space), which is why the paper (and this harness)
//! only runs SILC on the smaller datasets: its Figure 10 curves are the
//! motivation for AH's existence. `docs/ARCHITECTURE.md` shows where
//! SILC sits in the crate graph.
//!
//! ```
//! use ah_silc::{SilcIndex, SilcQuery};
//!
//! let g = ah_data::fixtures::lattice(5, 5, 16);
//! let idx = SilcIndex::build(&g);
//! let mut q = SilcQuery::new();
//! assert_eq!(
//!     q.distance(&g, &idx, 0, 24),
//!     ah_search::dijkstra_distance(&g, 0, 24).map(|d| d.length)
//! );
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use ah_graph::{Graph, NodeId, Path, Point};
use ah_search::shortest_path_tree;

mod quadtree;

pub use quadtree::QuadTree;

/// The SILC index: one first-hop quadtree per source node.
pub struct SilcIndex {
    trees: Vec<QuadTree>,
    /// South-west corner of the quadtree square.
    origin: Point,
    /// Side of the quadtree square (power of two).
    side: u64,
}

impl SilcIndex {
    /// Builds the index, one shortest-path tree per source, on every
    /// available core (the `n` trees are embarrassingly parallel, and
    /// each is independent of which thread computes it).
    pub fn build(g: &Graph) -> SilcIndex {
        Self::build_on(
            g,
            std::thread::available_parallelism().map_or(1, |p| p.get()),
        )
    }

    /// [`SilcIndex::build`] on `threads` workers. Each worker claims
    /// sources from a shared counter and returns its `(source, tree)`
    /// pairs, which are then placed by source.
    pub(crate) fn build_on(g: &Graph, threads: usize) -> SilcIndex {
        let bb = g.bounding_box();
        let (origin, side) = if bb.is_empty() {
            (Point::new(0, 0), 1)
        } else {
            let raw = bb.square_side() + 1;
            (Point::new(bb.min_x, bb.min_y), raw.next_power_of_two())
        };
        let n = g.num_nodes();
        let coords = g.coords();
        let next = AtomicUsize::new(0);
        let claimed: Vec<Vec<(usize, QuadTree)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let s = next.fetch_add(1, Ordering::Relaxed);
                            if s >= n {
                                return out;
                            }
                            out.push((s, Self::tree_for(g, coords, origin, side, s as NodeId)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("SILC build worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<QuadTree>> = vec![None; n];
        for (s, tree) in claimed.into_iter().flatten() {
            slots[s] = Some(tree);
        }
        SilcIndex {
            trees: slots
                .into_iter()
                .map(|t| t.expect("every source claimed"))
                .collect(),
            origin,
            side,
        }
    }

    fn tree_for(g: &Graph, coords: &[Point], origin: Point, side: u64, s: NodeId) -> QuadTree {
        let spt = shortest_path_tree(g, s);
        QuadTree::build(coords, &spt.first_hop, origin, side)
    }

    /// First hop of the canonical shortest path from `s` toward `t`, or
    /// `None` if `t` is unreachable from `s`.
    pub fn next_hop(&self, s: NodeId, t: NodeId, t_coord: Point) -> Option<NodeId> {
        self.trees[s as usize].lookup(t, t_coord, self.origin, self.side)
    }

    /// Approximate index size in bytes (Figure 10a accounting).
    pub fn size_bytes(&self) -> usize {
        self.trees.iter().map(QuadTree::size_bytes).sum()
    }

    /// Total quadtree cells across all sources (compression telemetry).
    pub fn total_cells(&self) -> usize {
        self.trees.iter().map(QuadTree::num_cells).sum()
    }
}

/// Reusable SILC query state (trivially small: SILC queries are iterative
/// lookups, no search frontier).
#[derive(Default)]
pub struct SilcQuery {
    /// Hops taken by the last query (telemetry).
    pub hops: usize,
}

impl SilcQuery {
    /// Creates a query engine.
    pub fn new() -> SilcQuery {
        SilcQuery::default()
    }

    /// Network distance from `s` to `t`: walks the first-hop chain,
    /// summing edge weights (SILC computes distances by path retrieval,
    /// which is why its Figure 8 and Figure 9 timings coincide).
    pub fn distance(&mut self, g: &Graph, idx: &SilcIndex, s: NodeId, t: NodeId) -> Option<u64> {
        self.walk(g, idx, s, t, |_| {})
    }

    /// Shortest path from `s` to `t`.
    pub fn path(&mut self, g: &Graph, idx: &SilcIndex, s: NodeId, t: NodeId) -> Option<Path> {
        let mut nodes = vec![s];
        let length = self.walk(g, idx, s, t, |v| nodes.push(v))?;
        Some(Path {
            nodes,
            dist: ah_graph::Dist::new(length, 0),
        })
    }

    fn walk(
        &mut self,
        g: &Graph,
        idx: &SilcIndex,
        s: NodeId,
        t: NodeId,
        mut visit: impl FnMut(NodeId),
    ) -> Option<u64> {
        self.hops = 0;
        let t_coord = g.coord(t);
        let mut cur = s;
        let mut total = 0u64;
        while cur != t {
            let hop = idx.next_hop(cur, t, t_coord)?;
            let w = g
                .edge_weight(cur, hop)
                .expect("first hop must be an out-edge");
            total += w as u64;
            visit(hop);
            cur = hop;
            self.hops += 1;
            debug_assert!(
                self.hops <= g.num_nodes(),
                "first-hop chain failed to converge"
            );
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_search::{dijkstra_distance, dijkstra_path};

    fn check(g: &Graph, idx: &SilcIndex, stride: usize) {
        let mut q = SilcQuery::new();
        let n = g.num_nodes() as NodeId;
        for s in (0..n).step_by(stride) {
            for t in (0..n).step_by(stride) {
                let want = dijkstra_distance(g, s, t).map(|d| d.length);
                assert_eq!(q.distance(g, idx, s, t), want, "({s},{t})");
                if let Some(p_want) = dijkstra_path(g, s, t) {
                    let p = q.path(g, idx, s, t).unwrap();
                    p.verify(g).unwrap();
                    assert_eq!(p.dist.length, p_want.dist.length);
                    assert_eq!(p.source(), s);
                    assert_eq!(p.target(), t);
                }
            }
        }
    }

    #[test]
    fn correct_on_lattice() {
        let g = ah_data::fixtures::lattice(6, 5, 14);
        let idx = SilcIndex::build(&g);
        check(&g, &idx, 1);
    }

    #[test]
    fn correct_on_road_network() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 10,
            height: 10,
            one_way: 0.2,
            seed: 55,
            ..Default::default()
        });
        let idx = SilcIndex::build(&g);
        check(&g, &idx, 5);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = ah_data::fixtures::lattice(8, 8, 12);
        let a = SilcIndex::build_on(&g, 1);
        let b = SilcIndex::build_on(&g, 4);
        assert_eq!(a.size_bytes(), b.size_bytes());
        let mut qa = SilcQuery::new();
        let mut qb = SilcQuery::new();
        for s in 0..64u32 {
            for t in (0..64u32).step_by(7) {
                assert_eq!(
                    qa.distance(&g, &a, s, t),
                    qb.distance(&g, &b, s, t)
                );
            }
        }
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = ah_graph::GraphBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(50, 50));
        b.add_edge(0, 1, 4);
        let g = b.build();
        let idx = SilcIndex::build(&g);
        let mut q = SilcQuery::new();
        assert_eq!(q.distance(&g, &idx, 0, 1), Some(4));
        assert_eq!(q.distance(&g, &idx, 1, 0), None);
        assert!(q.path(&g, &idx, 1, 0).is_none());
    }

    #[test]
    fn quadtrees_compress() {
        // On a lattice with a single far-away target region, most quadrants
        // share a first hop: total cells must be far below n per tree.
        let g = ah_data::fixtures::lattice(12, 12, 10);
        let idx = SilcIndex::build(&g);
        let n = g.num_nodes();
        assert!(
            idx.total_cells() < n * n,
            "no compression at all: {} cells",
            idx.total_cells()
        );
        assert_eq!(ah_graph::INVALID_NODE, u32::MAX); // color encoding precondition
    }
}
