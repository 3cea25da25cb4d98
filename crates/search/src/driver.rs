//! The reusable single-source Dijkstra engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ah_graph::{Dist, NodeId, INFINITY, INVALID_NODE};
use ah_obs::CostCounters;

use crate::search_graph::SearchGraph;
use crate::slots::{ParentArc, SearchSlots};

/// Which adjacency a search follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Follow out-edges: computes distances *from* the source.
    #[default]
    Forward,
    /// Follow in-edges: computes distances *to* the source.
    Backward,
}

impl Direction {
    /// Replaces `buf`'s contents with the `(neighbour, weight, nuance)`
    /// arcs of `u` this direction follows.
    pub(crate) fn arcs<G: SearchGraph>(self, g: &G, u: NodeId, buf: &mut Vec<(NodeId, u64, u64)>) {
        buf.clear();
        match self {
            Direction::Forward => g.for_each_out(u, |v, w, nu| buf.push((v, w, nu))),
            Direction::Backward => g.for_each_in(u, |v, w, nu| buf.push((v, w, nu))),
        }
    }
}

/// Knobs for a [`DijkstraDriver::run`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Adjacency direction.
    pub direction: Direction,
    /// Stop as soon as this node is settled.
    pub target: Option<NodeId>,
    /// Do not settle nodes farther than this (exclusive); used by witness
    /// searches and local searches.
    pub bound: Dist,
    /// Settle at most this many nodes (witness-search budget).
    pub max_settled: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            direction: Direction::Forward,
            target: None,
            bound: INFINITY,
            max_settled: usize::MAX,
        }
    }
}

/// Why a search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The requested target was settled at this distance.
    TargetReached(Dist),
    /// The priority queue drained.
    Exhausted,
    /// The next node exceeded [`SearchOptions::bound`].
    BoundExceeded,
    /// [`SearchOptions::max_settled`] was hit.
    SettleLimit,
}

/// Reusable Dijkstra state. Construct once, call [`run`](Self::run) many
/// times; the per-node records reset in O(1) between runs.
#[derive(Debug, Default)]
pub struct DijkstraDriver {
    slots: SearchSlots,
    settled_order: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(Dist, NodeId)>>,
    /// The arcs of the node being settled, copied out of the graph; kept
    /// across runs so the many tiny witness searches allocate nothing.
    arcs: Vec<(NodeId, u64, u64)>,
    cost: CostCounters,
}

impl DijkstraDriver {
    /// Creates an empty driver; buffers grow to fit the first graph it runs
    /// on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Dijkstra from `source`, relaxing only edges whose far endpoint
    /// satisfies `allow`. See [`SearchOptions`] for termination knobs.
    pub fn run<G, F>(
        &mut self,
        g: &G,
        source: NodeId,
        opts: &SearchOptions,
        allow: F,
    ) -> SearchOutcome
    where
        G: SearchGraph,
        F: FnMut(NodeId) -> bool,
    {
        self.run_expanding(g, source, opts, allow, |_, _| true)
    }

    /// [`run`](Self::run) with a settle hook: once a node `u` settles at
    /// `d` (and the `target` / `max_settled` checks have passed),
    /// `expand(u, d)` decides whether its arcs are relaxed. A refused node
    /// stays settled at `d`, but nothing is reached through it and none of
    /// its arcs is counted.
    pub fn run_expanding<G, F, E>(
        &mut self,
        g: &G,
        source: NodeId,
        opts: &SearchOptions,
        allow: F,
        mut expand: E,
    ) -> SearchOutcome
    where
        G: SearchGraph,
        F: FnMut(NodeId) -> bool,
        E: FnMut(NodeId, Dist) -> bool,
    {
        self.search(g, source, opts, allow, |u, d| {
            if expand(u, d) {
                Settled::Expand
            } else {
                Settled::Skip
            }
        })
    }

    /// [`run`](Self::run) that stops as soon as `done(u)` is true for a
    /// just-settled node `u`, reporting [`SearchOutcome::TargetReached`]
    /// with `u`'s distance; nodes settled before it keep their final
    /// distances. Multi-target sweeps use it to stop at their last target.
    pub(crate) fn run_until<G, F>(
        &mut self,
        g: &G,
        source: NodeId,
        opts: &SearchOptions,
        mut done: F,
    ) -> SearchOutcome
    where
        G: SearchGraph,
        F: FnMut(NodeId) -> bool,
    {
        self.search(
            g,
            source,
            opts,
            |_| true,
            |u, _| {
                if done(u) {
                    Settled::Stop
                } else {
                    Settled::Expand
                }
            },
        )
    }

    /// The one search loop behind every `run*`: `settled(u, d)` decides
    /// what happens after `u` settles.
    fn search<G, F, E>(
        &mut self,
        g: &G,
        source: NodeId,
        opts: &SearchOptions,
        mut allow: F,
        mut settled: E,
    ) -> SearchOutcome
    where
        G: SearchGraph,
        F: FnMut(NodeId) -> bool,
        E: FnMut(NodeId, Dist) -> Settled,
    {
        self.slots.reset(g.num_nodes());
        self.settled_order.clear();
        self.heap.clear();
        self.slots.set_origin(source);
        self.heap.push(Reverse((Dist::ZERO, source)));

        while let Some(Reverse((d, u))) = self.heap.pop() {
            self.cost.heap_pops += 1;
            if self.slots.is_settled(u) {
                continue; // stale heap entry
            }
            if d > opts.bound {
                self.heap.clear();
                return SearchOutcome::BoundExceeded;
            }
            self.slots.settle(u);
            self.settled_order.push(u);
            self.cost.nodes_settled += 1;
            if opts.target == Some(u) {
                return SearchOutcome::TargetReached(d);
            }
            if self.settled_order.len() >= opts.max_settled {
                return SearchOutcome::SettleLimit;
            }
            match settled(u, d) {
                Settled::Expand => {}
                Settled::Skip => continue,
                Settled::Stop => return SearchOutcome::TargetReached(d),
            }
            opts.direction.arcs(g, u, &mut self.arcs);
            self.cost.edges_relaxed += self.arcs.len() as u64;
            for &(v, w, nu) in &self.arcs {
                let nd = d.step(w, nu);
                if self.slots.improves(v, nd) && allow(v) {
                    self.slots.update(v, nd, u, EDGE);
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        SearchOutcome::Exhausted
    }

    /// Distance of `v` from the source of the last run ([`INFINITY`] if
    /// unreached).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        self.slots.dist(v)
    }

    /// True if `v` was settled (its distance is final).
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.slots.is_settled(v)
    }

    /// Predecessor of `v` in the search tree, if any.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.slots.parent(v).map(|(p, _)| p)
    }

    /// Nodes in the order they were settled.
    pub fn settled_order(&self) -> &[NodeId] {
        &self.settled_order
    }

    /// Drains and returns the algorithmic cost accumulated since the last
    /// drain. Unlike the per-run buffers this tally spans runs, so a query
    /// composed of several driver runs (scenario sweeps, boundary probes)
    /// drains one total.
    pub fn take_cost(&mut self) -> CostCounters {
        self.cost.take()
    }

    /// Reconstructs the tree path to `v`. For a forward run the returned
    /// sequence goes source → … → `v`; for a backward run it goes
    /// `v` → … → source (i.e. it is already in forward edge orientation).
    pub fn path_to(&self, v: NodeId, direction: Direction) -> Option<Vec<NodeId>> {
        if self.dist(v).is_infinite() {
            return None;
        }
        let mut nodes: Vec<NodeId> = tree_path(&self.slots, v).collect();
        if direction == Direction::Forward {
            nodes.reverse();
        }
        Some(nodes)
    }
}

/// What the search loop does with a node it just settled.
enum Settled {
    /// Relax its arcs.
    Expand,
    /// Keep it settled, relax nothing through it.
    Skip,
    /// End the search here.
    Stop,
}

/// The arc a plain-graph search records for every node it reaches.
pub(crate) const EDGE: ParentArc = ParentArc::hierarchy(INVALID_NODE);

/// `v` and its ancestors in the search tree held by `slots`, up to the
/// origin.
pub(crate) fn tree_path(slots: &SearchSlots, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(Some(v), |&u| slots.parent(u).map(|(p, _)| p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_graph::{Graph, GraphBuilder, Point};

    /// 0 —1→ 1 —1→ 2 —1→ 3, plus a slow direct edge 0 —5→ 3.
    fn chain_with_shortcut() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, 0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 3, 5);
        b.build()
    }

    #[test]
    fn forward_distances() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        d.run(&g, 0, &SearchOptions::default(), |_| true);
        assert_eq!(d.dist(0).length, 0);
        assert_eq!(d.dist(1).length, 1);
        assert_eq!(d.dist(2).length, 2);
        assert_eq!(d.dist(3).length, 3);
        assert_eq!(d.path_to(3, Direction::Forward), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn backward_distances() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        d.run(
            &g,
            3,
            &SearchOptions {
                direction: Direction::Backward,
                ..Default::default()
            },
            |_| true,
        );
        assert_eq!(d.dist(0).length, 3);
        // Backward path is reported in forward orientation: 0 → … → 3.
        assert_eq!(d.path_to(0, Direction::Backward), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn early_termination_at_target() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        let out = d.run(
            &g,
            0,
            &SearchOptions {
                target: Some(1),
                ..Default::default()
            },
            |_| true,
        );
        assert_eq!(out, SearchOutcome::TargetReached(d.dist(1)));
        // Node 3 must not be settled yet (dist 3 > dist 1).
        assert!(!d.is_settled(3));
    }

    #[test]
    fn bound_prunes() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        let out = d.run(
            &g,
            0,
            &SearchOptions {
                bound: Dist::new(1, u64::MAX),
                ..Default::default()
            },
            |_| true,
        );
        assert_eq!(out, SearchOutcome::BoundExceeded);
        assert!(d.is_settled(1));
        assert!(!d.is_settled(2));
    }

    #[test]
    fn settle_limit() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        let out = d.run(
            &g,
            0,
            &SearchOptions {
                max_settled: 2,
                ..Default::default()
            },
            |_| true,
        );
        assert_eq!(out, SearchOutcome::SettleLimit);
        assert_eq!(d.settled_order().len(), 2);
    }

    #[test]
    fn refused_node_settles_but_relaxes_nothing() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        // Refuse node 1: it keeps its distance, but 2 is reachable only
        // through it and 3 only over the direct edge.
        let out = d.run_expanding(&g, 0, &SearchOptions::default(), |_| true, |u, _| u != 1);
        assert_eq!(out, SearchOutcome::Exhausted);
        assert!(d.is_settled(1));
        assert_eq!(d.dist(1).length, 1);
        assert!(d.dist(2).is_infinite());
        assert_eq!(d.dist(3).length, 5);
        assert_eq!(d.settled_order(), &[0, 1, 3]);
        // Node 0's two arcs, none of node 1's, and node 3 has none.
        assert_eq!(d.take_cost().edges_relaxed, 2);
    }

    #[test]
    fn run_until_stops_at_the_first_done_node() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        let out = d.run_until(&g, 0, &SearchOptions::default(), |u| u == 2);
        assert_eq!(out, SearchOutcome::TargetReached(d.dist(2)));
        assert_eq!(d.settled_order(), &[0, 1, 2]);
        assert!(!d.is_settled(3), "nothing settles after the stop");
        // Node 2's arc is never relaxed: 0's two and 1's one.
        assert_eq!(d.take_cost().edges_relaxed, 3);
    }

    #[test]
    fn node_filter_blocks_route() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        // Forbid node 1: the only remaining route to 3 is the direct edge.
        d.run(&g, 0, &SearchOptions::default(), |v| v != 1);
        assert_eq!(d.dist(3).length, 5);
        assert!(d.dist(1).is_infinite());
    }

    #[test]
    fn reuse_across_runs_and_graphs() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        d.run(&g, 0, &SearchOptions::default(), |_| true);
        assert_eq!(d.dist(3).length, 3);
        d.run(&g, 3, &SearchOptions::default(), |_| true);
        // 3 has no out-edges: everything else unreachable, state fully reset.
        assert!(d.dist(0).is_infinite());
        assert_eq!(d.dist(3), Dist::ZERO);
    }

    #[test]
    fn settled_order_is_by_distance() {
        let g = chain_with_shortcut();
        let mut d = DijkstraDriver::new();
        d.run(&g, 0, &SearchOptions::default(), |_| true);
        let order = d.settled_order();
        for w in order.windows(2) {
            assert!(d.dist(w[0]) <= d.dist(w[1]));
        }
    }

    #[test]
    fn unreachable_node() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(1, 0));
        let g = b.build();
        let mut d = DijkstraDriver::new();
        let out = d.run(&g, 0, &SearchOptions::default(), |_| true);
        assert_eq!(out, SearchOutcome::Exhausted);
        assert!(d.dist(1).is_infinite());
        assert_eq!(d.path_to(1, Direction::Forward), None);
    }
}
