//! Region-local Dijkstra over the overlay graph.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ah_graph::{Dist, NodeId, INFINITY, INVALID_NODE};

use crate::overlay::{OArc, Overlay, Span};

/// Search direction over the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Forward,
    Backward,
}

/// What a run knows about one node it reached.
#[derive(Debug, Clone, Copy)]
struct Reached {
    /// The run that wrote this record; records of earlier runs read as
    /// "not reached", which resets the search in O(1).
    run: u32,
    settled: bool,
    parent: NodeId,
    dist: Dist,
    /// Span of the arc over which the node was reached (for path-extent
    /// bookkeeping in the shortcut phase).
    in_span: Span,
}

const UNREACHED: Reached = Reached {
    run: 0,
    settled: false,
    parent: INVALID_NODE,
    dist: INFINITY,
    in_span: Span::ALWAYS,
};

/// A reusable Dijkstra specialized for the tiny, heavily-filtered searches
/// of level assignment: per-arc admission (coverage condition), per-node
/// expansion control (border/interior conditions), O(1) reset between runs.
#[derive(Debug)]
pub struct LocalSearch {
    /// One record per node, so relaxing an arc touches one cache line.
    nodes: Vec<Reached>,
    /// Number of the current run, never 0.
    run: u32,
    settled_list: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(Dist, NodeId)>>,
}

impl Default for LocalSearch {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalSearch {
    /// Creates an empty search; buffers grow on first use.
    pub fn new() -> Self {
        LocalSearch {
            nodes: Vec::new(),
            run: 0,
            settled_list: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Runs a constrained Dijkstra from `source`.
    ///
    /// * Every popped node is *settled* (recorded in settle order).
    /// * Arcs of a settled node are relaxed only if the node is the source
    ///   or `expand_from(node)` holds (this realizes "settle but do not
    ///   continue" semantics for region borders / type-(b) endpoints).
    /// * An individual arc is relaxed only if `arc_ok(tail, arc)` holds
    ///   (coverage condition, activity of the head, region membership …).
    ///   It is asked only about arcs that would shorten the way to their
    ///   head, so it must not depend on being asked.
    pub fn run(
        &mut self,
        ov: &Overlay,
        source: NodeId,
        dir: Dir,
        expand_from: impl Fn(NodeId) -> bool,
        arc_ok: impl Fn(NodeId, &OArc) -> bool,
    ) {
        if self.nodes.len() < ov.num_nodes() {
            self.nodes.resize(ov.num_nodes(), UNREACHED);
        }
        self.run = self.run.wrapping_add(1);
        if self.run == 0 {
            // Run counter wrapped: physically clear once every 2^32 runs
            // so a stale record can never alias.
            self.nodes.fill(UNREACHED);
            self.run = 1;
        }
        let run = self.run;
        self.settled_list.clear();
        self.heap.clear();

        self.nodes[source as usize] = Reached {
            run,
            dist: Dist::ZERO,
            ..UNREACHED
        };
        self.heap.push(Reverse((Dist::ZERO, source)));

        while let Some(Reverse((d, u))) = self.heap.pop() {
            let popped = &mut self.nodes[u as usize];
            if popped.settled {
                continue;
            }
            popped.settled = true;
            self.settled_list.push(u);
            if u != source && !expand_from(u) {
                continue;
            }
            let arcs = match dir {
                Dir::Forward => ov.out(u),
                Dir::Backward => ov.inn(u),
            };
            for a in arcs {
                // A settled head is never improved (its distance is at
                // most `d`), so it needs no test of its own.
                let head = &mut self.nodes[a.to as usize];
                let nd = d.concat(a.dist);
                if (head.run != run || nd < head.dist) && arc_ok(u, a) {
                    *head = Reached {
                        run,
                        settled: false,
                        parent: u,
                        dist: nd,
                        in_span: a.span,
                    };
                    self.heap.push(Reverse((nd, a.to)));
                }
            }
        }
    }

    #[inline]
    fn reached(&self, v: NodeId) -> Option<&Reached> {
        self.nodes.get(v as usize).filter(|r| r.run == self.run)
    }

    /// Distance of `v` from the source of the last run.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        self.reached(v).map_or(INFINITY, |r| r.dist)
    }

    /// True if `v` was settled in the last run.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.reached(v).is_some_and(|r| r.settled)
    }

    /// Predecessor of `v` in the search tree (in traversal order: for a
    /// backward run the parent is the node *after* `v` on the forward
    /// path).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.reached(v)
            .map(|r| r.parent)
            .filter(|&p| p != INVALID_NODE)
    }

    /// Settled nodes in settle order (includes the source).
    pub fn settled_list(&self) -> &[NodeId] {
        &self.settled_list
    }

    /// Span of the arc through which `v` was reached ([`Span::ALWAYS`] for
    /// original edges and for the source itself).
    #[inline]
    pub fn in_span(&self, v: NodeId) -> Span {
        self.reached(v).map_or(Span::ALWAYS, |r| r.in_span)
    }

    /// The tree walk from `v` back to the source:
    /// `v, parent(v), …, source`.
    #[cfg(test)]
    pub fn walk_to_source(&self, v: NodeId) -> WalkToSource<'_> {
        WalkToSource {
            search: self,
            cur: Some(v),
        }
    }
}

/// Iterator over the parent chain of a settled node.
#[cfg(test)]
pub struct WalkToSource<'a> {
    search: &'a LocalSearch,
    cur: Option<NodeId>,
}

#[cfg(test)]
impl Iterator for WalkToSource<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let v = self.cur?;
        self.cur = self.search.parent(v);
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_graph::{GraphBuilder, Point};

    fn chain() -> Overlay {
        // 0 -1- 1 -1- 2 -1- 3 (bidirectional unit weights)
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, 0));
        }
        for i in 0..3u32 {
            b.add_bidirectional_edge(i, i + 1, 1);
        }
        Overlay::from_graph(&b.build())
    }

    #[test]
    fn unconstrained_run_is_plain_dijkstra() {
        let ov = chain();
        let mut ls = LocalSearch::new();
        ls.run(&ov, 0, Dir::Forward, |_| true, |_, _| true);
        assert_eq!(ls.dist(3).length, 3);
        let walk: Vec<_> = ls.walk_to_source(3).collect();
        assert_eq!(walk, vec![3, 2, 1, 0]);
        assert_eq!(ls.settled_list().len(), 4);
    }

    #[test]
    fn settle_without_expansion() {
        let ov = chain();
        let mut ls = LocalSearch::new();
        // Node 1 may be settled but not expanded: 2, 3 stay unreached.
        ls.run(&ov, 0, Dir::Forward, |v| v != 1, |_, _| true);
        assert!(ls.is_settled(1));
        assert!(!ls.is_settled(2));
        assert!(ls.dist(2).is_infinite());
    }

    #[test]
    fn arc_filter_blocks() {
        let ov = chain();
        let mut ls = LocalSearch::new();
        ls.run(&ov, 0, Dir::Forward, |_| true, |_, a| a.to != 2);
        assert!(ls.is_settled(1));
        assert!(!ls.is_settled(2));
    }

    #[test]
    fn backward_direction() {
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i, 0));
        }
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 3);
        let ov = Overlay::from_graph(&b.build());
        let mut ls = LocalSearch::new();
        ls.run(&ov, 2, Dir::Backward, |_| true, |_, _| true);
        assert_eq!(ls.dist(0).length, 5);
        // Parent chain in a backward run follows forward orientation.
        let walk: Vec<_> = ls.walk_to_source(0).collect();
        assert_eq!(walk, vec![0, 1, 2]);
    }

    #[test]
    fn reuse_resets_state() {
        let ov = chain();
        let mut ls = LocalSearch::new();
        ls.run(&ov, 0, Dir::Forward, |_| true, |_, _| true);
        ls.run(&ov, 3, Dir::Forward, |_| true, |_, _| true);
        assert_eq!(ls.dist(0).length, 3);
        assert_eq!(ls.dist(3), Dist::ZERO);
    }
}
