//! The one Dijkstra of level assignment: a reusable search over any arc
//! lists, with an indexed decrease-key heap.

use ah_graph::{Dist, NodeId, INFINITY, INVALID_NODE};

/// Search direction: along arcs or against them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    Forward,
    Backward,
}

/// An arc as [`LocalSearch`] reads it: the node at its other end and its
/// length.
pub(crate) trait SearchArc {
    fn head(&self) -> NodeId;
    fn dist(&self) -> Dist;
}

/// `(length, nuance)` as one number with the same order.
#[inline]
fn key(d: Dist) -> u128 {
    (d.length as u128) << 64 | d.nuance as u128
}

/// Children per heap node.
const ARITY: usize = 4;

/// How a run reached a node, beside its distance.
#[derive(Debug, Clone, Copy)]
struct Link {
    parent: NodeId,
    /// Index of the arc the node was reached over, in the list its parent
    /// offered.
    arc: u32,
    /// Position in the heap while the node is queued.
    pos: u32,
}

const NO_LINK: Link = Link {
    parent: INVALID_NODE,
    arc: u32::MAX,
    pos: u32::MAX,
};

/// A reusable Dijkstra for the many small, filtered searches of level
/// assignment.
///
/// The heap ([`ARITY`]-ary) holds each reached, unsettled node once, keyed by
/// `(Dist, NodeId)`, and an improvement moves the node's entry up in
/// place, so every pop settles a node. Ties pop in increasing id order,
/// which is what makes a search on a renumbered graph settle the same
/// nodes in the same order, provided the renumbering keeps the ids'
/// order.
///
/// A run goes on until the heap is empty, so every node it reaches ends
/// up settled; the next run resets exactly those. An arc scan therefore
/// reads one 16-byte distance and nothing else unless the arc improves
/// it.
#[derive(Debug, Default)]
pub(crate) struct LocalSearch {
    /// Per node: its distance in the last run, [`INFINITY`] if that run
    /// did not reach it.
    dist: Vec<Dist>,
    /// Per node the last run reached: how it got there.
    link: Vec<Link>,
    settled: Vec<NodeId>,
    heap: Vec<(u128, NodeId)>,
}

impl LocalSearch {
    /// Runs Dijkstra from `source` over nodes `0..n`.
    ///
    /// * Every popped node is *settled* (recorded in settle order).
    /// * `arcs(v)` lists the arcs a settled node is expanded over; an
    ///   empty list realises "settle but do not continue".
    /// * An arc is relaxed only if `admit(arc)` holds. It is asked only
    ///   about arcs that would shorten the way to their head, so it must
    ///   not depend on being asked.
    pub(crate) fn run<'g, A: SearchArc + 'g>(
        &mut self,
        n: usize,
        source: NodeId,
        arcs: impl Fn(NodeId) -> &'g [A],
        admit: impl Fn(&A) -> bool,
    ) {
        for &v in &self.settled {
            self.dist[v as usize] = INFINITY;
        }
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.link.resize(n, NO_LINK);
        }
        self.settled.clear();
        self.heap.clear();

        self.dist[source as usize] = Dist::ZERO;
        self.link[source as usize] = NO_LINK;
        self.push(Dist::ZERO, source);

        while let Some((d, u)) = self.pop() {
            self.settled.push(u);
            for (i, a) in arcs(u).iter().enumerate() {
                let v = a.head() as usize;
                let nd = d.concat(a.dist());
                // A settled head is never improved (its distance is at
                // most `d`), so it needs no test of its own.
                if nd < self.dist[v] && admit(a) {
                    let fresh = self.dist[v] == INFINITY;
                    self.dist[v] = nd;
                    let link = &mut self.link[v];
                    link.parent = u;
                    link.arc = i as u32;
                    if fresh {
                        self.push(nd, v as NodeId);
                    } else {
                        let pos = link.pos as usize;
                        self.heap[pos].0 = key(nd);
                        self.sift_up(pos);
                    }
                }
            }
        }
    }

    fn push(&mut self, d: Dist, v: NodeId) {
        self.heap.push((key(d), v));
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes the least `(Dist, NodeId)` entry.
    fn pop(&mut self) -> Option<(Dist, NodeId)> {
        let (_, v) = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is not empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some((self.dist[v as usize], v))
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let p = (i - 1) / ARITY;
            if self.heap[p] <= e {
                break;
            }
            self.heap[i] = self.heap[p];
            self.link[self.heap[i].1 as usize].pos = i as u32;
            i = p;
        }
        self.heap[i] = e;
        self.link[e.1 as usize].pos = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let len = self.heap.len();
        loop {
            let l = ARITY * i + 1;
            if l >= len {
                break;
            }
            let mut c = l;
            for k in l + 1..(l + ARITY).min(len) {
                if self.heap[k] < self.heap[c] {
                    c = k;
                }
            }
            if e <= self.heap[c] {
                break;
            }
            self.heap[i] = self.heap[c];
            self.link[self.heap[i].1 as usize].pos = i as u32;
            i = c;
        }
        self.heap[i] = e;
        self.link[e.1 as usize].pos = i as u32;
    }

    /// How the last run reached `v`, if it did.
    #[inline]
    fn reached(&self, v: NodeId) -> Option<&Link> {
        (self.dist(v) != INFINITY).then(|| &self.link[v as usize])
    }

    /// Distance of `v` from the source of the last run.
    #[inline]
    pub(crate) fn dist(&self, v: NodeId) -> Dist {
        self.dist.get(v as usize).copied().unwrap_or(INFINITY)
    }

    /// Predecessor of `v` in the search tree (in traversal order: for a
    /// backward run the parent is the node *after* `v` on the forward
    /// path).
    #[inline]
    pub(crate) fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.reached(v)
            .map(|l| l.parent)
            .filter(|&p| p != INVALID_NODE)
    }

    /// Index of the arc `v` was reached over in `arcs(parent(v))`; `None`
    /// for the source and for nodes the last run did not reach.
    #[inline]
    pub(crate) fn in_arc(&self, v: NodeId) -> Option<usize> {
        self.reached(v)
            .filter(|l| l.parent != INVALID_NODE)
            .map(|l| l.arc as usize)
    }

    /// Settled nodes in settle order (includes the source).
    pub(crate) fn settled_list(&self) -> &[NodeId] {
        &self.settled
    }

    /// True if `v` was settled in the last run.
    #[cfg(test)]
    pub(crate) fn is_settled(&self, v: NodeId) -> bool {
        self.settled.contains(&v)
    }

    /// The tree walk from `v` back to the source:
    /// `v, parent(v), …, source`.
    #[cfg(test)]
    pub(crate) fn walk_to_source(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(Some(v), |&w| self.parent(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::{OArc, Overlay};
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

    fn forward(ls: &mut LocalSearch, ov: &Overlay, source: NodeId) {
        ls.run(ov.num_nodes(), source, |v| ov.out(v), |_| true);
    }

    #[test]
    fn unconstrained_run_is_plain_dijkstra() {
        let ov = chain();
        let mut ls = LocalSearch::default();
        forward(&mut ls, &ov, 0);
        assert_eq!(ls.dist(3).length, 3);
        let walk: Vec<_> = ls.walk_to_source(3).collect();
        assert_eq!(walk, vec![3, 2, 1, 0]);
        assert_eq!(ls.settled_list(), [0, 1, 2, 3]);
        assert_eq!(ls.in_arc(0), None);
        // 1's arcs are 1 → 0 then 1 → 2.
        assert_eq!(ls.in_arc(2), Some(1));
    }

    #[test]
    fn settle_without_expansion() {
        let ov = chain();
        let mut ls = LocalSearch::default();
        // Node 1 may be settled but not expanded: 2, 3 stay unreached.
        let arcs = |v: NodeId| if v == 1 { &[][..] } else { ov.out(v) };
        ls.run(ov.num_nodes(), 0, arcs, |_| true);
        assert!(ls.is_settled(1));
        assert!(!ls.is_settled(2));
        assert!(ls.dist(2).is_infinite());
    }

    #[test]
    fn arc_filter_blocks() {
        let ov = chain();
        let mut ls = LocalSearch::default();
        ls.run(ov.num_nodes(), 0, |v| ov.out(v), |a: &OArc| a.to != 2);
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
        let mut ls = LocalSearch::default();
        ls.run(ov.num_nodes(), 2, |v| ov.inn(v), |_| true);
        assert_eq!(ls.dist(0).length, 5);
        // Parent chain in a backward run follows forward orientation.
        let walk: Vec<_> = ls.walk_to_source(0).collect();
        assert_eq!(walk, vec![0, 1, 2]);
    }

    #[test]
    fn reuse_resets_state() {
        let ov = chain();
        let mut ls = LocalSearch::default();
        forward(&mut ls, &ov, 0);
        forward(&mut ls, &ov, 3);
        assert_eq!(ls.dist(0).length, 3);
        assert_eq!(ls.dist(3), Dist::ZERO);
    }

    /// Every pop settles a node, an improvement re-keys the node in
    /// place, and equal distances settle in increasing id order.
    #[test]
    fn decrease_key_settles_each_node_once_in_dist_then_id_order() {
        // 0 → {4, 3, 2, 1} with long arcs, then 1 → 2 → 3 → 4 shorter
        // detours that improve 2, 3 and 4 while they are queued; 5 and 6
        // tie with 4.
        let mut b = GraphBuilder::new();
        for i in 0..7 {
            b.add_node(Point::new(i, 0));
        }
        for (t, h, w) in [
            (0, 4, 40),
            (0, 3, 30),
            (0, 2, 20),
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 1),
            (3, 4, 1),
            (0, 6, 4),
            (0, 5, 4),
        ] {
            b.add_edge(t, h, w);
        }
        let g = b.build();
        let ov = Overlay::from_graph(&g);
        let mut ls = LocalSearch::default();
        forward(&mut ls, &ov, 0);
        // 4, 5 and 6 tie on length; their nuances order them.
        let mut tied = [4, 5, 6];
        tied.sort_by_key(|&v| (ls.dist(v), v));
        let mut want = vec![0, 1, 2, 3];
        want.extend(tied);
        assert_eq!(ls.settled_list(), want);
        assert_eq!(ls.walk_to_source(4).collect::<Vec<_>>(), [4, 3, 2, 1, 0]);
        assert!(ls.heap.is_empty());
    }

    /// The settle order, distances and parents of a lazy-deletion
    /// `BinaryHeap` Dijkstra, popping `(Dist, NodeId)` minima.
    fn lazy_reference(ov: &Overlay, source: NodeId) -> Vec<(NodeId, Dist, Option<NodeId>)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = ov.num_nodes();
        let (mut dist, mut parent) = (vec![INFINITY; n], vec![None; n]);
        let mut settled = vec![false; n];
        let mut heap = BinaryHeap::from([Reverse((Dist::ZERO, source))]);
        dist[source as usize] = Dist::ZERO;
        let mut order = Vec::new();
        while let Some(Reverse((d, u))) = heap.pop() {
            if std::mem::replace(&mut settled[u as usize], true) {
                continue;
            }
            order.push((u, d, parent[u as usize]));
            for a in ov.out(u) {
                let nd = d.concat(a.dist);
                if nd < dist[a.to as usize] {
                    dist[a.to as usize] = nd;
                    parent[a.to as usize] = Some(u);
                    heap.push(Reverse((nd, a.to)));
                }
            }
        }
        order
    }

    #[test]
    fn settles_like_a_lazy_deletion_heap() {
        // Lengths 1..=4 and no nuance: equal distances everywhere, so the
        // ids decide the order among them.
        let n = 150u32;
        let mut b = GraphBuilder::new();
        for i in 0..n as i32 {
            b.add_node(Point::new(i, 0));
        }
        let mut ov = Overlay::from_graph(&b.build());
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..6 * n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (u, v) = ((x % n as u64) as NodeId, ((x >> 20) % n as u64) as NodeId);
            if u != v {
                ov.add_shortcut(
                    u,
                    v,
                    Dist::new(1 + (x >> 40) % 4, 0),
                    crate::overlay::Span::ALWAYS,
                );
            }
        }
        let mut ls = LocalSearch::default();
        for source in 0..n {
            forward(&mut ls, &ov, source);
            let got: Vec<_> = ls
                .settled_list()
                .iter()
                .map(|&v| (v, ls.dist(v), ls.parent(v)))
                .collect();
            assert!(
                got.len() > n as usize / 2,
                "from {source}: {} settled",
                got.len()
            );
            assert_eq!(got, lazy_reference(&ov, source), "from {source}");
        }
    }
}
