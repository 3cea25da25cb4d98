//! The bidirectional upward search shared by CH, FC and AH.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ah_graph::{Dist, NodeId, Path, INFINITY};
use ah_obs::CostCounters;
use ah_search::{ParentArc, SearchSlots};

use crate::hierarchy::{HArc, Hierarchy};

/// An arc the shared search relaxes: where it leads, how long it is, and
/// what the node it reaches records as its parent arc.
pub trait UpwardArc {
    /// The node the arc reaches (for a backward search, the real arc's
    /// tail).
    fn head(&self) -> NodeId;
    /// Length of the path the arc stands for.
    fn length(&self) -> Dist;
    /// What path unpacking needs to expand the arc.
    fn parent_arc(&self) -> ParentArc;
}

impl UpwardArc for HArc {
    #[inline]
    fn head(&self) -> NodeId {
        self.to
    }

    #[inline]
    fn length(&self) -> Dist {
        self.dist
    }

    #[inline]
    fn parent_arc(&self) -> ParentArc {
        ParentArc::hierarchy(self.middle)
    }
}

/// What one index adds to the shared upward search: which arcs a settled
/// node relaxes, which heads a side admits, and how a parent arc unpacks.
/// `forward` names the side: the search from `s` over upward out-arcs, or
/// the one from `t` over upward in-arcs. A [`Hierarchy`] is itself the
/// plain CH rule; every default below is that rule.
pub trait UpwardRule {
    /// The arcs of a jump ([`HArc`] for a rule that never jumps).
    type Jump: UpwardArc;

    /// The hierarchy searched. It sizes the search state, and
    /// stall-on-demand reads its upward arcs.
    fn hierarchy(&self) -> &Hierarchy;

    /// The arcs that replace the settled node `u`'s hierarchy arcs on one
    /// side, if `u` jumps. Otherwise `u` relaxes its hierarchy arcs:
    /// `up_out` forward, `up_in` backward.
    #[inline]
    fn jumps(&self, _u: NodeId, _forward: bool) -> Option<&[Self::Jump]> {
        None
    }

    /// Whether one side may reach `x`; asked only about arcs that would
    /// improve their head.
    #[inline]
    fn admits(&self, _forward: bool, _x: NodeId) -> bool {
        true
    }

    /// Appends the original-edge expansion of the parent arc `tail →
    /// head`, taken by one side, to `nodes` (excluding `tail`).
    fn unpack(
        &self,
        _forward: bool,
        tail: NodeId,
        head: NodeId,
        arc: ParentArc,
        nodes: &mut Vec<NodeId>,
    ) {
        self.hierarchy().unpack_arc(tail, head, arc.middle(), nodes);
    }

    /// Stall-on-demand: skip expanding a node proven suboptimal through a
    /// higher-ranked neighbour. Pure pruning; never changes an answer.
    #[inline]
    fn stall_on_demand(&self) -> bool {
        true
    }
}

impl UpwardRule for Hierarchy {
    type Jump = HArc;

    #[inline]
    fn hierarchy(&self) -> &Hierarchy {
        self
    }
}

/// Reusable state for bidirectional upward queries (the CH query
/// algorithm): a forward search from `s` and a backward search from `t`,
/// each relaxing the arcs its [`UpwardRule`] offers; the answer is the
/// best meeting node. Each side stops once its queue minimum reaches the
/// best meeting distance.
#[derive(Debug, Default)]
pub struct BidirUpwardQuery {
    fwd: SearchSlots,
    bwd: SearchSlots,
    heap_f: BinaryHeap<Reverse<(Dist, NodeId)>>,
    heap_b: BinaryHeap<Reverse<(Dist, NodeId)>>,
    meeting: Option<NodeId>,
    cost: CostCounters,
}

impl BidirUpwardQuery {
    /// Creates an empty engine; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the cost accumulated since the last drain. It spans
    /// queries, so a request composed of several point queries drains
    /// one total.
    pub fn take_cost(&mut self) -> CostCounters {
        self.cost.take()
    }

    /// Shortest-path query: distance plus the fully unpacked node sequence.
    pub fn path<R: UpwardRule>(&mut self, rule: &R, s: NodeId, t: NodeId) -> Option<Path> {
        let dist = self.distance(rule, s, t)?;
        let m = self.meeting.expect("finite distance implies meeting node");
        // Forward half: collect the arcs s → … → m, then unpack in order.
        let mut fwd: Vec<(NodeId, NodeId, ParentArc)> = Vec::new();
        let mut cur = m;
        while let Some((p, arc)) = self.fwd.parent(cur) {
            fwd.push((p, cur, arc));
            cur = p;
        }
        let mut nodes = vec![s];
        for &(tail, head, arc) in fwd.iter().rev() {
            rule.unpack(true, tail, head, arc, &mut nodes);
        }
        // Backward half: each parent is the next node toward t.
        let mut cur = m;
        while let Some((next, arc)) = self.bwd.parent(cur) {
            rule.unpack(false, cur, next, arc, &mut nodes);
            cur = next;
        }
        debug_assert_eq!(*nodes.last().unwrap(), t);
        Some(Path { nodes, dist })
    }

    /// Distance query under `rule`.
    pub fn distance<R: UpwardRule>(&mut self, rule: &R, s: NodeId, t: NodeId) -> Option<Dist> {
        let h = rule.hierarchy();
        let n = h.num_nodes();
        self.fwd.reset(n);
        self.bwd.reset(n);
        self.heap_f.clear();
        self.heap_b.clear();
        self.meeting = None;

        if s == t {
            self.meeting = Some(s);
            return Some(Dist::ZERO);
        }

        self.fwd.set_origin(s);
        self.bwd.set_origin(t);
        self.heap_f.push(Reverse((Dist::ZERO, s)));
        self.heap_b.push(Reverse((Dist::ZERO, t)));

        let mut best = INFINITY;
        loop {
            let top_f = self
                .heap_f
                .peek()
                .map(|Reverse((d, _))| *d)
                .unwrap_or(INFINITY);
            let top_b = self
                .heap_b
                .peek()
                .map(|Reverse((d, _))| *d)
                .unwrap_or(INFINITY);
            // CH termination: a side keeps going while its queue minimum is
            // below the best meeting (the other side may still improve it).
            let go_f = top_f < best;
            let go_b = top_b < best;
            if !go_f && !go_b {
                break;
            }
            let forward = if go_f && go_b { top_f <= top_b } else { go_f };
            let (heap, this, other) = if forward {
                (&mut self.heap_f, &mut self.fwd, &self.bwd)
            } else {
                (&mut self.heap_b, &mut self.bwd, &self.fwd)
            };
            let Reverse((d, u)) = heap.pop().expect("peeked");
            self.cost.heap_pops += 1;
            if !this.settle(u) {
                continue;
            }
            self.cost.nodes_settled += 1;
            // An unreached node reads INFINITY, which `concat` keeps.
            let through = d.concat(other.dist(u));
            if through < best {
                best = through;
                self.meeting = Some(u);
            }
            if rule.stall_on_demand() && stalled(h, u, d, this, forward) {
                continue;
            }
            let offered = match rule.jumps(u, forward) {
                Some(jumps) => relax(rule, forward, u, d, jumps, this, heap),
                None => {
                    let arcs = if forward { h.up_out(u) } else { h.up_in(u) };
                    relax(rule, forward, u, d, arcs, this, heap)
                }
            };
            self.cost.edges_relaxed += offered as u64;
        }

        (!best.is_infinite()).then_some(best)
    }
}

/// Relaxes `arcs` out of `u`, settled at `d` on one side; returns how many
/// it offered. Backward parents point toward `t`: the real arc is
/// `head → u`.
#[inline]
fn relax<R: UpwardRule, A: UpwardArc>(
    rule: &R,
    forward: bool,
    u: NodeId,
    d: Dist,
    arcs: &[A],
    slots: &mut SearchSlots,
    heap: &mut BinaryHeap<Reverse<(Dist, NodeId)>>,
) -> usize {
    for a in arcs {
        let (head, nd) = (a.head(), d.concat(a.length()));
        if slots.improves(head, nd) && rule.admits(forward, head) {
            slots.update(head, nd, u, a.parent_arc());
            heap.push(Reverse((nd, head)));
        }
    }
    arcs.len()
}

/// Stall-on-demand check: `u` (popped at distance `d`) is *stalled* on the
/// forward side if some higher-ranked neighbour `w` with an arc `w → u`
/// yields `dist_f(w) + len(w→u) < d` — then no shortest up-down path goes
/// through `u`, so expanding it is pointless. Mirrored for the backward
/// side with arcs `u → w`.
fn stalled(h: &Hierarchy, u: NodeId, d: Dist, side: &SearchSlots, forward: bool) -> bool {
    let arcs = if forward { h.up_in(u) } else { h.up_out(u) };
    arcs.iter().any(|a| side.dist(a.to).concat(a.dist) < d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::{contract_adaptive, contract_with_order};
    use crate::ContractionConfig;
    use ah_data::fixtures;
    use ah_search::{dijkstra_distance, dijkstra_path};

    fn check_all_pairs(g: &ah_graph::Graph, h: &Hierarchy) {
        let mut q = BidirUpwardQuery::new();
        let n = g.num_nodes() as NodeId;
        for s in 0..n {
            for t in 0..n {
                let got = q.distance(h, s, t);
                let want = dijkstra_distance(g, s, t);
                assert_eq!(got, want, "distance ({s},{t})");
                let path = q.path(h, s, t);
                match (path, dijkstra_path(g, s, t)) {
                    (Some(p), Some(expect)) => {
                        p.verify(g).unwrap();
                        assert_eq!(p.dist, expect.dist, "path dist ({s},{t})");
                        assert_eq!(p.source(), s);
                        assert_eq!(p.target(), t);
                    }
                    (None, None) => {}
                    (got, want) => panic!("path ({s},{t}): {got:?} vs {want:?}"),
                }
            }
        }
    }

    #[test]
    fn all_pairs_on_lattice_adaptive() {
        let g = fixtures::lattice(5, 4, 10);
        let (h, _) = contract_adaptive(&g, ContractionConfig::default());
        check_all_pairs(&g, &h);
    }

    #[test]
    fn all_pairs_on_ring_fixed_order() {
        let g = fixtures::ring(12);
        let order: Vec<NodeId> = (0..12).collect();
        let h = contract_with_order(&g, &order, ContractionConfig::default());
        check_all_pairs(&g, &h);
    }

    #[test]
    fn all_pairs_directed_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut b = ah_graph::GraphBuilder::new();
        for i in 0..25 {
            b.add_node(ah_graph::Point::new(i % 5, i / 5));
        }
        for _ in 0..80 {
            let u = rng.random_range(0..25);
            let v = rng.random_range(0..25);
            b.add_edge(u, v, rng.random_range(1..20));
        }
        let g = b.build();
        let (h, _) = contract_adaptive(&g, ContractionConfig::default());
        check_all_pairs(&g, &h);
    }

    /// The CH rule with stall-on-demand turned off.
    struct NoStall<'a>(&'a Hierarchy);

    impl UpwardRule for NoStall<'_> {
        type Jump = HArc;

        fn hierarchy(&self) -> &Hierarchy {
            self.0
        }

        fn stall_on_demand(&self) -> bool {
            false
        }
    }

    #[test]
    fn stalling_does_not_change_answers() {
        let g = fixtures::lattice(4, 4, 10);
        let (h, _) = contract_adaptive(&g, ContractionConfig::default());
        let mut q = BidirUpwardQuery::new();
        let (mut stalled_work, mut plain_work) = (0, 0);
        for s in 0..16u32 {
            for t in 0..16u32 {
                let stalled = q.distance(&h, s, t);
                stalled_work += q.take_cost().edges_relaxed;
                assert_eq!(stalled, q.distance(&NoStall(&h), s, t), "({s},{t})");
                plain_work += q.take_cost().edges_relaxed;
            }
        }
        assert!(stalled_work < plain_work, "{stalled_work} vs {plain_work}");
    }

    #[test]
    fn cost_accumulates_until_drained() {
        let g = fixtures::lattice(4, 4, 10);
        let (h, _) = contract_adaptive(&g, ContractionConfig::default());
        let mut q = BidirUpwardQuery::new();
        q.distance(&h, 0, 15);
        let one = q.take_cost();
        assert!(one.nodes_settled > 0 && one.heap_pops >= one.nodes_settled);
        q.distance(&h, 0, 15);
        q.path(&h, 0, 15);
        let two = q.take_cost();
        assert_eq!(two.nodes_settled, 2 * one.nodes_settled);
        assert_eq!(two.edges_relaxed, 2 * one.edges_relaxed);
        assert_eq!(q.take_cost(), CostCounters::default(), "drained");
    }

    #[test]
    fn unreachable_pair() {
        let mut b = ah_graph::GraphBuilder::new();
        b.add_node(ah_graph::Point::new(0, 0));
        b.add_node(ah_graph::Point::new(5, 5));
        b.add_edge(0, 1, 3);
        let g = b.build();
        let h = contract_with_order(&g, &[0, 1], ContractionConfig::default());
        let mut q = BidirUpwardQuery::new();
        assert!(q.distance(&h, 1, 0).is_none());
        assert!(q.path(&h, 1, 0).is_none());
        assert_eq!(q.distance(&h, 0, 1).unwrap().length, 3);
    }

    #[test]
    fn self_query() {
        let g = fixtures::line(3, 5);
        let h = contract_with_order(&g, &[1, 0, 2], ContractionConfig::default());
        let mut q = BidirUpwardQuery::new();
        assert_eq!(q.distance(&h, 1, 1), Some(Dist::ZERO));
        let p = q.path(&h, 1, 1).unwrap();
        assert_eq!(p.nodes, vec![1]);
    }
}
