//! Bidirectional upward search over a [`Hierarchy`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ah_graph::{Dist, NodeId, Path, INFINITY};
use ah_search::{ParentArc, SearchSlots};

use crate::hierarchy::Hierarchy;

/// Reusable state for bidirectional upward queries (the CH query
/// algorithm): a forward search over upward out-arcs from `s` and a
/// backward search over upward in-arcs from `t`; the answer is the best
/// meeting node. Each side stops once its queue minimum reaches the best
/// meeting distance.
#[derive(Debug)]
pub struct BidirUpwardQuery {
    fwd: SearchSlots,
    bwd: SearchSlots,
    heap_f: BinaryHeap<Reverse<(Dist, NodeId)>>,
    heap_b: BinaryHeap<Reverse<(Dist, NodeId)>>,
    meeting: Option<NodeId>,
    /// Settled-node counters for the last query (experiment telemetry).
    pub settled_count: usize,
    /// Heap pops (including stale entries) for the last query.
    pub heap_pops: usize,
    /// Upward arcs examined for relaxation during the last query.
    pub relaxed_arcs: usize,
    /// Stall-on-demand: skip expanding nodes proven suboptimal through a
    /// higher-ranked neighbour. Pure optimization, on by default.
    pub stall_on_demand: bool,
}

impl Default for BidirUpwardQuery {
    fn default() -> Self {
        Self::new()
    }
}

impl BidirUpwardQuery {
    /// Creates an empty engine; buffers grow on first use.
    pub fn new() -> Self {
        BidirUpwardQuery {
            fwd: SearchSlots::new(),
            bwd: SearchSlots::new(),
            heap_f: BinaryHeap::new(),
            heap_b: BinaryHeap::new(),
            meeting: None,
            settled_count: 0,
            heap_pops: 0,
            relaxed_arcs: 0,
            stall_on_demand: true,
        }
    }

    /// Distance query. `allow_f`/`allow_b` filter nodes the forward /
    /// backward side may *relax into* (AH's proximity constraint hooks in
    /// here; plain CH passes `|_| true`).
    pub fn distance<FF, FB>(
        &mut self,
        h: &Hierarchy,
        s: NodeId,
        t: NodeId,
        allow_f: FF,
        allow_b: FB,
    ) -> Option<Dist>
    where
        FF: FnMut(NodeId) -> bool,
        FB: FnMut(NodeId) -> bool,
    {
        self.search(h, s, t, allow_f, allow_b)
    }

    /// Shortest-path query: distance plus the fully unpacked node sequence.
    pub fn path<FF, FB>(
        &mut self,
        h: &Hierarchy,
        s: NodeId,
        t: NodeId,
        allow_f: FF,
        allow_b: FB,
    ) -> Option<Path>
    where
        FF: FnMut(NodeId) -> bool,
        FB: FnMut(NodeId) -> bool,
    {
        let dist = self.search(h, s, t, allow_f, allow_b)?;
        let m = self.meeting.expect("finite distance implies meeting node");
        // Forward half: collect the hierarchy arcs s → … → m, then unpack.
        let mut fwd_arcs: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
        let mut cur = m;
        while let Some((p, arc)) = self.fwd.parent(cur) {
            fwd_arcs.push((p, cur, arc.middle()));
            cur = p;
        }
        fwd_arcs.reverse();
        let mut nodes = vec![s];
        for (u, v, mid) in fwd_arcs {
            h.unpack_arc(u, v, mid, &mut nodes);
        }
        // Backward half: each parent is the next node toward t.
        let mut cur = m;
        while let Some((next, arc)) = self.bwd.parent(cur) {
            h.unpack_arc(cur, next, arc.middle(), &mut nodes);
            cur = next;
        }
        debug_assert_eq!(*nodes.last().unwrap(), t);
        Some(Path { nodes, dist })
    }

    /// The meeting node of the last successful query.
    pub fn meeting(&self) -> Option<NodeId> {
        self.meeting
    }

    fn search<FF, FB>(
        &mut self,
        h: &Hierarchy,
        s: NodeId,
        t: NodeId,
        mut allow_f: FF,
        mut allow_b: FB,
    ) -> Option<Dist>
    where
        FF: FnMut(NodeId) -> bool,
        FB: FnMut(NodeId) -> bool,
    {
        let n = h.num_nodes();
        self.fwd.reset(n);
        self.bwd.reset(n);
        self.heap_f.clear();
        self.heap_b.clear();
        self.meeting = None;
        self.settled_count = 0;
        self.heap_pops = 0;
        self.relaxed_arcs = 0;

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
            self.heap_pops += 1;
            if !this.settle(u) {
                continue;
            }
            self.settled_count += 1;
            // An unreached node reads INFINITY, which `concat` keeps.
            let through = d.concat(other.dist(u));
            if through < best {
                best = through;
                self.meeting = Some(u);
            }
            if self.stall_on_demand && stalled(h, u, d, this, forward) {
                continue;
            }
            let arcs = if forward { h.up_out(u) } else { h.up_in(u) };
            self.relaxed_arcs += arcs.len();
            for a in arcs {
                let nd = d.concat(a.dist);
                if this.improves(a.to, nd)
                    && (if forward {
                        allow_f(a.to)
                    } else {
                        allow_b(a.to)
                    })
                {
                    // Backward parents point toward t: the real arc is
                    // a.to → u, and u is what unpacking needs.
                    this.update(a.to, nd, u, ParentArc::hierarchy(a.middle));
                    heap.push(Reverse((nd, a.to)));
                }
            }
        }

        (!best.is_infinite()).then_some(best)
    }
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
                let got = q.distance(h, s, t, |_| true, |_| true);
                let want = dijkstra_distance(g, s, t);
                assert_eq!(got, want, "distance ({s},{t})");
                let path = q.path(h, s, t, |_| true, |_| true);
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

    #[test]
    fn stalling_does_not_change_answers() {
        let g = fixtures::lattice(4, 4, 10);
        let (h, _) = contract_adaptive(&g, ContractionConfig::default());
        let mut q1 = BidirUpwardQuery::new();
        let mut q2 = BidirUpwardQuery::new();
        q2.stall_on_demand = false;
        for s in 0..16u32 {
            for t in 0..16u32 {
                assert_eq!(
                    q1.distance(&h, s, t, |_| true, |_| true),
                    q2.distance(&h, s, t, |_| true, |_| true),
                    "({s},{t})"
                );
            }
        }
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
        assert!(q.distance(&h, 1, 0, |_| true, |_| true).is_none());
        assert!(q.path(&h, 1, 0, |_| true, |_| true).is_none());
        assert_eq!(
            q.distance(&h, 0, 1, |_| true, |_| true).unwrap().length,
            3
        );
    }

    #[test]
    fn self_query() {
        let g = fixtures::line(3, 5);
        let h = contract_with_order(&g, &[1, 0, 2], ContractionConfig::default());
        let mut q = BidirUpwardQuery::new();
        assert_eq!(
            q.distance(&h, 1, 1, |_| true, |_| true),
            Some(Dist::ZERO)
        );
        let p = q.path(&h, 1, 1, |_| true, |_| true).unwrap();
        assert_eq!(p.nodes, vec![1]);
    }
}
