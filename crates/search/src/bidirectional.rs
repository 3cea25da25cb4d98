//! Exact bidirectional Dijkstra on the plain graph.
//!
//! Not an index — this is the classic speedup of the baseline, provided both
//! as a comparator and as the template for the constrained bidirectional
//! searches used by FC and AH (Section 3.2's termination rule: stop a side
//! once the best meeting distance is no larger than its queue minimum).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ah_graph::{Dist, NodeId, Path, INFINITY};
use ah_obs::CostCounters;

use crate::driver::{tree_path, Direction, EDGE};
use crate::search_graph::SearchGraph;
use crate::slots::SearchSlots;

/// The adjacency each side follows, by side index.
const SIDES: [Direction; 2] = [Direction::Forward, Direction::Backward];

/// Reusable bidirectional-Dijkstra state: one record array and one heap
/// per side, side 0 searching forward from the source and side 1
/// backward from the target.
#[derive(Debug, Default)]
pub struct BidirectionalDijkstra {
    slots: [SearchSlots; 2],
    heaps: [BinaryHeap<Reverse<(Dist, NodeId)>>; 2],
    meeting: Option<NodeId>,
    cost: CostCounters,
}

impl BidirectionalDijkstra {
    /// Creates an empty engine; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains and returns the accumulated cost tally (both search sides).
    pub fn take_cost(&mut self) -> CostCounters {
        self.cost.take()
    }

    /// Shortest distance from `s` to `t`, or `None` if unreachable.
    pub fn distance<G: SearchGraph>(&mut self, g: &G, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search(g, s, t)
    }

    /// Shortest path from `s` to `t`.
    pub fn path<G: SearchGraph>(&mut self, g: &G, s: NodeId, t: NodeId) -> Option<Path> {
        let dist = self.search(g, s, t)?;
        let meet = self
            .meeting
            .expect("finite distance implies a meeting node");
        // s … meet from the forward tree, then meet … t from the backward
        // tree, whose parents point toward t.
        let mut nodes: Vec<NodeId> = tree_path(&self.slots[0], meet).collect();
        nodes.reverse();
        nodes.extend(tree_path(&self.slots[1], meet).skip(1));
        Some(Path { nodes, dist })
    }

    fn search<G: SearchGraph>(&mut self, g: &G, s: NodeId, t: NodeId) -> Option<Dist> {
        for (slots, heap) in self.slots.iter_mut().zip(&mut self.heaps) {
            slots.reset(g.num_nodes());
            heap.clear();
        }
        self.meeting = (s == t).then_some(s);
        if s == t {
            return Some(Dist::ZERO);
        }
        for (side, origin) in [s, t].into_iter().enumerate() {
            self.slots[side].set_origin(origin);
            self.heaps[side].push(Reverse((Dist::ZERO, origin)));
        }

        let mut best = INFINITY;
        let mut buf = Vec::with_capacity(16);
        loop {
            let [top_f, top_b] = self
                .heaps
                .each_ref()
                .map(|h| h.peek().map_or(INFINITY, |Reverse((d, _))| *d));
            if top_f.is_infinite() && top_b.is_infinite() {
                break;
            }
            // Standard termination: once the sum of the two queue minima
            // reaches the best meeting, no better path exists.
            if !best.is_infinite() && top_f.concat(top_b) >= best {
                break;
            }

            // Ties go to the forward side.
            let side = usize::from(top_f > top_b);
            let Some(Reverse((d, u))) = self.heaps[side].pop() else {
                break;
            };
            self.cost.heap_pops += 1;
            if !self.slots[side].settle(u) {
                continue;
            }
            self.cost.nodes_settled += 1;
            let other = self.slots[1 - side].dist(u);
            if !other.is_infinite() && d.concat(other) < best {
                best = d.concat(other);
                self.meeting = Some(u);
            }
            SIDES[side].arcs(g, u, &mut buf);
            self.cost.edges_relaxed += buf.len() as u64;
            for &(v, w, nu) in &buf {
                let nd = d.step(w, nu);
                if self.slots[side].improves(v, nd) {
                    self.slots[side].update(v, nd, u, EDGE);
                    self.heaps[side].push(Reverse((nd, v)));
                }
            }
        }

        (!best.is_infinite()).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_graph::{Graph, GraphBuilder, Point};

    fn grid3() -> Graph {
        // 3×3 king-less grid with unit weights, bidirectional.
        let mut b = GraphBuilder::new();
        for y in 0..3 {
            for x in 0..3 {
                b.add_node(Point::new(x, y));
            }
        }
        let id = |x: i32, y: i32| (y * 3 + x) as u32;
        for y in 0..3 {
            for x in 0..3 {
                if x + 1 < 3 {
                    b.add_bidirectional_edge(id(x, y), id(x + 1, y), 1);
                }
                if y + 1 < 3 {
                    b.add_bidirectional_edge(id(x, y), id(x, y + 1), 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn distances_match_manhattan() {
        let g = grid3();
        let mut bd = BidirectionalDijkstra::new();
        assert_eq!(bd.distance(&g, 0, 8).unwrap().length, 4);
        assert_eq!(bd.distance(&g, 0, 0).unwrap().length, 0);
        assert_eq!(bd.distance(&g, 3, 5).unwrap().length, 2);
    }

    #[test]
    fn path_is_valid_and_minimal() {
        let g = grid3();
        let mut bd = BidirectionalDijkstra::new();
        let p = bd.path(&g, 0, 8).unwrap();
        p.verify(&g).unwrap();
        assert_eq!(p.dist.length, 4);
        assert_eq!(p.source(), 0);
        assert_eq!(p.target(), 8);
        assert_eq!(p.num_edges(), 4);
    }

    #[test]
    fn self_path_is_trivial() {
        let g = grid3();
        let mut bd = BidirectionalDijkstra::new();
        let p = bd.path(&g, 4, 4).unwrap();
        assert_eq!(p.nodes, vec![4]);
        assert_eq!(p.dist, Dist::ZERO);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(5, 5));
        b.add_edge(0, 1, 1); // one-way: 1 cannot reach 0
        let g = b.build();
        let mut bd = BidirectionalDijkstra::new();
        assert!(bd.distance(&g, 1, 0).is_none());
        assert!(bd.path(&g, 1, 0).is_none());
        assert_eq!(bd.distance(&g, 0, 1).unwrap().length, 1);
    }

    #[test]
    fn directed_asymmetry_respected() {
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i, 0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 0, 10);
        let g = b.build();
        let mut bd = BidirectionalDijkstra::new();
        assert_eq!(bd.distance(&g, 0, 2).unwrap().length, 2);
        assert_eq!(bd.distance(&g, 2, 0).unwrap().length, 10);
    }

    #[test]
    fn agrees_with_unidirectional_on_random_graph() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = GraphBuilder::new();
        let n = 60u32;
        for i in 0..n {
            b.add_node(Point::new((i % 8) as i32, (i / 8) as i32));
        }
        for _ in 0..240 {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            let w = rng.random_range(1..50);
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let mut bd = BidirectionalDijkstra::new();
        let mut uni = crate::DijkstraDriver::new();
        for _ in 0..50 {
            let s = rng.random_range(0..n);
            let t = rng.random_range(0..n);
            uni.run(&g, s, &crate::SearchOptions::default(), |_| true);
            let expect = uni.dist(t);
            match bd.distance(&g, s, t) {
                Some(d) => assert_eq!(d, expect, "s={s} t={t}"),
                None => assert!(expect.is_infinite(), "s={s} t={t}"),
            }
        }
    }
}
