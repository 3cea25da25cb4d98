//! Contraction orderings: fixed (AH) and adaptive (CH).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ah_graph::{Graph, NodeId};

use crate::contractor::{ContractionConfig, Contractor};
use crate::hierarchy::Hierarchy;

/// Contracts the nodes of `g` in exactly the given order (`order[0]` is
/// contracted first = lowest rank). This is the AH path: the order comes
/// from arterial levels plus the in-level vertex-cover rank.
///
/// # Panics
/// Panics if `order` is not a permutation of the node ids.
pub fn contract_with_order(g: &Graph, order: &[NodeId], cfg: ContractionConfig) -> Hierarchy {
    let n = g.num_nodes();
    assert_eq!(order.len(), n, "order must cover every node");
    let mut rank = vec![u32::MAX; n];
    for (pos, &v) in order.iter().enumerate() {
        assert!(
            rank[v as usize] == u32::MAX,
            "node {v} appears twice in the order"
        );
        rank[v as usize] = pos as u32;
    }
    let mut c = Contractor::new(g, cfg);
    for &v in order {
        c.contract(v);
    }
    c.into_hierarchy(rank)
}

/// Contracts `g` with the Contraction Hierarchies heuristic ordering
/// (Geisberger et al. \[11\]): priority = edge difference weighted against
/// the number of already-contracted neighbours, maintained lazily (a
/// popped node is re-simulated and re-queued if its priority got stale).
/// Returns the hierarchy plus the contraction order.
pub fn contract_adaptive(g: &Graph, cfg: ContractionConfig) -> (Hierarchy, Vec<NodeId>) {
    let n = g.num_nodes();
    let mut c = Contractor::new(g, cfg);
    let mut deleted_neighbours = vec![0u32; n];

    let priority = |c: &mut Contractor, deleted: u32, v: NodeId| -> i64 {
        let sim = c.simulate(v);
        // The classic linear combination: favour nodes whose contraction
        // shrinks the graph, and spread contractions spatially by
        // penalizing nodes whose neighbourhood was already contracted.
        190 * (sim.shortcuts as i64 - sim.removed_arcs as i64) + 120 * deleted as i64
    };

    let mut heap: BinaryHeap<Reverse<(i64, NodeId)>> = BinaryHeap::with_capacity(n);
    for v in 0..n as NodeId {
        let p = priority(&mut c, 0, v);
        heap.push(Reverse((p, v)));
    }

    let mut order = Vec::with_capacity(n);
    let mut rank = vec![0u32; n];
    while let Some(Reverse((p, v))) = heap.pop() {
        if c.is_contracted(v) {
            continue;
        }
        // Lazy update: re-evaluate; if the node no longer beats the queue
        // head, push it back with its fresh priority.
        let fresh = priority(&mut c, deleted_neighbours[v as usize], v);
        if fresh > p {
            if let Some(&Reverse((next_p, _))) = heap.peek() {
                if fresh > next_p {
                    heap.push(Reverse((fresh, v)));
                    continue;
                }
            }
        }
        // Record neighbours before contraction mutates the remaining graph.
        let mut nbrs: Vec<NodeId> = Vec::new();
        let gv = g;
        for a in gv.out_edges(v) {
            nbrs.push(a.head);
        }
        for a in gv.in_edges(v) {
            nbrs.push(a.head);
        }
        rank[v as usize] = order.len() as u32;
        order.push(v);
        c.contract(v);
        for w in nbrs {
            if !c.is_contracted(w) {
                deleted_neighbours[w as usize] += 1;
            }
        }
    }
    (c.into_hierarchy(rank), order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Upward;
    use ah_data::fixtures;
    use ah_graph::Dist;
    use ah_search::{DijkstraDriver, Direction, SearchOptions};

    #[test]
    fn fixed_order_contracts_everything() {
        let g = fixtures::line(8, 10);
        let order: Vec<NodeId> = (0..8).collect();
        let h = contract_with_order(&g, &order, ContractionConfig::default());
        assert_eq!(h.num_nodes(), 8);
        for v in 0..8u32 {
            assert_eq!(h.rank(v), v);
        }
        // Left-to-right on a path always removes a leaf of the remaining
        // graph, so no shortcuts are ever needed.
        assert_eq!(h.num_shortcuts(), 0);
        // An interior-first order must bridge the gap it creates.
        let scrambled: Vec<NodeId> = vec![4, 3, 5, 2, 6, 1, 7, 0];
        let h2 = contract_with_order(&g, &scrambled, ContractionConfig::default());
        assert!(h2.num_shortcuts() > 0);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_order_panics() {
        let g = fixtures::line(3, 10);
        contract_with_order(&g, &[0, 0, 1], ContractionConfig::default());
    }

    #[test]
    fn adaptive_order_is_a_permutation() {
        let g = fixtures::lattice(5, 5, 10);
        let (h, order) = contract_adaptive(&g, ContractionConfig::default());
        assert_eq!(order.len(), 25);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 25);
        for (pos, &v) in order.iter().enumerate() {
            assert_eq!(h.rank(v), pos as u32);
        }
    }

    /// Exhaustive up-down reachability check: for every pair (s,t), the
    /// minimum over meeting nodes m of (up-dist s→m) + (up-dist from t's
    /// backward side) must equal the true distance. This is the core
    /// contraction invariant both AH and CH rely on.
    fn updown_distances_match(g: &ah_graph::Graph, h: &Hierarchy) {
        let n = g.num_nodes() as NodeId;
        for s in 0..n {
            // Upward distances from s, then to every t.
            let dist_f = upward_sssp(h, s, Direction::Forward);
            for t in 0..n {
                let dist_b = upward_sssp(h, t, Direction::Backward);
                let via: Option<Dist> = (0..n)
                    .filter_map(|m| {
                        let a = dist_f[m as usize]?;
                        let b = dist_b[m as usize]?;
                        Some(a.concat(b))
                    })
                    .min();
                let expected = ah_search::dijkstra_distance(g, s, t);
                match (via, expected) {
                    (Some(d), Some(e)) => {
                        assert_eq!(d, e, "pair ({s},{t})")
                    }
                    (None, None) => {}
                    (got, want) => panic!("pair ({s},{t}): {got:?} vs {want:?}"),
                }
            }
        }
    }

    fn upward_sssp(h: &Hierarchy, source: NodeId, direction: Direction) -> Vec<Option<Dist>> {
        let opts = SearchOptions {
            direction,
            ..Default::default()
        };
        let mut d = DijkstraDriver::new();
        d.run(&Upward(h), source, &opts, |_| true);
        (0..h.num_nodes() as NodeId)
            .map(|v| Some(d.dist(v)).filter(|x| !x.is_infinite()))
            .collect()
    }

    #[test]
    fn updown_invariant_fixed_order_line() {
        let g = fixtures::line(9, 10);
        let order: Vec<NodeId> = vec![4, 1, 7, 2, 5, 0, 8, 3, 6]; // scrambled
        let h = contract_with_order(&g, &order, ContractionConfig::default());
        updown_distances_match(&g, &h);
    }

    #[test]
    fn updown_invariant_fixed_order_ring() {
        let g = fixtures::ring(10);
        let order: Vec<NodeId> = (0..10).collect();
        let h = contract_with_order(&g, &order, ContractionConfig::default());
        updown_distances_match(&g, &h);
    }

    #[test]
    fn updown_invariant_adaptive_lattice() {
        let g = fixtures::lattice(4, 4, 10);
        let (h, _) = contract_adaptive(&g, ContractionConfig::default());
        updown_distances_match(&g, &h);
    }

    #[test]
    fn updown_invariant_directed_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(33);
        let mut b = ah_graph::GraphBuilder::new();
        for i in 0..20 {
            b.add_node(ah_graph::Point::new(i, (i * 7) % 13));
        }
        for _ in 0..60 {
            let u = rng.random_range(0..20);
            let v = rng.random_range(0..20);
            let w = rng.random_range(1..9);
            b.add_edge(u, v, w);
        }
        let g = b.build();
        let (h, _) = contract_adaptive(&g, ContractionConfig::default());
        updown_distances_match(&g, &h);

        let mut order: Vec<NodeId> = (0..20).collect();
        // A deliberately bad static order must still be correct.
        order.reverse();
        let h2 = contract_with_order(&g, &order, ContractionConfig::default());
        updown_distances_match(&g, &h2);
    }

    #[test]
    fn tiny_witness_budget_stays_correct() {
        let g = fixtures::lattice(4, 4, 10);
        let cfg = ContractionConfig {
            witness_settle_limit: 1,
        };
        let (h, _) = contract_adaptive(&g, cfg);
        updown_distances_match(&g, &h);
        // With no witnesses, strictly more shortcuts appear.
        let (h_full, _) = contract_adaptive(&g, ContractionConfig::default());
        assert!(h.num_shortcuts() >= h_full.num_shortcuts());
    }
}
