//! Exact distance queries over a [`ShardedIndex`].
//!
//! The composition rule (proved exact in `docs/SHARDING.md`): a
//! shortest path from `s` (shard `A`) to `t` (shard `B ≠ A`) leaves `A`
//! for the first time at some border node `u` of `A` and enters `B` for
//! the last time at some border node `q` of `B`; the prefix `s → u`
//! lies entirely inside `A` and the suffix `q → t` entirely inside `B`.
//! Hence
//!
//! ```text
//! d(s, t) = min over u ∈ borders(A), q ∈ borders(B) of
//!           d_A(s, u) + D(u, q) + d_B(q, t)
//! ```
//!
//! with `d_A`/`d_B` within-shard distances and `D` the precomputed
//! exact global border-to-border matrix. Same-shard queries use the
//! shard's own AH index, composing only through the shard's *reentry
//! pairs* (border pairs whose global distance beats the within-shard
//! one) — for most shards there are none and the query is purely local.
//!
//! The within-shard border fan-outs `d_A(s, ·)` and `d_B(·, t)` are one
//! forward and one backward Dijkstra sweep over the (small) shard
//! subgraph, reusing one [`ah_search::DijkstraDriver`] per direction
//! (its per-node records reset in O(1) between sweeps).

use ah_core::AhQuery;
use ah_graph::{NodeId, Path};
use ah_obs::CostCounters;
use ah_search::{Direction, DijkstraDriver, SearchOptions};

use crate::index::{ShardedIndex, UNREACHABLE};

/// How the last query was answered (telemetry/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Same-shard, answered by the shard's AH index alone.
    Local,
    /// Composed through the boundary graph.
    Composed,
    /// Answered by the global index (uncertified build, or a path
    /// query).
    Fallback,
}

/// Reusable sharded query state. Create once per thread, run many
/// queries; the scratch resizes to whichever shard (or the global
/// index) a query touches.
pub struct ShardedQuery {
    global: AhQuery,
    local: AhQuery,
    fwd: DijkstraDriver,
    bwd: DijkstraDriver,
    da: Vec<u64>,
    db: Vec<u64>,
    /// How the most recent query was routed.
    pub last_route: Route,
    /// Routing-level cost (shard hops, boundary-matrix lookups); the
    /// sub-engines keep their own tallies until [`Self::take_cost`].
    cost: CostCounters,
}

impl Default for ShardedQuery {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedQuery {
    /// Creates the per-thread query scratch.
    pub fn new() -> Self {
        ShardedQuery {
            global: AhQuery::new(),
            local: AhQuery::new(),
            fwd: DijkstraDriver::new(),
            bwd: DijkstraDriver::new(),
            da: Vec::new(),
            db: Vec::new(),
            last_route: Route::Local,
            cost: CostCounters::default(),
        }
    }

    /// Drains the accumulated cost tally: the routing layer's shard hops
    /// and boundary-matrix lookups merged with every sub-engine's counts
    /// (global/local AH searches, border fan-out sweeps).
    pub fn take_cost(&mut self) -> CostCounters {
        let mut c = self.cost.take();
        c.merge(&self.global.take_cost());
        c.merge(&self.local.take_cost());
        c.merge(&self.fwd.take_cost());
        c.merge(&self.bwd.take_cost());
        c
    }

    /// Network distance from `s` to `t`, or `None` if unreachable.
    /// Exact: bit-equal to the global [`AhQuery`] answer.
    pub fn distance(&mut self, idx: &ShardedIndex, s: NodeId, t: NodeId) -> Option<u64> {
        if !idx.certified() {
            self.last_route = Route::Fallback;
            return self.global.distance(idx.global(), s, t);
        }
        let a = idx.shard_of(s) as usize;
        let b = idx.shard_of(t) as usize;
        if a == b {
            self.cost.shard_hops += 1;
            self.same_shard(idx, a, s, t)
        } else {
            self.cost.shard_hops += 2;
            self.cross_shard(idx, a, b, s, t)
        }
    }

    /// Shortest path from `s` to `t` in the original network. Paths are
    /// served by the global index: composing an exact *path* across
    /// shards would need the boundary matrix to carry via-nodes, which
    /// the snapshot layout deliberately leaves out (distances dominate
    /// serving traffic; see docs/SHARDING.md § tuning).
    pub fn path(&mut self, idx: &ShardedIndex, s: NodeId, t: NodeId) -> Option<Path> {
        self.last_route = Route::Fallback;
        self.global.path(idx.global(), s, t)
    }

    fn same_shard(&mut self, idx: &ShardedIndex, a: usize, s: NodeId, t: NodeId) -> Option<u64> {
        let shard = idx.shard(a);
        let aidx = shard.index().expect("s belongs to this shard, so it is non-empty");
        let d_loc_full = self.local.distance_full(aidx, idx.local_id(s), idx.local_id(t));
        let d_loc = d_loc_full.map(|d| d.length);
        if shard.reentry().is_empty() {
            self.last_route = Route::Local;
            return d_loc;
        }
        // Leaving the shard can be shorter: sweep once in each
        // direction and try every reentry pair. The local distance is a
        // lossless sweep bound — an improving pair (u, q) needs both
        // d_A(s, u) and d_A(q, t) strictly below it (the middle leg is
        // non-negative), and Dijkstra settles every node below the
        // bound before stopping, so the winning pair's legs are exact;
        // unsettled nodes contribute only safe overestimates.
        self.last_route = Route::Composed;
        let bound = d_loc_full.unwrap_or(ah_search::INFINITY);
        let opts = SearchOptions {
            bound,
            ..SearchOptions::default()
        };
        self.fwd.run(shard.graph(), idx.local_id(s), &opts, |_| true);
        let bopts = SearchOptions {
            direction: Direction::Backward,
            bound,
            ..SearchOptions::default()
        };
        self.bwd.run(shard.graph(), idx.local_id(t), &bopts, |_| true);
        let mut best = d_loc.unwrap_or(UNREACHABLE);
        for &(bi, bj) in shard.reentry() {
            let u = idx.border_nodes()[bi as usize];
            let q = idx.border_nodes()[bj as usize];
            let du = self.fwd.dist(idx.local_id(u));
            let dq = self.bwd.dist(idx.local_id(q));
            if du.is_infinite() || dq.is_infinite() {
                continue;
            }
            self.cost.boundary_lookups += 1;
            if let Some(mid) = idx.border_distance(bi, bj) {
                best = best.min(du.length + mid + dq.length);
            }
        }
        (best != UNREACHABLE).then_some(best)
    }

    fn cross_shard(
        &mut self,
        idx: &ShardedIndex,
        a: usize,
        b: usize,
        s: NodeId,
        t: NodeId,
    ) -> Option<u64> {
        self.last_route = Route::Composed;
        let sa = idx.shard(a);
        let sb = idx.shard(b);
        // d_A(s, u) for every border u of A: one forward sweep.
        let opts = SearchOptions::default();
        self.fwd.run(sa.graph(), idx.local_id(s), &opts, |_| true);
        self.da.clear();
        self.da.extend(sa.borders().iter().map(|&bi| {
            let d = self.fwd.dist(idx.local_id(idx.border_nodes()[bi as usize]));
            if d.is_infinite() {
                UNREACHABLE
            } else {
                d.length
            }
        }));
        // d_B(q, t) for every border q of B: one backward sweep.
        let bopts = SearchOptions {
            direction: Direction::Backward,
            ..SearchOptions::default()
        };
        self.bwd.run(sb.graph(), idx.local_id(t), &bopts, |_| true);
        self.db.clear();
        self.db.extend(sb.borders().iter().map(|&bj| {
            let d = self.bwd.dist(idx.local_id(idx.border_nodes()[bj as usize]));
            if d.is_infinite() {
                UNREACHABLE
            } else {
                d.length
            }
        }));

        let mut best = UNREACHABLE;
        for (ui, &bi) in sa.borders().iter().enumerate() {
            let du = self.da[ui];
            if du == UNREACHABLE || du >= best {
                continue;
            }
            for (qi, &bj) in sb.borders().iter().enumerate() {
                let dq = self.db[qi];
                if dq == UNREACHABLE {
                    continue;
                }
                self.cost.boundary_lookups += 1;
                if let Some(mid) = idx.border_distance(bi, bj) {
                    best = best.min(du + mid + dq);
                }
            }
        }
        (best != UNREACHABLE).then_some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{ShardConfig, ShardedIndex};
    use ah_graph::{Graph, GraphBuilder, Point};
    use ah_search::dijkstra_distance;

    fn exact_everywhere(g: &Graph, idx: &ShardedIndex) {
        let mut q = ShardedQuery::new();
        for s in g.node_ids() {
            for t in g.node_ids() {
                let want = dijkstra_distance(g, s, t).map(|d| d.length);
                assert_eq!(q.distance(idx, s, t), want, "({s},{t})");
            }
        }
    }

    #[test]
    fn lattice_identity_all_pairs_four_shards() {
        let g = ah_data::fixtures::lattice(8, 8, 12);
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 4,
                ..Default::default()
            },
        );
        // The banded lattice has genuine cross-shard pairs.
        assert!(g
            .node_ids()
            .any(|v| idx.shard_of(v) != idx.shard_of(0)));
        exact_everywhere(&g, &idx);
    }

    #[test]
    fn uncertified_falls_back_and_stays_exact() {
        let g = ah_data::fixtures::lattice(6, 6, 10);
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 4,
                max_border_nodes: 0,
            },
        );
        assert!(!idx.certified());
        let mut q = ShardedQuery::new();
        let d = q.distance(&idx, 0, 35);
        assert_eq!(q.last_route, Route::Fallback);
        assert_eq!(d, dijkstra_distance(&g, 0, 35).map(|x| x.length));
        exact_everywhere(&g, &idx);
    }

    /// A "U" network: two long east–west chains, one in the south band
    /// and one in the north band, joined at both ends. The south chain
    /// is heavy, the north chain light, so the shortest south→south
    /// path detours through the north shard — the reentry-pair
    /// machinery must catch it.
    fn u_network(south_weight: u32, with_south_chain: bool) -> Graph {
        let mut b = GraphBuilder::new();
        let cols = 8;
        for x in 0..cols {
            b.add_node(Point::new(x * 32, 0)); // south: ids 0..8
        }
        for x in 0..cols {
            b.add_node(Point::new(x * 32, 255)); // north: ids 8..16
        }
        for x in 0..cols - 1 {
            if with_south_chain {
                b.add_bidirectional_edge(x as u32, x as u32 + 1, south_weight);
            }
            b.add_bidirectional_edge(8 + x as u32, 8 + x as u32 + 1, 1);
        }
        // Vertical joins at both ends.
        b.add_bidirectional_edge(0, 8, 1);
        b.add_bidirectional_edge(cols as u32 - 1, 8 + cols as u32 - 1, 1);
        b.build()
    }

    #[test]
    fn same_shard_query_detours_through_other_shard() {
        let g = u_network(1000, true);
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 2,
                ..Default::default()
            },
        );
        assert_eq!(idx.shard_of(0), idx.shard_of(7), "south chain shares a shard");
        assert_ne!(idx.shard_of(0), idx.shard_of(8), "bands are split");
        // The south shard must have discovered reentry pairs — its
        // direct chain is beatable via the north band.
        assert!(!idx.shard(idx.shard_of(0) as usize).reentry().is_empty());
        let mut q = ShardedQuery::new();
        let d = q.distance(&idx, 0, 7);
        assert_eq!(q.last_route, Route::Composed);
        assert_eq!(d, dijkstra_distance(&g, 0, 7).map(|x| x.length));
        assert_eq!(d, Some(1 + 7 + 1)); // down, across the light chain, up
        exact_everywhere(&g, &idx);
    }

    #[test]
    fn same_shard_pair_connected_only_through_other_shard() {
        // Drop the south chain entirely: south nodes are disconnected
        // within their shard and reachable only via the north band.
        let g = u_network(0, false);
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 2,
                ..Default::default()
            },
        );
        let mut q = ShardedQuery::new();
        let d = q.distance(&idx, 0, 7);
        assert_eq!(d, dijkstra_distance(&g, 0, 7).map(|x| x.length));
        assert!(d.is_some(), "reachable through the other shard");
        exact_everywhere(&g, &idx);
    }

    #[test]
    fn empty_shards_are_harmless() {
        // All nodes hug the south edge; with 4 bands the northern
        // shards own no nodes.
        let mut b = GraphBuilder::new();
        for x in 0..6 {
            b.add_node(Point::new(x * 50, x % 2));
        }
        for x in 0..5 {
            b.add_bidirectional_edge(x, x + 1, 3);
        }
        let g = b.build();
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 4,
                ..Default::default()
            },
        );
        assert!(idx.stats().nonempty < idx.num_shards() || idx.num_shards() == 1);
        exact_everywhere(&g, &idx);
    }

    #[test]
    fn one_way_cross_shard_unreachability_is_preserved() {
        // A one-way edge from south to north only: north → south is
        // unreachable, and the composition must say so.
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0, 0));
        b.add_node(Point::new(0, 255));
        b.add_edge(0, 1, 5);
        let g = b.build();
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 2,
                ..Default::default()
            },
        );
        assert_ne!(idx.shard_of(0), idx.shard_of(1));
        let mut q = ShardedQuery::new();
        assert_eq!(q.distance(&idx, 0, 1), Some(5));
        assert_eq!(q.distance(&idx, 1, 0), None);
    }

    #[test]
    fn paths_come_from_the_global_index_and_verify() {
        let g = ah_data::fixtures::lattice(6, 6, 10);
        let idx = ShardedIndex::build(&g, &ShardConfig::default());
        let mut q = ShardedQuery::new();
        let p = q.path(&idx, 0, 35).unwrap();
        assert_eq!(q.last_route, Route::Fallback);
        p.verify(&g).unwrap();
        assert_eq!(Some(p.dist.length), q.distance(&idx, 0, 35));
    }
}
