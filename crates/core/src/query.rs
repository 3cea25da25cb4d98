//! The AH query algorithm (Section 4.3): bidirectional upward search with
//! rank, proximity and elevating-edge rules.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ah_graph::{Dist, NodeId, Path, INFINITY};
use ah_grid::Cell;
use ah_obs::CostCounters;
use ah_search::{ParentArc, SearchSlots};

use crate::config::QueryConfig;
use crate::elevating::{hops, ElevatingSide};
use crate::index::{AhIndex, LevelCell};

/// Reusable AH query state. Create once per thread, run many queries.
#[derive(Debug)]
pub struct AhQuery {
    /// Constraint toggles (ablation).
    pub cfg: QueryConfig,
    fwd: SearchSlots,
    bwd: SearchSlots,
    heap_f: BinaryHeap<Reverse<(Dist, NodeId)>>,
    heap_b: BinaryHeap<Reverse<(Dist, NodeId)>>,
    meeting: Option<NodeId>,
    cost: CostCounters,
}

impl Default for AhQuery {
    fn default() -> Self {
        Self::new()
    }
}

impl AhQuery {
    /// Creates a query engine with the paper's default constraints.
    pub fn new() -> Self {
        Self::with_config(QueryConfig::default())
    }

    /// Creates a query engine with explicit constraint toggles.
    pub fn with_config(cfg: QueryConfig) -> Self {
        AhQuery {
            cfg,
            fwd: SearchSlots::new(),
            bwd: SearchSlots::new(),
            heap_f: BinaryHeap::new(),
            heap_b: BinaryHeap::new(),
            meeting: None,
            cost: CostCounters::default(),
        }
    }

    /// Algorithmic cost accumulated since the last
    /// [`take_cost`](Self::take_cost) drain. It spans queries, so a
    /// request composed of several point queries drains one total.
    pub fn cost(&self) -> &CostCounters {
        &self.cost
    }

    /// Drains and returns the accumulated cost tally.
    pub fn take_cost(&mut self) -> CostCounters {
        self.cost.take()
    }

    /// Network distance from `s` to `t`, or `None` if unreachable.
    pub fn distance(&mut self, idx: &AhIndex, s: NodeId, t: NodeId) -> Option<u64> {
        self.distance_full(idx, s, t).map(|d| d.length)
    }

    /// Distance with the nuance component (for cross-method equivalence
    /// tests).
    pub fn distance_full(&mut self, idx: &AhIndex, s: NodeId, t: NodeId) -> Option<Dist> {
        self.search(idx, s, t)
    }

    /// Shortest path from `s` to `t` in the original network.
    pub fn path(&mut self, idx: &AhIndex, s: NodeId, t: NodeId) -> Option<Path> {
        let dist = self.search(idx, s, t)?;
        let m = self.meeting.expect("finite distance implies meeting");
        // Forward half: hierarchy/elevating arcs s → … → m.
        let mut fwd: Vec<(NodeId, NodeId, ParentArc)> = Vec::new();
        let mut cur = m;
        while let Some((p, arc)) = self.fwd.parent(cur) {
            fwd.push((p, cur, arc));
            cur = p;
        }
        fwd.reverse();
        let mut nodes = vec![s];
        for (tail, head, arc) in fwd {
            unpack(idx, &idx.elevating.forward, tail, head, arc, &mut nodes);
        }
        // Backward half: m → … → t, each parent the next node toward t.
        let mut cur = m;
        while let Some((next, arc)) = self.bwd.parent(cur) {
            unpack(idx, &idx.elevating.backward, cur, next, arc, &mut nodes);
            cur = next;
        }
        debug_assert_eq!(*nodes.last().unwrap(), t);
        Some(Path { nodes, dist })
    }

    fn search(&mut self, idx: &AhIndex, s: NodeId, t: NodeId) -> Option<Dist> {
        let n = idx.num_nodes();
        self.fwd.reset(n);
        self.bwd.reset(n);
        self.heap_f.clear();
        self.heap_b.clear();
        self.meeting = None;

        if s == t {
            self.meeting = Some(s);
            return Some(Dist::ZERO);
        }

        let cell_s = idx.level_cells[s as usize].cell;
        let cell_t = idx.level_cells[t as usize].cell;
        // Lemma 3: the shortest path must climb to the separation level, so
        // elevating jumps may target it directly.
        let sep = idx
            .grid
            .separation_level_of_cells(cell_s, cell_t)
            .unwrap_or(0) as u8;

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
            let go_f = top_f < best;
            let go_b = top_b < best;
            if !go_f && !go_b {
                break;
            }
            let forward = if go_f && go_b { top_f <= top_b } else { go_f };
            let (heap, this, other, endpoint) = if forward {
                (&mut self.heap_f, &mut self.fwd, &self.bwd, cell_s)
            } else {
                (&mut self.heap_b, &mut self.bwd, &self.fwd, cell_t)
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
            if self.cfg.stall_on_demand && stalled(idx, u, d, this, forward) {
                continue;
            }
            expand(
                idx,
                &self.cfg,
                u,
                d,
                endpoint,
                sep,
                forward,
                this,
                heap,
                &mut self.cost,
            );
        }

        (!best.is_infinite()).then_some(best)
    }
}

/// Proximity constraint (Sections 3.2/4.3): a level-`i` node may be
/// relaxed only if it shares a (3×3)-cell region of `R_(i+1)` with the
/// side's query endpoint, whose `R_1` cell is `endpoint`. Top-level nodes
/// always pass.
#[inline]
fn proximity_ok(idx: &AhIndex, endpoint: Cell, x: NodeId) -> bool {
    let LevelCell { cell, level } = idx.level_cells[x as usize];
    let lx = level as u32;
    lx >= idx.grid.levels()
        || cell
            .coarsened(lx)
            .shares_3x3_region(&endpoint.coarsened(lx))
}

/// Relaxes the out-arcs of `u` on one side, applying the elevating-edge
/// rule (jump when a complete set toward the separation level exists) and
/// the proximity constraint.
#[allow(clippy::too_many_arguments)]
fn expand(
    idx: &AhIndex,
    cfg: &QueryConfig,
    u: NodeId,
    d: Dist,
    endpoint: Cell,
    sep: u8,
    forward: bool,
    slots: &mut SearchSlots,
    heap: &mut BinaryHeap<Reverse<(Dist, NodeId)>>,
    cost: &mut CostCounters,
) {
    // Asked only about arcs that would improve their head.
    let admits = |x: NodeId| !cfg.proximity || proximity_ok(idx, endpoint, x);
    let own_level = idx.level[u as usize];
    if cfg.elevating && own_level < sep {
        let side = if forward {
            &idx.elevating.forward
        } else {
            &idx.elevating.backward
        };
        if let Some((_lvl, arcs)) = side.best_set(u, own_level, sep) {
            cost.edges_relaxed += arcs.len() as u64;
            for a in arcs {
                let nd = d.concat(a.dist);
                if slots.improves(a.to, nd) && admits(a.to) {
                    let (start, len) = a.chain_range();
                    slots.update(a.to, nd, u, ParentArc::elevating(start, len));
                    heap.push(Reverse((nd, a.to)));
                }
            }
            return; // pure jump: normal arcs are skipped entirely
        }
    }
    let arcs = if forward {
        idx.hierarchy.up_out(u)
    } else {
        idx.hierarchy.up_in(u)
    };
    cost.edges_relaxed += arcs.len() as u64;
    for a in arcs {
        let nd = d.concat(a.dist);
        if slots.improves(a.to, nd) && admits(a.to) {
            // Backward parents point toward t: the real arc is a.to → u.
            slots.update(a.to, nd, u, ParentArc::hierarchy(a.middle));
            heap.push(Reverse((nd, a.to)));
        }
    }
}

/// Stall-on-demand (identical to the CH variant, on the AH hierarchy).
fn stalled(idx: &AhIndex, u: NodeId, d: Dist, slots: &SearchSlots, forward: bool) -> bool {
    let arcs = if forward {
        idx.hierarchy.up_in(u)
    } else {
        idx.hierarchy.up_out(u)
    };
    arcs.iter().any(|a| slots.dist(a.to).concat(a.dist) < d)
}

/// Appends the original-edge expansion of the parent arc `tail → head` to
/// `nodes`. An elevating arc's interior nodes live in `side`, the
/// elevating sets of the search side that took the arc, already in forward
/// path order; each hop `tail → interior… → head` is one hierarchy arc.
fn unpack(
    idx: &AhIndex,
    side: &ElevatingSide,
    tail: NodeId,
    head: NodeId,
    arc: ParentArc,
    nodes: &mut Vec<NodeId>,
) {
    let h = &idx.hierarchy;
    match arc.chain() {
        Some(range) => {
            for (a, b) in hops(tail, side.chain(range), head) {
                let hop = h
                    .arc_between(a, b)
                    .expect("elevating chains are checked at build and load");
                h.unpack_arc(a, b, hop.middle, nodes);
            }
        }
        None => h.unpack_arc(tail, head, arc.middle(), nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AhIndex, BuildConfig, QueryConfig};
    use ah_search::{dijkstra_distance, dijkstra_path};

    fn check_all_pairs(g: &ah_graph::Graph, idx: &AhIndex, cfg: QueryConfig, stride: usize) {
        let mut q = AhQuery::with_config(cfg);
        let n = g.num_nodes() as NodeId;
        for s in (0..n).step_by(stride) {
            for t in (0..n).step_by(stride) {
                let want = dijkstra_distance(g, s, t);
                let got = q.distance_full(idx, s, t);
                assert_eq!(
                    got, want,
                    "distance ({s},{t}) with cfg {cfg:?}"
                );
                if let Some(want_path) = dijkstra_path(g, s, t) {
                    let p = q.path(idx, s, t).expect("path exists");
                    p.verify(g).unwrap();
                    assert_eq!(p.dist, want_path.dist, "path ({s},{t})");
                    assert_eq!(p.source(), s);
                    assert_eq!(p.target(), t);
                }
            }
        }
    }

    fn all_configs() -> Vec<QueryConfig> {
        let mut v = Vec::new();
        for proximity in [false, true] {
            for elevating in [false, true] {
                for stall in [false, true] {
                    v.push(QueryConfig {
                        proximity,
                        elevating,
                        stall_on_demand: stall,
                    });
                }
            }
        }
        v
    }

    #[test]
    fn exhaustive_on_lattice() {
        let g = ah_data::fixtures::lattice(7, 7, 16);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        for cfg in all_configs() {
            check_all_pairs(&g, &idx, cfg, 3);
        }
    }

    #[test]
    fn exhaustive_on_figure1() {
        let g = ah_data::fixtures::figure1_like();
        let idx = AhIndex::build(&g, &BuildConfig::default());
        for cfg in all_configs() {
            check_all_pairs(&g, &idx, cfg, 1);
        }
    }

    #[test]
    fn road_network_with_one_ways() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 14,
            height: 14,
            one_way: 0.25,
            seed: 21,
            ..Default::default()
        });
        let idx = AhIndex::build(&g, &BuildConfig::default());
        check_all_pairs(&g, &idx, QueryConfig::default(), 7);
        check_all_pairs(
            &g,
            &idx,
            QueryConfig {
                proximity: true,
                elevating: false,
                stall_on_demand: false,
            },
            7,
        );
    }

    #[test]
    fn random_geometric_stress() {
        let g = ah_data::random_geometric(90, 700, 150, 17);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        check_all_pairs(&g, &idx, QueryConfig::default(), 5);
    }

    #[test]
    fn ring_and_line() {
        for g in [ah_data::fixtures::ring(16), ah_data::fixtures::line(24, 12)] {
            let idx = AhIndex::build(&g, &BuildConfig::default());
            check_all_pairs(&g, &idx, QueryConfig::default(), 1);
        }
    }

    #[test]
    fn build_config_ablations_stay_correct() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 12,
            height: 12,
            seed: 5,
            ..Default::default()
        });
        for vc in [false, true] {
            for dg in [false, true] {
                for el in [false, true] {
                    let cfg = BuildConfig {
                        vertex_cover_rank: vc,
                        downgrade_non_cover: dg,
                        elevating_edges: el,
                        ..Default::default()
                    };
                    let idx = AhIndex::build(&g, &cfg);
                    check_all_pairs(&g, &idx, QueryConfig::default(), 11);
                }
            }
        }
    }

    #[test]
    fn unreachable_and_self() {
        let mut b = ah_graph::GraphBuilder::new();
        b.add_node(ah_graph::Point::new(0, 0));
        b.add_node(ah_graph::Point::new(100, 100));
        b.add_edge(0, 1, 9);
        let g = b.build();
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let mut q = AhQuery::new();
        assert_eq!(q.distance(&idx, 0, 1), Some(9));
        assert_eq!(q.distance(&idx, 1, 0), None);
        assert!(q.path(&idx, 1, 0).is_none());
        assert_eq!(q.distance(&idx, 1, 1), Some(0));
    }
}
