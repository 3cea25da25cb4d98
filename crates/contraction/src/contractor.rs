//! The dynamic remaining-graph with witness searches.

use ah_graph::{Dist, Graph, NodeId, INVALID_NODE};
use ah_search::{DijkstraDriver, SearchGraph, SearchOptions};

use crate::hierarchy::{HArc, Hierarchy};

/// Tunables for contraction.
#[derive(Debug, Clone, Copy)]
pub struct ContractionConfig {
    /// Settle budget per witness search. A search that exhausts the budget
    /// conservatively reports "no witness", adding a (correct but possibly
    /// redundant) shortcut. The paper's AH keeps witness searches local to
    /// a (5×5)-cell region; a settle budget is the order-agnostic
    /// equivalent.
    pub witness_settle_limit: usize,
}

impl Default for ContractionConfig {
    fn default() -> Self {
        ContractionConfig {
            witness_settle_limit: 192,
        }
    }
}

/// Outcome of simulating a contraction (for adaptive ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulationStats {
    /// Shortcuts that contraction would add.
    pub shortcuts: usize,
    /// Incident remaining arcs that contraction removes.
    pub removed_arcs: usize,
}

/// The remaining graph during contraction: arcs between not-yet-contracted
/// nodes, plus (frozen) arcs to already-contracted ones, which become the
/// hierarchy's downward arcs.
pub struct Contractor {
    out: Vec<Vec<HArc>>,
    inn: Vec<Vec<HArc>>,
    contracted: Vec<bool>,
    num_contracted: usize,
    witness: DijkstraDriver,
    cfg: ContractionConfig,
}

/// Adapter exposing the remaining graph to the witness Dijkstra. Arcs to
/// contracted nodes and to the skipped node are filtered by the driver's
/// `allow` callback, not here.
struct RemainingView<'a> {
    out: &'a [Vec<HArc>],
    inn: &'a [Vec<HArc>],
}

impl SearchGraph for RemainingView<'_> {
    fn num_nodes(&self) -> usize {
        self.out.len()
    }

    fn for_each_out<F: FnMut(NodeId, u64, u64)>(&self, v: NodeId, mut f: F) {
        for a in &self.out[v as usize] {
            f(a.to, a.dist.length, a.dist.nuance);
        }
    }

    fn for_each_in<F: FnMut(NodeId, u64, u64)>(&self, v: NodeId, mut f: F) {
        for a in &self.inn[v as usize] {
            f(a.to, a.dist.length, a.dist.nuance);
        }
    }
}

impl Contractor {
    /// Initializes the remaining graph with the original edges.
    pub fn new(g: &Graph, cfg: ContractionConfig) -> Self {
        let n = g.num_nodes();
        let mut out: Vec<Vec<HArc>> = vec![Vec::new(); n];
        let mut inn: Vec<Vec<HArc>> = vec![Vec::new(); n];
        for (tail, a) in g.edges() {
            let arc = HArc {
                to: a.head,
                dist: Dist::new(a.weight as u64, a.nuance as u64),
                middle: INVALID_NODE,
            };
            out[tail as usize].push(arc);
            inn[a.head as usize].push(HArc {
                to: tail,
                ..arc
            });
        }
        Contractor {
            out,
            inn,
            contracted: vec![false; n],
            num_contracted: 0,
            witness: DijkstraDriver::new(),
            cfg,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// True if `v` has been contracted.
    pub fn is_contracted(&self, v: NodeId) -> bool {
        self.contracted[v as usize]
    }

    /// Remaining (uncontracted) in-neighbours of `v` with min arc per tail.
    fn remaining_in(&self, v: NodeId) -> Vec<(NodeId, Dist)> {
        let mut nbrs: Vec<(NodeId, Dist)> = Vec::new();
        for a in &self.inn[v as usize] {
            if !self.contracted[a.to as usize] {
                nbrs.push((a.to, a.dist));
            }
        }
        nbrs
    }

    fn remaining_out(&self, v: NodeId) -> Vec<(NodeId, Dist)> {
        let mut nbrs: Vec<(NodeId, Dist)> = Vec::new();
        for a in &self.out[v as usize] {
            if !self.contracted[a.to as usize] {
                nbrs.push((a.to, a.dist));
            }
        }
        nbrs
    }

    /// Contracts `v`: adds a shortcut `u → w` (middle `v`) for every
    /// in/out neighbour pair whose shortest connection is the unique path
    /// through `v` (decided by a bounded witness search that skips `v`).
    /// Returns the number of shortcuts added.
    pub fn contract(&mut self, v: NodeId) -> usize {
        debug_assert!(!self.contracted[v as usize]);
        let in_nbrs = self.remaining_in(v);
        let out_nbrs = self.remaining_out(v);
        let mut added = 0usize;
        if !in_nbrs.is_empty() && !out_nbrs.is_empty() {
            let max_d2 = out_nbrs.iter().map(|&(_, d)| d).max().unwrap();
            for &(u, d1) in &in_nbrs {
                let bound = d1.concat(max_d2);
                self.run_witness(u, v, bound);
                for &(w, d2) in &out_nbrs {
                    if w == u {
                        continue;
                    }
                    let cand = d1.concat(d2);
                    // A tentative (unsettled) distance is an upper bound on
                    // the true witness length, so `<= cand` is a sound skip
                    // even when the budgeted search stopped early.
                    if self.witness.dist(w) <= cand {
                        continue;
                    }
                    self.add_arc(u, w, cand, v);
                    added += 1;
                }
            }
        }
        self.contracted[v as usize] = true;
        self.num_contracted += 1;
        added
    }

    /// Simulates contracting `v` without mutating: returns the number of
    /// shortcuts it would add and the number of remaining arcs it removes.
    pub fn simulate(&mut self, v: NodeId) -> SimulationStats {
        let in_nbrs = self.remaining_in(v);
        let out_nbrs = self.remaining_out(v);
        let removed_arcs = in_nbrs.len() + out_nbrs.len();
        let mut shortcuts = 0usize;
        if !in_nbrs.is_empty() && !out_nbrs.is_empty() {
            let max_d2 = out_nbrs.iter().map(|&(_, d)| d).max().unwrap();
            for &(u, d1) in &in_nbrs {
                let bound = d1.concat(max_d2);
                self.run_witness(u, v, bound);
                for &(w, d2) in &out_nbrs {
                    if w == u {
                        continue;
                    }
                    if self.witness.dist(w) > d1.concat(d2) {
                        shortcuts += 1;
                    }
                }
            }
        }
        SimulationStats {
            shortcuts,
            removed_arcs,
        }
    }

    fn run_witness(&mut self, source: NodeId, skip: NodeId, bound: Dist) {
        let view = RemainingView {
            out: &self.out,
            inn: &self.inn,
        };
        let contracted = &self.contracted;
        self.witness.run(
            &view,
            source,
            &SearchOptions {
                bound,
                max_settled: self.cfg.witness_settle_limit,
                ..Default::default()
            },
            |x| x != skip && !contracted[x as usize],
        );
    }

    /// Inserts arc `u → w` keeping only the minimum-distance arc per
    /// ordered pair.
    fn add_arc(&mut self, u: NodeId, w: NodeId, dist: Dist, middle: NodeId) {
        let arc = HArc {
            to: w,
            dist,
            middle,
        };
        let out = &mut self.out[u as usize];
        if let Some(existing) = out.iter_mut().find(|a| a.to == w) {
            if existing.dist <= dist {
                return;
            }
            *existing = arc;
        } else {
            out.push(arc);
        }
        let inn = &mut self.inn[w as usize];
        let mirrored = HArc {
            to: u,
            dist,
            middle,
        };
        if let Some(existing) = inn.iter_mut().find(|a| a.to == u) {
            *existing = mirrored;
        } else {
            inn.push(mirrored);
        }
    }

    /// Finishes contraction: every node must have been contracted. `rank`
    /// maps each node to its contraction position.
    pub fn into_hierarchy(self, rank: Vec<u32>) -> Hierarchy {
        assert_eq!(
            self.num_contracted,
            self.out.len(),
            "into_hierarchy before all nodes were contracted"
        );
        Hierarchy::assemble(rank, &self.out, &self.inn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_graph::{GraphBuilder, Point};

    fn path_graph() -> Graph {
        // 0 -1- 1 -1- 2, bidirectional.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i, 0));
        }
        b.add_bidirectional_edge(0, 1, 1);
        b.add_bidirectional_edge(1, 2, 1);
        b.build()
    }

    #[test]
    fn contracting_interior_adds_shortcuts() {
        let g = path_graph();
        let mut c = Contractor::new(&g, ContractionConfig::default());
        // Contract the middle node: 0↔2 needs shortcuts both ways.
        let added = c.contract(1);
        assert_eq!(added, 2);
        assert!(c.is_contracted(1));
    }

    #[test]
    fn witness_prevents_redundant_shortcut() {
        // Triangle: 0-1 (1), 1-2 (1), 0-2 (1). Contracting 1: path 0→1→2
        // costs 2, direct edge costs 1 → witness found, no shortcut.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(Point::new(i, i));
        }
        b.add_bidirectional_edge(0, 1, 1);
        b.add_bidirectional_edge(1, 2, 1);
        b.add_bidirectional_edge(0, 2, 1);
        let g = b.build();
        let mut c = Contractor::new(&g, ContractionConfig::default());
        assert_eq!(c.contract(1), 0);
    }

    #[test]
    fn simulate_matches_contract() {
        let g = path_graph();
        let mut c = Contractor::new(&g, ContractionConfig::default());
        let sim = c.simulate(1);
        assert_eq!(sim.shortcuts, 2);
        assert_eq!(sim.removed_arcs, 4);
        let added = c.contract(1);
        assert_eq!(added, sim.shortcuts);
    }

    #[test]
    fn min_arc_dedup() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, 0));
        }
        // Two routes 0→3: via 1 (cost 2) and via 2 (cost 6).
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(0, 2, 3);
        b.add_edge(2, 3, 3);
        let g = b.build();
        let mut c = Contractor::new(&g, ContractionConfig::default());
        // Contract 2 first: candidate shortcut 0→3 of cost 6; witness via 1
        // costs 2 → rejected.
        assert_eq!(c.contract(2), 0);
        // Contract 1: 0→3 via 1 costs 2; only alternative went through the
        // already-contracted 2 → shortcut added.
        assert_eq!(c.contract(1), 1);
    }

    #[test]
    fn full_contraction_produces_hierarchy() {
        let g = path_graph();
        let mut c = Contractor::new(&g, ContractionConfig::default());
        // Contract in order 1, 0, 2 → ranks 1:0, 0:1, 2:2.
        c.contract(1);
        c.contract(0);
        c.contract(2);
        let mut rank = vec![0u32; 3];
        rank[1] = 0;
        rank[0] = 1;
        rank[2] = 2;
        let h = c.into_hierarchy(rank);
        assert_eq!(h.num_nodes(), 3);
        // 0 must have an upward arc to 2 (the shortcut).
        assert!(h.up_out(0).iter().any(|a| a.to == 2 && a.middle == 1));
    }

    #[test]
    #[should_panic(expected = "before all nodes")]
    fn premature_finish_panics() {
        let g = path_graph();
        let c = Contractor::new(&g, ContractionConfig::default());
        let _ = c.into_hierarchy(vec![0, 1, 2]);
    }
}
