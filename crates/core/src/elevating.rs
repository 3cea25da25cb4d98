//! Elevating edges (Sections 4.2 / 4.3).
//!
//! An elevating arc `(v, ℓ): v → w` jumps from a low node `v` straight to
//! a node `w` at hierarchy level ≥ ℓ, summarizing the shortest
//! rank-increasing climb whose interior stays below level `ℓ`. During a
//! long-range query (separation level `j`), a visited node below level `j`
//! follows *only* its elevating arcs toward level `j`, skipping the low
//! hierarchy levels entirely.
//!
//! Correctness contract: a `(v, ℓ)` set is stored only if it is
//! **complete** — the construction search enumerated *every*
//! rank-increasing path from `v` with interior levels < `ℓ` up to its
//! first level-≥`ℓ` node (within a settle budget; over-budget sets are
//! discarded and queries fall back to normal arcs at `v`). Completeness
//! makes the pure-jump rule safe: any upward continuation from `v` factors
//! through one of the recorded targets with the recorded (shortest)
//! prefix distance. Every arc also stores the interior nodes of its climb,
//! so paths unpack exactly: each hop between consecutive nodes is one
//! hierarchy arc, found again with [`Hierarchy::arc_between`].

use ah_contraction::{Hierarchy, Upward, UpwardArc};
use ah_graph::{Dist, NodeId};
use ah_search::{DijkstraDriver, Direction, ParentArc, SearchOptions, SearchOutcome};

/// One elevating arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElevArc {
    /// The level-≥ℓ node reached.
    pub to: NodeId,
    /// Length of the climb.
    pub dist: Dist,
    /// Range into the side's shared chain buffer holding the climb's
    /// interior node ids in forward path order (empty when the climb is
    /// a single hierarchy arc).
    chain_start: u32,
    chain_len: u32,
}

/// A climb found by [`elevating_set`]: target, distance, and the
/// interior node ids in forward path order.
pub(crate) type Climb = (NodeId, Dist, Vec<NodeId>);

/// The hops `(a, b)` of the climb `tail → interior… → head`, in order;
/// each one is a hierarchy arc.
pub(crate) fn hops(
    tail: NodeId,
    interior: &[NodeId],
    head: NodeId,
) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    std::iter::once(tail)
        .chain(interior.iter().copied())
        .zip(interior.iter().copied().chain([head]))
}

/// Per-direction elevating sets for all nodes, CSR-packed.
#[derive(Debug, Clone, Default)]
pub struct ElevatingSide {
    /// `node_offsets[v]..node_offsets[v+1]` indexes `entries`.
    node_offsets: Vec<u32>,
    /// Per (node, level) set: target level and arc range.
    entries: Vec<(u8, u32, u32)>,
    arcs: Vec<ElevArc>,
    /// Every arc's interior node ids, back to back.
    chains: Vec<NodeId>,
}

impl ElevArc {
    /// Rebuilds an arc from its stored fields (snapshot loading). The
    /// chain range is validated by [`ElevatingSide::from_raw_parts`], not
    /// here.
    pub fn from_raw_parts(to: NodeId, dist: Dist, chain_start: u32, chain_len: u32) -> Self {
        ElevArc {
            to,
            dist,
            chain_start,
            chain_len,
        }
    }

    /// The `(start, len)` range this arc occupies in the shared chain
    /// buffer (serialization hook).
    pub fn chain_range(&self) -> (u32, u32) {
        (self.chain_start, self.chain_len)
    }
}

impl UpwardArc for ElevArc {
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
        ParentArc::elevating(self.chain_start, self.chain_len)
    }
}

impl ElevatingSide {
    /// The elevating arcs of `v` for the *largest* available level ≤
    /// `max_level` that is strictly above `node_level`. Returns the chosen
    /// level and the arcs.
    pub fn best_set(
        &self,
        v: NodeId,
        node_level: u8,
        max_level: u8,
    ) -> Option<(u8, &[ElevArc])> {
        if self.node_offsets.len() <= v as usize + 1 {
            return None; // sets were not built (elevating disabled)
        }
        let lo = self.node_offsets[v as usize] as usize;
        let hi = self.node_offsets[v as usize + 1] as usize;
        // Entries are stored in ascending level order; scan from the top.
        for &(lvl, start, len) in self.entries[lo..hi].iter().rev() {
            if lvl <= max_level && lvl > node_level {
                return Some((lvl, &self.arcs[start as usize..(start + len) as usize]));
            }
        }
        None
    }

    /// The interior node ids occupying `(chain_start, chain_len)` (an
    /// arc's [`ElevArc::chain_range`]), for unpacking.
    pub fn chain(&self, (start, len): (u32, u32)) -> &[NodeId] {
        &self.chains[start as usize..(start + len) as usize]
    }

    /// Number of elevating arcs stored.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Approximate heap footprint.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.node_offsets.len() * size_of::<u32>()
            + self.entries.len() * size_of::<(u8, u32, u32)>()
            + self.arcs.len() * size_of::<ElevArc>()
            + self.chains.len() * size_of::<NodeId>()
    }

    /// Borrowed view of the four flat arrays, in the order
    /// `(node_offsets, entries, arcs, chains)` (serialization hook for
    /// `ah_store`; [`ElevatingSide::from_raw_parts`] is the validated
    /// inverse).
    #[allow(clippy::type_complexity)]
    pub fn raw_parts(&self) -> (&[u32], &[(u8, u32, u32)], &[ElevArc], &[NodeId]) {
        (&self.node_offsets, &self.entries, &self.arcs, &self.chains)
    }

    /// Reassembles a side from its flat arrays (snapshot loading),
    /// validating that every index range stays inside the array it points
    /// into: node offsets into `entries`, entry ranges into `arcs`, arc
    /// chain ranges into `chains`.
    pub fn from_raw_parts(
        node_offsets: Vec<u32>,
        entries: Vec<(u8, u32, u32)>,
        arcs: Vec<ElevArc>,
        chains: Vec<NodeId>,
    ) -> Result<Self, &'static str> {
        // An entirely empty side (elevating disabled) is valid.
        if node_offsets.is_empty() {
            if !(entries.is_empty() && arcs.is_empty() && chains.is_empty()) {
                return Err("elevating side has entries but no node offsets");
            }
            return Ok(ElevatingSide::default());
        }
        if node_offsets.first() != Some(&0)
            || node_offsets.windows(2).any(|w| w[0] > w[1])
            || node_offsets.last().copied().unwrap_or(0) as usize != entries.len()
        {
            return Err("elevating node offsets are malformed");
        }
        for &(_, start, len) in &entries {
            if (start as usize).saturating_add(len as usize) > arcs.len() {
                return Err("elevating entry range outside the arc array");
            }
        }
        for a in &arcs {
            if (a.chain_start as usize).saturating_add(a.chain_len as usize) > chains.len() {
                return Err("elevating chain range outside the chain buffer");
            }
        }
        Ok(ElevatingSide {
            node_offsets,
            entries,
            arcs,
            chains,
        })
    }

    /// Checks the side against the hierarchy it was built over (snapshot
    /// loading, after [`ElevatingSide::from_raw_parts`]): one node-offset
    /// entry per node, every node id in range, and every climb a query can
    /// take — `tail → interior… → head` for each arc of each node's sets —
    /// stepping along hierarchy arcs, so unpacking a path through it
    /// cannot fail. A forward arc of `v` climbs `v → … → to`; a backward
    /// one `to → … → v`.
    pub(crate) fn validate_against(
        &self,
        h: &Hierarchy,
        forward: bool,
    ) -> Result<(), &'static str> {
        if self.node_offsets.is_empty() {
            return Ok(());
        }
        let n = h.num_nodes();
        if self.node_offsets.len() != n + 1 {
            return Err("elevating node-offset array disagrees with the node count");
        }
        if self.arcs.iter().any(|a| a.to as usize >= n)
            || self.chains.iter().any(|&x| x as usize >= n)
        {
            return Err("elevating node id out of range");
        }
        for (v, w) in self.node_offsets.windows(2).enumerate() {
            let v = v as NodeId;
            for &(_, start, len) in &self.entries[w[0] as usize..w[1] as usize] {
                for a in &self.arcs[start as usize..(start + len) as usize] {
                    let (tail, head) = if forward { (v, a.to) } else { (a.to, v) };
                    let interior = self.chain(a.chain_range());
                    if hops(tail, interior, head).any(|(x, y)| h.arc_between(x, y).is_none()) {
                        return Err("elevating chain hop is not a hierarchy arc");
                    }
                }
            }
        }
        Ok(())
    }
}

/// Forward and backward elevating sets.
#[derive(Debug, Clone, Default)]
pub struct ElevatingSets {
    pub forward: ElevatingSide,
    pub backward: ElevatingSide,
}

impl ElevatingSets {
    /// Total arc count (telemetry).
    pub fn num_arcs(&self) -> usize {
        self.forward.num_arcs() + self.backward.num_arcs()
    }

    /// Approximate heap footprint.
    pub fn size_bytes(&self) -> usize {
        self.forward.size_bytes() + self.backward.size_bytes()
    }
}

/// Builder accumulating per-node sets before CSR packing.
pub(crate) struct ElevatingBuilder {
    per_node: Vec<Vec<(u8, Vec<Climb>)>>,
}

impl ElevatingBuilder {
    pub fn new(n: usize) -> Self {
        ElevatingBuilder {
            per_node: vec![Vec::new(); n],
        }
    }

    pub fn push_set(&mut self, v: NodeId, level: u8, arcs: Vec<Climb>) {
        self.per_node[v as usize].push((level, arcs));
    }

    pub fn finish(mut self) -> ElevatingSide {
        let mut side = ElevatingSide::default();
        side.node_offsets.push(0);
        for sets in &mut self.per_node {
            sets.sort_by_key(|&(lvl, _)| lvl);
            for (lvl, arcs) in sets.iter() {
                let start = side.arcs.len() as u32;
                for (to, dist, interior) in arcs {
                    let cs = side.chains.len() as u32;
                    side.chains.extend_from_slice(interior);
                    side.arcs.push(ElevArc {
                        to: *to,
                        dist: *dist,
                        chain_start: cs,
                        chain_len: interior.len() as u32,
                    });
                }
                side.entries
                    .push((*lvl, start, (side.arcs.len() as u32) - start));
            }
            side.node_offsets.push(side.entries.len() as u32);
        }
        side
    }
}

/// Computes one complete `(v, ℓ)` elevating set with `search`: a climb
/// over the upward arcs in `direction` (forward over `up_out`, backward
/// over `up_in`) that expands only `v` and nodes below level `ℓ`, and
/// whose settled level-≥`ℓ` nodes are the targets. `levels` are the final
/// node levels. Returns `None` if more than `settle_limit` nodes settle
/// (the set must be discarded).
pub(crate) fn elevating_set(
    search: &mut DijkstraDriver,
    h: &Hierarchy,
    levels: &[u8],
    v: NodeId,
    ell: u8,
    direction: Direction,
    settle_limit: usize,
) -> Option<Vec<Climb>> {
    let opts = SearchOptions {
        direction,
        max_settled: settle_limit.saturating_add(1),
        ..Default::default()
    };
    let climbs_on = |u: NodeId| u == v || levels[u as usize] < ell;
    let outcome = search.run_expanding(&Upward(h), v, &opts, |_| true, |u, _| climbs_on(u));
    if outcome == SearchOutcome::SettleLimit {
        return None; // incomplete: discard
    }
    let climb = |&t: &NodeId| {
        // The tree path runs v → … → t forward and t → … → v backward
        // (forward path order either way); its interior is the climb's.
        let mut interior = search.path_to(t, direction).expect("targets are settled");
        interior.pop();
        interior.remove(0);
        (t, search.dist(t), interior)
    };
    Some(
        search
            .settled_order()
            .iter()
            .filter(|&&u| !climbs_on(u))
            .map(climb)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_contraction::{contract_with_order, ContractionConfig};

    /// Line 0-1-2-3-4 with levels [0,0,1,0,2] and rank = by (level, id):
    /// order 0,1,3,2,4.
    fn setup() -> (ah_graph::Graph, Hierarchy, Vec<u8>) {
        let g = ah_data::fixtures::line(5, 10);
        let levels = vec![0u8, 0, 1, 0, 2];
        let mut ids: Vec<NodeId> = (0..5).collect();
        ids.sort_by_key(|&v| (levels[v as usize], v));
        let h = contract_with_order(&g, &ids, ContractionConfig::default());
        (g, h, levels)
    }

    /// The hierarchy arcs along `tail → interior… → head`, summed.
    fn climb_dist(h: &Hierarchy, tail: NodeId, interior: &[NodeId], head: NodeId) -> Dist {
        hops(tail, interior, head).fold(Dist::ZERO, |sum, (a, b)| {
            sum.concat(h.arc_between(a, b).expect("hop is a hierarchy arc").dist)
        })
    }

    #[test]
    fn forward_set_reaches_first_high_node() {
        let (_g, h, levels) = setup();
        let mut search = DijkstraDriver::new();
        // From node 0, climb to level ≥ 1: first such node on the line is 2.
        let set = elevating_set(&mut search, &h, &levels, 0, 1, Direction::Forward, 100).unwrap();
        let tos: Vec<NodeId> = set.iter().map(|&(t, _, _)| t).collect();
        assert!(tos.contains(&2), "targets: {tos:?}");
        for (t, d, interior) in &set {
            // Hop distances telescope to the recorded distance.
            assert_eq!(climb_dist(&h, 0, interior, *t), *d, "climb to target {t}");
        }
    }

    #[test]
    fn set_discarded_when_budget_exceeded() {
        let (_g, h, levels) = setup();
        let mut search = DijkstraDriver::new();
        assert!(elevating_set(&mut search, &h, &levels, 0, 2, Direction::Forward, 1).is_none());
    }

    #[test]
    fn builder_roundtrip() {
        let (_g, h, levels) = setup();
        let mut search = DijkstraDriver::new();
        let set = elevating_set(&mut search, &h, &levels, 0, 1, Direction::Forward, 100).unwrap();
        let mut b = ElevatingBuilder::new(5);
        b.push_set(0, 1, set.clone());
        let side = b.finish();
        side.validate_against(&h, true).unwrap();
        let (lvl, arcs) = side.best_set(0, 0, 3).unwrap();
        assert_eq!(lvl, 1);
        assert_eq!(arcs.len(), set.len());
        for (arc, (t, d, interior)) in arcs.iter().zip(&set) {
            assert_eq!(arc.to, *t);
            assert_eq!(arc.dist, *d);
            assert_eq!(side.chain(arc.chain_range()), interior.as_slice());
        }
        // No set above the node's own level 1 → none for node_level = 1.
        assert!(side.best_set(0, 1, 3).is_none());
        // Cap below the stored level → none.
        assert!(side.best_set(0, 0, 0).is_none());
    }

    #[test]
    fn backward_set_mirrors() {
        let (_g, h, levels) = setup();
        let mut search = DijkstraDriver::new();
        // Backward from node 0: climbs over up_in arcs (paths ending at 0).
        let set = elevating_set(&mut search, &h, &levels, 0, 1, Direction::Backward, 100).unwrap();
        let (t, d, interior) = set
            .iter()
            .find(|&&(t, _, _)| t == 2)
            .expect("node 2 reachable backward");
        // Interior is in forward path order t → … → 0.
        assert_eq!(climb_dist(&h, *t, interior, 0), *d);
    }
}
