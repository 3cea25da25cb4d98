//! One 32-byte record per node for every search.
//!
//! The plain-graph searches ([`crate::DijkstraDriver`],
//! [`crate::BidirectionalDijkstra`]), the upward searches of CH, FC and AH,
//! and AH's elevating-set search keep four facts per node: tentative
//! distance, parent, the arc it was reached over, and whether it is
//! settled. Kept in one record, relaxing an arc touches one cache line
//! instead of one per fact. The record's stamp tells the current search
//! from earlier ones, so a reset is O(1) however many searches run (the
//! preprocessing runs millions of tiny ones), and its low bit says whether
//! the node is settled. Plain-graph searches record every arc as an
//! original edge.

use ah_graph::{Dist, NodeId, INFINITY, INVALID_NODE};

/// Marks a [`ParentArc`] as a hierarchy arc. No elevating chain can be
/// this long: its range must fit inside a loaded chain buffer.
const HIERARCHY_ARC: u32 = u32::MAX;

/// The arc a search reached a node over, in 8 bytes: a hierarchy arc by
/// its middle node, or an AH elevating arc by its range in the chain
/// buffer. Together with the parent (the arc's other end) this is all
/// that path unpacking needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParentArc {
    first: u32,
    len: u32,
}

impl ParentArc {
    /// A hierarchy arc; `middle` is [`INVALID_NODE`] for an original edge.
    #[inline]
    pub const fn hierarchy(middle: NodeId) -> Self {
        ParentArc {
            first: middle,
            len: HIERARCHY_ARC,
        }
    }

    /// An elevating arc whose hierarchy-arc chain occupies
    /// `chain_start..chain_start + chain_len`.
    #[inline]
    pub fn elevating(chain_start: u32, chain_len: u32) -> Self {
        debug_assert_ne!(chain_len, HIERARCHY_ARC);
        ParentArc {
            first: chain_start,
            len: chain_len,
        }
    }

    /// The middle node of a hierarchy arc (not meaningful for an
    /// elevating arc: check [`chain`](Self::chain) first where both occur).
    #[inline]
    pub fn middle(self) -> NodeId {
        debug_assert_eq!(self.len, HIERARCHY_ARC, "middle of an elevating arc");
        self.first
    }

    /// The `(chain_start, chain_len)` range, if this is an elevating arc.
    #[inline]
    pub fn chain(self) -> Option<(u32, u32)> {
        (self.len != HIERARCHY_ARC).then_some((self.first, self.len))
    }
}

/// What one search side knows about one node.
#[derive(Debug, Clone, Copy)]
struct Slot {
    dist: Dist,
    parent: NodeId,
    /// `generation` if reached in the current search, `generation | 1` if
    /// also settled; anything else reads as unreached.
    stamp: u32,
    arc: ParentArc,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

const UNREACHED: Slot = Slot {
    dist: INFINITY,
    parent: INVALID_NODE,
    stamp: 0,
    arc: ParentArc::hierarchy(INVALID_NODE),
};

/// Per-node state of one search side, reset in O(1) between searches.
#[derive(Debug, Clone, Default)]
pub struct SearchSlots {
    slots: Vec<Slot>,
    /// Even and, after the first [`reset`](Self::reset), never 0.
    generation: u32,
}

impl SearchSlots {
    /// Creates an empty record array; [`reset`](Self::reset) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new search over `n` nodes: every slot reads as unreached.
    pub fn reset(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, UNREACHED);
        }
        self.generation = self.generation.wrapping_add(2);
        if self.generation == 0 {
            // The counter wrapped: clear once every 2^31 searches so a
            // stamp from the last cycle can never alias a current one.
            self.slots.fill(UNREACHED);
            self.generation = 2;
        }
    }

    /// Makes `v` the search origin, at distance zero with no parent.
    #[inline]
    pub fn set_origin(&mut self, v: NodeId) {
        self.slots[v as usize] = Slot {
            dist: Dist::ZERO,
            stamp: self.generation,
            ..UNREACHED
        };
    }

    /// Tentative (or, once settled, final) distance of `v`; [`INFINITY`]
    /// if the current search has not reached it.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        let s = &self.slots[v as usize];
        if s.stamp & !1 == self.generation {
            s.dist
        } else {
            INFINITY
        }
    }

    /// True if the current search has settled `v`.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.slots[v as usize].stamp == self.generation | 1
    }

    /// Settles `v`, which must have been reached. Returns false if it was
    /// settled already (a stale heap entry).
    #[inline]
    pub fn settle(&mut self, v: NodeId) -> bool {
        let settled = self.generation | 1;
        let s = &mut self.slots[v as usize];
        debug_assert_eq!(s.stamp & !1, self.generation, "settling unreached {v}");
        let fresh = s.stamp != settled;
        s.stamp = settled;
        fresh
    }

    /// True if `nd` would improve on what the current search holds for
    /// `v`: `v` is not settled and `nd` beats its tentative distance.
    #[inline]
    pub fn improves(&self, v: NodeId, nd: Dist) -> bool {
        let s = &self.slots[v as usize];
        if s.stamp & !1 == self.generation {
            s.stamp & 1 == 0 && nd < s.dist
        } else {
            true
        }
    }

    /// Records `v` as reached at `dist` from `parent` over `arc`.
    #[inline]
    pub fn update(&mut self, v: NodeId, dist: Dist, parent: NodeId, arc: ParentArc) {
        self.slots[v as usize] = Slot {
            dist,
            parent,
            stamp: self.generation,
            arc,
        };
    }

    /// The node `v` was reached from and the arc between them, or `None`
    /// for the origin and unreached nodes.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, ParentArc)> {
        let s = &self.slots[v as usize];
        (s.stamp & !1 == self.generation && s.parent != INVALID_NODE).then_some((s.parent, s.arc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reached_settled_and_parents() {
        let mut s = SearchSlots::new();
        s.reset(3);
        assert_eq!(s.dist(0), INFINITY);
        assert!(s.improves(0, Dist::new(5, 0)));
        s.set_origin(0);
        assert_eq!(s.dist(0), Dist::ZERO);
        assert_eq!(s.parent(0), None);
        let arc = ParentArc::elevating(7, 2);
        s.update(1, Dist::new(4, 1), 0, arc);
        assert!(s.improves(1, Dist::new(4, 0)));
        assert!(!s.improves(1, Dist::new(4, 1)));
        assert_eq!(s.parent(1), Some((0, arc)));
        assert!(!s.is_settled(1));
        assert!(s.settle(1));
        assert!(s.is_settled(1));
        assert!(!s.settle(1), "second settle is a stale entry");
        assert!(!s.improves(1, Dist::ZERO), "settled nodes never improve");
        assert_eq!(s.dist(1), Dist::new(4, 1));
    }

    #[test]
    fn parent_arc_kinds() {
        let h = ParentArc::hierarchy(9);
        assert_eq!((h.middle(), h.chain()), (9, None));
        let orig = ParentArc::hierarchy(INVALID_NODE);
        assert_eq!((orig.middle(), orig.chain()), (INVALID_NODE, None));
        let e = ParentArc::elevating(3, 4);
        assert_eq!(e.chain(), Some((3, 4)));
    }

    #[test]
    fn reset_is_logical_and_grows() {
        let mut s = SearchSlots::new();
        s.reset(1);
        s.set_origin(0);
        assert!(s.settle(0));
        s.reset(4);
        for v in 0..4 {
            assert_eq!(s.dist(v), INFINITY);
            assert!(!s.is_settled(v));
            assert!(s.improves(v, Dist::ZERO), "not settled");
            assert_eq!(s.parent(v), None);
        }
    }

    #[test]
    fn generation_wrap_leaves_no_stale_slot() {
        let mut s = SearchSlots::new();
        s.reset(4);
        // Written in the first generation (2): after the counter wraps it
        // returns to 2, where these stamps would read as current again.
        s.set_origin(0);
        assert!(s.settle(0));
        s.update(1, Dist::new(3, 0), 0, ParentArc::hierarchy(INVALID_NODE));
        // Start just below the wrap so the loop crosses it.
        s.generation = u32::MAX - 1 - 2 * 8;
        for round in 0..20u64 {
            s.reset(4);
            for v in 0..4 {
                assert_eq!(s.dist(v), INFINITY, "round {round}, slot {v}");
                assert!(s.improves(v, Dist::ZERO), "round {round}, slot {v}");
                assert_eq!(s.parent(v), None, "round {round}, slot {v}");
            }
            s.set_origin(2);
            assert!(s.settle(2));
            let arc = ParentArc::hierarchy(round as u32);
            s.update(3, Dist::new(round, 0), 2, arc);
            assert_eq!(s.dist(3), Dist::new(round, 0));
            assert_eq!(s.parent(3), Some((2, arc)));
        }
        assert!(s.generation < 64, "the loop crossed the wrap");
    }
}
