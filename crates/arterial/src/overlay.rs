//! The overlay graph: original edges plus coverage-tagged shortcuts.

use ah_graph::{Dist, Graph, NodeId};
use ah_grid::Region;

use crate::local::{Dir, SearchArc};

/// The rectangle of finest-grid (`R_1`) cells a shortcut's generating
/// region covers, half-open on both axes. Original edges carry
/// [`Span::ALWAYS`], which every region covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub x0: u32,
    pub y0: u32,
    pub x1: u32,
    pub y1: u32,
}

impl Span {
    /// The span of original edges: usable inside any region.
    pub const ALWAYS: Span = Span {
        x0: u32::MAX,
        y0: u32::MAX,
        x1: u32::MAX,
        y1: u32::MAX,
    };

    /// True for the original-edge sentinel.
    #[inline]
    pub fn is_always(&self) -> bool {
        self.x0 == u32::MAX
    }

    /// The `R_1` footprint of a (4×4)-cell region at `region.level`.
    pub fn of_region(region: Region) -> Span {
        let shift = region.level - 1;
        Span {
            x0: region.x << shift,
            y0: region.y << shift,
            x1: (region.x + 4) << shift,
            y1: (region.y + 4) << shift,
        }
    }

    /// True if a shortcut with span `self` may be traversed inside a region
    /// with span `region`: the generating region must be completely covered
    /// (paper's *coverage condition*), original edges always qualify.
    #[inline]
    pub fn covered_by(&self, region: &Span) -> bool {
        self.is_always()
            || (self.x0 >= region.x0
                && self.x1 <= region.x1
                && self.y0 >= region.y0
                && self.y1 <= region.y1)
    }

    /// True if `self` is usable wherever `other` is (for arc domination):
    /// any region covering `other` covers `self`.
    #[inline]
    fn usable_wherever(&self, other: &Span) -> bool {
        if self.is_always() {
            return true;
        }
        if other.is_always() {
            return false;
        }
        self.x0 >= other.x0 && self.x1 <= other.x1 && self.y0 >= other.y0 && self.y1 <= other.y1
    }

    /// The span of a single `R_1` cell.
    pub fn of_cell(x: u32, y: u32) -> Span {
        Span {
            x0: x,
            y0: y,
            x1: x + 1,
            y1: y + 1,
        }
    }

    /// Smallest span containing both operands. [`Span::ALWAYS`] acts as the
    /// neutral element (original edges occupy only their endpoint cells,
    /// which the caller adds separately).
    pub fn union(self, other: Span) -> Span {
        if self.is_always() {
            return other;
        }
        if other.is_always() {
            return self;
        }
        Span {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }
}

/// An overlay arc: endpoint, nuance-tagged length, and coverage span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OArc {
    /// Head for out-arcs, tail for in-arcs.
    pub to: NodeId,
    /// Length of the (possibly contracted) underlying path.
    pub dist: Dist,
    /// Coverage span (see [`Span`]).
    pub span: Span,
}

impl SearchArc for OArc {
    #[inline]
    fn head(&self) -> NodeId {
        self.to
    }

    #[inline]
    fn dist(&self) -> Dist {
        self.dist
    }
}

/// The dynamic overlay graph used during level assignment: the original
/// road network plus per-stage contraction shortcuts.
///
/// The shortcut count is *not* linear in `n`: registry S2 (4 094 nodes,
/// 14 120 edges) accumulates 68 469 shortcuts, and the reduced graphs get
/// denser as they shrink (18 live arcs per live node at stage 5, 84 at
/// stage 6). What keeps arc scans proportional to the live reduced graph
/// is [`Overlay::compact`], run after every stage's reduction.
#[derive(Debug, Clone)]
pub(crate) struct Overlay {
    out: Vec<Vec<OArc>>,
    inn: Vec<Vec<OArc>>,
    shortcuts: usize,
}

impl Overlay {
    /// Initializes the overlay with exactly the original edges.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        for (tail, a) in g.edges() {
            let dist = Dist::new(a.weight as u64, a.nuance as u64);
            out[tail as usize].push(OArc {
                to: a.head,
                dist,
                span: Span::ALWAYS,
            });
            inn[a.head as usize].push(OArc {
                to: tail,
                dist,
                span: Span::ALWAYS,
            });
        }
        Overlay {
            out,
            inn,
            shortcuts: 0,
        }
    }

    /// Number of nodes (same id space as the source graph).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// Total number of arcs currently stored (original + shortcuts).
    pub fn num_arcs(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Number of shortcut arcs added so far.
    pub fn num_shortcuts(&self) -> usize {
        self.shortcuts
    }

    /// Arcs leaving `v`.
    #[inline]
    pub fn out(&self, v: NodeId) -> &[OArc] {
        &self.out[v as usize]
    }

    /// Arcs entering `v` (each [`OArc::to`] is the tail).
    #[inline]
    pub fn inn(&self, v: NodeId) -> &[OArc] {
        &self.inn[v as usize]
    }

    /// Arcs leaving `v` (forward) or entering it (backward).
    #[inline]
    pub fn arcs(&self, dir: Dir, v: NodeId) -> &[OArc] {
        match dir {
            Dir::Forward => self.out(v),
            Dir::Backward => self.inn(v),
        }
    }

    /// Adds the shortcut `u → v` unless an existing arc *dominates* it
    /// (is at most as long and usable in at least as many regions).
    /// Symmetrically removes arcs the new shortcut dominates. Returns true
    /// if the arc was inserted.
    pub fn add_shortcut(&mut self, u: NodeId, v: NodeId, dist: Dist, span: Span) -> bool {
        debug_assert_ne!(u, v, "self-loop shortcut");
        let new = OArc { to: v, dist, span };
        let out_list = &mut self.out[u as usize];
        if out_list
            .iter()
            .any(|a| a.to == v && a.dist <= dist && a.span.usable_wherever(&span))
        {
            return false;
        }
        out_list.retain(|a| {
            !(a.to == v && dist <= a.dist && span.usable_wherever(&a.span))
        });
        out_list.push(new);
        let in_list = &mut self.inn[v as usize];
        in_list.retain(|a| {
            !(a.to == u && dist <= a.dist && span.usable_wherever(&a.span))
        });
        in_list.push(OArc {
            to: u,
            dist,
            span,
        });
        self.shortcuts += 1;
        true
    }

    /// Drops every arc with a deactivated endpoint, keeping the relative
    /// order of the survivors. Searches never expand a deactivated node
    /// nor admit an arc into one, and [`Overlay::add_shortcut`] only
    /// compares arcs between the same two live endpoints, so this changes
    /// no search result — only how many dead arcs each scan steps over.
    pub fn compact(&mut self, active: &[bool]) {
        for lists in [&mut self.out, &mut self.inn] {
            for (arcs, &live) in lists.iter_mut().zip(active) {
                if live {
                    arcs.retain(|a| active[a.to as usize]);
                } else {
                    *arcs = Vec::new();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_graph::{GraphBuilder, Point};

    fn span(x0: u32, y0: u32, x1: u32, y1: u32) -> Span {
        Span { x0, y0, x1, y1 }
    }

    #[test]
    fn region_span_scales_with_level() {
        let r1 = Region::new(1, 3, 5);
        assert_eq!(Span::of_region(r1), span(3, 5, 7, 9));
        let r3 = Region::new(3, 3, 5);
        assert_eq!(Span::of_region(r3), span(12, 20, 28, 36));
    }

    #[test]
    fn coverage_rules() {
        let region = span(0, 0, 8, 8);
        assert!(span(2, 2, 6, 6).covered_by(&region));
        assert!(span(0, 0, 8, 8).covered_by(&region));
        assert!(!span(2, 2, 9, 6).covered_by(&region));
        assert!(Span::ALWAYS.covered_by(&region));
    }

    #[test]
    fn from_graph_mirrors_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0, 0));
        let c = b.add_node(Point::new(1, 0));
        b.add_edge(a, c, 7);
        let ov = Overlay::from_graph(&b.build());
        assert_eq!(ov.num_arcs(), 1);
        assert_eq!(ov.out(a)[0].to, c);
        assert_eq!(ov.out(a)[0].dist.length, 7);
        assert!(ov.out(a)[0].span.is_always());
        assert_eq!(ov.inn(c)[0].to, a);
    }

    #[test]
    fn shortcut_domination_by_original() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0, 0));
        let c = b.add_node(Point::new(1, 0));
        b.add_edge(a, c, 3);
        let mut ov = Overlay::from_graph(&b.build());
        // Longer shortcut with a restricted span: dominated by the original
        // edge (shorter, usable anywhere).
        let added = ov.add_shortcut(a, c, Dist::new(5, 0), span(0, 0, 4, 4));
        assert!(!added);
        assert_eq!(ov.num_arcs(), 1);
    }

    #[test]
    fn shorter_shortcut_replaces_wider_equal_span() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0, 0));
        let c = b.add_node(Point::new(1, 0));
        let g = b.build();
        let mut ov = Overlay::from_graph(&g);
        assert!(ov.add_shortcut(a, c, Dist::new(9, 0), span(0, 0, 4, 4)));
        // Same span, shorter: replaces.
        assert!(ov.add_shortcut(a, c, Dist::new(5, 0), span(0, 0, 4, 4)));
        assert_eq!(ov.out(a).len(), 1);
        assert_eq!(ov.out(a)[0].dist.length, 5);
        assert_eq!(ov.inn(c).len(), 1);
        assert_eq!(ov.inn(c)[0].dist.length, 5);
    }

    #[test]
    fn incomparable_spans_coexist() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0, 0));
        let c = b.add_node(Point::new(1, 0));
        let g = b.build();
        let mut ov = Overlay::from_graph(&g);
        // Shorter arc but with a span that is NOT contained in the longer
        // arc's span: both must survive (the longer one may be usable in a
        // region where the shorter is not).
        assert!(ov.add_shortcut(a, c, Dist::new(5, 0), span(4, 0, 8, 4)));
        assert!(ov.add_shortcut(a, c, Dist::new(7, 0), span(0, 0, 4, 4)));
        assert_eq!(ov.out(a).len(), 2);
    }

    #[test]
    fn compact_drops_arcs_of_deactivated_nodes_in_order() {
        // 0 ↔ 1 ↔ 2 ↔ 3 plus shortcuts 0 → 2 and 0 → 3; node 1 is dropped.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, 0));
        }
        for i in 0..3u32 {
            b.add_bidirectional_edge(i, i + 1, 1);
        }
        let mut ov = Overlay::from_graph(&b.build());
        assert!(ov.add_shortcut(0, 2, Dist::new(2, 0), span(0, 0, 4, 4)));
        assert!(ov.add_shortcut(0, 3, Dist::new(3, 0), span(0, 0, 4, 4)));
        let heads = |arcs: &[OArc]| arcs.iter().map(|a| a.to).collect::<Vec<_>>();
        assert_eq!(heads(ov.out(0)), vec![1, 2, 3]);

        ov.compact(&[true, false, true, true]);
        assert_eq!(heads(ov.out(0)), vec![2, 3], "survivors keep their order");
        assert!(ov.out(1).is_empty() && ov.inn(1).is_empty());
        assert_eq!(heads(ov.out(2)), vec![3]);
        assert_eq!(heads(ov.inn(2)), vec![3, 0]);
        assert_eq!(heads(ov.inn(3)), vec![2, 0]);
        assert_eq!(ov.num_arcs(), 4);
        // The shortcut counter is a construction-cost metric, not a size.
        assert_eq!(ov.num_shortcuts(), 2);
    }

    #[test]
    fn smaller_span_preferred_on_equal_length() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0, 0));
        let c = b.add_node(Point::new(1, 0));
        let g = b.build();
        let mut ov = Overlay::from_graph(&g);
        assert!(ov.add_shortcut(a, c, Dist::new(5, 0), span(0, 0, 8, 8)));
        // Equal length, smaller span: usable in strictly more regions.
        assert!(ov.add_shortcut(a, c, Dist::new(5, 0), span(2, 2, 6, 6)));
        assert_eq!(ov.out(a).len(), 1);
        assert_eq!(ov.out(a)[0].span, span(2, 2, 6, 6));
    }
}
