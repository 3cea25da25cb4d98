//! One region's part of the overlay, renumbered for the selection searches.

use ah_graph::{Dist, NodeId};
use ah_grid::{Axis, Cell, Region};

use crate::local::{Dir, SearchArc};
use crate::overlay::{Overlay, Span};

/// An arc of a [`RegionGraph`], between local ids.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegionArc {
    to: NodeId,
    dist: Dist,
}

impl SearchArc for RegionArc {
    #[inline]
    fn head(&self) -> NodeId {
        self.to
    }

    #[inline]
    fn dist(&self) -> Dist {
        self.dist
    }
}

/// Arc lists of consecutive local nodes, stored back to back.
#[derive(Debug, Default)]
struct Rows {
    /// `first[v] .. first[v + 1]` indexes `arcs` for local node `v`.
    first: Vec<u32>,
    arcs: Vec<RegionArc>,
}

impl Rows {
    #[inline]
    fn of(&self, v: NodeId) -> &[RegionArc] {
        let v = v as usize;
        &self.arcs[self.first[v] as usize..self.first[v + 1] as usize]
    }
}

/// Where a node lies relative to its region, one bit each: per axis `k`
/// of [`Axis::BOTH`], bit `k` of [`SIDES`] (east / north of the
/// bisector) and bit `k` of [`BESIDE`] (in a column / row adjacent to
/// it); then [`INSIDE`] and [`BORDER`].
pub(crate) type Place = u8;
/// The bisector-side bits.
pub(crate) const SIDES: Place = 0b0011;
/// The beside-the-bisector bits, [`SIDES`] shifted by 2.
pub(crate) const BESIDE: Place = 0b1100;
/// In one of the region's cells.
pub(crate) const INSIDE: Place = 0b1_0000;
/// A border node of the region (Definition 2).
pub(crate) const BORDER: Place = 0b10_0000;

/// The [`Place`] of a node in cell `c` of region `b`.
fn place_of(b: &Region, c: Cell, border: bool) -> Place {
    let mut p = 0;
    if b.contains_cell(c) {
        p |= INSIDE;
    }
    if border {
        p |= BORDER;
    }
    for (k, axis) in Axis::BOTH.into_iter().enumerate() {
        p |= (b.bisector_side(axis, c) as Place) << k;
        p |= (b.adjacent_to_bisector(axis, c) as Place) << (2 + k);
    }
    p
}

/// The part of the overlay a selection search in one region can reach.
///
/// Its nodes are the region's active members and the far ends of their
/// *covered* arcs (active head, span inside the region), numbered in
/// increasing global id. A member keeps exactly its covered out- and
/// in-arcs, in overlay order; an outside node keeps none, because a
/// selection search settles it without going further.
///
/// Every active member is an interior a search may pass through. The
/// paper restricts interiors to previous-level cores; keeping retained
/// border nodes traversable as well finds a superset of the paper's
/// spanning paths (safe for Lemma 3) and lets the shortcut phase
/// decompose paths at retained nodes instead of building all-pairs
/// cliques.
///
/// A search here settles the nodes a search on the overlay settles, in
/// the same order and with the same parents. The overlay search expands a
/// node iff it is an active member, and relaxes an arc iff it is covered
/// and improves its head; dropping an uncovered arc up front changes
/// nothing, since a rejected arc leaves the search as it was. And the
/// renumbering keeps the order of ids, so equal distances still settle
/// in increasing global id.
#[derive(Debug)]
pub(crate) struct RegionGraph {
    /// Global id per local node, increasing.
    pub(crate) global: Vec<NodeId>,
    /// [`Place`] per local node.
    pub(crate) place: Vec<Place>,
    /// The border nodes in increasing local id: the region's search
    /// sources.
    pub(crate) sources: Vec<NodeId>,
    out: Rows,
    inn: Rows,
}

impl RegionGraph {
    /// Builds region `b`'s graph from its active `members`.
    ///
    /// `cell` maps a node to its `R_s` cell and `is_border` tests it for
    /// Definition 2 (false outside `b`). `local` is scratch of one entry
    /// per overlay node, all `NodeId::MAX`; it is left that way.
    pub(crate) fn build(
        ov: &Overlay,
        active: &[bool],
        b: &Region,
        members: &[NodeId],
        cell: impl Fn(NodeId) -> Cell,
        is_border: impl Fn(NodeId) -> bool,
        local: &mut [NodeId],
    ) -> Self {
        let bspan = Span::of_region(*b);
        let inside = |v: NodeId| b.contains_cell(cell(v));
        let covered = |v: NodeId, dir: Dir| {
            ov.arcs(dir, v)
                .iter()
                .filter(|a| active[a.to as usize] && a.span.covered_by(&bspan))
        };

        let mut global = members.to_vec();
        for &v in members {
            for dir in [Dir::Forward, Dir::Backward] {
                global.extend(covered(v, dir).map(|a| a.to).filter(|&w| !inside(w)));
            }
        }
        global.sort_unstable();
        global.dedup();
        for (i, &v) in global.iter().enumerate() {
            local[v as usize] = i as NodeId;
        }

        let place: Vec<Place> = global
            .iter()
            .map(|&v| place_of(b, cell(v), is_border(v)))
            .collect();
        let rows = |dir: Dir| {
            let mut rows = Rows {
                first: Vec::with_capacity(global.len() + 1),
                arcs: Vec::new(),
            };
            rows.first.push(0);
            for (&v, &p) in global.iter().zip(&place) {
                if p & INSIDE != 0 {
                    rows.arcs.extend(covered(v, dir).map(|a| RegionArc {
                        to: local[a.to as usize],
                        dist: a.dist,
                    }));
                }
                rows.first.push(rows.arcs.len() as u32);
            }
            rows
        };
        let (out, inn) = (rows(Dir::Forward), rows(Dir::Backward));
        for &v in &global {
            local[v as usize] = NodeId::MAX;
        }
        let sources = (0..global.len() as NodeId)
            .filter(|&v| place[v as usize] & BORDER != 0)
            .collect();
        RegionGraph {
            global,
            place,
            sources,
            out,
            inn,
        }
    }

    /// Number of local nodes.
    #[inline]
    pub(crate) fn num_nodes(&self) -> usize {
        self.global.len()
    }

    /// Arcs leaving (forward) or entering (backward) local node `v`.
    #[inline]
    pub(crate) fn arcs(&self, dir: Dir, v: NodeId) -> &[RegionArc] {
        match dir {
            Dir::Forward => self.out.of(v),
            Dir::Backward => self.inn.of(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_graph::{GraphBuilder, Point};

    /// Path 0 – 1 – … – 7 with node `v` in cell `(v, 0)`: region (0, 0) of
    /// `R_1` holds 0–3, and 4 is the far end of 3's arcs.
    #[test]
    fn keeps_the_covered_arcs_of_active_members_in_overlay_order() {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_node(Point::new(i, 0));
        }
        for i in 0..7u32 {
            b.add_bidirectional_edge(i, i + 1, 1);
        }
        let mut ov = Overlay::from_graph(&b.build());
        let span = |x0, x1| Span {
            x0,
            y0: 0,
            x1,
            y1: 1,
        };
        assert!(ov.add_shortcut(1, 3, Dist::new(2, 0), span(1, 4)));
        // Reaches past the region: not covered.
        assert!(ov.add_shortcut(2, 5, Dist::new(3, 0), span(2, 6)));
        // Into a deactivated node.
        assert!(ov.add_shortcut(0, 6, Dist::new(6, 0), span(0, 4)));
        let mut active = [true; 8];
        active[6] = false;

        let region = Region::new(1, 0, 0);
        let mut local = [NodeId::MAX; 8];
        let rg = RegionGraph::build(
            &ov,
            &active,
            &region,
            &[3, 1, 0, 2],
            |v| Cell { x: v, y: 0 },
            |v| v == 0 || v == 3,
            &mut local,
        );
        assert_eq!(local, [NodeId::MAX; 8]);
        assert_eq!(rg.global, [0, 1, 2, 3, 4]);
        assert_eq!(rg.sources, [0, 3]);
        assert_eq!(rg.place[0] & (INSIDE | BORDER), INSIDE | BORDER);
        assert_eq!(rg.place[1] & (INSIDE | BORDER), INSIDE);
        assert_eq!(rg.place[4] & (INSIDE | BORDER), 0);
        let heads = |dir, v| -> Vec<NodeId> { rg.arcs(dir, v).iter().map(|a| a.to).collect() };
        assert_eq!(heads(Dir::Forward, 0), [1]);
        assert_eq!(heads(Dir::Forward, 1), [0, 2, 3]);
        assert_eq!(heads(Dir::Forward, 2), [1, 3]);
        assert_eq!(heads(Dir::Forward, 3), [2, 4]);
        assert_eq!(heads(Dir::Backward, 3), [2, 4, 1]);
        assert!(heads(Dir::Forward, 4).is_empty() && heads(Dir::Backward, 4).is_empty());
    }
}
