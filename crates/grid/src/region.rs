//! Sliding (4×4)-cell regions, their strips and bisectors (Definition 1,
//! Definition 2 geometry).

use crate::hierarchy::Cell;

/// One of the four outermost strips of a (4×4)-cell region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StripSide {
    West,
    East,
    South,
    North,
}

impl StripSide {
    /// The four sides in a fixed order.
    pub const ALL: [StripSide; 4] = [
        StripSide::West,
        StripSide::East,
        StripSide::South,
        StripSide::North,
    ];

    /// The strip on the opposite side of the region.
    pub fn opposite(self) -> StripSide {
        match self {
            StripSide::West => StripSide::East,
            StripSide::East => StripSide::West,
            StripSide::South => StripSide::North,
            StripSide::North => StripSide::South,
        }
    }

    /// The bisector separating this strip from its opposite.
    pub fn axis(self) -> Axis {
        match self {
            StripSide::West | StripSide::East => Axis::Vertical,
            StripSide::South | StripSide::North => Axis::Horizontal,
        }
    }
}

/// A bisector orientation: the *vertical* bisector separates west from east,
/// the *horizontal* one separates south from north.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    Vertical,
    Horizontal,
}

impl Axis {
    /// Both orientations.
    pub const BOTH: [Axis; 2] = [Axis::Vertical, Axis::Horizontal];
}

/// A (4×4)-cell region of grid `R_level`, identified by its south-west cell
/// `(x, y)`; it covers cell columns `x..x+4` and rows `y..y+4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region {
    pub level: u32,
    pub x: u32,
    pub y: u32,
}

impl Region {
    /// Creates the region of `R_level` whose south-west cell is `(x, y)`.
    pub fn new(level: u32, x: u32, y: u32) -> Self {
        Region { level, x, y }
    }

    /// True if the cell lies inside the region.
    pub fn contains_cell(&self, c: Cell) -> bool {
        (self.x..self.x + 4).contains(&c.x) && (self.y..self.y + 4).contains(&c.y)
    }

    /// True if the cell is within Chebyshev distance `ring` of the region
    /// (`ring = 0` is containment).
    pub fn contains_cell_with_ring(&self, c: Cell, ring: u32) -> bool {
        let lo_x = self.x.saturating_sub(ring);
        let lo_y = self.y.saturating_sub(ring);
        (lo_x..self.x + 4 + ring).contains(&c.x) && (lo_y..self.y + 4 + ring).contains(&c.y)
    }

    /// True if the cell belongs to the 2×2 centre of the region
    /// (Definition 2 excludes these from being border nodes).
    pub fn in_center_2x2(&self, c: Cell) -> bool {
        (self.x + 1..=self.x + 2).contains(&c.x) && (self.y + 1..=self.y + 2).contains(&c.y)
    }

    /// True if the cell lies in the given strip of this region.
    pub fn in_strip(&self, c: Cell, side: StripSide) -> bool {
        if !self.contains_cell(c) {
            return false;
        }
        match side {
            StripSide::West => c.x == self.x,
            StripSide::East => c.x == self.x + 3,
            StripSide::South => c.y == self.y,
            StripSide::North => c.y == self.y + 3,
        }
    }

    /// Side of the region's bisector a cell falls on. `false` = west/south,
    /// `true` = east/north. Well-defined for cells outside the region too
    /// (the bisector is an infinite line).
    pub fn bisector_side(&self, axis: Axis, c: Cell) -> bool {
        match axis {
            Axis::Vertical => c.x >= self.x + 2,
            Axis::Horizontal => c.y >= self.y + 2,
        }
    }

    /// True if the cell is in one of the two cell columns/rows adjacent to
    /// the bisector (Definition 1 excludes such endpoints from spanning
    /// paths).
    pub fn adjacent_to_bisector(&self, axis: Axis, c: Cell) -> bool {
        match axis {
            Axis::Vertical => c.x == self.x + 1 || c.x == self.x + 2,
            Axis::Horizontal => c.y == self.y + 1 || c.y == self.y + 2,
        }
    }

    /// True if an edge between cells `a` and `b` crosses the bisector
    /// (its endpoints lie on different sides).
    pub fn edge_crosses_bisector(&self, axis: Axis, a: Cell, b: Cell) -> bool {
        self.bisector_side(axis, a) != self.bisector_side(axis, b)
    }

    /// True if a pair of endpoint cells qualifies as spanning-path endpoints
    /// for the given bisector: different sides, neither adjacent to the
    /// bisector (Definition 1 conditions (i) and (ii)).
    pub fn valid_spanning_endpoints(&self, axis: Axis, a: Cell, b: Cell) -> bool {
        self.bisector_side(axis, a) != self.bisector_side(axis, b)
            && !self.adjacent_to_bisector(axis, a)
            && !self.adjacent_to_bisector(axis, b)
    }

    /// True if the edge between cells `a` and `b` crosses the boundary of
    /// one of the four strips of this region (the Definition 2 trigger for
    /// border nodes). Cell-based approximation: an edge crosses a strip
    /// boundary iff exactly one endpoint's cell lies inside that strip.
    pub fn edge_crosses_strip_boundary(&self, a: Cell, b: Cell) -> bool {
        if a == b {
            return false;
        }
        StripSide::ALL
            .iter()
            .any(|&s| self.in_strip(a, s) != self.in_strip(b, s))
    }

    /// Border-node test for the endpoint `c` of an edge `(c, other)`
    /// (Definition 2): the edge must cross a strip boundary, `c` must not be
    /// in the centre 2×2, and — a mild localization we add — `c` must lie
    /// within one cell ring of the region, so that "border nodes of `B`"
    /// stays a local notion even for long edges.
    pub fn is_border_endpoint(&self, c: Cell, other: Cell) -> bool {
        self.edge_crosses_strip_boundary(c, other)
            && !self.in_center_2x2(c)
            && self.contains_cell_with_ring(c, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region::new(1, 10, 20)
    }

    fn cell(x: u32, y: u32) -> Cell {
        Cell { x, y }
    }

    #[test]
    fn containment() {
        let r = region();
        assert!(r.contains_cell(cell(10, 20)));
        assert!(r.contains_cell(cell(13, 23)));
        assert!(!r.contains_cell(cell(14, 20)));
        assert!(!r.contains_cell(cell(9, 21)));
    }

    #[test]
    fn ring_containment() {
        let r = region();
        assert!(r.contains_cell_with_ring(cell(9, 19), 1));
        assert!(r.contains_cell_with_ring(cell(14, 24), 1));
        assert!(!r.contains_cell_with_ring(cell(8, 20), 1));
        assert!(r.contains_cell_with_ring(cell(10, 20), 0));
    }

    #[test]
    fn center_cells() {
        let r = region();
        for x in 10..14 {
            for y in 20..24 {
                let expected = (11..=12).contains(&x) && (21..=22).contains(&y);
                assert_eq!(r.in_center_2x2(cell(x, y)), expected, "({x},{y})");
            }
        }
    }

    #[test]
    fn strips() {
        let r = region();
        assert!(r.in_strip(cell(10, 22), StripSide::West));
        assert!(r.in_strip(cell(13, 22), StripSide::East));
        assert!(r.in_strip(cell(12, 20), StripSide::South));
        assert!(r.in_strip(cell(12, 23), StripSide::North));
        // Corner cell belongs to two strips.
        assert!(r.in_strip(cell(10, 20), StripSide::West));
        assert!(r.in_strip(cell(10, 20), StripSide::South));
        // Outside the region, never in a strip.
        assert!(!r.in_strip(cell(9, 20), StripSide::West));
    }

    #[test]
    fn strip_side_helpers() {
        assert_eq!(StripSide::West.opposite(), StripSide::East);
        assert_eq!(StripSide::North.opposite(), StripSide::South);
        assert_eq!(StripSide::West.axis(), Axis::Vertical);
        assert_eq!(StripSide::South.axis(), Axis::Horizontal);
    }

    #[test]
    fn bisector_sides() {
        let r = region();
        assert!(!r.bisector_side(Axis::Vertical, cell(11, 22)));
        assert!(r.bisector_side(Axis::Vertical, cell(12, 22)));
        assert!(!r.bisector_side(Axis::Horizontal, cell(11, 21)));
        assert!(r.bisector_side(Axis::Horizontal, cell(11, 22)));
        // Works outside the region too.
        assert!(!r.bisector_side(Axis::Vertical, cell(2, 22)));
        assert!(r.bisector_side(Axis::Vertical, cell(40, 22)));
    }

    #[test]
    fn bisector_adjacency() {
        let r = region();
        assert!(r.adjacent_to_bisector(Axis::Vertical, cell(11, 20)));
        assert!(r.adjacent_to_bisector(Axis::Vertical, cell(12, 20)));
        assert!(!r.adjacent_to_bisector(Axis::Vertical, cell(10, 20)));
        assert!(!r.adjacent_to_bisector(Axis::Vertical, cell(13, 20)));
    }

    #[test]
    fn crossing_and_spanning() {
        let r = region();
        assert!(r.edge_crosses_bisector(Axis::Vertical, cell(11, 21), cell(12, 21)));
        assert!(!r.edge_crosses_bisector(Axis::Vertical, cell(10, 21), cell(11, 21)));
        // West strip ↔ east strip endpoints: valid.
        assert!(r.valid_spanning_endpoints(Axis::Vertical, cell(10, 21), cell(13, 22)));
        // Endpoint adjacent to the bisector: invalid.
        assert!(!r.valid_spanning_endpoints(Axis::Vertical, cell(11, 21), cell(13, 22)));
        // Same side: invalid.
        assert!(!r.valid_spanning_endpoints(Axis::Vertical, cell(10, 21), cell(10, 23)));
        // Endpoints beyond the region still qualify (AH's type-(b) paths).
        assert!(r.valid_spanning_endpoints(Axis::Vertical, cell(9, 21), cell(14, 22)));
    }

    #[test]
    fn strip_boundary_crossings() {
        let r = region();
        // West-strip cell to interior cell: crosses the west strip's inner
        // boundary.
        assert!(r.edge_crosses_strip_boundary(cell(10, 21), cell(11, 21)));
        // Inside the centre only: crosses nothing.
        assert!(!r.edge_crosses_strip_boundary(cell(11, 21), cell(12, 21)));
        // Leaving the region from the west strip.
        assert!(r.edge_crosses_strip_boundary(cell(10, 21), cell(9, 21)));
        // Same cell: nothing.
        assert!(!r.edge_crosses_strip_boundary(cell(10, 21), cell(10, 21)));
    }

    #[test]
    fn border_endpoint_rules() {
        let r = region();
        // West strip node with an edge into the interior: border node.
        assert!(r.is_border_endpoint(cell(10, 21), cell(11, 21)));
        // Its interior partner is in the centre 2×2 → not a border node.
        assert!(!r.is_border_endpoint(cell(11, 21), cell(10, 21)));
        // Node one ring outside with an edge into the west strip: border.
        assert!(r.is_border_endpoint(cell(9, 21), cell(10, 21)));
        // Node far outside: not border (locality rule).
        assert!(!r.is_border_endpoint(cell(5, 21), cell(10, 21)));
        // North strip corner via vertical crossing.
        assert!(r.is_border_endpoint(cell(13, 23), cell(13, 22)));
    }
}
