//! The leveled grid geometry.

use ah_graph::{BoundingBox, Point};

use crate::region::Region;

/// A cell coordinate inside some grid `R_i`: column `x`, row `y`, both
/// counted from the grid's south-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    pub x: u32,
    pub y: u32,
}

impl Cell {
    /// Chebyshev (L∞) distance between two cells, in cells.
    pub fn chebyshev(&self, other: &Cell) -> u32 {
        let dx = self.x.abs_diff(other.x);
        let dy = self.y.abs_diff(other.y);
        dx.max(dy)
    }

    /// The cell `k` levels coarser that contains this one: `R_(i+k)`'s
    /// cell over this `R_i` cell. Exact because every `R_(i+1)` cell is
    /// 2×2 `R_i` cells on a shared origin, and the clamp to the grid edge
    /// commutes with the shift (see [`GridHierarchy::cell_of`]).
    #[inline]
    pub fn coarsened(self, k: u32) -> Cell {
        Cell {
            x: self.x >> k,
            y: self.y >> k,
        }
    }

    /// True if some (3×3)-cell region covers both cells of one grid, i.e.
    /// they are within Chebyshev distance 2.
    #[inline]
    pub fn shares_3x3_region(&self, other: &Cell) -> bool {
        self.chebyshev(other) <= 2
    }
}

/// The grid hierarchy `R_1 … R_h` over a bounding box.
///
/// All grids share the same origin (the box's min corner). `R_i`'s cell side
/// is `s1 · 2^(i-1)` where `s1` is the side of the finest cells, so every
/// `R_(i+1)` cell is exactly the union of 2×2 `R_i` cells, as the paper's
/// recursive-split construction requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridHierarchy {
    origin: Point,
    /// Number of grids (the paper's `h`). At least 1.
    h: u32,
    /// Cell side of the finest grid `R_1`.
    s1: u64,
}

/// Upper bound on `h`; the paper observes `h ≤ 26` even for planet-scale
/// networks at metre resolution.
pub const MAX_LEVELS: u32 = 26;

impl GridHierarchy {
    /// Fits a hierarchy to a bounding box. `max_levels` caps `h` (26 is
    /// the paper's planetary bound).
    ///
    /// `h` is chosen as the smallest value for which the finest cells have
    /// side 1 — since coordinates are integral, side-1 cells contain at most
    /// one node per distinct coordinate, matching the paper's stopping rule.
    ///
    /// # Panics
    /// Panics on an empty bounding box.
    pub fn fit(bb: BoundingBox, max_levels: u32) -> Self {
        assert!(!bb.is_empty(), "cannot fit a grid to an empty bounding box");
        let max_levels = max_levels.clamp(1, MAX_LEVELS);
        // Side of the covered square; +1 because coordinates are inclusive
        // (a box from 0 to 7 spans 8 coordinate units).
        let side = bb.square_side() + 1;
        // Smallest h with 2^(h+1) >= side, so that s1 == 1.
        let mut h = 1u32;
        while h < max_levels && (1u64 << (h + 1)) < side {
            h += 1;
        }
        let cells = 1u64 << (h + 1);
        let s1 = side.div_ceil(cells).max(1);
        GridHierarchy {
            origin: Point::new(bb.min_x, bb.min_y),
            h,
            s1,
        }
    }

    /// Fits a hierarchy to a point set following the paper's stopping rule:
    /// split until every finest cell contains at most one point (or the
    /// cells reach side 1 / the level cap). This keeps `h` minimal, so fine
    /// grid levels are never wasted on resolutions below the node spacing.
    ///
    /// # Panics
    /// Panics on an empty point set.
    pub fn fit_to_points(points: &[Point], max_levels: u32) -> Self {
        let bb = BoundingBox::of(points.iter().copied());
        assert!(!bb.is_empty(), "cannot fit a grid to an empty point set");
        let max_levels = max_levels.clamp(1, MAX_LEVELS);
        let side = bb.square_side() + 1;
        let origin = Point::new(bb.min_x, bb.min_y);
        for h in 1..=max_levels {
            let cells = 1u64 << (h + 1);
            let s1 = side.div_ceil(cells).max(1);
            if s1 == 1 || Self::occupancy_at_most_one(points, origin, s1) {
                return GridHierarchy { origin, h, s1 };
            }
        }
        let s1 = side.div_ceil(1u64 << (max_levels + 1)).max(1);
        GridHierarchy {
            origin,
            h: max_levels,
            s1,
        }
    }

    fn occupancy_at_most_one(points: &[Point], origin: Point, s1: u64) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(points.len());
        for p in points {
            let cx = (p.x as i64 - origin.x as i64) as u64 / s1;
            let cy = (p.y as i64 - origin.y as i64) as u64 / s1;
            if !seen.insert((cx, cy)) {
                return false;
            }
        }
        true
    }

    /// The number of grids `h`; grid levels run `1..=h`.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.h
    }

    /// Origin (south-west corner) shared by all grids.
    #[inline]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Cell side length of grid `R_i`.
    ///
    /// # Panics
    /// Panics if `i` is outside `1..=h`.
    #[inline]
    pub fn cell_side(&self, i: u32) -> u64 {
        self.check_level(i);
        self.s1 << (i - 1)
    }

    /// Number of cells per axis of `R_i`: `2^(h+2-i)`.
    #[inline]
    pub fn cells_per_axis(&self, i: u32) -> u32 {
        self.check_level(i);
        1u32 << (self.h + 2 - i)
    }

    /// The cell of `R_i` containing point `p`. Points outside the fitted
    /// box are clamped to the boundary cells so that queries about slightly
    /// stale coordinates stay well-defined.
    ///
    /// Equals `cell_of(1, p).coarsened(i - 1)`: floor division by
    /// `s1 · 2^(i-1)` is floor division by `s1` and then by `2^(i-1)`, a
    /// negative offset clamps to 0 at every level, and the last `R_1`
    /// cell index `2^(h+1) - 1` shifts to the last `R_i` index.
    pub fn cell_of(&self, i: u32, p: Point) -> Cell {
        let side = self.cell_side(i) as i64;
        let per_axis = self.cells_per_axis(i) as i64;
        let cx = ((p.x as i64 - self.origin.x as i64) / side).clamp(0, per_axis - 1);
        let cy = ((p.y as i64 - self.origin.y as i64) / side).clamp(0, per_axis - 1);
        Cell {
            x: cx as u32,
            y: cy as u32,
        }
    }

    /// True if some (3×3)-cell region of `R_i` covers both points — i.e.
    /// their cells are within Chebyshev distance 2 (the paper's proximity
    /// predicate; the union of all 3×3 regions covering `p` is the 5×5
    /// window centred on `p`'s cell).
    pub fn same_3x3_region(&self, i: u32, p: Point, q: Point) -> bool {
        self.cell_of(i, p).shares_3x3_region(&self.cell_of(i, q))
    }

    /// The coarsest grid level `j` such that *no* (3×3)-cell region of
    /// `R_j` covers both points, or `None` if even `R_h`'s regions cover
    /// them. Lemma 3 guarantees the shortest `p`→`q` path then climbs to
    /// hierarchy level `j` or above.
    pub fn separation_level(&self, p: Point, q: Point) -> Option<u32> {
        // Monotone in i: if a 3×3 region of R_i covers both, so does one of
        // R_(i+1) (cells only get coarser). Scan from the top.
        if self.same_3x3_region(self.h, p, q) {
            // Find the finest level where they are still covered, then the
            // next-finer one is the separation level (if any).
            let mut i = self.h;
            while i > 1 && self.same_3x3_region(i - 1, p, q) {
                i -= 1;
            }
            if i == 1 {
                None
            } else {
                Some(i - 1)
            }
        } else {
            Some(self.h)
        }
    }

    /// [`separation_level`](Self::separation_level) of two points given
    /// their `R_1` cells `a` and `b`, with shifts instead of divisions:
    /// the largest level whose 3×3 regions cannot cover both.
    pub fn separation_level_of_cells(&self, a: Cell, b: Cell) -> Option<u32> {
        (1..=self.h)
            .rev()
            .find(|&i| !a.coarsened(i - 1).shares_3x3_region(&b.coarsened(i - 1)))
    }

    /// All (4×4)-cell regions of `R_i` (sliding window, stride one cell)
    /// that contain the given cell. At most 16; fewer near the grid edge.
    pub fn regions_containing_cell(&self, i: u32, c: Cell) -> Vec<Region> {
        let per_axis = self.cells_per_axis(i);
        debug_assert!(per_axis >= 4);
        let lo_x = c.x.saturating_sub(3);
        let hi_x = c.x.min(per_axis - 4);
        let lo_y = c.y.saturating_sub(3);
        let hi_y = c.y.min(per_axis - 4);
        let mut out = Vec::with_capacity(16);
        for rx in lo_x..=hi_x {
            for ry in lo_y..=hi_y {
                out.push(Region::new(i, rx, ry));
            }
        }
        out
    }

    /// The three scalars that fully determine the hierarchy:
    /// `(origin, h, s1)`. Serialization hook for `ah_store`;
    /// [`GridHierarchy::from_raw_parts`] is the validated inverse.
    pub fn raw_parts(&self) -> (Point, u32, u64) {
        (self.origin, self.h, self.s1)
    }

    /// Rebuilds a hierarchy from its raw scalars (snapshot loading),
    /// rejecting level counts outside `1..=`[`MAX_LEVELS`] and a zero cell
    /// side.
    pub fn from_raw_parts(origin: Point, h: u32, s1: u64) -> Result<Self, &'static str> {
        if h == 0 || h > MAX_LEVELS {
            return Err("grid level count outside 1..=MAX_LEVELS");
        }
        if s1 == 0 {
            return Err("finest cell side must be positive");
        }
        Ok(GridHierarchy { origin, h, s1 })
    }

    fn check_level(&self, i: u32) {
        assert!(
            (1..=self.h).contains(&i),
            "grid level {i} outside 1..={}",
            self.h
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(side: i32) -> BoundingBox {
        BoundingBox::of([Point::new(0, 0), Point::new(side, side)])
    }

    #[test]
    fn fit_chooses_minimal_h() {
        // side = 8 coordinate units → 2^(h+1) >= 8 → h = 2.
        let g = GridHierarchy::fit(square(7), MAX_LEVELS);
        assert_eq!(g.levels(), 2);
        assert_eq!(g.cell_side(1), 1);
        assert_eq!(g.cell_side(2), 2);
        assert_eq!(g.cells_per_axis(2), 4); // R_h is always 4×4
        assert_eq!(g.cells_per_axis(1), 8);
    }

    #[test]
    fn fit_to_points_stops_at_single_occupancy() {
        // 8×8 lattice with spacing 100: cells of side ~100 already hold at
        // most one node, so h stays small instead of racing to side-1 cells.
        let pts: Vec<Point> = (0..8)
            .flat_map(|y| (0..8).map(move |x| Point::new(x * 100, y * 100)))
            .collect();
        let g = GridHierarchy::fit_to_points(&pts, MAX_LEVELS);
        // side = 701; h = 2 gives 8 cells per axis of side ceil(701/8) = 88:
        // occupancy 1 per cell.
        assert_eq!(g.levels(), 2);
        let mut seen = std::collections::HashSet::new();
        for p in &pts {
            assert!(seen.insert(g.cell_of(1, *p)), "two nodes share a cell");
        }
    }

    #[test]
    fn fit_to_points_with_coincident_points_caps_at_side_one() {
        let pts = vec![Point::new(0, 0), Point::new(0, 0), Point::new(500, 500)];
        let g = GridHierarchy::fit_to_points(&pts, MAX_LEVELS);
        assert_eq!(g.cell_side(1), 1);
    }

    #[test]
    fn fit_to_points_respects_cap() {
        let pts = vec![Point::new(0, 0), Point::new(1, 0), Point::new(1 << 20, 1 << 20)];
        let g = GridHierarchy::fit_to_points(&pts, 4);
        assert_eq!(g.levels(), 4);
    }

    #[test]
    fn fit_respects_cap() {
        let g = GridHierarchy::fit(square(1 << 20), 5);
        assert_eq!(g.levels(), 5);
        assert_eq!(g.cells_per_axis(5), 4);
        // s1 must make the finest grid still cover the whole box.
        let covered = g.cell_side(1) * g.cells_per_axis(1) as u64;
        assert!(covered >= (1 << 20) + 1);
    }

    #[test]
    fn nesting_is_exact() {
        let g = GridHierarchy::fit(square(255), MAX_LEVELS);
        for i in 1..g.levels() {
            assert_eq!(g.cell_side(i + 1), 2 * g.cell_side(i));
            assert_eq!(g.cells_per_axis(i), 2 * g.cells_per_axis(i + 1));
        }
        // A point's coarse cell is its fine cell halved.
        let p = Point::new(137, 42);
        for i in 1..g.levels() {
            let fine = g.cell_of(i, p);
            let coarse = g.cell_of(i + 1, p);
            assert_eq!(coarse.x, fine.x / 2);
            assert_eq!(coarse.y, fine.y / 2);
        }
    }

    /// Grids of several shapes: power-of-two and odd sides, a level cap
    /// that leaves `s1 > 1`, a non-square box off the origin.
    fn fitted_grids() -> Vec<(GridHierarchy, BoundingBox)> {
        let boxes = [
            square(15),
            square(255),
            square(1 << 20),
            BoundingBox::of([Point::new(-1_000, 300), Point::new(4_321, 1_234)]),
        ];
        let mut out = Vec::new();
        for bb in boxes {
            out.push((GridHierarchy::fit(bb, MAX_LEVELS), bb));
            out.push((GridHierarchy::fit(bb, 5), bb));
        }
        out
    }

    /// splitmix64: reproducible pseudo-random numbers without a
    /// dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A point inside `bb`, past its max corner, or below its origin
    /// (by up to one box side), in equal shares.
    fn random_point(bb: &BoundingBox, state: &mut u64) -> Point {
        let side = bb.square_side() as i64 + 1;
        let mut coord = |lo: i32, hi: i32| {
            let r = next(state);
            let (lo, hi) = (lo as i64, hi as i64);
            let v = match r % 3 {
                0 => lo + (r >> 2) as i64 % (hi - lo + 1),
                1 => hi + 1 + (r >> 2) as i64 % side,
                _ => lo - 1 - (r >> 2) as i64 % side,
            };
            v as i32
        };
        Point::new(coord(bb.min_x, bb.max_x), coord(bb.min_y, bb.max_y))
    }

    #[test]
    fn every_level_cell_is_the_r1_cell_shifted() {
        let mut state = 1;
        for (g, bb) in fitted_grids() {
            let (origin, side) = (g.origin(), bb.square_side() as i32);
            let corners = [
                origin,
                Point::new(bb.max_x, bb.max_y),
                Point::new(origin.x - 1, origin.y - 1),
                Point::new(origin.x + side + 1, origin.y - side),
            ];
            let random = (0..500).map(|_| random_point(&bb, &mut state));
            for p in corners.into_iter().chain(random) {
                let c1 = g.cell_of(1, p);
                for i in 1..=g.levels() {
                    assert_eq!(
                        g.cell_of(i, p),
                        c1.coarsened(i - 1),
                        "{g:?} level {i} {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shift_separation_level_matches_the_division_one() {
        let mut state = 7;
        for (g, bb) in fitted_grids() {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..2_000 {
                let (p, q) = (random_point(&bb, &mut state), random_point(&bb, &mut state));
                // Half the pairs close together, so every level is hit.
                let q = if next(&mut state) & 1 == 0 {
                    let near = |a: i32, b: i32| a + (b - a) / 64;
                    Point::new(near(p.x, q.x), near(p.y, q.y))
                } else {
                    q
                };
                let want = g.separation_level(p, q);
                assert_eq!(
                    g.separation_level_of_cells(g.cell_of(1, p), g.cell_of(1, q)),
                    want,
                    "{g:?} {p:?} {q:?}"
                );
                seen.insert(want);
            }
            assert!(
                seen.contains(&None) && seen.contains(&Some(g.levels())),
                "{g:?}: {seen:?}"
            );
            assert!(seen.len() >= 3 || g.levels() < 3, "{g:?}: {seen:?}");
        }
    }

    #[test]
    fn cell_of_clamps_out_of_range() {
        let g = GridHierarchy::fit(square(15), MAX_LEVELS);
        let c = g.cell_of(1, Point::new(-100, 500));
        assert_eq!(c.x, 0);
        assert_eq!(c.y, g.cells_per_axis(1) - 1);
    }

    #[test]
    fn chebyshev_cells() {
        let a = Cell { x: 3, y: 7 };
        let b = Cell { x: 5, y: 6 };
        assert_eq!(a.chebyshev(&b), 2);
        assert_eq!(a.chebyshev(&a), 0);
    }

    #[test]
    fn same_3x3_region_predicate() {
        let g = GridHierarchy::fit(square(15), MAX_LEVELS); // h=3, R_1 16 cells
        // Cells (0,0) and (2,2): chebyshev 2 → coverable.
        assert!(g.same_3x3_region(1, Point::new(0, 0), Point::new(2, 2)));
        // Cells (0,0) and (3,0): chebyshev 3 → not coverable.
        assert!(!g.same_3x3_region(1, Point::new(0, 0), Point::new(3, 0)));
        // At the coarsest level (cells of side 4) these land in cells
        // (0,0) and (2,2): coverable by a 3×3 window.
        assert!(g.same_3x3_region(3, Point::new(0, 0), Point::new(11, 11)));
        // Opposite corners land in cells (0,0) and (3,3): not coverable
        // even by the coarsest grid's 3×3 windows.
        assert!(!g.same_3x3_region(3, Point::new(0, 0), Point::new(15, 15)));
    }

    #[test]
    fn separation_level_monotone_and_correct() {
        let g = GridHierarchy::fit(square(255), MAX_LEVELS); // h = 7
        let p = Point::new(0, 0);
        // Very close points: never separated.
        assert_eq!(g.separation_level(p, Point::new(1, 1)), None);
        // Distant points are separated at some level; verify the defining
        // property of the returned level.
        let q = Point::new(200, 10);
        let j = g.separation_level(p, q).expect("should separate");
        assert!(!g.same_3x3_region(j, p, q));
        if j < g.levels() {
            assert!(g.same_3x3_region(j + 1, p, q));
        }
    }

    #[test]
    fn separation_level_extremes() {
        let g = GridHierarchy::fit(square(255), MAX_LEVELS);
        // Opposite corners of the coarsest grid: cells (0,0) vs (3,3),
        // chebyshev 3 > 2, so they are separated even at R_h.
        let j = g
            .separation_level(Point::new(0, 0), Point::new(255, 255))
            .unwrap();
        assert_eq!(j, g.levels());
    }

    #[test]
    fn regions_containing_interior_cell() {
        let g = GridHierarchy::fit(square(255), MAX_LEVELS);
        let per_axis = g.cells_per_axis(1);
        assert!(per_axis >= 12);
        let regions = g.regions_containing_cell(1, Cell { x: 5, y: 6 });
        assert_eq!(regions.len(), 16);
        for r in &regions {
            assert!(r.contains_cell(Cell { x: 5, y: 6 }));
            assert!(r.x + 4 <= per_axis && r.y + 4 <= per_axis);
        }
    }

    #[test]
    fn regions_containing_corner_cell() {
        let g = GridHierarchy::fit(square(255), MAX_LEVELS);
        let regions = g.regions_containing_cell(1, Cell { x: 0, y: 0 });
        assert_eq!(regions.len(), 1);
        assert_eq!((regions[0].x, regions[0].y), (0, 0));
    }

    #[test]
    fn coarsest_grid_has_exactly_one_region() {
        let g = GridHierarchy::fit(square(63), MAX_LEVELS);
        let h = g.levels();
        assert_eq!(g.cells_per_axis(h), 4);
        let regions = g.regions_containing_cell(h, Cell { x: 2, y: 1 });
        assert_eq!(regions.len(), 1);
    }

    #[test]
    #[should_panic(expected = "empty bounding box")]
    fn empty_box_panics() {
        GridHierarchy::fit(BoundingBox::EMPTY, MAX_LEVELS);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn level_zero_is_invalid() {
        let g = GridHierarchy::fit(square(7), MAX_LEVELS);
        g.cell_side(0);
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let g = GridHierarchy::fit(square(255), MAX_LEVELS);
        let (origin, h, s1) = g.raw_parts();
        let g2 = GridHierarchy::from_raw_parts(origin, h, s1).unwrap();
        assert_eq!(g, g2);
        assert!(GridHierarchy::from_raw_parts(origin, 0, s1).is_err());
        assert!(GridHierarchy::from_raw_parts(origin, MAX_LEVELS + 1, s1).is_err());
        assert!(GridHierarchy::from_raw_parts(origin, h, 0).is_err());
    }

    #[test]
    fn single_point_box_is_fine() {
        let bb = BoundingBox::of([Point::new(5, 5)]);
        let g = GridHierarchy::fit(bb, MAX_LEVELS);
        assert_eq!(g.levels(), 1);
        let c = g.cell_of(1, Point::new(5, 5));
        assert_eq!(c, Cell { x: 0, y: 0 });
    }
}
