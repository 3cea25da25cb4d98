//! The Arterial Hierarchy index: construction and accessors.

use ah_arterial::{assign_levels, SelectionConfig};
use ah_contraction::{contract_with_order, Hierarchy};
use ah_graph::{Graph, NodeId, Point};
use ah_grid::{Cell, GridHierarchy};
use ah_search::{DijkstraDriver, Direction};

use crate::config::{BuildConfig, ELEVATING_MAX_ARCS, ELEVATING_SETTLE_LIMIT};
use crate::elevating::{elevating_set, ElevatingBuilder, ElevatingSets};
use crate::ranking::{rank_nodes, Ranking};

/// Aggregate facts about a built index (experiment telemetry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Grid levels `h`.
    pub h: u32,
    /// Nodes per hierarchy level (after downgrading).
    pub level_histogram: Vec<usize>,
    /// Shortcut arcs in the contracted hierarchy.
    pub shortcuts: usize,
    /// Elevating arcs (both directions).
    pub elevating_arcs: usize,
    /// Approximate index size in bytes (hierarchy + elevating sets +
    /// levels + coordinates + the derived per-node cells).
    pub size_bytes: usize,
}

/// A node's level next to its `R_1` cell: all the proximity constraint
/// reads about a node, in one 12-byte load. Its level-`i` cell is
/// `cell.coarsened(i - 1)`, so queries never divide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelCell {
    pub(crate) cell: Cell,
    pub(crate) level: u8,
}

/// The Arterial Hierarchy over one road network. Immutable once built;
/// queries run through [`crate::AhQuery`], which holds the per-thread
/// mutable search state.
pub struct AhIndex {
    pub(crate) grid: GridHierarchy,
    pub(crate) hierarchy: Hierarchy,
    /// Final hierarchy level per node.
    pub(crate) level: Vec<u8>,
    /// Node coordinates (kept for snapshots; queries read `level_cells`).
    pub(crate) coords: Vec<Point>,
    pub(crate) elevating: ElevatingSets,
    /// Derived from `level`, `coords` and `grid` whenever an index is
    /// built or loaded; never serialised.
    pub(crate) level_cells: Vec<LevelCell>,
}

impl AhIndex {
    /// Builds the index: level assignment (Section 4.2) → ranking
    /// (Section 4.4) → rank-ordered contraction → elevating sets.
    pub fn build(g: &Graph, cfg: &BuildConfig) -> AhIndex {
        let la = assign_levels(
            g,
            &SelectionConfig {
                max_levels: cfg.max_levels,
            },
        );
        let Ranking { level, order, .. } =
            rank_nodes(&la, cfg.vertex_cover_rank, cfg.downgrade_non_cover);
        let hierarchy = contract_with_order(g, &order, cfg.contraction);

        let elevating = if cfg.elevating_edges {
            build_elevating(g, &la.grid, &hierarchy, &level)
        } else {
            ElevatingSets::default()
        };

        let coords = g.coords().to_vec();
        let level_cells = level_cells(&la.grid, &level, &coords);
        AhIndex {
            grid: la.grid,
            hierarchy,
            level,
            coords,
            elevating,
            level_cells,
        }
    }

    /// Number of nodes indexed.
    pub fn num_nodes(&self) -> usize {
        self.level.len()
    }

    /// The grid hierarchy the index was built against.
    pub fn grid(&self) -> &GridHierarchy {
        &self.grid
    }

    /// Hierarchy level of `v`.
    pub fn level_of(&self, v: NodeId) -> u8 {
        self.level[v as usize]
    }

    /// The contracted hierarchy (exposed for diagnostics and benches).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> IndexStats {
        let h = self.grid.levels();
        let mut hist = vec![0usize; h as usize + 1];
        for &l in &self.level {
            hist[(l as usize).min(h as usize)] += 1;
        }
        IndexStats {
            h,
            level_histogram: hist,
            shortcuts: self.hierarchy.num_shortcuts(),
            elevating_arcs: self.elevating.num_arcs(),
            size_bytes: self.size_bytes(),
        }
    }

    /// Approximate heap footprint of the index (Figure 10a accounting).
    pub fn size_bytes(&self) -> usize {
        self.hierarchy.size_bytes()
            + self.elevating.size_bytes()
            + self.level.len()
            + self.coords.len() * std::mem::size_of::<Point>()
            + self.level_cells.len() * std::mem::size_of::<LevelCell>()
    }

    /// Borrowed view of every component of the index (serialization hook
    /// for `ah_store`; [`AhIndex::from_raw_parts`] is the validated
    /// inverse).
    pub fn raw_parts(&self) -> AhIndexParts<'_> {
        AhIndexParts {
            grid: &self.grid,
            hierarchy: &self.hierarchy,
            level: &self.level,
            coords: &self.coords,
            elevating: &self.elevating,
        }
    }

    /// Reassembles an index from its components (snapshot loading). The
    /// per-component constructors have already validated internal shapes;
    /// this checks the cross-component invariants: one level, coordinate
    /// and hierarchy entry per node, no level above the grid's `h`, every
    /// node id referenced by the elevating sets in range, and every hop of
    /// every elevating chain a hierarchy arc — so a checksum-valid but
    /// forged snapshot can never produce an index that panics or
    /// misindexes at query time.
    pub fn from_raw_parts(
        grid: GridHierarchy,
        hierarchy: Hierarchy,
        level: Vec<u8>,
        coords: Vec<Point>,
        elevating: ElevatingSets,
    ) -> Result<AhIndex, &'static str> {
        let n = hierarchy.num_nodes();
        if level.len() != n || coords.len() != n {
            return Err("level/coordinate arrays disagree with the hierarchy size");
        }
        let h = grid.levels();
        if level.iter().any(|&l| l as u32 > h) {
            return Err("node level above the grid hierarchy height");
        }
        elevating.forward.validate_against(&hierarchy, true)?;
        elevating.backward.validate_against(&hierarchy, false)?;
        let level_cells = level_cells(&grid, &level, &coords);
        Ok(AhIndex {
            grid,
            hierarchy,
            level,
            coords,
            elevating,
            level_cells,
        })
    }
}

fn level_cells(grid: &GridHierarchy, level: &[u8], coords: &[Point]) -> Vec<LevelCell> {
    level
        .iter()
        .zip(coords)
        .map(|(&level, &p)| LevelCell {
            cell: grid.cell_of(1, p),
            level,
        })
        .collect()
}

/// Borrowed view of an [`AhIndex`]'s components, as returned by
/// [`AhIndex::raw_parts`].
#[derive(Clone, Copy)]
pub struct AhIndexParts<'a> {
    /// Grid geometry the proximity constraint evaluates against.
    pub grid: &'a GridHierarchy,
    /// The contracted hierarchy.
    pub hierarchy: &'a Hierarchy,
    /// Final hierarchy level per node.
    pub level: &'a [u8],
    /// Node coordinates.
    pub coords: &'a [Point],
    /// Forward/backward elevating sets.
    pub elevating: &'a ElevatingSets,
}

/// Builds the forward/backward elevating sets for every border node and
/// level where the budgeted search certifies completeness.
fn build_elevating(
    g: &Graph,
    grid: &GridHierarchy,
    hierarchy: &Hierarchy,
    level: &[u8],
) -> ElevatingSets {
    let n = g.num_nodes();
    let h = grid.levels();
    let mut search = DijkstraDriver::new();
    let mut fwd = ElevatingBuilder::new(n);
    let mut bwd = ElevatingBuilder::new(n);

    for v in 0..n as NodeId {
        let own = level[v as usize];
        for ell in (own as u32 + 1)..=h {
            if !is_border_at(g, grid, v, ell) {
                continue;
            }
            let lvl = ell as u8;
            for (direction, side) in [
                (Direction::Forward, &mut fwd),
                (Direction::Backward, &mut bwd),
            ] {
                let limit = ELEVATING_SETTLE_LIMIT;
                if let Some(set) =
                    elevating_set(&mut search, hierarchy, level, v, lvl, direction, limit)
                        .filter(|set| !set.is_empty() && set.len() <= ELEVATING_MAX_ARCS)
                {
                    side.push_set(v, lvl, set);
                }
            }
        }
    }
    ElevatingSets {
        forward: fwd.finish(),
        backward: bwd.finish(),
    }
}

/// True if `v` is a border node of some (4×4)-cell region of `R_ell`
/// (Definition 2, evaluated on the original edges).
fn is_border_at(g: &Graph, grid: &GridHierarchy, v: NodeId, ell: u32) -> bool {
    let cv = grid.cell_of(ell, g.coord(v));
    for b in grid.regions_containing_cell(ell, cv) {
        if b.in_center_2x2(cv) {
            continue;
        }
        let crosses = |to: NodeId| {
            b.edge_crosses_strip_boundary(cv, grid.cell_of(ell, g.coord(to)))
        };
        if g.out_edges(v).iter().any(|a| crosses(a.head))
            || g.in_edges(v).iter().any(|a| crosses(a.head))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildConfig;
    use ah_graph::Dist;

    #[test]
    fn build_smoke_test() {
        let g = ah_data::fixtures::lattice(8, 8, 16);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        assert_eq!(idx.num_nodes(), 64);
        let stats = idx.stats();
        assert!(stats.h >= 2);
        assert_eq!(stats.level_histogram.iter().sum::<usize>(), 64);
        assert!(stats.size_bytes > 0);
    }

    #[test]
    fn build_without_optional_features() {
        let g = ah_data::fixtures::lattice(6, 6, 16);
        let cfg = BuildConfig {
            elevating_edges: false,
            vertex_cover_rank: false,
            downgrade_non_cover: false,
            ..Default::default()
        };
        let idx = AhIndex::build(&g, &cfg);
        assert_eq!(idx.stats().elevating_arcs, 0);
    }

    #[test]
    fn from_raw_parts_rejects_forged_elevating_node_ids() {
        use crate::{ElevArc, ElevatingSide};

        let g = ah_data::fixtures::lattice(6, 6, 16);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let p = idx.raw_parts();

        // An elevating arc whose jump target indexes far past the node
        // arrays: internally consistent (chain range [0,0) is valid), so
        // only the cross-component check can reject it.
        let forged = ElevatingSide::from_raw_parts(
            std::iter::once(0)
                .chain((0..idx.num_nodes()).map(|i| (i >= 1) as u32))
                .collect(),
            vec![(1, 0, 1)],
            vec![ElevArc::from_raw_parts(0xFFFF_0000, Dist::ZERO, 0, 0)],
            vec![],
        )
        .unwrap();
        let err = AhIndex::from_raw_parts(
            p.grid.clone(),
            p.hierarchy.clone(),
            p.level.to_vec(),
            p.coords.to_vec(),
            ElevatingSets {
                forward: forged,
                backward: ElevatingSide::default(),
            },
        );
        assert!(err.is_err(), "forged elevating target must be rejected");
    }

    #[test]
    fn from_raw_parts_rejects_a_chain_hop_off_the_hierarchy() {
        use crate::ElevatingSide;

        let g = ah_data::fixtures::lattice(8, 8, 16);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        let p = idx.raw_parts();
        let h = p.hierarchy;
        let (offsets, entries, arcs, chains) = p.elevating.forward.raw_parts();
        // A forward climb v → interior… with at least one interior node.
        let (v, first) = (0..idx.num_nodes())
            .flat_map(|v| {
                entries[offsets[v] as usize..offsets[v + 1] as usize]
                    .iter()
                    .flat_map(|&(_, start, len)| &arcs[start as usize..(start + len) as usize])
                    .map(move |a| (v as NodeId, a.chain_range()))
            })
            .find_map(|(v, (start, len))| (len > 0).then_some((v, start as usize)))
            .expect("some climb has an interior node");
        // Swap its first interior node for an in-range node v has no arc to.
        let stranger = (0..idx.num_nodes() as NodeId)
            .find(|&x| x != v && h.arc_between(v, x).is_none())
            .unwrap();
        let load = |chains: Vec<NodeId>| {
            let forward = ElevatingSide::from_raw_parts(
                offsets.to_vec(),
                entries.to_vec(),
                arcs.to_vec(),
                chains,
            )
            .unwrap();
            AhIndex::from_raw_parts(
                p.grid.clone(),
                h.clone(),
                p.level.to_vec(),
                p.coords.to_vec(),
                ElevatingSets {
                    forward,
                    backward: p.elevating.backward.clone(),
                },
            )
        };
        assert!(load(chains.to_vec()).is_ok(), "the built chains load");
        let mut forged = chains.to_vec();
        forged[first] = stranger;
        match load(forged) {
            Err(reason) => assert!(reason.contains("hop"), "{reason}"),
            Ok(_) => panic!("a chain hop {v} → {stranger} off the hierarchy loaded"),
        }
    }

    #[test]
    fn levels_accessible() {
        let g = ah_data::fixtures::lattice(8, 8, 16);
        let idx = AhIndex::build(&g, &BuildConfig::default());
        for v in 0..64u32 {
            assert!(idx.level_of(v) as u32 <= idx.grid().levels());
        }
    }
}
