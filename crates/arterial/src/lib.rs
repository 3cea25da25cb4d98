//! Spanning paths, (pseudo-)arterial edges and hierarchy-level assignment —
//! the machinery of Sections 2 and 4.2 of the paper.
//!
//! The crate implements the *incremental* construction that makes AH
//! scalable (Section 4.2 / Appendix D):
//!
//! 1. Start from the original graph as an *overlay*: arcs are original
//!    edges, later augmented by shortcut arcs, each tagged with the grid
//!    region that generated it (the *coverage* information).
//! 2. For each grid `R_1, …, R_h` (finest to coarsest), find the *spanning
//!    paths* of every non-empty sliding (4×4)-cell region via region-local
//!    Dijkstra searches from the region's *border nodes* (Definition 2),
//!    restricted by the paper's *border* and *coverage* conditions. Edges of
//!    those paths crossing a bisector are *pseudo-arterial edges*; their
//!    endpoints become the next level's cores.
//! 3. Contract everything that is not a core into shortcuts (per region, so
//!    coverage stays meaningful), drop all nodes that are neither cores
//!    nor border nodes of the next grid, and compact the overlay down to
//!    the arcs between the nodes that remain.
//!
//! Step 2 only reads the overlay. Each stage first copies, for every
//! region, the part of the overlay its searches can reach into a compact
//! *region graph* (the active members and the far ends of their covered
//! arcs, renumbered in id order), then runs the searches on those graphs
//! on every available core, a few border sources per work unit. Step 3
//! inserts shortcuts in a fixed order and stays sequential, on the
//! overlay. Both steps run one Dijkstra, with a decrease-key heap that
//! pops each node once and breaks ties by node id, so a search settles
//! the same nodes in the same order on a region graph as on the overlay.
//! The result is the same for every thread count.
//!
//! At level 1 the overlay *is* the original graph, so pseudo-arterial edges
//! coincide with the arterial edges of Definition 1; at coarser levels they
//! are the tractable stand-in the paper itself uses (each pseudo-arterial
//! edge corresponds to a path containing an arterial edge — Lemma 9/12).
//! The per-region counts collected along the way regenerate Figure 3, and
//! the resulting [`LevelAssignment`] feeds the FC and AH indices.
//!
//! ```
//! use ah_arterial::{assign_levels, SelectionConfig};
//!
//! let g = ah_data::fixtures::lattice(8, 8, 16);
//! let la = assign_levels(&g, &SelectionConfig::default());
//! assert_eq!(la.level.len(), 64);
//! // The through-roads of the lattice promote some nodes above level 0.
//! assert!(la.level.iter().any(|&l| l > 0));
//! ```

mod dimension;
mod local;
mod overlay;
mod region;
mod selection;

pub use dimension::{measure_arterial_dimension, ResolutionStats};
pub use selection::{assign_levels, LevelAssignment, SelectionConfig};
