//! Dijkstra-family search substrate.
//!
//! Every method in this workspace — the classic baseline, FC/AH index
//! construction, CH witness searches, SILC shortest-path trees — reduces to
//! variants of Dijkstra's algorithm over some graph. This crate provides:
//!
//! * [`SearchGraph`] — the minimal adjacency abstraction, implemented by
//!   [`ah_graph::Graph`] and by the dynamic overlay graphs used during
//!   preprocessing;
//! * [`SearchSlots`] — one 32-byte record per node (distance, parent,
//!   [`ParentArc`], settled), reset in O(1) between searches: the per-node
//!   state of every search here and of the CH, FC and AH hierarchy
//!   searches;
//! * [`DijkstraDriver`] — a reusable single-source engine on one
//!   [`SearchSlots`], supporting early termination, distance bounds, settle
//!   limits, node filters, a settle hook that decides whether a node is
//!   expanded, and both search directions. It runs every one-sided
//!   Dijkstra outside the arterial level selection, from CH witness
//!   searches to AH's elevating sets and the pruned label build;
//! * [`BidirectionalDijkstra`] — the exact bidirectional baseline, one
//!   [`SearchSlots`] and one heap per side;
//! * one-shot convenience functions ([`dijkstra_distance`],
//!   [`dijkstra_path`], [`shortest_path_tree`]).
//!
//! All distances are nuance-tagged [`Dist`] pairs (paper Appendix A), so
//! shortest paths are unique with overwhelming probability and every crate
//! that builds on this one agrees on *which* shortest path is canonical.
//!
//! ```
//! use ah_graph::{GraphBuilder, Point};
//! use ah_search::{dijkstra_distance, BidirectionalDijkstra};
//!
//! let mut b = GraphBuilder::new();
//! for i in 0..4 {
//!     b.add_node(Point::new(i, 0));
//! }
//! for i in 0..3 {
//!     b.add_bidirectional_edge(i as u32, i as u32 + 1, 5);
//! }
//! let g = b.build();
//! let mut bidir = BidirectionalDijkstra::new();
//! assert_eq!(bidir.distance(&g, 0, 3), dijkstra_distance(&g, 0, 3));
//! assert_eq!(bidir.distance(&g, 0, 3).unwrap().length, 15);
//! ```

mod bidirectional;
mod driver;
mod oneshot;
pub mod scenario;
mod search_graph;
mod slots;

pub use bidirectional::BidirectionalDijkstra;
pub use driver::{DijkstraDriver, Direction, SearchOptions, SearchOutcome};
pub use oneshot::{dijkstra_distance, dijkstra_path, shortest_path_tree, ShortestPathTree};
pub use scenario::{PoiSet, ScenarioEngine, ViaAnswer, POI_CATEGORIES, POI_SEED};
pub use search_graph::SearchGraph;
pub use slots::{ParentArc, SearchSlots};

pub use ah_graph::{Dist, NodeId, Weight, INFINITY};
