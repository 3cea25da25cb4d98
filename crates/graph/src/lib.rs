//! Road-network graph substrate for the Arterial Hierarchy reproduction.
//!
//! This crate provides the directed, coordinate-embedded, positively-weighted
//! graph model assumed by Zhu et al. (SIGMOD 2013), Section 2:
//!
//! * nodes live in a two-dimensional plane ([`Point`]),
//! * every edge carries a positive weight (travel time in the paper's data),
//! * the graph is degree-bounded and (strongly) connected.
//!
//! The central type is [`Graph`], an immutable compressed-sparse-row (CSR)
//! structure with both forward and backward adjacency, built through
//! [`GraphBuilder`]. Shortest-path uniqueness — required by the paper's
//! Assumption 2 — is provided by the *nuance* tie-breaking scheme of
//! Appendix A, implemented here as the lexicographic distance pair [`Dist`].
//!
//! # Example
//!
//! ```
//! use ah_graph::{GraphBuilder, Point};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(0, 0));
//! let c = b.add_node(Point::new(10, 0));
//! b.add_bidirectional_edge(a, c, 7);
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 2);
//! assert_eq!(g.out_edges(a)[0].head, c);
//! assert_eq!(g.out_edges(a)[0].weight, 7);
//! ```

mod builder;
mod delta;
mod dist;
mod graph;
mod path;
mod point;
mod scc;
mod stats;

pub use builder::GraphBuilder;
pub use delta::{DeltaApplied, DeltaError, WeightChange, WeightDelta, CLOSED};
pub use dist::{Dist, INFINITY};
pub use graph::{Arc, CsrParts, Graph};
pub use path::Path;
pub use point::{BoundingBox, Point};
pub use scc::{condense_to_largest_scc, strongly_connected_components};
pub use stats::GraphStats;

/// Identifier of a node; an index into the graph's node arrays.
pub type NodeId = u32;

/// Identifier of an edge; an index into the graph's forward edge array.
pub type EdgeId = u32;

/// Edge weight (the paper uses travel time). Strictly positive.
pub type Weight = u32;

/// Sentinel for "no node".
pub const INVALID_NODE: NodeId = u32::MAX;

// Concurrency contract, checked at compile time: a built `Graph` is
// immutable and may be shared freely across query-serving threads
// (`ah_server` relies on this). If a future change introduces interior
// mutability, this stops the build rather than a reviewer.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Graph>();
const _: () = _assert_send_sync::<Path>();
