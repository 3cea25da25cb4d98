//! Rank-ordered node contraction — the shortcut construction shared by AH
//! and CH.
//!
//! Section 4.2 of the paper builds AH's shortcuts from local shortest-path
//! trees: node `u` gets a shortcut to every nearby `v` that ranks above it
//! while all interior nodes rank below `u`, and each shortcut remembers the
//! highest-ranked interior node so it expands into a two-hop path in O(1).
//! That construction is exactly *node contraction* in rank order (the
//! paper's Lemma 16 proves the resulting unimodal-rank-path property), and
//! contraction is also precisely how the Contraction Hierarchies baseline
//! \[11\] builds its index — so the two share this engine:
//!
//! * [`Contractor`] — the dynamic remaining-graph with witness searches;
//! * [`contract_with_order`] — contraction along a *fixed* total order
//!   (AH: levels from the arterial construction + in-level rank);
//! * [`contract_adaptive`] — CH's heuristic ordering (edge difference +
//!   deleted neighbours, lazy updates);
//! * [`Hierarchy`] — the resulting two upward views with middle-node path
//!   unpacking; [`Upward`] hands them to `ah_search`'s one-sided
//!   `DijkstraDriver` as a plain graph;
//! * [`BidirUpwardQuery`] — the one bidirectional upward search, shared by
//!   CH, FC and AH. Each index passes an [`UpwardRule`] saying which arcs
//!   a settled node relaxes (its hierarchy arcs, or a jump's
//!   [`UpwardArc`]s), which heads a side admits and how a parent arc
//!   unpacks; the loop owns the heaps, search slots, termination,
//!   meeting check, stall-on-demand, path walk and cost tally. A
//!   `Hierarchy` is itself the plain CH rule.
//!
//! Correctness does not depend on the order: witness searches guarantee
//! that for every node pair some shortest path is representable as an
//! up-then-down rank sequence, for *any* strict total order (the paper
//! makes the same observation in Section 4.2).

mod contractor;
mod hierarchy;
mod ordering;
mod query;

pub use contractor::{ContractionConfig, Contractor, SimulationStats};
pub use hierarchy::{HArc, Hierarchy, HierarchyParts, Upward};
pub use ordering::{contract_adaptive, contract_with_order};
pub use query::{BidirUpwardQuery, UpwardArc, UpwardRule};

// Concurrency contract, checked at compile time: a contracted `Hierarchy`
// is immutable and shared by every `ah_server` worker, and the per-thread
// `BidirUpwardQuery` state must be movable into worker threads.
const fn _assert_send_sync<T: Send + Sync>() {}
const fn _assert_send<T: Send>() {}
const _: () = _assert_send_sync::<Hierarchy>();
const _: () = _assert_send::<BidirUpwardQuery>();
