//! **Arterial Hierarchy (AH)** — the primary contribution of Zhu, Ma, Xiao,
//! Luo, Tang, Zhou: *Shortest Path and Distance Queries on Road Networks:
//! Towards Bridging Theory and Practice* (SIGMOD 2013).
//!
//! AH is an index over a road network that answers exact distance queries
//! in `Õ(log α)` time and shortest-path queries in `Õ(k + log α)` time
//! (`α` the coordinate aspect ratio, `k` the path length), assuming the
//! network has constant *arterial dimension* (few important through-roads
//! cross any grid bisector — empirically true for real road networks,
//! Section 2 / Figure 3).
//!
//! # Pipeline
//!
//! 1. **Levels** ([`ah_arterial::assign_levels`]): nodes are assigned to
//!    `h+1` hierarchy levels by the incremental pseudo-arterial
//!    construction of Section 4.2.
//! 2. **Ranks** (`ranking` module): inside each level a strict total order is
//!    derived from a greedy vertex cover of the pseudo-arterial edge set
//!    (Section 4.4), including the paper's *downgrading* optimization;
//!    level 0 is ordered pseudo-randomly.
//! 3. **Shortcuts**: nodes are contracted in rank order
//!    ([`ah_contraction::contract_with_order`]); every shortcut carries a
//!    middle node, so a shortcut expands into a two-hop path in O(1) and a
//!    full path unpacks in O(k) (Section 4.1).
//! 4. **Elevating edges** (`elevating` module): border nodes get precomputed
//!    multi-hop jumps to the first level-`ℓ` node of every upward path, so
//!    long-range queries skip the low levels entirely (Sections 4.2/4.3).
//!
//! # Queries
//!
//! [`AhQuery`] runs the bidirectional upward search of Section 4.3: the
//! CH search loop of [`ah_contraction::BidirUpwardQuery`], whose upward
//! arcs are the **rank constraint** (only climb), under an AH rule that
//! adds the **proximity constraint** (a level-`i` node is only visited
//! inside the (5×5)-cell window of `R_(i+1)` around the query endpoint)
//! and the **elevating-edge jumps** (below the separation level a node
//! relaxes its elevating set instead of its hierarchy arcs). Proximity,
//! jumps and stall-on-demand can be toggled through [`QueryConfig`] for
//! ablation.
//!
//! ```
//! use ah_core::{AhIndex, AhQuery, BuildConfig};
//!
//! let g = ah_data::fixtures::lattice(8, 8, 16);
//! let idx = AhIndex::build(&g, &BuildConfig::default());
//! let mut q = AhQuery::new();
//! let d = q.distance(&idx, 0, 63).expect("connected");
//! assert_eq!(d, ah_search::dijkstra_distance(&g, 0, 63).unwrap().length);
//! let path = q.path(&idx, 0, 63).unwrap();
//! path.verify(&g).unwrap();
//! ```

mod config;
mod elevating;
mod index;
mod query;
mod ranking;

pub use config::{BuildConfig, QueryConfig};
pub use elevating::{ElevArc, ElevatingSets, ElevatingSide};
pub use index::{AhIndex, AhIndexParts, IndexStats};
pub use query::AhQuery;
pub use ranking::{greedy_cover_sequence, rank_nodes, Ranking};

// Concurrency contract, checked at compile time: `AhIndex` is immutable
// once built, so one index handle is shared by reference across all
// `ah_server` workers; the mutable search state lives in `AhQuery`, which
// only needs to be movable into a worker thread.
const fn _assert_send_sync<T: Send + Sync>() {}
const fn _assert_send<T: Send>() {}
const _: () = _assert_send_sync::<AhIndex>();
const _: () = _assert_send::<AhQuery>();
