//! **Region sharding** — partition the road network into `K` spatial
//! shards and answer queries per shard, composing cross-shard answers
//! through boundary nodes.
//!
//! The ROADMAP's serving north star ("heavy traffic from millions of
//! users") eventually outgrows one index on one machine. The paper's
//! arterial hierarchy is built on a spatial grid decomposition
//! ([`ah_grid::GridHierarchy`]), which hands us a shard key for free: a
//! node's grid cell at a fixed level determines its shard
//! ([`ShardMap`]). Partition-with-boundary-vertex composition is the
//! same device the experimental-evaluation literature (Wu et al., VLDB
//! 2012) credits for scaling hierarchical methods to large networks.
//!
//! Three pieces compose:
//!
//! * [`ShardMap`] — the grid-keyed partition: deterministic cell →
//!   shard assignment at one grid level, so routing a query to its
//!   shard is two integer divisions.
//! * [`ShardedIndex`] — per shard, the induced subgraph and its own
//!   [`ah_core::AhIndex`]; across shards, the *boundary graph*: every
//!   border node (a node with an edge into another shard) plus the
//!   exact global border-to-border distance matrix precomputed at build
//!   time, and the per-shard *reentry pairs* that certify when a
//!   same-shard query can be answered purely locally.
//! * [`ShardedQuery`] — per-thread scratch that answers distance
//!   queries **exactly**: same-shard queries run on the shard index
//!   (plus reentry composition when leaving the shard could be
//!   shorter), cross-shard queries compose
//!   `source→border + border→border + border→target`, and anything the
//!   composition cannot certify (uncertified builds, path queries)
//!   falls back to the global index.
//!
//! The exactness argument for composed distances is spelled out in
//! `docs/SHARDING.md`; the randomized identity suite
//! (`tests/tests/sharded_identity.rs`) holds the composition to
//! bit-equality with the unsharded [`ah_core::AhQuery`] on Q1–Q10
//! workloads.
//!
//! ```
//! use ah_shard::{ShardConfig, ShardedIndex, ShardedQuery};
//!
//! let g = ah_data::fixtures::lattice(8, 8, 12);
//! let idx = ShardedIndex::build(&g, &ShardConfig { shards: 4, ..Default::default() });
//! let mut q = ShardedQuery::new();
//! let d = q.distance(&idx, 0, 63);
//! assert_eq!(d, ah_search::dijkstra_distance(&g, 0, 63).map(|d| d.length));
//! ```

mod index;
mod partition;
mod query;

pub use index::{Shard, ShardConfig, ShardStats, ShardedIndex};
pub use partition::{ShardMap, MAX_SHARDS};
pub use query::{Route, ShardedQuery};
