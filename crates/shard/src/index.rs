//! The sharded index: per-shard subgraphs and indexes, plus the
//! boundary graph that makes cross-shard answers exact.

use std::sync::Arc;

use ah_core::{AhIndex, AhQuery, BuildConfig};
use ah_graph::{Graph, GraphBuilder, NodeId};

use crate::partition::ShardMap;

/// Sentinel for "unreachable" in the border distance matrix.
pub(crate) const UNREACHABLE: u64 = u64::MAX;

/// Build parameters for a [`ShardedIndex`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Requested shard count (clamped to [`crate::MAX_SHARDS`] and to
    /// the grid's cell count; see [`ShardMap::new`]).
    pub shards: usize,
    /// Certification cap: if the network has more border nodes than
    /// this, the `O(|B|²)` boundary matrix is not built, the index is
    /// *uncertified*, and every query falls back to the global index.
    /// Raising it trades build time and `8·|B|²` bytes of matrix for
    /// composed (per-shard) serving.
    pub max_border_nodes: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            max_border_nodes: 1024,
        }
    }
}

/// One shard: its nodes, induced subgraph, local AH index, and its
/// slice of the boundary graph.
pub struct Shard {
    /// Global node ids owned by this shard, ascending; position is the
    /// node's *local* id in [`Shard::graph`] and [`Shard::index`].
    global_ids: Vec<NodeId>,
    /// The induced subgraph: this shard's nodes and every edge with
    /// both endpoints inside.
    graph: Graph,
    /// AH index over [`Shard::graph`]; `None` iff the shard is empty.
    index: Option<AhIndex>,
    /// Indices (into [`ShardedIndex::border_nodes`]) of this shard's
    /// border nodes.
    borders: Vec<u32>,
    /// Border pairs `(u, q)` of this shard whose exact global distance
    /// beats the within-shard distance — the only pairs through which a
    /// same-shard query can improve by leaving the shard. Empty for
    /// most shards of a well-partitioned road network, which is what
    /// lets same-shard queries skip composition entirely.
    reentry: Vec<(u32, u32)>,
}

impl Shard {
    /// Global node ids owned by this shard (ascending; position =
    /// local id).
    pub fn global_ids(&self) -> &[NodeId] {
        &self.global_ids
    }

    /// The shard's induced subgraph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shard's AH index (`None` iff the shard owns no nodes).
    pub fn index(&self) -> Option<&AhIndex> {
        self.index.as_ref()
    }

    /// This shard's border nodes, as indices into
    /// [`ShardedIndex::border_nodes`].
    pub fn borders(&self) -> &[u32] {
        &self.borders
    }

    /// The shard's reentry pairs (see the field docs).
    pub fn reentry(&self) -> &[(u32, u32)] {
        &self.reentry
    }

    /// Number of nodes in the shard.
    pub fn num_nodes(&self) -> usize {
        self.global_ids.len()
    }
}

/// Aggregate facts about a sharded build (bench/CI telemetry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Effective shard count.
    pub shards: usize,
    /// Grid level the shard key is read at.
    pub level: u32,
    /// Shards that own at least one node.
    pub nonempty: usize,
    /// Nodes in the largest shard.
    pub largest: usize,
    /// Total border nodes.
    pub borders: usize,
    /// Whether the boundary matrix was built (composition serves; no
    /// global fallback needed for distance queries).
    pub certified: bool,
    /// Total reentry pairs across shards.
    pub reentry_pairs: usize,
    /// Bytes held by the boundary distance matrix.
    pub matrix_bytes: usize,
}

/// The region-sharded index: `K` per-shard AH indexes plus the boundary
/// graph, with the global AH index kept as the exactness fallback (and
/// the path-query engine).
///
/// Immutable once built, like every index in the workspace; queries run
/// through [`crate::ShardedQuery`], which holds the per-thread scratch.
pub struct ShardedIndex {
    global: Arc<AhIndex>,
    map: ShardMap,
    /// Node → shard.
    assignment: Vec<u16>,
    /// Node → local id within its shard.
    local_id: Vec<u32>,
    shards: Vec<Shard>,
    /// All border nodes (global ids, ascending). A node is a border
    /// node iff some incident edge crosses into another shard.
    border_nodes: Vec<NodeId>,
    /// `|B|²` exact global distances between border nodes, row-major by
    /// border index ([`UNREACHABLE`] encodes no path). Empty iff the
    /// build is uncertified.
    matrix: Vec<u64>,
    certified: bool,
}

impl ShardedIndex {
    /// Builds the global AH index (default [`BuildConfig`], as every
    /// shard's) and shards it. Convenience over
    /// [`ShardedIndex::from_global`] when no global index exists yet.
    ///
    /// # Panics
    /// Panics on an empty graph (there is nothing to partition).
    pub fn build(g: &Graph, cfg: &ShardConfig) -> ShardedIndex {
        let global = Arc::new(AhIndex::build(g, &BuildConfig::default()));
        ShardedIndex::from_global(g, global, cfg)
    }

    /// Shards the network around an existing global index (shared, not
    /// rebuilt): partitions by grid key, builds one default AH index per
    /// non-empty shard, collects the border nodes, and — unless the
    /// border count exceeds `cfg.max_border_nodes` — precomputes the
    /// exact border-to-border distance matrix and each shard's reentry
    /// pairs.
    ///
    /// # Panics
    /// Panics if `global` does not index `g` (node counts differ) or if
    /// `g` is empty.
    pub fn from_global(g: &Graph, global: Arc<AhIndex>, cfg: &ShardConfig) -> ShardedIndex {
        assert_eq!(
            g.num_nodes(),
            global.num_nodes(),
            "global index does not match the graph"
        );
        assert!(g.num_nodes() > 0, "cannot shard an empty network");
        let skel = Skeleton::assemble(g, global.grid(), cfg.shards);
        let indexes: Vec<Option<AhIndex>> = skel
            .shards
            .iter()
            .map(|(_, graph)| {
                (graph.num_nodes() > 0).then(|| AhIndex::build(graph, &BuildConfig::default()))
            })
            .collect();
        let (certified, matrix, reentry) = certify(&skel, &global, &indexes, cfg);
        skel.finish(global, indexes, certified, matrix, reentry)
    }

    /// Reassembles a sharded index from its persisted components
    /// (snapshot loading). The partition skeleton — assignment, local
    /// ids, induced subgraphs, border nodes — is *recomputed* from the
    /// graph and the global index's grid (it is deterministic in
    /// `(grid, shards)` and cheap), then validated against the
    /// persisted pieces: shard count and per-shard node counts must
    /// match, the matrix must be `|B|²` exactly when certified (and
    /// absent when not), and every reentry pair must name two distinct
    /// borders of its own shard.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        g: &Graph,
        global: Arc<AhIndex>,
        shards: usize,
        indexes: Vec<Option<AhIndex>>,
        certified: bool,
        matrix: Vec<u64>,
        reentry: Vec<Vec<(u32, u32)>>,
    ) -> Result<ShardedIndex, &'static str> {
        if g.num_nodes() != global.num_nodes() {
            return Err("global index does not match the graph");
        }
        if g.num_nodes() == 0 {
            return Err("cannot shard an empty network");
        }
        let skel = Skeleton::assemble(g, global.grid(), shards);
        let k = skel.map.num_shards();
        if k != shards || indexes.len() != k || reentry.len() != k {
            return Err("shard count disagrees with the grid partition");
        }
        for (s, (_, graph)) in skel.shards.iter().enumerate() {
            match &indexes[s] {
                Some(idx) if idx.num_nodes() == graph.num_nodes() => {}
                None if graph.num_nodes() == 0 => {}
                _ => return Err("per-shard index does not match its shard's node count"),
            }
        }
        let b = skel.border_nodes.len();
        if certified {
            if matrix.len() != b * b {
                return Err("boundary matrix size is not |borders|^2");
            }
        } else if !matrix.is_empty() || reentry.iter().any(|r| !r.is_empty()) {
            return Err("uncertified index cannot carry a matrix or reentry pairs");
        }
        for (s, pairs) in reentry.iter().enumerate() {
            for &(bi, bj) in pairs {
                let in_shard = |i: u32| skel.shard_borders[s].contains(&i);
                if bi == bj || !in_shard(bi) || !in_shard(bj) {
                    return Err("reentry pair names a border outside its shard");
                }
            }
        }
        Ok(skel.finish(global, indexes, certified, matrix, reentry))
    }

    /// The global AH index (fallback and path engine).
    pub fn global(&self) -> &Arc<AhIndex> {
        &self.global
    }

    /// Number of nodes of the underlying network.
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// The effective shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The grid-keyed partition.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The shard owning node `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> u16 {
        self.assignment[v as usize]
    }

    /// `v`'s local id inside its shard.
    #[inline]
    pub fn local_id(&self, v: NodeId) -> NodeId {
        self.local_id[v as usize]
    }

    /// Shard number `s`.
    pub fn shard(&self, s: usize) -> &Shard {
        &self.shards[s]
    }

    /// All border nodes (global ids, ascending by id).
    pub fn border_nodes(&self) -> &[NodeId] {
        &self.border_nodes
    }

    /// Whether composed serving is certified (the boundary matrix was
    /// built). Uncertified indexes answer every query from the global
    /// index.
    pub fn certified(&self) -> bool {
        self.certified
    }

    /// Exact global distance between border `i` and border `j`, or
    /// `None` if unreachable.
    ///
    /// # Panics
    /// Panics if the index is uncertified or an index is out of range.
    #[inline]
    pub fn border_distance(&self, i: u32, j: u32) -> Option<u64> {
        let b = self.border_nodes.len();
        let d = self.matrix[i as usize * b + j as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// The raw boundary matrix (row-major, `u64::MAX` = unreachable;
    /// empty when uncertified). Serialization hook for `ah_store`.
    pub fn matrix(&self) -> &[u64] {
        &self.matrix
    }

    /// Telemetry snapshot.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shards: self.shards.len(),
            level: self.map.level(),
            nonempty: self.shards.iter().filter(|s| s.num_nodes() > 0).count(),
            largest: self.shards.iter().map(Shard::num_nodes).max().unwrap_or(0),
            borders: self.border_nodes.len(),
            certified: self.certified,
            reentry_pairs: self.shards.iter().map(|s| s.reentry.len()).sum(),
            matrix_bytes: self.matrix.len() * std::mem::size_of::<u64>(),
        }
    }
}

/// The deterministic partition skeleton shared by the build and load
/// paths: everything derivable from `(graph, grid, shards)` alone.
struct Skeleton {
    map: ShardMap,
    assignment: Vec<u16>,
    local_id: Vec<u32>,
    /// Per shard: `(global_ids, induced subgraph)`.
    shards: Vec<(Vec<NodeId>, Graph)>,
    border_nodes: Vec<NodeId>,
    /// Per shard: indices into `border_nodes`.
    shard_borders: Vec<Vec<u32>>,
}

impl Skeleton {
    fn assemble(g: &Graph, grid: &ah_grid::GridHierarchy, shards: usize) -> Skeleton {
        let n = g.num_nodes();
        let map = ShardMap::new(grid, shards);
        let k = map.num_shards();
        let mut assignment = vec![0u16; n];
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for v in g.node_ids() {
            let s = map.shard_of(grid, g.coord(v));
            assignment[v as usize] = s;
            members[s as usize].push(v);
        }
        let mut local_id = vec![0u32; n];
        for nodes in &members {
            for (i, &v) in nodes.iter().enumerate() {
                local_id[v as usize] = i as u32;
            }
        }
        let shards: Vec<(Vec<NodeId>, Graph)> = members
            .into_iter()
            .map(|nodes| {
                let mut b = GraphBuilder::with_capacity(nodes.len(), 0);
                for &v in &nodes {
                    b.add_node(g.coord(v));
                }
                for &v in &nodes {
                    for a in g.out_edges(v) {
                        if assignment[a.head as usize] == assignment[v as usize] {
                            b.add_edge(local_id[v as usize], local_id[a.head as usize], a.weight);
                        }
                    }
                }
                let graph = b.build();
                (nodes, graph)
            })
            .collect();

        let mut border_nodes = Vec::new();
        let mut shard_borders: Vec<Vec<u32>> = vec![Vec::new(); k];
        for v in g.node_ids() {
            let s = assignment[v as usize];
            let crosses = g
                .out_edges(v)
                .iter()
                .chain(g.in_edges(v))
                .any(|a| assignment[a.head as usize] != s);
            if crosses {
                shard_borders[s as usize].push(border_nodes.len() as u32);
                border_nodes.push(v);
            }
        }
        Skeleton {
            map,
            assignment,
            local_id,
            shards,
            border_nodes,
            shard_borders,
        }
    }

    fn finish(
        self,
        global: Arc<AhIndex>,
        indexes: Vec<Option<AhIndex>>,
        certified: bool,
        matrix: Vec<u64>,
        reentry: Vec<Vec<(u32, u32)>>,
    ) -> ShardedIndex {
        let shards = self
            .shards
            .into_iter()
            .zip(indexes)
            .zip(self.shard_borders)
            .zip(reentry)
            .map(|((((global_ids, graph), index), borders), reentry)| Shard {
                global_ids,
                graph,
                index,
                borders,
                reentry,
            })
            .collect();
        ShardedIndex {
            global,
            map: self.map,
            assignment: self.assignment,
            local_id: self.local_id,
            shards,
            border_nodes: self.border_nodes,
            matrix,
            certified,
        }
    }
}

/// Each shard's reentry pairs, indexed by shard.
type ReentryPairs = Vec<Vec<(u32, u32)>>;

/// The certification pass of [`ShardedIndex::from_global`]: the exact
/// global border-to-border closure of the boundary graph plus each
/// shard's reentry pairs, or an uncertified `(false, empty,
/// empty-per-shard)` when the border count exceeds the cap. Runs *after*
/// every per-shard index exists, since the reentry pairs read them.
fn certify(
    skel: &Skeleton,
    global: &Arc<AhIndex>,
    indexes: &[Option<AhIndex>],
    cfg: &ShardConfig,
) -> (bool, Vec<u64>, ReentryPairs) {
    let b = skel.border_nodes.len();
    let certified = b <= cfg.max_border_nodes;
    let mut matrix = Vec::new();
    let mut reentry: Vec<Vec<(u32, u32)>> = vec![Vec::new(); skel.map.num_shards()];
    if certified {
        // Exact global border-to-border closure of the boundary
        // graph, computed with the global index (docs/SHARDING.md
        // explains why this equals the boundary-graph shortest
        // paths it stands in for).
        let mut gq = AhQuery::new();
        matrix = vec![UNREACHABLE; b * b];
        for (i, &u) in skel.border_nodes.iter().enumerate() {
            for (j, &q) in skel.border_nodes.iter().enumerate() {
                if let Some(d) = gq.distance(global, u, q) {
                    matrix[i * b + j] = d;
                }
            }
        }
        // Reentry pairs: same-shard border pairs whose global
        // distance beats the within-shard one — the only way a
        // same-shard query can improve by leaving its shard.
        let mut lq = AhQuery::new();
        for s in 0..skel.map.num_shards() {
            let Some(idx) = &indexes[s] else { continue };
            for &bi in &skel.shard_borders[s] {
                for &bj in &skel.shard_borders[s] {
                    if bi == bj {
                        continue;
                    }
                    let u = skel.border_nodes[bi as usize];
                    let q = skel.border_nodes[bj as usize];
                    let within = lq
                        .distance(idx, skel.local_id[u as usize], skel.local_id[q as usize])
                        .unwrap_or(UNREACHABLE);
                    if matrix[bi as usize * b + bj as usize] < within {
                        reentry[s].push((bi, bj));
                    }
                }
            }
        }
    }
    (certified, matrix, reentry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(k: usize) -> (Graph, ShardedIndex) {
        let g = ah_data::fixtures::lattice(8, 8, 12);
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: k,
                ..Default::default()
            },
        );
        (g, idx)
    }

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let (g, idx) = sharded(4);
        assert_eq!(idx.num_shards(), 4);
        let mut seen = vec![false; g.num_nodes()];
        for s in 0..idx.num_shards() {
            let shard = idx.shard(s);
            for (local, &v) in shard.global_ids().iter().enumerate() {
                assert_eq!(idx.shard_of(v) as usize, s);
                assert_eq!(idx.local_id(v) as usize, local);
                assert!(!seen[v as usize], "node {v} in two shards");
                seen[v as usize] = true;
            }
            if let Some(i) = shard.index() {
                assert_eq!(i.num_nodes(), shard.num_nodes());
            }
        }
        assert!(seen.iter().all(|&x| x), "every node belongs to a shard");
    }

    #[test]
    fn borders_are_exactly_the_crossing_endpoints() {
        let (g, idx) = sharded(4);
        for v in g.node_ids() {
            let crosses = g
                .out_edges(v)
                .iter()
                .chain(g.in_edges(v))
                .any(|a| idx.shard_of(a.head) != idx.shard_of(v));
            assert_eq!(idx.border_nodes().contains(&v), crosses, "node {v}");
        }
        // A 4-banded lattice has borders and a certified matrix.
        assert!(!idx.border_nodes().is_empty());
        assert!(idx.certified());
        let b = idx.border_nodes().len();
        assert_eq!(idx.matrix().len(), b * b);
        for i in 0..b as u32 {
            assert_eq!(idx.border_distance(i, i), Some(0));
        }
    }

    #[test]
    fn single_shard_is_trivially_certified_with_no_borders() {
        let (_, idx) = sharded(1);
        assert_eq!(idx.num_shards(), 1);
        assert!(idx.border_nodes().is_empty());
        assert!(idx.certified());
        assert!(idx.shard(0).reentry().is_empty());
    }

    #[test]
    fn border_cap_uncertifies() {
        let g = ah_data::fixtures::lattice(8, 8, 12);
        let idx = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 4,
                max_border_nodes: 0,
            },
        );
        assert!(!idx.certified());
        assert!(idx.matrix().is_empty());
    }

    #[test]
    fn from_raw_parts_roundtrip_and_validation() {
        let (g, idx) = sharded(4);
        let indexes: Vec<Option<AhIndex>> = (0..idx.num_shards())
            .map(|s| {
                idx.shard(s)
                    .index()
                    .map(|_| AhIndex::build(idx.shard(s).graph(), &BuildConfig::default()))
            })
            .collect();
        let reentry: Vec<Vec<(u32, u32)>> = (0..idx.num_shards())
            .map(|s| idx.shard(s).reentry().to_vec())
            .collect();
        let re = ShardedIndex::from_raw_parts(
            &g,
            idx.global().clone(),
            idx.num_shards(),
            indexes,
            idx.certified(),
            idx.matrix().to_vec(),
            reentry.clone(),
        )
        .unwrap();
        assert_eq!(re.border_nodes(), idx.border_nodes());
        assert_eq!(re.stats(), idx.stats());

        // Wrong shard count.
        assert!(ShardedIndex::from_raw_parts(
            &g,
            idx.global().clone(),
            idx.num_shards() + 1,
            vec![],
            false,
            vec![],
            vec![],
        )
        .is_err());
        // Certified but truncated matrix.
        assert!(ShardedIndex::from_raw_parts(
            &g,
            idx.global().clone(),
            idx.num_shards(),
            (0..idx.num_shards())
                .map(|s| idx.shard(s).index().map(|_| AhIndex::build(idx.shard(s).graph(), &BuildConfig::default())))
                .collect(),
            true,
            vec![0; 3],
            reentry,
        )
        .is_err());
    }
}
