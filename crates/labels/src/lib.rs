//! **Hub labeling** — an exact distance-only oracle built by pruned
//! labeling over the contraction order.
//!
//! The AH hierarchy (and the CH baseline) answer a distance query by a
//! bidirectional *graph search* over the shortcut-augmented network.
//! Distance-only traffic can be served strictly faster by *hub labels*
//! in the style of Pruned Landmark Labeling (Akiba et al., SIGMOD 2013):
//! every node `u` stores two sorted arrays of `(hub, dist)` pairs —
//! `L_out(u)` with exact distances from `u` to a set of hubs, and
//! `L_in(u)` with exact distances from a set of hubs to `u` — such that
//! every shortest path `s → t` passes through at least one hub common to
//! `L_out(s)` and `L_in(t)` (the *2-hop cover* property). A query is
//! then a two-pointer merge of two sorted arrays:
//!
//! ```text
//! d(s, t) = min over h in L_out(s) ∩ L_in(t) of d(s, h) + d(h, t)
//! ```
//!
//! — no priority queue, no visited set, and perfectly linear memory
//! access, which is why labels dominate search hierarchies on the
//! distance-only workload class.
//!
//! # Construction
//!
//! [`LabelIndex::build`] reuses the contraction order the workspace
//! already computes for CH (`ChIndex::order()`; the same descending-rank
//! convention as `Hierarchy::rank`): hubs are processed from the most
//! important node downward, and each hub `h` runs one forward and one
//! backward *pruned* Dijkstra. When the search from `h` settles `u` at
//! distance `d`, the partially built labels are first consulted: if they
//! already certify a distance `≤ d` through a higher-ranked hub, `u` is
//! pruned — it receives no entry and relaxes no edges. Only
//! non-dominated entries survive, which is what keeps labels small
//! (close to the CH search-space size) instead of `Θ(n)` per node.
//! Each sweep is one `ah_search::DijkstraDriver::run_expanding` call
//! with the prune check as its settle hook; one driver serves every
//! sweep of a build.
//!
//! Entries store the full [`Dist`] — length *and* nuance — so label
//! answers are bit-identical to every other engine in the workspace,
//! including the tie-break component (paper Appendix A).
//!
//! # Layout
//!
//! Labels are stored CSR-style: one flat [`LabelEntry`] array per
//! direction plus `n + 1` offsets, each node's slice sorted by hub id.
//! The flat layout is what the snapshot format persists verbatim
//! (`docs/FORMAT.md`, `labels` section) and what keeps the query's
//! two-pointer merge cache-friendly.
//!
//! ```
//! use ah_labels::LabelIndex;
//!
//! let g = ah_data::fixtures::lattice(4, 4, 10);
//! let ch = ah_ch::ChIndex::build(&g);
//! let labels = LabelIndex::build(&g, ch.order());
//! let want = ah_search::dijkstra_distance(&g, 0, 15).map(|d| d.length);
//! assert_eq!(labels.distance(0, 15), want);
//! assert_eq!(labels.distance(5, 5), Some(0));
//! ```

use ah_graph::{Dist, Graph, NodeId, INFINITY};
use ah_obs::CostCounters;
use ah_search::{DijkstraDriver, Direction, SearchOptions};

pub mod scenario;

/// One hub label: the exact [`Dist`] between a node and `hub` (direction
/// depends on which side the entry lives in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelEntry {
    /// The hub node id.
    pub hub: NodeId,
    /// Exact distance node→hub (out side) or hub→node (in side).
    pub dist: Dist,
}

/// Size and shape summary of a [`LabelIndex`] (reported by the serving
/// benchmarks next to AH's and CH's index statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelStats {
    /// Number of labeled nodes.
    pub num_nodes: usize,
    /// Total entries across both directions.
    pub total_entries: usize,
    /// Mean entries per node per direction (the figure PLL papers report).
    pub avg_label_entries: f64,
    /// Largest single label array.
    pub max_label_entries: usize,
    /// In-memory size of the label arrays in bytes.
    pub bytes: usize,
}

/// A complete 2-hop labeling of one road network. Immutable after build;
/// queries need no per-thread scratch, so `&LabelIndex` is shared freely
/// across serving workers.
pub struct LabelIndex {
    out_offsets: Vec<u32>,
    out_entries: Vec<LabelEntry>,
    in_offsets: Vec<u32>,
    in_entries: Vec<LabelEntry>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LabelIndex>()
};

impl LabelIndex {
    /// Builds the labeling for `g` using `order` as the hub order.
    ///
    /// `order` follows the CH convention (`ChIndex::order()`): `order[i]`
    /// is the node contracted `i`-th, so `order[n-1]` is the most
    /// important node and is processed first. Any permutation of the node
    /// ids yields a *correct* (exact) labeling; the contraction order is
    /// what makes it a *small* one.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..g.num_nodes()`.
    pub fn build(g: &Graph, order: &[NodeId]) -> LabelIndex {
        let n = g.num_nodes();
        assert_eq!(order.len(), n, "hub order must cover every node");
        let mut seen = vec![false; n];
        for &v in order {
            assert!(
                (v as usize) < n && !std::mem::replace(&mut seen[v as usize], true),
                "hub order must be a permutation of the node ids"
            );
        }

        // Per-node growing labels, appended in hub (descending rank)
        // order; flattened into CSR at the end.
        let mut out_labels: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
        let mut in_labels: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
        let mut search = DijkstraDriver::new();
        // Hub-indexed distances of the current hub's own labels (the other
        // direction), for O(|label|) pruning checks; `INFINITY` when the
        // node is not a hub of the current root.
        let mut hub_dist = vec![INFINITY; n];

        for &hub in order.iter().rev() {
            // Forward search from `hub` fills L_in(u) = d(hub, u),
            // pruned against L_out(hub) ∘ L_in(u).
            Self::pruned_sweep(
                g,
                hub,
                Direction::Forward,
                &mut out_labels,
                &mut in_labels,
                &mut search,
                &mut hub_dist,
            );
            // Backward search fills L_out(u) = d(u, hub), pruned against
            // L_out(u) ∘ L_in(hub).
            Self::pruned_sweep(
                g,
                hub,
                Direction::Backward,
                &mut out_labels,
                &mut in_labels,
                &mut search,
                &mut hub_dist,
            );
        }

        // Queries merge by hub id, so re-sort each label from rank order
        // to id order (both strictly monotone per node — each hub's
        // search settles a node at most once).
        let flatten = |mut labels: Vec<Vec<LabelEntry>>| {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut entries = Vec::new();
            offsets.push(0u32);
            for l in &mut labels {
                l.sort_unstable_by_key(|e| e.hub);
                entries.extend_from_slice(l);
                offsets.push(u32::try_from(entries.len()).expect("label arrays exceed u32"));
            }
            (offsets, entries)
        };
        let (out_offsets, out_entries) = flatten(out_labels);
        let (in_offsets, in_entries) = flatten(in_labels);
        LabelIndex {
            out_offsets,
            out_entries,
            in_offsets,
            in_entries,
        }
    }

    /// One pruned Dijkstra from `hub`: forward fills in-labels through
    /// out-edges, backward fills out-labels through in-edges.
    fn pruned_sweep(
        g: &Graph,
        hub: NodeId,
        direction: Direction,
        out_labels: &mut [Vec<LabelEntry>],
        in_labels: &mut [Vec<LabelEntry>],
        search: &mut DijkstraDriver,
        hub_dist: &mut [Dist],
    ) {
        // The hub's own labels on the opposite side feed the pruning
        // check: forward prunes via L_out(hub), backward via L_in(hub).
        let (own, filled): (&[LabelEntry], &mut [Vec<LabelEntry>]) = match direction {
            Direction::Forward => (&out_labels[hub as usize], in_labels),
            Direction::Backward => (&in_labels[hub as usize], out_labels),
        };
        for e in own {
            hub_dist[e.hub as usize] = e.dist;
        }

        let opts = SearchOptions {
            direction,
            ..Default::default()
        };
        search.run_expanding(g, hub, &opts, |_| true, |u, d| {
            // Prune: if the labels built so far (all through strictly
            // higher-ranked hubs) already certify hub→u (or u→hub) at a
            // distance ≤ d, this entry is dominated — record nothing and
            // relax nothing. Lexicographic `Dist` order makes ties exact:
            // equal (length, nuance) means the same canonical path.
            let certified = filled[u as usize]
                .iter()
                .map(|e| hub_dist[e.hub as usize].concat(e.dist))
                .min()
                .unwrap_or(INFINITY);
            if certified <= d {
                return false;
            }
            filled[u as usize].push(LabelEntry { hub, dist: d });
            true
        });

        for e in own {
            hub_dist[e.hub as usize] = INFINITY;
        }
    }

    /// Number of labeled nodes.
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// `L_out(v)`: hubs reachable *from* `v`, sorted by hub id.
    pub fn out_labels(&self, v: NodeId) -> &[LabelEntry] {
        let (a, b) = (self.out_offsets[v as usize], self.out_offsets[v as usize + 1]);
        &self.out_entries[a as usize..b as usize]
    }

    /// `L_in(v)`: hubs that reach `v`, sorted by hub id.
    pub fn in_labels(&self, v: NodeId) -> &[LabelEntry] {
        let (a, b) = (self.in_offsets[v as usize], self.in_offsets[v as usize + 1]);
        &self.in_entries[a as usize..b as usize]
    }

    /// Exact distance with the nuance tie-break component, or `None` when
    /// `t` is unreachable from `s` — bit-identical to `AhQuery`,
    /// `ChQuery` and plain Dijkstra on `Dist`.
    pub fn distance_full(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        let mut scratch = CostCounters::default();
        self.distance_full_with_cost(s, t, &mut scratch)
    }

    /// [`Self::distance_full`] with cost accounting: every label entry
    /// the two-pointer merge advances past is one
    /// `label_entries_merged` — the labels analogue of a settled node.
    pub fn distance_full_with_cost(
        &self,
        s: NodeId,
        t: NodeId,
        cost: &mut CostCounters,
    ) -> Option<Dist> {
        let (a, b) = (self.out_labels(s), self.in_labels(t));
        let (mut i, mut j) = (0, 0);
        let mut best = INFINITY;
        while i < a.len() && j < b.len() {
            match a[i].hub.cmp(&b[j].hub) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = a[i].dist.concat(b[j].dist);
                    if d < best {
                        best = d;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        cost.label_entries_merged += (i + j) as u64;
        (!best.is_infinite()).then_some(best)
    }

    /// Exact network distance from `s` to `t` (length only), or `None`
    /// when unreachable.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Option<u64> {
        self.distance_full(s, t).map(|d| d.length)
    }

    /// Size and shape summary.
    pub fn stats(&self) -> LabelStats {
        let n = self.num_nodes();
        let total = self.out_entries.len() + self.in_entries.len();
        let max = (0..n as NodeId)
            .map(|v| self.out_labels(v).len().max(self.in_labels(v).len()))
            .max()
            .unwrap_or(0);
        LabelStats {
            num_nodes: n,
            total_entries: total,
            avg_label_entries: if n == 0 {
                0.0
            } else {
                total as f64 / (2 * n) as f64
            },
            max_label_entries: max,
            bytes: self.size_bytes(),
        }
    }

    /// In-memory size of the label arrays in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.out_offsets.as_slice())
            + std::mem::size_of_val(self.out_entries.as_slice())
            + std::mem::size_of_val(self.in_offsets.as_slice())
            + std::mem::size_of_val(self.in_entries.as_slice())
    }

    /// The raw CSR arrays `(out_offsets, out_entries, in_offsets,
    /// in_entries)` — what the snapshot format persists.
    pub fn raw_parts(&self) -> (&[u32], &[LabelEntry], &[u32], &[LabelEntry]) {
        (
            &self.out_offsets,
            &self.out_entries,
            &self.in_offsets,
            &self.in_entries,
        )
    }

    /// Reassembles an index from its raw arrays, re-checking every
    /// structural invariant (offset monotonicity, strict hub order,
    /// finite distances, hub ids in range) so a forged snapshot payload
    /// yields a typed error, never out-of-bounds label slices.
    pub fn from_raw_parts(
        out_offsets: Vec<u32>,
        out_entries: Vec<LabelEntry>,
        in_offsets: Vec<u32>,
        in_entries: Vec<LabelEntry>,
    ) -> Result<LabelIndex, &'static str> {
        if out_offsets.len() != in_offsets.len() || out_offsets.is_empty() {
            return Err("label offset arrays disagree on the node count");
        }
        let n = out_offsets.len() - 1;
        for (offsets, entries) in [(&out_offsets, &out_entries), (&in_offsets, &in_entries)] {
            if offsets[0] != 0 || offsets[n] as usize != entries.len() {
                return Err("label offsets do not span the entry array");
            }
            for w in offsets.windows(2) {
                if w[0] > w[1] {
                    return Err("label offsets are not monotone");
                }
            }
            for v in 0..n {
                let slice = &entries[offsets[v] as usize..offsets[v + 1] as usize];
                for e in slice {
                    if e.hub as usize >= n {
                        return Err("label names a hub outside the graph");
                    }
                    if e.dist.is_infinite() {
                        return Err("label stores an infinite distance");
                    }
                }
                for w in slice.windows(2) {
                    if w[0].hub >= w[1].hub {
                        return Err("label entries are not strictly hub-sorted");
                    }
                }
            }
        }
        Ok(LabelIndex {
            out_offsets,
            out_entries,
            in_offsets,
            in_entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_ch::ChIndex;
    use ah_search::dijkstra_distance;

    fn build(g: &Graph) -> LabelIndex {
        LabelIndex::build(g, ChIndex::build(g).order())
    }

    fn assert_exact(g: &Graph, labels: &LabelIndex) {
        for s in 0..g.num_nodes() as NodeId {
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(
                    labels.distance_full(s, t),
                    dijkstra_distance(g, s, t),
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn exact_on_small_fixtures() {
        for g in [
            ah_data::fixtures::lattice(5, 4, 12),
            ah_data::fixtures::ring(9),
            ah_data::fixtures::line(7, 10),
            ah_data::fixtures::figure1_like(),
        ] {
            let labels = build(&g);
            assert_exact(&g, &labels);
        }
    }

    #[test]
    fn exact_on_a_directed_road_like_grid() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 9,
            height: 9,
            one_way: 0.25,
            seed: 77,
            ..Default::default()
        });
        let labels = build(&g);
        assert_exact(&g, &labels);
    }

    #[test]
    fn labels_are_sorted_and_self_covering() {
        let g = ah_data::fixtures::lattice(6, 6, 10);
        let labels = build(&g);
        for v in 0..g.num_nodes() as NodeId {
            for side in [labels.out_labels(v), labels.in_labels(v)] {
                assert!(side.windows(2).all(|w| w[0].hub < w[1].hub));
            }
            assert_eq!(labels.distance_full(v, v), Some(Dist::ZERO));
        }
    }

    #[test]
    fn any_permutation_is_exact_just_bigger() {
        let g = ah_data::fixtures::lattice(4, 5, 11);
        let n = g.num_nodes() as NodeId;
        // A deliberately bad hub order: identity.
        let order: Vec<NodeId> = (0..n).collect();
        let labels = LabelIndex::build(&g, &order);
        assert_exact(&g, &labels);
    }

    #[test]
    fn raw_parts_roundtrip_and_forgeries_are_rejected() {
        let g = ah_data::fixtures::lattice(4, 4, 10);
        let labels = build(&g);
        let (oo, oe, io, ie) = labels.raw_parts();
        let rebuilt = LabelIndex::from_raw_parts(
            oo.to_vec(),
            oe.to_vec(),
            io.to_vec(),
            ie.to_vec(),
        )
        .unwrap();
        for (s, t) in [(0u32, 15u32), (3, 9), (7, 7)] {
            assert_eq!(rebuilt.distance_full(s, t), labels.distance_full(s, t));
        }

        let mut bad = oo.to_vec();
        bad[1] = bad[2] + 1; // non-monotone
        assert!(LabelIndex::from_raw_parts(bad, oe.to_vec(), io.to_vec(), ie.to_vec()).is_err());

        let mut bad = oe.to_vec();
        bad[0].hub = g.num_nodes() as NodeId; // out of range
        assert!(
            LabelIndex::from_raw_parts(oo.to_vec(), bad, io.to_vec(), ie.to_vec()).is_err()
        );
    }

    #[test]
    fn stats_are_consistent() {
        let g = ah_data::fixtures::lattice(6, 5, 10);
        let labels = build(&g);
        let s = labels.stats();
        assert_eq!(s.num_nodes, g.num_nodes());
        assert!(s.total_entries >= 2 * g.num_nodes(), "every node self-labels");
        assert!(s.avg_label_entries >= 1.0);
        assert!(s.max_label_entries as f64 >= s.avg_label_entries);
        assert_eq!(s.bytes, labels.size_bytes());
        assert!(s.bytes > 0);
    }
}
