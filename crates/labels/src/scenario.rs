//! Scenario kernels over hub labels: bucket-style batched sweeps for
//! one-to-many / many-to-many tables, k-nearest-POI, and via-POI
//! detours.
//!
//! The classic bucket trick for batched distance tables (Knopp et al.'s
//! many-to-many CH) drops each target's *backward* search space into
//! per-node buckets, then runs each source's forward space once against
//! them. Hub labels make the same shape trivial: a node's backward
//! search space *is* its in-label. [`LabelIndex::many_to_many`] buckets
//! every target's in-label entries by hub and then scans each source's
//! out-label exactly once — `O(Σ|L_out(s)| + Σ|L_in(t)| + matches)`
//! instead of `|S|·|T|` independent merges.
//!
//! All kernels follow the workspace-wide scenario determinism contract
//! (see `ah_search::scenario`): ranking by `(length, node id)`,
//! unreachable candidates dropped. Answers are bit-identical to the
//! Dijkstra reference kernels because every underlying distance is.

use std::collections::HashMap;

use ah_graph::{Dist, NodeId, INFINITY};
use ah_obs::CostCounters;

use crate::LabelIndex;

/// Hub → `(target index, d(hub, target))` entries, the reusable half of
/// a batched sweep. Build once per target set with
/// [`LabelIndex::bucket_targets`], sweep any number of sources.
pub type TargetBuckets = HashMap<NodeId, Vec<(u32, Dist)>>;

impl LabelIndex {
    /// Buckets the in-labels of `targets` by hub, ready for
    /// [`Self::sweep_source`]. Every in-label entry dropped into a
    /// bucket counts as one `label_entries_merged`.
    pub fn bucket_targets(&self, targets: &[NodeId], cost: &mut CostCounters) -> TargetBuckets {
        let mut buckets: TargetBuckets = HashMap::new();
        for (j, &t) in targets.iter().enumerate() {
            let entries = self.in_labels(t);
            cost.label_entries_merged += entries.len() as u64;
            for e in entries {
                buckets
                    .entry(e.hub)
                    .or_default()
                    .push((j as u32, e.dist));
            }
        }
        buckets
    }

    /// One source's row of the distance table: scans `L_out(source)`
    /// once against the target buckets. `width` is the target count
    /// (the row length). Each out-label entry scanned and each bucket
    /// hit priced count as `label_entries_merged`.
    pub fn sweep_source(
        &self,
        source: NodeId,
        buckets: &TargetBuckets,
        width: usize,
        cost: &mut CostCounters,
    ) -> Vec<Option<u64>> {
        let mut best = vec![INFINITY; width];
        let entries = self.out_labels(source);
        cost.label_entries_merged += entries.len() as u64;
        for e in entries {
            if let Some(hits) = buckets.get(&e.hub) {
                cost.label_entries_merged += hits.len() as u64;
                for &(j, dt) in hits {
                    let d = e.dist.concat(dt);
                    if d < best[j as usize] {
                        best[j as usize] = d;
                    }
                }
            }
        }
        best.into_iter()
            .map(|d| (!d.is_infinite()).then_some(d.length))
            .collect()
    }

    /// Full distance table `sources × targets` by one bucket build plus
    /// one out-label sweep per source (`None` = unreachable).
    pub fn many_to_many(
        &self,
        sources: &[NodeId],
        targets: &[NodeId],
        cost: &mut CostCounters,
    ) -> Vec<Vec<Option<u64>>> {
        let buckets = self.bucket_targets(targets, cost);
        sources
            .iter()
            .map(|&s| self.sweep_source(s, &buckets, targets.len(), cost))
            .collect()
    }

    /// Distances from `source` to each of `targets`; row `i` of
    /// [`Self::many_to_many`] with a single source.
    pub fn one_to_many(
        &self,
        source: NodeId,
        targets: &[NodeId],
        cost: &mut CostCounters,
    ) -> Vec<Option<u64>> {
        let buckets = self.bucket_targets(targets, cost);
        self.sweep_source(source, &buckets, targets.len(), cost)
    }

    /// The `k` nearest `candidates` from `source` by network distance,
    /// sorted ascending by `(distance, node id)`; unreachable candidates
    /// dropped. One batched sweep prices every candidate.
    pub fn knn(
        &self,
        source: NodeId,
        candidates: &[NodeId],
        k: usize,
        cost: &mut CostCounters,
    ) -> Vec<(NodeId, u64)> {
        let row = self.one_to_many(source, candidates, cost);
        let mut found: Vec<(u64, NodeId)> = row
            .iter()
            .zip(candidates)
            .filter_map(|(d, &p)| d.map(|d| (d, p)))
            .collect();
        found.sort_unstable();
        found.truncate(k);
        found.into_iter().map(|(d, p)| (p, d)).collect()
    }

    /// The optimal detour `s → p → t` over `candidates`: returns
    /// `(poi, d(s,poi), d(poi,t))` minimizing `(total, poi)`, or `None`
    /// when no candidate has both legs reachable. Two batched sweeps
    /// (forward legs from `s`, backward legs into `t`) price every
    /// candidate.
    pub fn via(
        &self,
        s: NodeId,
        t: NodeId,
        candidates: &[NodeId],
        cost: &mut CostCounters,
    ) -> Option<(NodeId, u64, u64)> {
        let to = self.one_to_many(s, candidates, cost);
        // Backward legs: a 1-wide many-to-many with the candidate set as
        // sources — the bucket holds only L_in(t).
        let from: Vec<Option<u64>> = {
            let buckets = self.bucket_targets(&[t], cost);
            candidates
                .iter()
                .map(|&p| self.sweep_source(p, &buckets, 1, cost)[0])
                .collect()
        };
        let mut best: Option<(u64, NodeId, u64, u64)> = None;
        for ((&p, a), b) in candidates.iter().zip(&to).zip(&from) {
            let (Some(a), Some(b)) = (a, b) else { continue };
            let total = a.saturating_add(*b);
            let better = match best {
                None => true,
                Some((bt, bp, _, _)) => total < bt || (total == bt && p < bp),
            };
            if better {
                best = Some((total, p, *a, *b));
            }
        }
        best.map(|(_, p, a, b)| (p, a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_ch::ChIndex;
    use ah_graph::Graph;
    use ah_search::scenario::PoiSet;
    use ah_search::{dijkstra_distance, ScenarioEngine};

    fn grid() -> Graph {
        ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 8,
            height: 8,
            one_way: 0.25,
            seed: 90,
            ..Default::default()
        })
    }

    fn build(g: &Graph) -> LabelIndex {
        LabelIndex::build(g, ChIndex::build(g).order())
    }

    #[test]
    fn many_to_many_matches_dijkstra() {
        let g = grid();
        let labels = build(&g);
        let last = g.num_nodes() as u32 - 1;
        let sources = [0u32, 9, 30, last];
        let targets = [5u32, 0, 44, last, 17];
        let table = labels.many_to_many(&sources, &targets, &mut CostCounters::default());
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    table[i][j],
                    dijkstra_distance(&g, s, t).map(|d| d.length),
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn one_to_many_is_row_zero() {
        let g = grid();
        let labels = build(&g);
        let targets = [3u32, 8, 21, 50];
        let cost = &mut CostCounters::default();
        assert_eq!(
            labels.one_to_many(7, &targets, cost),
            labels.many_to_many(&[7], &targets, cost)[0]
        );
    }

    #[test]
    fn knn_and_via_agree_with_the_dijkstra_kernels() {
        let g = grid();
        let labels = build(&g);
        let pois = PoiSet::synthetic(g.num_nodes(), 4, 5);
        let mut eng = ScenarioEngine::new();
        let cost = &mut CostCounters::default();
        for cat in 0..4 {
            let cands = pois.category(cat);
            let far = g.num_nodes() as u32 - 3;
            assert_eq!(labels.knn(12, cands, 4, cost), eng.knn(&g, 12, cands, 4), "knn cat {cat}");
            let got = labels.via(2, far, cands, cost);
            let want = eng
                .via(&g, 2, far, cands)
                .map(|v| (v.poi, v.to_poi, v.from_poi));
            assert_eq!(got, want, "via cat {cat}");
        }
    }

    #[test]
    fn unreachable_targets_are_none() {
        // Two disconnected components.
        let mut b = ah_graph::GraphBuilder::new();
        for i in 0..5 {
            b.add_node(ah_graph::Point::new(i, 0));
        }
        b.add_bidirectional_edge(0, 1, 2);
        b.add_bidirectional_edge(2, 3, 2);
        b.add_bidirectional_edge(3, 4, 2);
        let g = b.build();
        let labels = build(&g);
        let cost = &mut CostCounters::default();
        assert_eq!(labels.one_to_many(0, &[1, 2, 4], cost), vec![Some(2), None, None]);
        assert_eq!(labels.knn(0, &[2, 4], 3, cost), vec![]);
        assert_eq!(labels.via(0, 1, &[3, 4], cost), None);
    }
}
