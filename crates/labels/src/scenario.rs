//! The batched distance table over hub labels: a bucket-style sweep
//! for many-to-many tables.
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
//! The table is how hub labels price scenario queries: k-nearest and
//! via-POI answers are ranked from it by `ah_search::scenario::{nearest,
//! best_via}`, the workspace-wide determinism contract, so this module
//! has no ranking of its own. Answers are bit-identical to the Dijkstra
//! reference kernels because every underlying distance is.

use std::collections::HashMap;

use ah_graph::{Dist, NodeId, INFINITY};
use ah_obs::CostCounters;

use crate::LabelIndex;

/// Hub → `(target index, d(hub, target))` entries, the reusable half of
/// a batched sweep. Built once per target set by
/// [`LabelIndex::bucket_targets`], swept by any number of sources.
type TargetBuckets = HashMap<NodeId, Vec<(u32, Dist)>>;

impl LabelIndex {
    /// Buckets the in-labels of `targets` by hub, ready for
    /// [`Self::sweep_source`]. Every in-label entry dropped into a
    /// bucket counts as one `label_entries_merged`.
    fn bucket_targets(&self, targets: &[NodeId], cost: &mut CostCounters) -> TargetBuckets {
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
    fn sweep_source(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_ch::ChIndex;
    use ah_graph::Graph;
    use ah_search::scenario::{best_via, nearest, PoiSet};
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
    fn knn_and_via_agree_with_the_dijkstra_kernels() {
        // Label-priced rows and second legs, ranked by the shared
        // contract, answer exactly what the Dijkstra kernels answer.
        let g = grid();
        let labels = build(&g);
        let pois = PoiSet::synthetic(g.num_nodes(), 4, 5);
        let mut eng = ScenarioEngine::new();
        let cost = &mut CostCounters::default();
        for cat in 0..4 {
            let cands = pois.category(cat);
            let far = g.num_nodes() as u32 - 3;
            let row = labels.many_to_many(&[12], cands, cost).remove(0);
            let want = eng.knn(&g, 12, cands, 4);
            assert_eq!(nearest(cands, &row, 4), want, "knn cat {cat}");
            let to_poi = labels.many_to_many(&[2], cands, cost).remove(0);
            let got = best_via(cands, &to_poi, |p| {
                labels
                    .distance_full_with_cost(p, far, cost)
                    .map(|d| d.length)
            });
            assert_eq!(got, eng.via(&g, 2, far, cands), "via cat {cat}");
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
        assert_eq!(
            labels.many_to_many(&[0, 3], &[1, 2, 4], cost),
            vec![vec![Some(2), None, None], vec![None, Some(2), Some(2)]]
        );
    }
}
