//! Query workloads and experiment plumbing (paper Section 6.1).
//!
//! The paper evaluates with ten query sets `Q1 … Q10` per dataset: each
//! `Qi` holds source–target pairs whose network distance lies in
//! `[2^(i-11)·lmax, 2^(i-10)·lmax)`, where `lmax` estimates the maximum
//! network distance of the dataset — so `Q1` holds neighbourhood queries
//! and `Q10` cross-country ones. This crate generates those sets
//! ([`generate_query_sets`]), estimates `lmax` ([`estimate_lmax`]), and
//! provides the timing/record plumbing the figure binaries share.

mod churn;
mod traffic;

pub use churn::{ChurnPlan, ChurnRound, WeightChurn};
pub use traffic::TrafficSchedule;

use ah_graph::{Graph, NodeId};
use ah_search::{DijkstraDriver, SearchOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One of the paper's distance-stratified query sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySet {
    /// Set number `1..=10` (the paper's `Qi`).
    pub index: u32,
    /// Distance range `[lo, hi)` this set draws from.
    pub lo: u64,
    /// Exclusive upper bound of the range.
    pub hi: u64,
    /// The query pairs.
    pub pairs: Vec<(NodeId, NodeId)>,
}

/// Estimates the maximum network distance `lmax` with the classic double
/// sweep: Dijkstra from a seed node to its farthest reachable node, then
/// from there again; the largest distance seen is the estimate.
pub fn estimate_lmax(g: &Graph, seed: u64) -> u64 {
    if g.num_nodes() == 0 {
        return 0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut driver = DijkstraDriver::new();
    let mut best = 0u64;
    let mut source = rng.random_range(0..g.num_nodes() as NodeId);
    for _ in 0..2 {
        driver.run(g, source, &SearchOptions::default(), |_| true);
        let mut far = source;
        for v in g.node_ids() {
            let d = driver.dist(v);
            if !d.is_infinite() && d.length > best {
                best = d.length;
                far = v;
            }
        }
        source = far;
    }
    best
}

/// Generates the ten query sets. Each set receives up to `pairs_per_set`
/// pairs; sets whose distance range is not realized in the network (tiny
/// graphs) may come back smaller. Deterministic in `seed`.
///
/// Strategy: sample random sources, compute their full shortest-path
/// trees, and bucket reachable targets by distance range, drawing a few
/// pairs per source so no single source dominates a set.
pub fn generate_query_sets(g: &Graph, pairs_per_set: usize, seed: u64) -> Vec<QuerySet> {
    let lmax = estimate_lmax(g, seed ^ 0x51AB);
    let mut sets: Vec<QuerySet> = (1..=10)
        .map(|i| {
            // [2^(i-11) lmax, 2^(i-10) lmax)
            let lo = lmax >> (11 - i);
            let hi = lmax >> (10 - i);
            QuerySet {
                index: i as u32,
                lo,
                hi: if i == 10 { hi + 1 } else { hi },
                pairs: Vec::new(),
            }
        })
        .collect();
    let n = g.num_nodes();
    if n < 2 || lmax == 0 {
        return sets;
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut driver = DijkstraDriver::new();
    // Cap per (source, set) so pairs spread over many sources.
    let per_source_cap = (pairs_per_set / 16).max(4);
    let max_sources = (n * 4).max(512);

    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); 10];
    for _ in 0..max_sources {
        if sets.iter().all(|s| s.pairs.len() >= pairs_per_set) {
            break;
        }
        let s = rng.random_range(0..n as NodeId);
        driver.run(g, s, &SearchOptions::default(), |_| true);
        for b in &mut buckets {
            b.clear();
        }
        for t in g.node_ids() {
            if t == s {
                continue;
            }
            let d = driver.dist(t);
            if d.is_infinite() {
                continue;
            }
            for (i, set) in sets.iter().enumerate() {
                if d.length >= set.lo && d.length < set.hi {
                    buckets[i].push(t);
                    break;
                }
            }
        }
        for (i, bucket) in buckets.iter_mut().enumerate() {
            if sets[i].pairs.len() >= pairs_per_set || bucket.is_empty() {
                continue;
            }
            // Fisher–Yates prefix shuffle for an unbiased sample.
            let take = per_source_cap
                .min(bucket.len())
                .min(pairs_per_set - sets[i].pairs.len());
            for k in 0..take {
                let j = rng.random_range(k..bucket.len());
                bucket.swap(k, j);
                sets[i].pairs.push((s, bucket[k]));
            }
        }
    }
    sets
}

/// One measurement row of a figure series (serialized by the harness into
/// the experiment log).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SeriesRecord {
    /// Dataset name (`S0` …).
    pub dataset: String,
    /// Number of nodes of the dataset.
    pub nodes: usize,
    /// Method name (`AH`, `CH`, `SILC`, `Dijkstra`, `FC`).
    pub method: String,
    /// Query set `Q1..Q10` (0 for non-query experiments).
    pub query_set: u32,
    /// Average microseconds per query (or seconds for preprocessing rows).
    pub value: f64,
    /// What `value` measures (`us/query`, `MB`, `s`).
    pub unit: String,
}

impl SeriesRecord {
    /// Renders the record as a TSV line (header via [`SeriesRecord::tsv_header`]).
    pub fn tsv_line(&self) -> String {
        format!(
            "{}\t{}\t{}\tQ{}\t{:.3}\t{}",
            self.dataset, self.nodes, self.method, self.query_set, self.value, self.unit
        )
    }

    /// TSV header matching [`SeriesRecord::tsv_line`].
    pub fn tsv_header() -> &'static str {
        "dataset\tnodes\tmethod\tquery_set\tvalue\tunit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_data::fixtures;

    #[test]
    fn lmax_on_line() {
        // 10-node unit line: diameter 9.
        let g = fixtures::line(10, 5);
        assert_eq!(estimate_lmax(&g, 1), 9);
    }

    #[test]
    fn query_sets_respect_ranges() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 20,
            height: 20,
            seed: 8,
            ..Default::default()
        });
        let sets = generate_query_sets(&g, 50, 9);
        assert_eq!(sets.len(), 10);
        let mut driver = DijkstraDriver::new();
        for set in &sets {
            for &(s, t) in &set.pairs {
                driver.run(&g, s, &SearchOptions::default(), |_| true);
                let d = driver.dist(t);
                assert!(!d.is_infinite());
                assert!(
                    d.length >= set.lo && d.length < set.hi,
                    "Q{}: dist {} outside [{}, {})",
                    set.index,
                    d.length,
                    set.lo,
                    set.hi
                );
            }
        }
        // Long-range sets must be populated on a 20×20 network.
        assert!(!sets[9].pairs.is_empty(), "Q10 empty");
        assert!(!sets[5].pairs.is_empty(), "Q6 empty");
    }

    #[test]
    fn query_sets_are_deterministic() {
        let g = fixtures::lattice(12, 12, 10);
        let a = generate_query_sets(&g, 20, 42);
        let b = generate_query_sets(&g, 20, 42);
        assert_eq!(a, b);
        let c = generate_query_sets(&g, 20, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_graphs() {
        let empty = ah_graph::GraphBuilder::new().build();
        let sets = generate_query_sets(&empty, 10, 1);
        assert!(sets.iter().all(|s| s.pairs.is_empty()));
        assert_eq!(estimate_lmax(&empty, 1), 0);

        let single = fixtures::line(1, 1);
        let sets1 = generate_query_sets(&single, 10, 1);
        assert!(sets1.iter().all(|s| s.pairs.is_empty()));
    }

    #[test]
    fn record_tsv() {
        let r = SeriesRecord {
            dataset: "S0".into(),
            nodes: 1000,
            method: "AH".into(),
            query_set: 3,
            value: 1.5,
            unit: "us/query".into(),
        };
        assert_eq!(r.tsv_line(), "S0\t1000\tAH\tQ3\t1.500\tus/query");
        assert!(SeriesRecord::tsv_header().starts_with("dataset"));
    }
}
