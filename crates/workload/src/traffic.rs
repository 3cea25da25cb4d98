//! Serving-traffic streams over the paper's query sets.
//!
//! The figure binaries iterate each `Qi` in isolation; a serving benchmark
//! instead needs one *interleaved* request stream the way real traffic
//! arrives — neighbourhood and cross-country queries mixed, with repeats
//! (commuter pairs) that a distance cache can exploit. [`TrafficSchedule`]
//! turns the distance-stratified sets of [`crate::generate_query_sets`]
//! into such a stream, deterministically in the seed.

use ah_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::QuerySet;

/// How a traffic stream draws from the ten query sets.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSchedule {
    /// Total requests to emit.
    pub total: usize,
    /// Relative draw weight per query set (indexed `Q1 = 0` … `Q10 = 9`;
    /// sets with no pairs are skipped regardless of weight).
    pub weights: [f64; 10],
    /// Fraction of requests that repeat an earlier pair instead of drawing
    /// a fresh one (`0.0 ..= 1.0`) — the cache-locality knob. Repeats pick
    /// uniformly among previously issued pairs.
    pub repeat_fraction: f64,
    /// RNG seed; equal schedules over equal sets yield equal streams.
    pub seed: u64,
}

impl TrafficSchedule {
    /// An even mix over all ten sets with no repetition.
    pub fn uniform(total: usize, seed: u64) -> Self {
        TrafficSchedule {
            total,
            weights: [1.0; 10],
            repeat_fraction: 0.0,
            seed,
        }
    }

    /// A mix resembling interactive map traffic: mostly local queries
    /// (Q1–Q4), a tail of long-range ones, and `repeat_fraction` of
    /// popular-pair repeats.
    pub fn interactive(total: usize, repeat_fraction: f64, seed: u64) -> Self {
        TrafficSchedule {
            total,
            weights: [8.0, 8.0, 6.0, 6.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0],
            repeat_fraction: repeat_fraction.clamp(0.0, 1.0),
            seed,
        }
    }

    /// Materializes the request stream: `total` source–target pairs drawn
    /// from `sets` by weight. Returns an empty stream when every set is
    /// empty (degenerate graphs).
    pub fn generate(&self, sets: &[QuerySet]) -> Vec<(NodeId, NodeId)> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7AFF_1C5E);
        // Cumulative integer weights (milli-units) over non-empty sets; the
        // vendored rand samples integer ranges only.
        let usable: Vec<usize> = (0..sets.len())
            .filter(|&i| {
                !sets[i].pairs.is_empty() && *self.weights.get(i).unwrap_or(&0.0) > 0.0
            })
            .collect();
        if usable.is_empty() || self.total == 0 {
            return Vec::new();
        }
        let mut cum: Vec<u64> = Vec::with_capacity(usable.len());
        let mut acc = 0u64;
        for &i in &usable {
            acc += ((self.weights[i] * 1000.0).round() as u64).max(1);
            cum.push(acc);
        }
        let mut stream: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.total);
        for _ in 0..self.total {
            if !stream.is_empty() && rng.random_bool(self.repeat_fraction) {
                let k = rng.random_range(0..stream.len());
                stream.push(stream[k]);
                continue;
            }
            let x = rng.random_range(0..acc);
            let slot = cum.partition_point(|&c| c <= x).min(usable.len() - 1);
            let set = &sets[usable[slot]];
            let k = rng.random_range(0..set.pairs.len());
            stream.push(set.pairs[k]);
        }
        stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_query_sets;

    fn sets() -> Vec<QuerySet> {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 16,
            height: 16,
            seed: 3,
            ..Default::default()
        });
        generate_query_sets(&g, 30, 11)
    }

    #[test]
    fn stream_has_requested_length_and_is_deterministic() {
        let sets = sets();
        let sched = TrafficSchedule::uniform(500, 42);
        let a = sched.generate(&sets);
        let b = sched.generate(&sets);
        assert_eq!(a.len(), 500);
        assert_eq!(a, b);
        let c = TrafficSchedule::uniform(500, 43).generate(&sets);
        assert_ne!(a, c);
    }

    #[test]
    fn stream_draws_only_from_the_sets() {
        let sets = sets();
        let all: std::collections::HashSet<(NodeId, NodeId)> =
            sets.iter().flat_map(|s| s.pairs.iter().copied()).collect();
        for pair in TrafficSchedule::interactive(300, 0.3, 7).generate(&sets) {
            assert!(all.contains(&pair));
        }
    }

    #[test]
    fn repeat_fraction_induces_duplicates() {
        let sets = sets();
        let none = TrafficSchedule {
            repeat_fraction: 0.0,
            ..TrafficSchedule::uniform(400, 5)
        }
        .generate(&sets);
        let heavy = TrafficSchedule {
            repeat_fraction: 0.9,
            ..TrafficSchedule::uniform(400, 5)
        }
        .generate(&sets);
        let distinct = |v: &[(NodeId, NodeId)]| {
            v.iter().collect::<std::collections::HashSet<_>>().len()
        };
        assert!(
            distinct(&heavy) * 2 < distinct(&none),
            "repeats must collapse the distinct-pair count ({} vs {})",
            distinct(&heavy),
            distinct(&none)
        );
    }

    #[test]
    fn zero_weights_exclude_sets() {
        let sets = sets();
        let mut weights = [0.0; 10];
        weights[9] = 1.0; // Q10 only
        let stream = TrafficSchedule {
            total: 100,
            weights,
            repeat_fraction: 0.0,
            seed: 9,
        }
        .generate(&sets);
        let q10: std::collections::HashSet<_> = sets[9].pairs.iter().copied().collect();
        assert_eq!(stream.len(), 100);
        assert!(stream.iter().all(|p| q10.contains(p)));
    }

    #[test]
    fn empty_sets_yield_empty_stream() {
        let empty: Vec<QuerySet> = (1..=10)
            .map(|i| QuerySet {
                index: i,
                lo: 0,
                hi: 1,
                pairs: Vec::new(),
            })
            .collect();
        assert!(TrafficSchedule::uniform(50, 1).generate(&empty).is_empty());
    }
}
