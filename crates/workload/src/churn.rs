//! Weight churn for live-update benchmarks.
//!
//! A serving benchmark that only ever queries one frozen graph cannot
//! exercise the delta-reload pipeline. [`WeightChurn`] plans a
//! deterministic sequence of [`WeightDelta`]s — re-weights and road
//! closures — spaced evenly through a request stream, each cut against
//! the graph as patched by the rounds before it (the shape a live feed
//! of traffic updates takes). The driver replays the stream, fires each
//! round's delta at its `at` offset, and can hold the final answers to
//! the plan's [`ChurnPlan::final_graph`] for an exactness check.

use ah_graph::{Graph, NodeId, Weight, WeightChange, WeightDelta, CLOSED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a churn stream perturbs edge weights.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightChurn {
    /// Number of deltas to emit.
    pub rounds: usize,
    /// Edges re-weighted per round (clamped to the graph's edge count).
    pub changes_per_round: usize,
    /// Fraction of changes that close the road ([`CLOSED`] weight)
    /// instead of re-weighting it (`0.0 ..= 1.0`). A later round may
    /// re-open a closed edge at a fresh weight.
    pub closure_fraction: f64,
    /// RNG seed; equal configurations over equal graphs yield equal
    /// plans.
    pub seed: u64,
}

impl WeightChurn {
    /// A churn resembling a live traffic feed: mostly congestion
    /// re-weights with an occasional closure.
    pub fn interactive(rounds: usize, changes_per_round: usize, seed: u64) -> Self {
        WeightChurn {
            rounds,
            changes_per_round,
            closure_fraction: 0.2,
            seed,
        }
    }

    /// Materializes the plan against `base`: one delta per round, each
    /// cut against the previous round's patched graph, fired at offsets
    /// spaced evenly through a stream of `total_requests` requests.
    /// Returns an empty plan for edgeless graphs or zero-round churn.
    pub fn plan(&self, base: &Graph, total_requests: usize) -> ChurnPlan {
        let edges: Vec<(NodeId, NodeId, Weight)> = base
            .edges()
            .map(|(tail, arc)| (tail, arc.head, arc.weight))
            .collect();
        if edges.is_empty() || self.rounds == 0 || self.changes_per_round == 0 {
            return ChurnPlan {
                rounds: Vec::new(),
                final_graph: base.clone(),
            };
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xC0DE_C4A9_5EED_0011);
        let per_round = self.changes_per_round.min(edges.len());
        let mut current = base.clone();
        let mut rounds = Vec::with_capacity(self.rounds);
        for r in 0..self.rounds {
            let mut changes = Vec::with_capacity(per_round);
            for _ in 0..per_round {
                let (tail, head, w0) = edges[rng.random_range(0..edges.len())];
                // Scale off the *base* weight: the current weight may be
                // CLOSED from an earlier round, which would overflow.
                let change = if rng.random_bool(self.closure_fraction.clamp(0.0, 1.0)) {
                    WeightChange::close(tail, head)
                } else {
                    let w0 = w0.clamp(1, Weight::MAX / 4);
                    WeightChange::new(tail, head, rng.random_range(1..=w0 * 3))
                };
                changes.push(change);
            }
            // Duplicate edges collapse to the last change; construction
            // cannot fail because churn never invents edges.
            let delta = WeightDelta::new(&current, changes)
                .expect("churn only re-weights edges the base graph has");
            current = delta
                .apply(&current)
                .expect("delta was cut against this graph")
                .graph;
            let at = (r + 1) * total_requests / (self.rounds + 1);
            rounds.push(ChurnRound { at, delta });
        }
        ChurnPlan {
            rounds,
            final_graph: current,
        }
    }
}

/// One planned reload: fire `delta` once `at` requests have been served.
#[derive(Debug, Clone)]
pub struct ChurnRound {
    /// Request offset in the stream at which this round fires.
    pub at: usize,
    /// The delta to apply — cut against the graph as patched by every
    /// earlier round.
    pub delta: WeightDelta,
}

/// A materialized churn: the rounds in firing order plus the graph all
/// of them compose to (the exactness oracle for post-churn answers).
#[derive(Debug, Clone)]
pub struct ChurnPlan {
    /// Rounds in firing order, `at` ascending.
    pub rounds: Vec<ChurnRound>,
    /// `base` with every round applied, bit-identical to a from-scratch
    /// rebuild at the final weights.
    pub final_graph: Graph,
}

impl ChurnPlan {
    /// Total number of individual edge changes across all rounds.
    pub fn total_changes(&self) -> usize {
        self.rounds.iter().map(|r| r.delta.len()).sum()
    }

    /// How many of those changes are closures.
    pub fn closures(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.delta.changes())
            .filter(|c| c.weight == CLOSED)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Graph {
        ah_data::fixtures::lattice(8, 8, 10)
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let g = base();
        let churn = WeightChurn::interactive(4, 6, 77);
        let a = churn.plan(&g, 1000);
        let b = churn.plan(&g, 1000);
        assert_eq!(a.rounds.len(), 4);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.at, rb.at);
            assert_eq!(ra.delta, rb.delta);
        }
        assert_eq!(a.final_graph.content_id(), b.final_graph.content_id());
        let c = WeightChurn::interactive(4, 6, 78).plan(&g, 1000);
        assert_ne!(a.final_graph.content_id(), c.final_graph.content_id());
    }

    #[test]
    fn rounds_chain_their_base_graphs() {
        let g = base();
        let plan = WeightChurn::interactive(5, 4, 3).plan(&g, 500);
        let mut cur = g;
        for round in &plan.rounds {
            assert_eq!(round.delta.base_id(), cur.content_id());
            cur = round.delta.apply(&cur).unwrap().graph;
        }
        assert_eq!(cur.content_id(), plan.final_graph.content_id());
    }

    #[test]
    fn fire_points_are_spaced_and_ascending() {
        let g = base();
        let plan = WeightChurn::interactive(3, 2, 9).plan(&g, 400);
        let ats: Vec<usize> = plan.rounds.iter().map(|r| r.at).collect();
        assert_eq!(ats, vec![100, 200, 300]);
    }

    #[test]
    fn closure_fraction_produces_closures_and_zero_suppresses_them() {
        let g = base();
        let heavy = WeightChurn {
            closure_fraction: 1.0,
            ..WeightChurn::interactive(2, 8, 5)
        }
        .plan(&g, 100);
        assert_eq!(heavy.closures(), heavy.total_changes());
        let none = WeightChurn {
            closure_fraction: 0.0,
            ..WeightChurn::interactive(2, 8, 5)
        }
        .plan(&g, 100);
        assert_eq!(none.closures(), 0);
        assert!(none.total_changes() > 0);
    }

    #[test]
    fn degenerate_inputs_yield_empty_plans() {
        let g = base();
        assert!(WeightChurn::interactive(0, 4, 1).plan(&g, 100).rounds.is_empty());
        let plan = WeightChurn::interactive(3, 0, 1).plan(&g, 100);
        assert!(plan.rounds.is_empty());
        assert_eq!(plan.final_graph.content_id(), g.content_id());
    }
}
