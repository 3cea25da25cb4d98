//! Delta exactness: a graph patched by [`ah_graph::WeightDelta`]s must
//! be **bit-identical** to an independently rebuilt graph at the final
//! weights, and every backend rebuilt on it — AH, CH, hub labels, the
//! sharded composition around the rebuilt AH index — must
//! answer randomized Q1–Q10 workloads bit-equal to the shared
//! brute-force oracle (`ah_tests::oracle`). This is the campaign that
//! pins the live-update pipeline: if apply ever drifts from
//! rebuild-from-scratch (weight clamping, nuance recomputation, closure
//! encoding), these tests fail first.

use std::collections::HashMap;
use std::sync::Arc;

use ah_ch::{ChIndex, ChQuery};
use ah_core::{AhIndex, AhQuery, BuildConfig};
use ah_graph::{Graph, GraphBuilder, NodeId, WeightChange, WeightDelta, CLOSED};
use ah_labels::LabelIndex;
use ah_server::{DeltaReloader, ServerConfig, SnapshotServer, Tier};
use ah_shard::{ShardConfig, ShardedIndex, ShardedQuery};
use ah_store::{Snapshot, SnapshotContents};
use ah_tests::oracle;
use ah_workload::{generate_query_sets, WeightChurn};

fn network() -> Graph {
    ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 16,
        height: 16,
        seed: 2013,
        ..Default::default()
    })
}

/// Rebuilds `base` from scratch through [`GraphBuilder`] with every
/// change in `final_weights` applied — the independent construction the
/// delta-patched graph must be bit-identical to (the builder recomputes
/// nuances itself; nothing is shared with the apply path).
fn rebuild_with(base: &Graph, final_weights: &HashMap<(NodeId, NodeId), u32>) -> Graph {
    let mut b = GraphBuilder::new();
    for v in base.node_ids() {
        b.add_node(base.coord(v));
    }
    for (tail, arc) in base.edges() {
        let w = final_weights
            .get(&(tail, arc.head))
            .copied()
            .unwrap_or(arc.weight);
        b.add_edge(tail, arc.head, w.max(1));
    }
    b.build()
}

/// Chained random deltas (re-weights and closures), applied one by one,
/// equal a from-scratch rebuild at the final weights — CSR arrays,
/// nuances, content id, everything.
#[test]
fn chained_deltas_equal_scratch_rebuild() {
    let g = network();
    for seed in [1u64, 7, 23] {
        let plan = WeightChurn {
            rounds: 4,
            changes_per_round: 12,
            closure_fraction: 0.3,
            seed,
        }
        .plan(&g, 0);
        assert!(plan.closures() > 0, "seed {seed}: churn must close roads");

        // The final weight of every touched edge, in application order.
        let mut finals: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        for round in &plan.rounds {
            for c in round.delta.changes() {
                finals.insert((c.tail, c.head), c.weight);
            }
        }
        let scratch = rebuild_with(&g, &finals);
        assert_eq!(
            plan.final_graph.csr_parts(),
            scratch.csr_parts(),
            "seed {seed}: delta-apply diverges from an independent rebuild"
        );
        assert_eq!(plan.final_graph.content_id(), scratch.content_id());
    }
}

/// Q1–Q10 bit-identity across all four serving backends after a churn:
/// every index rebuilt on the delta-patched graph answers exactly what
/// Dijkstra answers on the independently rebuilt graph — including
/// `s == t` and routes forced around closures.
#[test]
fn all_backends_bit_identical_after_deltas() {
    let g = network();
    let plan = WeightChurn {
        rounds: 3,
        changes_per_round: 10,
        closure_fraction: 0.25,
        seed: 42,
    }
    .plan(&g, 0);
    let patched = &plan.final_graph;

    let ah = Arc::new(AhIndex::build(patched, &BuildConfig::default()));
    let ch = ChIndex::build(patched);
    let labels = LabelIndex::build(patched, ch.order());
    let sharded = ShardedIndex::from_global(
        patched,
        ah.clone(),
        &ShardConfig {
            shards: 4,
            ..Default::default()
        },
    );

    let mut ahq = AhQuery::new();
    let mut chq = ChQuery::new();
    let mut shq = ShardedQuery::new();
    let sets = generate_query_sets(patched, 25, 9);
    let mut checked = 0usize;
    for set in &sets {
        for &(s, t) in &set.pairs {
            let want = oracle::distance(patched, s, t);
            assert_eq!(ahq.distance(&ah, s, t), want, "AH ({s},{t})");
            assert_eq!(chq.distance(&ch, s, t), want, "CH ({s},{t})");
            assert_eq!(labels.distance(s, t), want, "labels ({s},{t})");
            assert_eq!(shq.distance(&sharded, s, t), want, "sharded ({s},{t})");
            checked += 1;
        }
    }
    assert!(checked >= 100, "workload too small to pin identity");

    // Degenerate queries: s == t answers 0 on every backend, also at a
    // node whose outgoing roads were all touched by the churn.
    let touched = plan.rounds.last().unwrap().delta.changes()[0].tail;
    for s in [0u32, touched] {
        assert_eq!(ahq.distance(&ah, s, s), Some(0));
        assert_eq!(chq.distance(&ch, s, s), Some(0));
        assert_eq!(labels.distance(s, s), Some(0));
        assert_eq!(shq.distance(&sharded, s, s), Some(0));
    }
}

/// A closure-only delta: every closed road is priced at `CLOSED`, so
/// answers either detour (strictly cheaper than one closed hop) or pay
/// the sentinel — and both match Dijkstra on the patched graph.
#[test]
fn closures_reroute_exactly() {
    let g = network();
    // Close every outgoing arc of node 0.
    let changes: Vec<WeightChange> = g
        .out_edges(0)
        .iter()
        .map(|a| WeightChange::close(0, a.head))
        .collect();
    assert!(!changes.is_empty());
    let delta = WeightDelta::new(&g, changes).unwrap();
    let patched = delta.apply(&g).unwrap().graph;

    let ah = AhIndex::build(&patched, &BuildConfig::default());
    let mut q = AhQuery::new();
    let n = patched.num_nodes() as u32;
    for t in [1, n / 3, n / 2, n - 1] {
        let want = oracle::distance(&patched, 0, t);
        assert_eq!(q.distance(&ah, 0, t), want, "(0,{t})");
        // Leaving node 0 now costs at least one CLOSED hop.
        assert!(want.unwrap() >= CLOSED as u64, "(0,{t}) dodged the closures");
        // Arriving is untouched: the inbound arcs kept their weights.
        let back = oracle::distance(&patched, t, 0);
        assert_eq!(q.distance(&ah, t, 0), back);
        assert!(back.unwrap() < CLOSED as u64);
    }
}

/// Ten chained deltas through [`DeltaReloader::reload`]. Each reload
/// first serves a CH index re-contracted under the order that was
/// serving, then upgrades to a rebuilt AH index: after every round both
/// tiers answer the patched graph exactly as the oracle does (distances,
/// and paths that walk real edges at the oracle's length), and the AH
/// index is byte-identical to a scratch build.
#[test]
fn reload_chain_serves_the_oracle_on_both_tiers() {
    let g = network();
    let plan = WeightChurn {
        rounds: 10,
        changes_per_round: 8,
        closure_fraction: 0.25,
        seed: 1039,
    }
    .plan(&g, 0);
    let cfg = BuildConfig::default();
    let snap = Arc::new(SnapshotServer::new(
        Arc::new(AhIndex::build(&g, &cfg)),
        ServerConfig::with_workers(1),
    ));
    let reloader = DeltaReloader::new(Arc::clone(&snap), g.clone(), cfg);
    let (mut ahq, mut chq) = (AhQuery::new(), ChQuery::new());

    let mut graph = g;
    for (round, step) in plan.rounds.iter().enumerate() {
        // The CH tier a reload publishes is a pure function of the
        // patched graph and the serving order, so it is rebuilt here.
        let order = snap.tier().contraction_order();
        let patched = step.delta.apply(&graph).unwrap().graph;
        let out = reloader
            .reload(step.delta.clone())
            .expect("chained delta applies");
        assert_eq!(out.generation, round as u64 + 1);
        let interim = ChIndex::build_with_order(&patched, &order, cfg.contraction);
        let Tier::Ah(ah) = snap.tier() else {
            panic!("round {round}: the reload must end on the AH tier")
        };

        for set in generate_query_sets(&patched, 6, round as u64) {
            for &(s, t) in &set.pairs {
                let want = oracle::distance(&patched, s, t);
                assert_eq!(
                    chq.distance(&interim, s, t),
                    want,
                    "round {round} CH ({s},{t})"
                );
                assert_eq!(ahq.distance(&ah, s, t), want, "round {round} AH ({s},{t})");
                for path in [chq.path(&interim, s, t), ahq.path(&ah, s, t)] {
                    assert_eq!(path.as_ref().map(|p| p.dist.length), want);
                    if let Some(p) = path {
                        p.verify(&patched).unwrap();
                    }
                }
            }
        }
        let scratch = AhIndex::build(&patched, &cfg);
        assert!(
            Snapshot::to_bytes(SnapshotContents::new().ah(&ah))
                == Snapshot::to_bytes(SnapshotContents::new().ah(&scratch)),
            "round {round}: the upgraded AH index differs from a scratch build"
        );
        graph = patched;
    }
    assert_eq!(graph.content_id(), plan.final_graph.content_id());
    assert_eq!(reloader.swaps(), 10, "one swap per delta, not per tier");
}
