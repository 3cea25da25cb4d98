//! Cross-shard exactness: sharded answers must be **bit-equal** to the
//! unsharded `AhQuery` — itself pinned against the shared brute-force
//! oracle (`ah_tests::oracle`) — on randomized Q1–Q10 workloads,
//! including the pairs whose endpoints straddle two or more shards, the
//! ones that exercise boundary composition.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ah_tests::oracle;

use ah_core::{AhIndex, AhQuery, BuildConfig};
use ah_server::{
    AhBackend, CostCounters, Request, Server, ServerConfig, ShardedServer, ShardedServerConfig,
};
use ah_shard::{ShardConfig, ShardedIndex, ShardedQuery};
use ah_workload::{generate_query_sets, TrafficSchedule};

fn network() -> ah_graph::Graph {
    ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 20,
        height: 20,
        seed: 77,
        ..Default::default()
    })
}

fn sharded(g: &ah_graph::Graph, shards: usize) -> (Arc<AhIndex>, Arc<ShardedIndex>) {
    let global = Arc::new(AhIndex::build(g, &BuildConfig::default()));
    let idx = ShardedIndex::from_global(
        g,
        global.clone(),
        &ShardConfig {
            shards,
            ..Default::default()
        },
    );
    (global, Arc::new(idx))
}

/// Q1–Q10 identity: every pair of every distance-stratified set answers
/// identically, and the workload genuinely straddles shards.
#[test]
fn q1_to_q10_sharded_equals_unsharded() {
    let g = network();
    let sets = generate_query_sets(&g, 40, 2013);

    // Ground truth first: the unsharded AH index agrees with the
    // brute-force oracle on the whole workload (one Dijkstra row per
    // distinct source).
    {
        let (global, _) = sharded(&g, 2);
        let mut gq = AhQuery::new();
        let mut rows: HashMap<u32, Vec<Option<u64>>> = HashMap::new();
        for set in &sets {
            for &(s, t) in &set.pairs {
                let row = rows.entry(s).or_insert_with(|| oracle::dists_from(&g, s));
                assert_eq!(
                    gq.distance(&global, s, t),
                    row[t as usize],
                    "AH vs oracle ({s},{t})"
                );
            }
        }
    }

    for &k in &[2usize, 4, 7] {
        let (global, idx) = sharded(&g, k);
        let mut sq = ShardedQuery::new();
        let mut gq = AhQuery::new();
        let mut shard_pairs: HashSet<(u16, u16)> = HashSet::new();
        let mut straddling = 0usize;
        for set in &sets {
            for &(s, t) in &set.pairs {
                let a = idx.shard_of(s);
                let b = idx.shard_of(t);
                if a != b {
                    straddling += 1;
                    shard_pairs.insert((a.min(b), a.max(b)));
                }
                assert_eq!(
                    sq.distance(&idx, s, t),
                    gq.distance(&global, s, t),
                    "k={k} Q{} ({s},{t})",
                    set.index
                );
            }
        }
        // The long-range sets must produce pairs that straddle shards —
        // and, when more than two shards exist, pairs spanning at least
        // two *distinct* shard pairs (2+ shards involved beyond one
        // boundary) — or the suite is not testing composition.
        assert!(straddling > 0, "k={k}: no cross-shard pairs in Q1–Q10");
        assert!(
            shard_pairs.len() >= if k > 2 { 2 } else { 1 },
            "k={k}: cross-shard pairs span only {:?}",
            shard_pairs
        );
    }
}

/// The `ShardedServer` serves an interleaved Q1–Q10 traffic stream with
/// answers bit-equal to a plain `Server` over the unsharded index.
#[test]
fn sharded_server_traffic_identity() {
    let g = network();
    let sets = generate_query_sets(&g, 40, 99);
    let stream = TrafficSchedule::interactive(1200, 0.3, 99).generate(&sets);
    let requests: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| Request::distance(i as u64, s, t))
        .collect();

    let (global, idx) = sharded(&g, 4);
    let sharded_server =
        ShardedServer::new(idx.clone(), ShardedServerConfig::with_workers_per_shard(2));
    let got = sharded_server.run(&requests);
    assert!(got.cross_shard > 0, "traffic must cross shards");

    let unsharded = Server::new(ServerConfig::with_workers(4));
    let want = unsharded.run(&AhBackend::new(&global), &requests);
    assert_eq!(got.responses.len(), want.responses.len());
    for (a, b) in got.responses.iter().zip(&want.responses) {
        assert_eq!((a.id, a.distance), (b.id, b.distance), "req {}", a.id);
    }
    assert_eq!(got.same_shard + got.cross_shard, requests.len());
}

/// The sharded serving path's cost ledger is exactly the kernel's: with
/// the cache off, the summed `pools()` cost totals equal what a direct
/// `ShardedQuery` reports for the same requests, field by field. The
/// benchmark's `ah_shard.hops_per_query` and
/// `ah_shard.boundary_lookups_per_query` read this sum.
#[test]
fn sharded_server_cost_equals_direct_query_cost() {
    let g = network();
    let sets = generate_query_sets(&g, 40, 99);
    let stream = TrafficSchedule::interactive(1200, 0.3, 99).generate(&sets);
    let requests: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| Request::distance(i as u64, s, t))
        .collect();

    let (_, idx) = sharded(&g, 4);
    let server = ShardedServer::new(
        idx.clone(),
        ShardedServerConfig {
            per_shard: ServerConfig {
                cache_capacity: 0,
                ..ServerConfig::with_workers(2)
            },
        },
    );
    server.run(&requests);
    let mut served = CostCounters::default();
    for pool in server.pools() {
        served.merge(&pool.metrics().cost.total());
    }

    let mut q = ShardedQuery::new();
    let mut direct = CostCounters::default();
    for r in &requests {
        q.distance(&idx, r.s, r.t);
        direct.merge(&q.take_cost());
    }
    assert!(direct.shard_hops > 0 && direct.boundary_lookups > 0);
    assert_eq!(served.as_array(), direct.as_array());
}

/// Snapshot round trip preserves answers: save the sharded index, load
/// it back, and serve the same randomized workload identically.
#[test]
fn sharded_snapshot_roundtrip_identity() {
    use ah_store::{Snapshot, SnapshotContents};
    let g = network();
    let (_, idx) = sharded(&g, 4);
    let path = std::env::temp_dir().join(format!(
        "ah_tests_sharded_identity_{}.snap",
        std::process::id()
    ));
    Snapshot::write(&path, SnapshotContents::new().graph(&g).sharded(&idx)).unwrap();
    let loaded = Arc::new(Snapshot::load_sharded(&path).unwrap());
    std::fs::remove_file(&path).ok();

    assert_eq!(loaded.certified(), idx.certified());
    assert_eq!(loaded.stats(), idx.stats());
    let sets = generate_query_sets(&g, 25, 5);
    let mut q1 = ShardedQuery::new();
    let mut q2 = ShardedQuery::new();
    for set in &sets {
        for &(s, t) in &set.pairs {
            assert_eq!(q2.distance(&loaded, s, t), q1.distance(&idx, s, t));
        }
    }
}

/// An uncertified build (border cap exceeded) must still answer every
/// query exactly, via the global fallback.
#[test]
fn uncertified_fallback_identity() {
    let g = network();
    let global = Arc::new(AhIndex::build(&g, &BuildConfig::default()));
    let idx = ShardedIndex::from_global(
        &g,
        global.clone(),
        &ShardConfig {
            shards: 4,
            max_border_nodes: 1, // far below any real border count
        },
    );
    assert!(!idx.certified());
    let sets = generate_query_sets(&g, 20, 17);
    let mut sq = ShardedQuery::new();
    let mut gq = AhQuery::new();
    for set in &sets {
        for &(s, t) in &set.pairs {
            assert_eq!(sq.distance(&idx, s, t), gq.distance(&global, s, t));
        }
    }
}

/// Path requests through the sharded backend return verified shortest
/// paths whose lengths match the composed distances.
#[test]
fn sharded_paths_verify_and_match_distances() {
    let g = network();
    let (_, idx) = sharded(&g, 4);
    let sets = generate_query_sets(&g, 10, 31);
    let mut q = ShardedQuery::new();
    for set in sets.iter().skip(5) {
        // long-range sets: likeliest to cross shards
        for &(s, t) in set.pairs.iter().take(5) {
            let d = q.distance(&idx, s, t);
            if let Some(p) = q.path(&idx, s, t) {
                p.verify(&g).unwrap();
                assert_eq!(Some(p.dist.length), d);
            } else {
                assert_eq!(d, None);
            }
        }
    }
}
