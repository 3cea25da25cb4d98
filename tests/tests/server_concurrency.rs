//! The concurrent serving layer must be *invisible* in the answers: any
//! backend, any worker count, cache hot or cold — the distances coming out
//! of `ah_server` must be identical to a single-threaded `AhQuery` walking
//! the same pairs. These tests drive the paper's Q1–Q10 workload through
//! the worker pool and check exactly that.

use ah_core::{AhIndex, AhQuery, BuildConfig};
use ah_ch::ChIndex;
use ah_graph::NodeId;
use ah_server::{
    AhBackend, ChBackend, DijkstraBackend, DistanceBackend, QueryKind, Request, Server,
    ServerConfig,
};
use ah_workload::{generate_query_sets, QuerySet, TrafficSchedule};

fn test_graph() -> ah_graph::Graph {
    ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 14,
        height: 14,
        one_way: 0.15,
        seed: 99,
        ..Default::default()
    })
}

/// All Q-set pairs, flattened into distance requests.
fn qset_requests(sets: &[QuerySet]) -> Vec<Request> {
    sets.iter()
        .flat_map(|set| set.pairs.iter().copied())
        .enumerate()
        .map(|(i, (s, t))| Request::distance(i as u64, s, t))
        .collect()
}

/// Single-threaded ground truth for the same requests, via `AhQuery`.
fn ground_truth(idx: &AhIndex, requests: &[Request]) -> Vec<Option<u64>> {
    let mut q = AhQuery::new();
    requests.iter().map(|r| q.distance(idx, r.s, r.t)).collect()
}

#[test]
fn concurrent_server_matches_single_threaded_ah_for_all_backends() {
    let g = test_graph();
    let sets = generate_query_sets(&g, 40, 0xC0FFEE);
    let requests = qset_requests(&sets);
    assert!(requests.len() > 100, "workload must be non-trivial");

    let ah = AhIndex::build(&g, &BuildConfig::default());
    let ch = ChIndex::build(&g);
    let truth = ground_truth(&ah, &requests);

    let backends: Vec<(&str, Box<dyn DistanceBackend>)> = vec![
        ("AH", Box::new(AhBackend::new(&ah))),
        ("CH", Box::new(ChBackend::new(&ch))),
        ("Dijkstra", Box::new(DijkstraBackend::new(&g))),
    ];
    for (name, backend) in &backends {
        let server = Server::new(ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 8 * 1024,
            ..Default::default()
        });
        let report = server.run(backend.as_ref(), &requests);
        assert_eq!(report.responses.len(), requests.len(), "{name}");
        for (i, resp) in report.responses.iter().enumerate() {
            assert_eq!(resp.id, i as u64, "{name}: one response per request, in order");
            assert_eq!(
                resp.distance, truth[i],
                "{name}: request {i} ({} → {})",
                requests[i].s, requests[i].t
            );
        }
        assert_eq!(report.snapshot.queries, requests.len() as u64, "{name}");
    }
}

#[test]
fn worker_counts_do_not_change_answers() {
    let g = test_graph();
    let sets = generate_query_sets(&g, 25, 7);
    let requests = qset_requests(&sets);
    let ah = AhIndex::build(&g, &BuildConfig::default());
    let backend = AhBackend::new(&ah);

    let reference = Server::new(ServerConfig::with_workers(1)).run(&backend, &requests);
    for workers in [2, 4, 8] {
        let report = Server::new(ServerConfig::with_workers(workers)).run(&backend, &requests);
        for (a, b) in reference.responses.iter().zip(&report.responses) {
            assert_eq!(a.distance, b.distance, "workers = {workers}, id = {}", a.id);
        }
    }
}

#[test]
fn cache_hits_equal_cache_misses() {
    let g = test_graph();
    let sets = generate_query_sets(&g, 30, 21);
    // Traffic with heavy repetition so the cache actually engages inside
    // a single run, too.
    let stream = TrafficSchedule::interactive(600, 0.5, 5).generate(&sets);
    let requests: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| Request::distance(i as u64, s, t))
        .collect();
    let ah = AhIndex::build(&g, &BuildConfig::default());
    let backend = AhBackend::new(&ah);

    // Uncached reference: every answer computed by the index.
    let uncached = Server::new(ServerConfig {
        workers: 4,
        cache_capacity: 0,
        ..Default::default()
    })
    .run(&backend, &requests);
    assert_eq!(uncached.snapshot.cache_hits, 0);

    // Cached server, run twice: the second pass is ~all hits.
    let server = Server::new(ServerConfig {
        workers: 4,
        cache_capacity: 16 * 1024,
        ..Default::default()
    });
    let cold = server.run(&backend, &requests);
    let warm = server.run(&backend, &requests);
    assert!(
        cold.snapshot.cache_hits > 0,
        "repetitious traffic must hit within one run"
    );
    assert_eq!(
        warm.snapshot.cache_hits,
        requests.len() as u64,
        "second pass is fully cached"
    );
    for i in 0..requests.len() {
        assert_eq!(uncached.responses[i].distance, cold.responses[i].distance, "id {i}");
        assert_eq!(uncached.responses[i].distance, warm.responses[i].distance, "id {i}");
    }
}

#[test]
fn served_paths_are_valid_shortest_paths() {
    let g = test_graph();
    let sets = generate_query_sets(&g, 15, 13);
    let requests: Vec<Request> = sets
        .iter()
        .flat_map(|set| set.pairs.iter().copied())
        .enumerate()
        .map(|(i, (s, t))| Request::path(i as u64, s, t))
        .collect();
    let ah = AhIndex::build(&g, &BuildConfig::default());
    let backend = AhBackend::new(&ah);

    let report = Server::new(ServerConfig::with_workers(4)).run(&backend, &requests);
    let mut q = AhQuery::new();
    for (req, resp) in requests.iter().zip(&report.responses) {
        assert_eq!(req.kind, QueryKind::Path);
        let want = q.path(&ah, req.s, req.t).expect("Q-set pairs are connected");
        assert_eq!(resp.distance, Some(want.dist.length), "id {}", req.id);
        assert_eq!(resp.hops, Some(want.num_edges()), "id {}", req.id);
    }
}

/// Delta swaps racing a 4-worker query load: every answer served while
/// generations roll must equal Dijkstra on *some* published generation,
/// and once the last swap lands a fresh batch answers only from the
/// final graph — no stale cache entry survives the swap.
#[test]
fn reloads_under_concurrent_load_never_serve_stale_answers() {
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    use ah_search::dijkstra_distance;
    use ah_server::{DeltaReloader, SnapshotServer};
    use ah_workload::WeightChurn;

    let g = test_graph();
    let plan = WeightChurn {
        rounds: 3,
        changes_per_round: 10,
        closure_fraction: 0.2,
        seed: 77,
    }
    .plan(&g, 0);

    // Every graph the server may legitimately answer from: the base and
    // the state after each churn round.
    let mut versions = vec![g.clone()];
    for round in &plan.rounds {
        versions.push(round.delta.apply(versions.last().unwrap()).unwrap().graph);
    }

    let sets = generate_query_sets(&g, 15, 3);
    let pairs: Vec<(NodeId, NodeId)> =
        sets.iter().flat_map(|s| s.pairs.iter().copied()).collect();
    let admissible: HashMap<(NodeId, NodeId), HashSet<Option<u64>>> = pairs
        .iter()
        .map(|&(s, t)| {
            let answers = versions
                .iter()
                .map(|v| dijkstra_distance(v, s, t).map(|d| d.length))
                .collect();
            ((s, t), answers)
        })
        .collect();

    let ah = Arc::new(AhIndex::build(&g, &BuildConfig::default()));
    let snap = Arc::new(SnapshotServer::new(ah, ServerConfig::with_workers(4)));
    let reloader = Arc::new(DeltaReloader::new(
        Arc::clone(&snap),
        g.clone(),
        BuildConfig::default(),
    ));

    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let snap = Arc::clone(&snap);
            let pairs = &pairs;
            let admissible = &admissible;
            scope.spawn(move || {
                for iter in 0..6u64 {
                    let requests: Vec<Request> = pairs
                        .iter()
                        .enumerate()
                        .map(|(i, &(s, t))| {
                            Request::distance(c * 100_000 + iter * 1_000 + i as u64, s, t)
                        })
                        .collect();
                    let report = snap.run(&requests);
                    for (req, resp) in requests.iter().zip(&report.responses) {
                        assert!(
                            admissible[&(req.s, req.t)].contains(&resp.distance),
                            "({}, {}) answered {:?} — not any published generation",
                            req.s,
                            req.t,
                            resp.distance
                        );
                    }
                }
            });
        }
        // Roll the three rounds out while the clients hammer.
        let rel = Arc::clone(&reloader);
        let rounds = &plan.rounds;
        scope.spawn(move || {
            for round in rounds {
                std::thread::sleep(std::time::Duration::from_millis(3));
                rel.reload(round.delta.clone()).expect("chained delta applies");
            }
        });
    });

    assert_eq!(snap.generation(), plan.rounds.len() as u64);
    assert_eq!(reloader.swaps(), plan.rounds.len() as u64);

    // Post-swap strictness: only the final graph may answer now.
    let requests: Vec<Request> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| Request::distance(i as u64, s, t))
        .collect();
    let report = snap.run(&requests);
    for (req, resp) in requests.iter().zip(&report.responses) {
        assert_eq!(
            resp.distance,
            dijkstra_distance(&plan.final_graph, req.s, req.t).map(|d| d.length),
            "({}, {}) still answers from a retired generation",
            req.s,
            req.t
        );
    }
}

#[test]
fn mixed_distance_and_path_traffic_stays_consistent() {
    let g = test_graph();
    let n = g.num_nodes() as NodeId;
    let ah = AhIndex::build(&g, &BuildConfig::default());
    let backend = AhBackend::new(&ah);
    let requests: Vec<Request> = (0..300u64)
        .map(|id| {
            let s = (id as NodeId * 11 + 1) % n;
            let t = (id as NodeId * 29 + 17) % n;
            if id % 3 == 0 {
                Request::path(id, s, t)
            } else {
                Request::distance(id, s, t)
            }
        })
        .collect();
    let truth = ground_truth(&ah, &requests);
    let report = Server::new(ServerConfig::with_workers(4)).run(&backend, &requests);
    for (i, resp) in report.responses.iter().enumerate() {
        assert_eq!(resp.distance, truth[i], "id {i}");
    }
    // Path requests never probe the cache, so only distance queries may
    // appear in the hit/miss counters.
    let distance_requests = requests
        .iter()
        .filter(|r| r.kind == QueryKind::Distance)
        .count() as u64;
    assert_eq!(
        report.snapshot.cache_hits + report.snapshot.cache_misses,
        distance_requests
    );
}
