//! Cost accounting and the SLO engine, measured at the seams that
//! matter: the drained `CostCounters` must describe what the algorithm
//! actually did (the paper's search-space axis, not the wall clock),
//! the per-kind `ah_query_*` families must render for every backend,
//! and a sampled span must carry its cost words end to end over a real
//! socket while `/readyz` degrades under a violated objective.
//!
//! The load-bearing identity: a full single-source Dijkstra sweep (one
//! `matrix` row) settles **exactly** the nodes the brute-force oracle
//! says are reachable — no more (no duplicate settles), no fewer (no
//! early exit). Point queries are bidirectional
//! and keep only the invariant bounds; the labels backend answers with
//! merges alone (`nodes_settled == 0`).

use std::net::SocketAddr;

use ah_core::{AhIndex, BuildConfig};
use ah_net::{EdgeConfig, EdgeServer};
use ah_server::{
    AhBackend, ChBackend, DijkstraBackend, DistanceBackend, LabelBackend, Request, Server,
    ServerConfig, SloPolicy, TraceConfig, COST_FIELD_NAMES,
};
use ah_workload::{generate_query_sets, TrafficSchedule};

fn network() -> ah_graph::Graph {
    ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 14,
        height: 14,
        one_way: 0.1,
        seed: 77,
        ..Default::default()
    })
}

/// A Q1–Q10 interactive mix over the network, deterministic in `seed`.
fn traffic(g: &ah_graph::Graph, total: usize, seed: u64) -> Vec<(u32, u32)> {
    let sets = generate_query_sets(g, 30, seed);
    let stream = TrafficSchedule::interactive(total, 0.2, seed).generate(&sets);
    assert!(!stream.is_empty(), "degenerate workload");
    stream
}

/// Brute-force reachable-node count from `source` (the settle-count
/// oracle: Dijkstra settles a node iff it is reachable).
fn reachable_from(g: &ah_graph::Graph, source: u32) -> u64 {
    (0..g.num_nodes() as u32)
        .filter(|&t| ah_search::dijkstra_distance(g, source, t).is_some())
        .count() as u64
}

#[test]
fn dijkstra_sweeps_settle_exactly_the_reachable_nodes() {
    let g = network();
    let n = g.num_nodes() as u32;
    let backend = DijkstraBackend::new(&g);
    let mut session = backend.make_session();
    let targets: Vec<u32> = (0..n).collect();

    for source in [0u32, 33, 140] {
        let _ = session.matrix(&[source], &targets);
        let cost = session.take_cost();
        assert_eq!(
            cost.nodes_settled,
            reachable_from(&g, source),
            "source {source}: a full sweep settles each reachable node exactly once"
        );
        assert!(
            cost.heap_pops >= cost.nodes_settled,
            "stale heap entries can only add pops, never remove settles"
        );
        assert!(cost.edges_relaxed > 0, "a sweep must examine arcs");
    }

    // A matrix is one full sweep per source row; the tally is additive
    // across the whole request.
    let sources = [0u32, 33];
    let _ = session.matrix(&sources, &targets);
    let cost = session.take_cost();
    let want: u64 = sources.iter().map(|&s| reachable_from(&g, s)).sum();
    assert_eq!(cost.nodes_settled, want, "matrix rows are independent sweeps");
}

#[test]
fn cost_families_track_each_backends_algorithm_on_the_q_mix() {
    let g = network();
    let ah = AhIndex::build(&g, &BuildConfig::default());
    let ch = ah_ch::ChIndex::build(&g);
    let labels = ah_labels::LabelIndex::build(&g, ch.order());
    let stream = traffic(&g, 300, 0xC057);
    let requests: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| Request::distance(i as u64, s, t))
        .collect();

    let ah_backend = AhBackend::new(&ah);
    let ch_backend = ChBackend::new(&ch);
    let dij_backend = DijkstraBackend::new(&g);
    let label_backend = LabelBackend::new(&labels, &ah);
    let backends: [(&str, &dyn DistanceBackend); 4] = [
        ("AH", &ah_backend),
        ("CH", &ch_backend),
        ("Dijkstra", &dij_backend),
        ("labels", &label_backend),
    ];

    for (name, backend) in backends {
        let server = Server::new(ServerConfig::with_workers(2));
        let _ = server.run(backend, &requests);
        let total = server.metrics().cost.total();
        if name == "labels" {
            // The labels analogue of a settled node is a merged label
            // entry: the two-pointer intersection touches no graph.
            assert_eq!(total.nodes_settled, 0, "label merges settle no nodes");
            assert!(total.label_entries_merged > 0, "merges must be counted");
        } else {
            assert!(total.nodes_settled > 0, "{name}: searches settle nodes");
            assert!(
                total.heap_pops >= total.nodes_settled,
                "{name}: every settle is a pop"
            );
            assert!(total.edges_relaxed > 0, "{name}: searches relax arcs");
            assert_eq!(
                total.label_entries_merged, 0,
                "{name}: only the labels backend merges labels"
            );
        }
        // The serving layer adds the cache outcome on top of whatever
        // the kernel did; a repeat-heavy mix must score hits.
        assert_eq!(total.cache_probes, requests.len() as u64, "{name}");
        assert!(total.cache_hits > 0, "{name}: repeat pairs must hit");
        assert!(total.cache_hits <= total.cache_probes, "{name}");

        // Every cost field renders as its own counter family with the
        // request kind as a label.
        let text = server.registry().render();
        for field in COST_FIELD_NAMES {
            assert!(
                text.contains(&format!("# TYPE ah_query_{field} counter")),
                "{name}: family ah_query_{field} missing from /metrics"
            );
        }
        assert!(
            text.contains("ah_query_settled_nodes{kind=\"distance\"}"),
            "{name}: distance-kind cost row missing:\n{text}"
        );
    }
}

/// Fetches `path` over an already-connected loopback client.
fn get(c: &mut ah_net::blocking::Client, path: &str) -> ah_net::blocking::Response {
    c.get(path).expect("loopback GET")
}

/// True if any occurrence of `"field":N` in `json` has `N > 0`.
fn has_positive_field(json: &str, field: &str) -> bool {
    let needle = format!("\"{field}\":");
    json.match_indices(&needle).any(|(i, _)| {
        json[i + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse::<u64>()
            .is_ok_and(|v| v > 0)
    })
}

#[test]
fn sampled_spans_carry_cost_over_the_socket_and_readyz_degrades() {
    let g = network();
    let idx = AhIndex::build(&g, &BuildConfig::default());
    let backend = AhBackend::new(&idx);
    let stream = traffic(&g, 60, 0x510);

    // Sample every request; give the edge an impossible 1 ns p99
    // objective so serving any real traffic must trip readiness.
    let server = Server::new(ServerConfig {
        workers: 2,
        trace: TraceConfig {
            sample_every: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    let edge = EdgeServer::bind(
        "127.0.0.1:0",
        EdgeConfig {
            workers: 2,
            slo: SloPolicy {
                p99_target_ns: 1,
                min_requests: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap();
    let addr: SocketAddr = edge.local_addr().unwrap();
    let handle = edge.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| edge.serve(&server, &backend));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = ah_net::blocking::Client::connect(addr).unwrap();

            // Below min_requests nothing can trip: readiness starts 200.
            let r = get(&mut c, "/readyz");
            assert_eq!(r.status, 200, "{}", r.text());
            assert!(r.text().contains("\"ready\":true"), "{}", r.text());

            for &(s, t) in &stream {
                let resp = get(&mut c, &format!("/v1/distance?src={s}&dst={t}"));
                assert_eq!(resp.status, 200, "{}", resp.text());
            }

            // Every request was sampled: the trace ring's spans must
            // carry non-zero cost words — kernel-side (settled nodes)
            // and edge-side (response bytes) — end to end.
            let traces = get(&mut c, "/debug/traces");
            assert_eq!(traces.status, 200);
            let body = traces.text();
            assert!(body.contains("\"cost\":{"), "spans carry no cost: {body}");
            assert!(
                has_positive_field(&body, "settled_nodes"),
                "no span recorded settled nodes: {body}"
            );
            assert!(
                has_positive_field(&body, "bytes_out"),
                "no span recorded response bytes: {body}"
            );

            // The window ring saw the traffic and the policy reports it.
            let slo = get(&mut c, "/debug/slo");
            assert_eq!(slo.status, 200);
            let slo_body = slo.text();
            assert!(slo_body.contains("\"policy\""), "{slo_body}");
            assert!(has_positive_field(&slo_body, "requests"), "{slo_body}");

            // With >= min_requests served against a 1 ns p99 target,
            // readiness must degrade to 503 with a JSON reason.
            let r = get(&mut c, "/readyz");
            assert_eq!(r.status, 503, "{}", r.text());
            assert!(r.text().contains("\"ready\":false"), "{}", r.text());
            assert!(r.text().contains("p99"), "{}", r.text());
        }));
        handle.shutdown();
        serving.join().unwrap().unwrap();
        if let Err(p) = outcome {
            std::panic::resume_unwind(p);
        }
    });
}
