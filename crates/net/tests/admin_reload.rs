//! Loopback tests of `POST /admin/reload-delta`: the edge answers `202`
//! and keeps serving while the reload rebuilds in the background, the
//! patched index is published to in-flight clients without reconnecting,
//! and the failure modes classify (missing handler → 404, missing
//! parameter → 400, stale delta → 409).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use ah_core::{AhIndex, BuildConfig};
use ah_graph::{WeightChange, WeightDelta};
use ah_net::{EdgeConfig, EdgeServer};
use ah_search::dijkstra_distance;
use ah_server::{DeltaReloader, ServerConfig, SnapshotBackend, SnapshotServer};
use ah_store::{Snapshot, SnapshotContents};

struct Client(ah_net::blocking::Client);

fn connect(addr: SocketAddr) -> Client {
    let mut inner = ah_net::blocking::Client::connect(addr).unwrap();
    inner
        .stream()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Client(inner)
}

impl Client {
    fn get(&mut self, target: &str) -> (u16, Vec<u8>) {
        self.0
            .send(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let resp = self.0.recv().expect("read response");
        (resp.status, resp.body)
    }

    fn post(&mut self, target: &str) -> (u16, Vec<u8>) {
        self.0
            .send(
                format!("POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        let resp = self.0.recv().expect("read response");
        (resp.status, resp.body)
    }

    fn distance(&mut self, s: u32, t: u32) -> Option<u64> {
        let (status, body) = self.get(&format!("/v1/distance?src={s}&dst={t}"));
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let text = String::from_utf8(body).unwrap();
        if text.contains("null") {
            return None;
        }
        let tail = text.split("\"distance\":").nth(1).expect("distance key");
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        Some(digits.parse().unwrap())
    }
}

fn delta_file(name: &str, g: &ah_graph::Graph, delta: &WeightDelta) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ah_admin_{name}_{}.snap", std::process::id()));
    Snapshot::write(&path, SnapshotContents::new().graph(g).delta(delta)).unwrap();
    path
}

#[test]
fn reload_endpoint_publishes_the_patched_index_mid_connection() {
    let g = ah_data::fixtures::lattice(6, 6, 10);
    let cfg = BuildConfig::default();
    let idx = Arc::new(AhIndex::build(&g, &cfg));
    let snap = Arc::new(SnapshotServer::new(idx, ServerConfig::with_workers(2)));
    let reloader = Arc::new(DeltaReloader::new(Arc::clone(&snap), g.clone(), cfg));

    // Re-weight both arcs out of node 0 so every route from 0 changes.
    let delta = WeightDelta::new(
        &g,
        [WeightChange::new(0, 1, 97), WeightChange::new(0, 6, 97)],
    )
    .unwrap();
    let patched = delta.apply(&g).unwrap().graph;
    let path = delta_file("publish", &g, &delta);

    let edge = EdgeServer::bind("127.0.0.1:0", EdgeConfig::default()).unwrap();
    let addr = edge.local_addr().unwrap();
    let handle = edge.handle();
    std::thread::scope(|scope| {
        let snap2 = Arc::clone(&snap);
        let rel2 = Arc::clone(&reloader);
        let serving = scope.spawn(move || {
            let backend = SnapshotBackend::new(&snap2);
            edge.serve_with_admin(snap2.server(), &backend, Some(&rel2))
        });

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut client = connect(addr);
        let before = client.distance(0, 35).expect("connected lattice");
        assert_eq!(
            Some(before),
            dijkstra_distance(&g, 0, 35).map(|d| d.length)
        );

        let (status, body) = client.post(&format!(
            "/admin/reload-delta?path={}",
            path.display()
        ));
        assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
        assert!(String::from_utf8_lossy(&body).contains("reloading"));

        // The same connection — no reconnect — observes the swap once
        // the background rebuild publishes.
        reloader.wait().expect("flight recorded").expect("reload ok");
        let after = client.distance(0, 35).expect("still connected");
        assert_eq!(
            Some(after),
            dijkstra_distance(&patched, 0, 35).map(|d| d.length)
        );
        assert_ne!(before, after, "the delta must move the answer");

        // Replaying the now-stale delta is refused with 409 and the
        // serving generation stays where it was.
        let (status, body) = client.post(&format!(
            "/admin/reload-delta?path={}",
            path.display()
        ));
        assert_eq!(status, 409, "{}", String::from_utf8_lossy(&body));
        assert_eq!(snap.generation(), 1);

        // Missing the path parameter is a client error, not a 500.
        let (status, _) = client.post("/admin/reload-delta");
        assert_eq!(status, 400);

        // The generation gauge flows into /metrics.
        let (status, body) = client.get("/metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("ah_index_generation 1"), "{text}");
        assert!(text.contains("ah_reload_swaps_total 1"), "{text}");
        }));

        handle.shutdown();
        let report = serving.join().expect("edge thread").expect("serve io");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
        let count = |code: u16| {
            report
                .responses_by_status
                .iter()
                .find(|(s, _)| *s == code)
                .map(|(_, n)| *n)
        };
        assert_eq!(count(202), Some(1));
        assert_eq!(count(409), Some(1));
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn reload_endpoint_is_404_without_a_handler_and_post_elsewhere_is_405() {
    let g = ah_data::fixtures::lattice(4, 4, 10);
    let cfg = BuildConfig::default();
    let idx = Arc::new(AhIndex::build(&g, &cfg));
    let snap = Arc::new(SnapshotServer::new(idx, ServerConfig::with_workers(1)));

    let edge = EdgeServer::bind("127.0.0.1:0", EdgeConfig::default()).unwrap();
    let addr = edge.local_addr().unwrap();
    let handle = edge.handle();
    std::thread::scope(|scope| {
        let snap2 = Arc::clone(&snap);
        let serving = scope.spawn(move || {
            let backend = SnapshotBackend::new(&snap2);
            edge.serve(snap2.server(), &backend)
        });

        let outcome = std::panic::catch_unwind(|| {
            let mut client = connect(addr);
            let (status, _) = client.post("/admin/reload-delta?path=/nowhere");
            assert_eq!(status, 404, "no handler wired: the route must not exist");
            let (status, _) = client.post("/v1/distance?src=0&dst=1");
            assert_eq!(status, 405, "POST to a query route stays a method error");
        });

        handle.shutdown();
        serving.join().expect("edge thread").expect("serve io");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn reload_with_an_unreadable_snapshot_is_a_client_error() {
    let g = ah_data::fixtures::lattice(4, 4, 10);
    let cfg = BuildConfig::default();
    let idx = Arc::new(AhIndex::build(&g, &cfg));
    let snap = Arc::new(SnapshotServer::new(idx, ServerConfig::with_workers(1)));
    let reloader = Arc::new(DeltaReloader::new(Arc::clone(&snap), g.clone(), cfg));

    let edge = EdgeServer::bind("127.0.0.1:0", EdgeConfig::default()).unwrap();
    let addr = edge.local_addr().unwrap();
    let handle = edge.handle();
    std::thread::scope(|scope| {
        let snap2 = Arc::clone(&snap);
        let rel2 = Arc::clone(&reloader);
        let serving = scope.spawn(move || {
            let backend = SnapshotBackend::new(&snap2);
            edge.serve_with_admin(snap2.server(), &backend, Some(&rel2))
        });

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut client = connect(addr);
            let (status, body) = client.post("/admin/reload-delta?path=/no/such/file.snap");
            assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
            assert_eq!(snap.generation(), 0, "a failed reload must not publish");
        }));

        handle.shutdown();
        serving.join().expect("edge thread").expect("serve io");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}
