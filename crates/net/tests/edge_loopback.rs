//! Loopback tests of the edge event loop over real sockets: protocol
//! conformance, pipelining, admission control (429), shutdown draining,
//! connection caps and timeouts — all against `127.0.0.1` with plain
//! blocking `TcpStream` clients.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use ah_net::{EdgeConfig, EdgeHandle, EdgeReport, EdgeServer};
use ah_server::{
    BackendSession, CostCounters, DijkstraBackend, DistanceBackend, Server, ServerConfig,
};

/// Binds an edge, runs it on a scoped thread, hands `(addr, handle)` to
/// the client closure, then shuts down gracefully and returns the
/// report. Shutdown happens even when the client closure panics, so a
/// failing assertion fails the test instead of hanging the scope.
fn with_edge<F>(
    cfg: EdgeConfig,
    server_cfg: ServerConfig,
    backend: &dyn DistanceBackend,
    client: F,
) -> EdgeReport
where
    F: FnOnce(SocketAddr, &EdgeHandle),
{
    let server = Server::new(server_cfg);
    let edge = EdgeServer::bind("127.0.0.1:0", cfg).unwrap();
    let addr = edge.local_addr().unwrap();
    let handle = edge.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| edge.serve(&server, backend));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| client(addr, &handle)));
        handle.shutdown();
        let report = serving.join().expect("edge thread").expect("serve io");
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
        report
    })
}

/// Thin adapter over [`ah_net::blocking::Client`] keeping the
/// `(status, headers-map, body)` shape these tests assert against.
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
    fn send(&mut self, raw: &[u8]) {
        self.0.send(raw).unwrap();
    }

    fn stream(&mut self) -> &mut TcpStream {
        self.0.stream()
    }

    /// Reads one HTTP response. Returns `(status, headers, body)`.
    fn recv(&mut self) -> (u16, HashMap<String, String>, Vec<u8>) {
        let resp = self.0.recv().expect("read response");
        (resp.status, resp.headers.into_iter().collect(), resp.body)
    }

    fn get(&mut self, target: &str) -> (u16, HashMap<String, String>, Vec<u8>) {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
        self.recv()
    }

    /// Asserts the server closes the connection without further data.
    fn expect_eof(&mut self) {
        assert!(self.0.read_eof().expect("clean EOF"), "expected clean EOF");
    }
}

#[test]
fn serves_distance_path_healthz_metrics_on_the_platform_poller() {
    let g = ah_data::fixtures::lattice(6, 6, 10);
    let backend = DijkstraBackend::new(&g);
    let cfg = EdgeConfig {
        workers: 2,
        ..Default::default()
    };
    let report = with_edge(
        cfg,
        ServerConfig::with_workers(2),
        &backend,
        |addr, handle| {
            assert!(!handle.is_stopping(), "fresh edge is not draining");
            let mut c = connect(addr);
            // Distance with a known answer.
            let want = ah_search::dijkstra_distance(&g, 0, 35).unwrap().length;
            let (status, _, body) = c.get("/v1/distance?src=0&dst=35");
            assert_eq!(status, 200);
            let body = String::from_utf8(body).unwrap();
            assert!(
                body.contains(&format!("\"distance\":{want}")),
                "{body} (want {want})"
            );
            // Path on the same keep-alive connection.
            let (status, _, body) = c.get("/v1/path?src=0&dst=35");
            assert_eq!(status, 200);
            assert!(String::from_utf8(body).unwrap().contains("\"hops\":"));
            // Unreachable → JSON null, still 200.
            let (status, _, body) = c.get("/v1/distance?src=0&dst=99999");
            assert_eq!(status, 200);
            assert!(String::from_utf8(body)
                .unwrap()
                .contains("\"distance\":null"));
            // Health and metrics.
            let (status, _, body) = c.get("/healthz");
            assert_eq!(status, 200);
            assert!(String::from_utf8(body)
                .unwrap()
                .contains("\"status\":\"ok\""));
            let (status, headers, body) = c.get("/metrics");
            assert_eq!(status, 200);
            assert!(headers["content-type"].starts_with("text/plain"));
            let text = String::from_utf8(body).unwrap();
            assert!(text.contains("ah_queue_capacity"), "{text}");
            assert!(
                text.contains("ah_server_query_latency_seconds_count"),
                "{text}"
            );
            // The server's and the edge's registries render into one
            // document: no family may be declared twice.
            let mut types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
            let declared = types.len();
            types.sort_unstable();
            types.dedup();
            assert_eq!(types.len(), declared, "a family rendered twice:\n{text}");
            assert!(
                handle.metrics().total_responses() >= 5,
                "live metrics visible through the handle"
            );
        },
    );
    assert_eq!(report.connections, 1);
    assert!(report
        .responses_by_status
        .iter()
        .any(|&(s, n)| s == 200 && n >= 5));
}

#[test]
fn pipelined_requests_answer_in_order() {
    let g = ah_data::fixtures::ring(16);
    let backend = DijkstraBackend::new(&g);
    let cfg = EdgeConfig {
        workers: 3,
        ..Default::default()
    };
    with_edge(cfg, ServerConfig::with_workers(3), &backend, |addr, _| {
        let mut c = connect(addr);
        let mut burst = String::new();
        for i in 0..20u32 {
            burst.push_str(&format!(
                "GET /v1/distance?src={}&dst={} HTTP/1.1\r\n\r\n",
                i % 16,
                (i * 3 + 1) % 16
            ));
        }
        c.send(burst.as_bytes());
        for i in 0..20u32 {
            let (status, _, body) = c.recv();
            assert_eq!(status, 200);
            let body = String::from_utf8(body).unwrap();
            // Responses must come back in request order even though
            // three workers complete them out of order.
            assert!(
                body.starts_with(&format!("{{\"src\":{}", i % 16)),
                "response {i} out of order: {body}"
            );
            let want = ah_search::dijkstra_distance(&g, i % 16, (i * 3 + 1) % 16)
                .unwrap()
                .length;
            assert!(body.contains(&format!("\"distance\":{want}")), "{body}");
        }
    });
}

#[test]
fn protocol_errors_classify_400_431_404_405() {
    let g = ah_data::fixtures::ring(8);
    let backend = DijkstraBackend::new(&g);
    let cfg = EdgeConfig {
        // Small head cap so one write carries the whole oversized head
        // (keeps the 431 exchange free of transport races).
        limits: ah_net::http::HttpLimits {
            max_head_bytes: 512,
            ..Default::default()
        },
        ..Default::default()
    };
    with_edge(
        cfg,
        ServerConfig::with_workers(1),
        &backend,
        |addr, _| {
            // Malformed request line → 400, connection closed.
            let mut c = connect(addr);
            c.send(b"GARBAGE\r\n\r\n");
            let (status, headers, _) = c.recv();
            assert_eq!(status, 400);
            assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
            c.expect_eof();

            // Oversized head → 431, closed.
            let mut c = connect(addr);
            let mut big = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
            big.extend(vec![b'a'; 1024]);
            big.extend_from_slice(b"\r\n\r\n");
            c.send(&big);
            let (status, _, _) = c.recv();
            assert_eq!(status, 431);

            // Missing params → 400 but connection survives.
            let mut c = connect(addr);
            let (status, _, _) = c.get("/v1/distance?src=1");
            assert_eq!(status, 400);
            let (status, _, _) = c.get("/v1/distance?src=1&dst=notanumber");
            assert_eq!(status, 400);
            // Unknown path → 404; non-GET → 405; both keep the connection.
            let (status, _, _) = c.get("/v2/teleport?src=1&dst=2");
            assert_eq!(status, 404);
            c.send(b"POST /v1/distance HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi");
            let (status, _, _) = c.recv();
            assert_eq!(status, 405);
            // …and the connection still works afterwards.
            let (status, _, _) = c.get("/healthz");
            assert_eq!(status, 200);
        },
    );
}

/// A backend whose sessions block at a gate until the test opens it —
/// makes overload and drain behaviour deterministic.
struct GateBackend {
    nodes: usize,
    open: Mutex<bool>,
    open_cv: Condvar,
    entered: Mutex<usize>,
    entered_cv: Condvar,
}

impl GateBackend {
    fn new(nodes: usize) -> Self {
        GateBackend {
            nodes,
            open: Mutex::new(false),
            open_cv: Condvar::new(),
            entered: Mutex::new(0),
            entered_cv: Condvar::new(),
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.open_cv.notify_all();
    }

    /// Blocks until at least `n` queries have reached the gate.
    fn wait_for_entered(&self, n: usize) {
        let entered = self.entered.lock().unwrap();
        let _g = self
            .entered_cv
            .wait_timeout_while(entered, Duration::from_secs(10), |e| *e < n)
            .unwrap();
    }
}

struct GateSession<'a>(&'a GateBackend);

impl DistanceBackend for GateBackend {
    fn name(&self) -> &'static str {
        "Gate"
    }
    fn num_nodes(&self) -> usize {
        self.nodes
    }
    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(GateSession(self))
    }
}

impl BackendSession for GateSession<'_> {
    fn distance(&mut self, s: u32, t: u32) -> Option<u64> {
        {
            let mut entered = self.0.entered.lock().unwrap();
            *entered += 1;
            self.0.entered_cv.notify_all();
        }
        let open = self.0.open.lock().unwrap();
        let _g = self
            .0
            .open_cv
            .wait_timeout_while(open, Duration::from_secs(10), |o| !*o)
            .unwrap();
        Some(u64::from(s) * 1000 + u64::from(t))
    }
    fn path(&mut self, _s: u32, _t: u32) -> Option<ah_graph::Path> {
        None
    }
    fn take_cost(&mut self) -> CostCounters {
        CostCounters::default()
    }
}

#[test]
fn overload_sheds_429_and_drains_accepted_requests_through_shutdown() {
    // Queue capacity 2, one worker blocked at the gate: of 8 requests,
    // exactly 1 (held by the worker) + 2 (queued) are accepted and the
    // other 5 are rejected with 429 — while shutdown, requested *before*
    // the gate opens, must still complete every accepted request.
    let backend = GateBackend::new(1000);
    let cfg = EdgeConfig {
        workers: 1,
        queue_capacity: 2,
        retry_after_secs: 7,
        ..Default::default()
    };
    let server_cfg = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 0,
        ..Default::default()
    };
    let report = with_edge(cfg, server_cfg, &backend, |addr, handle| {
        let mut c = connect(addr);
        // First request reaches the gate → the worker holds it.
        c.send(b"GET /v1/distance?src=1&dst=2 HTTP/1.1\r\n\r\n");
        backend.wait_for_entered(1);
        // Seven more: 2 fill the queue, 5 must bounce with 429.
        let mut burst = String::new();
        for i in 2..9u32 {
            burst.push_str(&format!("GET /v1/distance?src={i}&dst=0 HTTP/1.1\r\n\r\n"));
        }
        c.send(burst.as_bytes());

        // Begin graceful shutdown while 3 accepted requests are still
        // unanswered; then open the gate. Drain ordering means all 3
        // must complete and flush before the edge exits.
        std::thread::sleep(Duration::from_millis(100)); // let the edge ingest the burst
        handle.shutdown();
        assert!(handle.is_stopping());
        backend.release();

        let mut statuses = Vec::new();
        let mut retry_after = None;
        for _ in 0..8 {
            let (status, headers, _) = c.recv();
            statuses.push(status);
            if status == 429 {
                retry_after = headers.get("retry-after").cloned();
            }
        }
        assert_eq!(
            statuses.iter().filter(|&&s| s == 200).count(),
            3,
            "1 in-worker + 2 queued accepted: {statuses:?}"
        );
        assert_eq!(
            statuses.iter().filter(|&&s| s == 429).count(),
            5,
            "the rest shed: {statuses:?}"
        );
        assert_eq!(retry_after.as_deref(), Some("7"), "Retry-After hint");
        // Responses stay in pipeline order: the three accepted ones are
        // requests 0..=2, so statuses must be sorted 200s-then-429s.
        assert_eq!(statuses, vec![200, 200, 200, 429, 429, 429, 429, 429]);
        // After the drain the edge closes the connection.
        c.expect_eof();
    });
    // The rejected count in the admission metrics matches what the
    // client observed, and memory stayed bounded by the queue capacity.
    assert_eq!(report.rejected, 5);
    assert!(report.queue_high_water <= 2, "{}", report.queue_high_water);
    assert_eq!(
        report
            .responses_by_status
            .iter()
            .find(|&&(s, _)| s == 429)
            .unwrap()
            .1,
        5
    );
}

#[test]
fn connection_cap_sheds_with_503() {
    let g = ah_data::fixtures::ring(8);
    let backend = DijkstraBackend::new(&g);
    let cfg = EdgeConfig {
        max_connections: 1,
        ..Default::default()
    };
    with_edge(cfg, ServerConfig::with_workers(1), &backend, |addr, _| {
        let mut c1 = connect(addr);
        let (status, _, _) = c1.get("/healthz");
        assert_eq!(status, 200); // c1 is established and counted
        let mut c2 = connect(addr);
        let (status, headers, _) = c2.recv();
        assert_eq!(status, 503);
        assert!(headers.contains_key("retry-after"));
        // c1 keeps working.
        let (status, _, _) = c1.get("/v1/distance?src=0&dst=3");
        assert_eq!(status, 200);
    });
}

#[test]
fn stalled_partial_request_gets_408_and_idle_connections_are_reaped() {
    let g = ah_data::fixtures::ring(8);
    let backend = DijkstraBackend::new(&g);
    let cfg = EdgeConfig {
        read_timeout: Duration::from_millis(120),
        idle_timeout: Duration::from_millis(250),
        ..Default::default()
    };
    with_edge(cfg, ServerConfig::with_workers(1), &backend, |addr, _| {
        // Half a request, then silence → 408 and close.
        let mut stalled = connect(addr);
        stalled.send(b"GET /v1/dist");
        let (status, _, _) = stalled.recv();
        assert_eq!(status, 408);
        stalled.expect_eof();

        // An idle keep-alive connection is closed silently.
        let mut idle = connect(addr);
        let (status, _, _) = idle.get("/healthz");
        assert_eq!(status, 200);
        idle.expect_eof();

        // A trickling client (one byte at a time, each under the
        // activity threshold) must NOT defeat the read timeout: the
        // clock runs from when the partial request started.
        let mut trickle = connect(addr);
        trickle
            .stream()
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let start = std::time::Instant::now();
        let mut got = Vec::new();
        let mut chunk = [0u8; 256];
        for _ in 0..80 {
            let _ = trickle.stream().write(b"G"); // may EPIPE once reaped
            match trickle.stream().read(&mut chunk) {
                Ok(n) if n > 0 => {
                    got.extend_from_slice(&chunk[..n]);
                    break;
                }
                _ => {}
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            got.starts_with(b"HTTP/1.1 408"),
            "no 408 while trickling: {:?}",
            String::from_utf8_lossy(&got)
        );
        assert!(
            start.elapsed() < Duration::from_millis(1000),
            "trickling deferred the read timeout: {:?}",
            start.elapsed()
        );
    });
}

#[test]
fn http10_and_connection_close_are_honoured() {
    let g = ah_data::fixtures::ring(8);
    let backend = DijkstraBackend::new(&g);
    with_edge(
        EdgeConfig::default(),
        ServerConfig::with_workers(1),
        &backend,
        |addr, _| {
            // HTTP/1.0 without keep-alive: answered then closed.
            let mut c = connect(addr);
            c.send(b"GET /v1/distance?src=0&dst=2 HTTP/1.0\r\n\r\n");
            let (status, headers, _) = c.recv();
            assert_eq!(status, 200);
            assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
            c.expect_eof();

            // Explicit Connection: close on 1.1.
            let mut c = connect(addr);
            c.send(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
            let (status, _, _) = c.recv();
            assert_eq!(status, 200);
            c.expect_eof();
        },
    );
}

/// A backend whose sessions always panic — the edge must fail fast
/// (503 the stranded request, drain, propagate the panic at join)
/// instead of hanging on a completion that will never arrive.
struct AlwaysPanicBackend;
struct AlwaysPanicSession;

impl DistanceBackend for AlwaysPanicBackend {
    fn name(&self) -> &'static str {
        "AlwaysPanic"
    }
    fn num_nodes(&self) -> usize {
        8
    }
    fn make_session(&self) -> Box<dyn BackendSession + '_> {
        Box::new(AlwaysPanicSession)
    }
}

impl BackendSession for AlwaysPanicSession {
    fn distance(&mut self, _s: u32, _t: u32) -> Option<u64> {
        panic!("injected backend bug");
    }
    fn path(&mut self, _s: u32, _t: u32) -> Option<ah_graph::Path> {
        panic!("injected backend bug");
    }
    fn take_cost(&mut self) -> CostCounters {
        CostCounters::default()
    }
}

#[test]
fn worker_panic_fails_fast_with_503_instead_of_hanging() {
    let backend = AlwaysPanicBackend;
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 0,
        ..Default::default()
    });
    let edge = EdgeServer::bind(
        "127.0.0.1:0",
        EdgeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = edge.local_addr().unwrap();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| edge.serve(&server, &backend));
        let mut c = connect(addr);
        // Three pipelined requests: one reaches the panicking session,
        // the other two sit admitted behind it.
        c.send(
            b"GET /v1/distance?src=0&dst=1 HTTP/1.1\r\n\r\n\
              GET /v1/distance?src=1&dst=2 HTTP/1.1\r\n\r\n\
              GET /v1/distance?src=2&dst=3 HTTP/1.1\r\n\r\n",
        );
        // The stranded requests are answered with one 503 (its
        // `Connection: close` discards the rest of the pipeline), the
        // connection closes, and the worker's panic propagates out of
        // serve() — the test completing at all proves no hang.
        let (status, headers, _) = c.recv();
        assert_eq!(status, 503);
        assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
        c.expect_eof();
        let err = serving.join();
        assert!(err.is_err(), "backend panic must propagate");
    });
}

#[test]
fn admin_shutdown_endpoint_drains_when_enabled() {
    let g = ah_data::fixtures::ring(8);
    let backend = DijkstraBackend::new(&g);

    // Disabled (default): 404.
    with_edge(
        EdgeConfig::default(),
        ServerConfig::with_workers(1),
        &backend,
        |addr, _| {
            let mut c = connect(addr);
            let (status, _, _) = c.get("/admin/shutdown");
            assert_eq!(status, 404);
        },
    );

    // Enabled: 200 + the serve loop exits without an external handle.
    let server = Server::new(ServerConfig::with_workers(1));
    let edge = EdgeServer::bind(
        "127.0.0.1:0",
        EdgeConfig {
            allow_shutdown: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = edge.local_addr().unwrap();
    let report = std::thread::scope(|scope| {
        let serving = scope.spawn(|| edge.serve(&server, &backend));
        let mut c = connect(addr);
        let (status, _, body) = c.get("/admin/shutdown");
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().contains("draining"));
        serving.join().unwrap().unwrap()
    });
    assert_eq!(report.connections, 1);
}
