//! A pipelined backlog far deeper than the edge's per-connection
//! pipelining cap (64 unanswered requests) must keep flowing: flushes
//! free slots, freed slots admit buffered requests, with no dependence
//! on further socket readability events.

use std::time::Duration;

use ah_net::{EdgeConfig, EdgeServer};
use ah_server::{DijkstraBackend, Server, ServerConfig};

/// Requests in the burst: many times the pipelining cap.
const N: usize = 1_000;

#[test]
fn deep_pipeline_never_stalls() {
    let g = ah_data::fixtures::ring(32);
    let backend = DijkstraBackend::new(&g);
    let server = Server::new(ServerConfig::with_workers(2));
    let edge = EdgeServer::bind(
        "127.0.0.1:0",
        EdgeConfig {
            workers: 2,
            // Short timeouts: a stall fails fast instead of hanging.
            read_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = edge.local_addr().unwrap();
    let handle = edge.handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| edge.serve(&server, &backend));
        let outcome = std::panic::catch_unwind(|| {
            let mut c = ah_net::blocking::Client::connect(addr).unwrap();
            let mut burst = String::new();
            for i in 0..N {
                burst.push_str(&format!(
                    "GET /v1/distance?src={}&dst={} HTTP/1.1\r\n\r\n",
                    i % 32,
                    (i * 5 + 3) % 32
                ));
            }
            c.send(burst.as_bytes()).unwrap();
            for served in 0..N {
                let resp = c.recv().expect("pipelined response");
                assert_eq!(resp.status, 200, "resp {served}: {}", resp.text());
            }
        });
        handle.shutdown();
        let report = serving.join().unwrap().unwrap();
        if let Err(p) = outcome {
            std::panic::resume_unwind(p);
        }
        assert_eq!(report.timeouts, 0, "no connection may stall");
        assert_eq!(
            report
                .responses_by_status
                .iter()
                .find(|&&(s, _)| s == 200)
                .unwrap()
                .1,
            N as u64
        );
    });
}
