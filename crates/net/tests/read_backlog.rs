//! The per-connection read backlog always holds one whole request: an
//! edge whose header cap exceeds the 64 KiB backlog floor must read and
//! answer a request of that size, not stop reading mid-head and time
//! it out with a `408`.

use std::time::Duration;

use ah_net::http::HttpLimits;
use ah_net::{EdgeConfig, EdgeServer};
use ah_server::{DijkstraBackend, Server, ServerConfig};

#[test]
fn a_request_past_the_backlog_floor_is_read_whole() {
    let g = ah_data::fixtures::ring(8);
    let backend = DijkstraBackend::new(&g);
    let server = Server::new(ServerConfig::with_workers(1));
    let edge = EdgeServer::bind(
        "127.0.0.1:0",
        EdgeConfig {
            workers: 1,
            limits: HttpLimits {
                max_head_bytes: 128 * 1024,
                ..Default::default()
            },
            // A stalled parse fails fast instead of hanging.
            read_timeout: Duration::from_millis(500),
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
            // One ~80 KiB header: past the 64 KiB floor, inside the cap.
            let padding = "a".repeat(80 * 1024);
            let request = format!("GET /healthz HTTP/1.1\r\nX-Padding: {padding}\r\n\r\n");
            c.send(request.as_bytes()).unwrap();
            let resp = c.recv().expect("a response");
            assert_eq!(resp.status, 200, "{}", resp.text());
        });
        handle.shutdown();
        let report = serving.join().unwrap().unwrap();
        if let Err(p) = outcome {
            std::panic::resume_unwind(p);
        }
        assert_eq!(report.timeouts, 0, "the request must not stall");
    });
}
