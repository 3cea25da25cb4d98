//! End-to-end trace lifecycle over a loopback edge: with 1-in-1
//! sampling, every query answered 200 must leave a *complete* span
//! (all seven stages stamped, in monotonic order, totalling no more
//! than the observed wall clock), and `/debug/traces` must serve a
//! well-formed JSON document describing them.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ah_net::{EdgeConfig, EdgeServer};
use ah_server::{
    DijkstraBackend, Server, ServerConfig, SpanRecord, TraceConfig,
};

fn get(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut c = ah_net::blocking::Client::connect(addr).unwrap();
    c.stream()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    c.send(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let resp = c.recv().expect("response");
    (resp.status, resp.body)
}

/// Minimal JSON well-formedness check (the workspace serde is an
/// offline stub): consumes one value, returns the rest of the input.
/// Panics on malformed input — that *is* the assertion.
fn json_value(s: &[u8]) -> &[u8] {
    let s = skip_ws(s);
    match s.first().expect("truncated JSON") {
        b'{' => json_delimited(&s[1..], b'}', |s| {
            let s = json_string(skip_ws(s));
            let s = skip_ws(s);
            assert_eq!(s.first(), Some(&b':'), "object needs key:value");
            json_value(&s[1..])
        }),
        b'[' => json_delimited(&s[1..], b']', json_value),
        b'"' => json_string(s),
        b't' => s.strip_prefix(b"true".as_slice()).expect("bad literal"),
        b'f' => s.strip_prefix(b"false".as_slice()).expect("bad literal"),
        b'n' => s.strip_prefix(b"null".as_slice()).expect("bad literal"),
        _ => {
            let end = s
                .iter()
                .position(|c| !c.is_ascii_digit() && !b"-+.eE".contains(c))
                .unwrap_or(s.len());
            assert!(end > 0, "expected a JSON value at {:?}", &s[..s.len().min(20)]);
            &s[end..]
        }
    }
}

fn json_delimited(mut s: &[u8], close: u8, item: impl Fn(&[u8]) -> &[u8]) -> &[u8] {
    s = skip_ws(s);
    if s.first() == Some(&close) {
        return &s[1..];
    }
    loop {
        s = skip_ws(item(s));
        match s.first() {
            Some(&b',') => s = &s[1..],
            Some(&c) if c == close => return &s[1..],
            other => panic!("expected ',' or close, got {other:?}"),
        }
    }
}

fn json_string(s: &[u8]) -> &[u8] {
    assert_eq!(s.first(), Some(&b'"'), "expected string");
    let mut i = 1;
    while s[i] != b'"' {
        i += if s[i] == b'\\' { 2 } else { 1 };
    }
    &s[i + 1..]
}

fn skip_ws(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|c| c.is_ascii_whitespace()).count();
    &s[n..]
}

#[test]
fn every_200_traces_a_complete_monotonic_span_and_debug_traces_is_json() {
    let g = ah_data::fixtures::lattice(8, 8, 10);
    let backend = DijkstraBackend::new(&g);
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 1024,
        trace: TraceConfig {
            sample_every: 1, // trace everything
            slow_threshold_ns: 0,
        },
    });
    let edge = EdgeServer::bind(
        "127.0.0.1:0",
        EdgeConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = edge.local_addr().unwrap();
    let handle = edge.handle();

    const QUERIES: usize = 32;
    let t0 = Instant::now();
    let traces_body = std::thread::scope(|scope| {
        let serving = scope.spawn(|| edge.serve(&server, &backend));
        // Alternating distance and path queries, all in-bounds → 200.
        for i in 0..QUERIES {
            let (src, dst) = ((i % 64) as u32, ((i * 7 + 3) % 64) as u32);
            let path = if i % 2 == 0 { "distance" } else { "path" };
            let (status, _) = get(addr, &format!("/v1/{path}?src={src}&dst={dst}"));
            assert_eq!(status, 200, "query {i}");
        }
        let (status, body) = get(addr, "/debug/traces");
        assert_eq!(status, 200);
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8(metrics).unwrap();
        // The unified registry exposes real histogram series for the
        // serving layers and the tracer's stage breakdown.
        for series in [
            "ah_server_query_latency_seconds_bucket",
            "ah_queue_wait_seconds_bucket",
            "ah_stage_duration_seconds_bucket",
            "ah_trace_spans_total",
            "ah_edge_responses_total{code=\"200\"}",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        handle.shutdown();
        serving.join().expect("edge thread").expect("serve io");
        body
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;

    // Every query was sampled, delivered, and flushed → finished spans.
    assert!(
        server.tracer().spans_finished() >= QUERIES as u64,
        "finished {} of {QUERIES}",
        server.tracer().spans_finished()
    );
    let completed: Vec<SpanRecord> = server
        .tracer()
        .recent()
        .into_iter()
        .filter(|r| r.status == 200)
        .collect();
    assert_eq!(completed.len(), QUERIES, "one 200 span per 200 response");
    for r in &completed {
        assert!(r.is_complete(), "missing stage stamps: {r:?}");
        assert!(r.is_monotonic(), "stages out of order: {r:?}");
        // Telescoping stage intervals can never exceed the wall clock
        // the client observed around the whole run.
        assert!(
            r.total_ns() <= wall_ns,
            "span total {} > wall {wall_ns}: {r:?}",
            r.total_ns()
        );
    }

    // The /debug/traces document is one well-formed JSON object with
    // the expected top-level fields and per-span stage maps.
    let rest = json_value(&traces_body);
    assert!(skip_ws(rest).is_empty(), "trailing bytes after JSON");
    let text = String::from_utf8(traces_body).unwrap();
    assert!(text.starts_with("{\"sample_every\":1"), "{text}");
    assert!(text.contains("\"spans\":["), "{text}");
    assert!(text.contains("\"stages\":{\"parse\":"), "{text}");
    assert!(text.contains("\"complete\":true"), "{text}");
}
