//! Process-level suite for the `serve_edge` binary: every flag wiring is
//! started as a real child process on an ephemeral port, driven with
//! distance / path / via / knn / matrix requests through
//! [`ah_net::blocking::Client`], checked bit-equal against a direct
//! [`AhQuery`] / [`ScenarioEngine`] on the same `REGISTRY[0]` network,
//! and drained through `/admin/shutdown` to exit status 0.
//!
//! The in-process suites (`crates/net/tests`, `tests/tests`) pin the
//! serving behaviour itself; what only a process can show is that the
//! binary's flags reach the right backend, that its `--save-index` /
//! `--load-index` pair round-trips across processes, and that it exits
//! cleanly. The indexes are built once (`--shards 4 --labels
//! --save-index`); every case after that starts from `--load-index`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ah_bench::{snapshot_path, REGISTRY};
use ah_core::{AhIndex, AhQuery};
use ah_graph::Graph;
use ah_net::blocking::Client;
use ah_search::ScenarioEngine;
use ah_server::{PoiSet, POI_CATEGORIES};
use ah_store::Snapshot;
use ah_workload::{generate_query_sets, TrafficSchedule};

/// Upper bound on every wait in this file (child start-up, drain, the
/// background rebuild behind a reload).
const DEADLINE: Duration = Duration::from_secs(60);

/// Scratch directory under cargo's integration-test tmpdir.
fn scratch() -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_edge_process");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Polls `ready` until it holds, failing the test at [`DEADLINE`].
fn poll_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// A running `serve_edge` child. Dropping it kills the process, so a
/// failed assertion anywhere in a test never leaves one behind.
struct Edge {
    child: Child,
    addr: SocketAddr,
    /// The child's stdout and stderr, in arrival order.
    log: PathBuf,
}

impl Edge {
    /// Starts `serve_edge --through S0` on an ephemeral port with
    /// `flags` appended and waits for its `listening on` line.
    fn spawn(case: &str, flags: &[&str]) -> Edge {
        let log = scratch().join(format!("{case}.log"));
        let out = std::fs::File::create(&log).expect("create child log");
        let child = Command::new(env!("CARGO_BIN_EXE_serve_edge"))
            .args(["--through", "S0", "--addr", "127.0.0.1:0", "--workers", "2"])
            .arg("--allow-shutdown")
            .args(flags)
            .stdin(Stdio::null())
            .stdout(out.try_clone().expect("clone log handle"))
            .stderr(out)
            .spawn()
            .expect("spawn serve_edge");
        let mut edge = Edge { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)), log };
        poll_until("the listening line", || {
            let exited = edge.child.try_wait().expect("try_wait");
            assert!(exited.is_none(), "{case}: serve_edge exited early:\n{}", edge.log());
            match edge.logged("serve_edge listening on ") {
                Some(rest) => {
                    let addr = rest.split(' ').next().and_then(|a| a.parse().ok());
                    edge.addr = addr.unwrap_or_else(|| panic!("{case}: bad banner {rest:?}"));
                    true
                }
                None => false,
            }
        });
        edge
    }

    fn log(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// The remainder of the child's output line that starts with `prefix`.
    fn logged(&self, prefix: &str) -> Option<String> {
        self.log().lines().find_map(|l| l.strip_prefix(prefix).map(str::to_string))
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("connect to serve_edge")
    }

    /// One request on a fresh connection; returns `(status, body)`.
    fn get(&self, target: &str) -> (u16, String) {
        let resp = self.client().get(target).unwrap_or_else(|e| panic!("GET {target}: {e}"));
        (resp.status, resp.text())
    }

    fn metrics(&self) -> String {
        self.get("/metrics").1
    }

    /// `GET /admin/shutdown`, then waits for the drain: the process
    /// must exit 0 and print its one-line summary, which is returned.
    fn shutdown(mut self) -> String {
        assert_eq!(self.get("/admin/shutdown").0, 200);
        let mut status = None;
        poll_until("serve_edge to drain and exit", || {
            status = self.child.try_wait().expect("try_wait");
            status.is_some()
        });
        assert!(status.is_some_and(|s| s.success()), "exit {status:?}:\n{}", self.log());
        self.logged("serve_edge drained cleanly: ")
            .unwrap_or_else(|| panic!("no drain summary:\n{}", self.log()))
    }
}

impl Drop for Edge {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The value of one exposition series, e.g.
/// `ah_query_settled_nodes{kind="distance"}`.
fn metric(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("series {series} missing from /metrics:\n{text}"))
}

/// A network and the AH index over it: what wire answers are compared
/// against.
struct Reference {
    graph: Graph,
    ah: Arc<AhIndex>,
}

/// Loads the graph and AH sections of a snapshot written by
/// `serve_edge --save-index` or `make_delta --patched`.
fn reference(path: &Path) -> Reference {
    let snap = Snapshot::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Reference {
        graph: snap.graph.expect("graph section"),
        ah: snap.ah.expect("ah section"),
    }
}

/// Built once per test binary: the snapshot every case loads, the
/// reference it is checked against, and the request pairs.
struct Fixture {
    /// The `--save-index` / `--load-index` base path.
    index: String,
    base: Reference,
    /// Distinct Q1–Q10 pairs (distinct, so no answer is a cache hit).
    pairs: Vec<(u32, u32)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let index = scratch().join("idx.snap").to_string_lossy().into_owned();
        // The one build. The binary writes the snapshot; this process
        // and every later child read it back — the cross-process
        // snapshot round trip.
        Edge::spawn("build", &["--shards", "4", "--labels", "--save-index", &index]).shutdown();
        let base = reference(&snapshot_path(&index, "S0"));
        let fresh = REGISTRY[0].build();
        assert!(base.graph.csr_parts() == fresh.csr_parts(), "saved graph is not REGISTRY[0]");
        let sets = generate_query_sets(&fresh, 20, 0x5EED);
        let mut pairs = TrafficSchedule::interactive(48, 0.0, 0x5EED).generate(&sets);
        pairs.sort_unstable();
        pairs.dedup();
        assert!(pairs.len() >= 24, "degenerate workload");
        Fixture { index, base, pairs }
    })
}

fn json_opt(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |d| d.to_string())
}

fn json_list<T>(items: impl IntoIterator<Item = T>, render: impl Fn(T) -> String) -> String {
    format!("[{}]", items.into_iter().map(render).collect::<Vec<_>>().join(","))
}

/// Drives every query kind over one keep-alive connection and checks
/// each answer against `want`. Returns the number of requests sent.
fn drive(edge: &Edge, want: &Reference, pairs: &[(u32, u32)]) -> u64 {
    let (g, ah) = (&want.graph, &*want.ah);
    let pois = PoiSet::default_for(g.num_nodes());
    let mut q = AhQuery::new();
    let mut engine = ScenarioEngine::new();
    let mut c = edge.client();
    let mut get = |target: String| {
        let resp = c.get(&target).unwrap_or_else(|e| panic!("{target}: {e}"));
        assert_eq!(resp.status, 200, "{target}: {}", resp.text());
        resp
    };

    for &(s, t) in pairs {
        let resp = get(format!("/v1/distance?src={s}&dst={t}"));
        assert_eq!(resp.distance(), q.distance(ah, s, t), "distance ({s},{t}): {}", resp.text());
    }
    for &(s, t) in &pairs[..12] {
        let p = q.path(ah, s, t).expect("S0 is strongly connected");
        let (d, hops) = (p.dist.length, p.num_edges());
        assert_eq!(
            get(format!("/v1/path?src={s}&dst={t}")).text(),
            format!("{{\"src\":{s},\"dst\":{t},\"distance\":{d},\"hops\":{hops}}}"),
        );
    }
    for (i, &(s, t)) in pairs[..8].iter().enumerate() {
        let cat = i as u32 % POI_CATEGORIES;
        let v = engine.via(g, s, t, pois.category(cat));
        // Everything up to the `cache_hit` flag.
        let via = format!(
            "{{\"src\":{s},\"dst\":{t},\"cat\":{cat},\"poi\":{},\"total\":{},\"to_poi\":{},\"from_poi\":{},",
            json_opt(v.map(|v| v.poi.into())),
            json_opt(v.map(|v| v.total)),
            json_opt(v.map(|v| v.to_poi)),
            json_opt(v.map(|v| v.from_poi)),
        );
        let body = get(format!("/v1/via?src={s}&dst={t}&cat={cat}")).text();
        assert!(body.starts_with(&via), "via: got {body}, want {via}…");

        let k = 1 + i % 5;
        let results = json_list(engine.knn(g, s, pois.category(cat), k), |(p, d)| {
            format!("{{\"poi\":{p},\"distance\":{d}}}")
        });
        assert_eq!(
            get(format!("/v1/knn?src={s}&cat={cat}&k={k}")).text(),
            format!("{{\"src\":{s},\"cat\":{cat},\"k\":{k},\"results\":{results}}}"),
        );
    }
    for window in pairs[..8].chunks(4) {
        let sources: Vec<u32> = window.iter().map(|p| p.0).collect();
        let targets: Vec<u32> = window.iter().map(|p| p.1).collect();
        let body = format!(
            "{{\"sources\":{},\"targets\":{}}}",
            json_list(&sources, u32::to_string),
            json_list(&targets, u32::to_string),
        );
        let resp = c.post_json("/v1/matrix", body.as_bytes()).expect("POST /v1/matrix");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let table = json_list(engine.matrix(g, &sources, &targets), |row| json_list(row, json_opt));
        assert_eq!(resp.text(), format!("{{\"rows\":4,\"cols\":4,\"distances\":{table}}}"));
    }
    pairs.len() as u64 + 12 + 8 + 8 + 2
}

/// The `/metrics` families every wiring must expose after [`drive`],
/// and the backend it must name. Returns the scrape.
fn check_metrics(edge: &Edge, backend: &str, pairs: usize) -> String {
    let m = edge.metrics();
    let format_version = format!("format_version=\"{}\"", ah_store::VERSION);
    for family in [
        "ah_server_query_latency_seconds_bucket{",
        "ah_queue_wait_seconds_bucket{",
        "ah_stage_duration_seconds_bucket{stage=",
        &format_version,
        "ah_uptime_seconds ",
        "ah_trace_slow_total ",
    ] {
        assert!(m.contains(family), "{family} missing from /metrics:\n{m}");
    }
    assert_eq!(metric(&m, &format!("ah_edge_backend{{name=\"{backend}\"}}")), 1);
    let misses: u64 = ["distance", "via"]
        .iter()
        .map(|kind| {
            metric(&m, &format!("ah_query_cache_probes{{kind=\"{kind}\"}}"))
                - metric(&m, &format!("ah_query_cache_hits{{kind=\"{kind}\"}}"))
        })
        .sum();
    assert_eq!(misses, pairs as u64, "distance");
    for (scenario, served) in [("via", 8), ("knn", 8), ("matrix", 2)] {
        let series = format!("ah_server_scenario_requests_total{{scenario=\"{scenario}\"}}");
        assert_eq!(metric(&m, &series), served);
    }
    for kind in ["distance", "path", "via", "knn", "matrix"] {
        assert!(metric(&m, &format!("ah_query_bytes_out{{kind=\"{kind}\"}}")) > 0, "{kind}");
    }
    assert_eq!(metric(&m, "ah_edge_responses_total{code=\"429\"}"), 0);
    m
}

/// What most cases share: start from the saved snapshot with `flags`,
/// [`drive`] the fixture pairs against the base reference, and
/// [`check_metrics`]. Returns the edge, its scrape and the request count.
fn serve(case: &str, flags: &[&str], backend: &str) -> (Edge, String, u64) {
    let f = fixture();
    let edge = Edge::spawn(case, &[&["--load-index", &f.index][..], flags].concat());
    let sent = drive(&edge, &f.base, &f.pairs);
    let m = check_metrics(&edge, backend, f.pairs.len());
    (edge, m, sent)
}

#[test]
fn default_ah_backend() {
    let (edge, m, sent) = serve("ah", &[], "AH");
    assert!(metric(&m, "ah_query_settled_nodes{kind=\"distance\"}") > 0);
    assert!(metric(&m, "ah_query_heap_pops{kind=\"path\"}") > 0);
    assert_eq!(edge.get("/readyz").0, 200, "no objective armed: always ready");
    let summary = edge.shutdown();
    // drive's requests plus the scrape, the probe and the shutdown call.
    assert!(summary.contains(&format!("responses [200:{}]", sent + 3)), "{summary}");
    assert!(summary.contains("0 rejected") && summary.ends_with("index generation 0"), "{summary}");
}

#[test]
fn sharded_backend() {
    let (edge, m, _) = serve("shards", &["--shards", "4"], "AH-sharded");
    assert!(metric(&m, "ah_query_shard_hops{kind=\"distance\"}") > 0);
    assert!(metric(&m, "ah_query_boundary_lookups{kind=\"distance\"}") > 0);
    edge.shutdown();
}

#[test]
fn labels_backend() {
    let (edge, m, _) = serve("labels", &["--backend", "labels"], "labels");
    assert!(metric(&m, "ah_query_label_entries_merged{kind=\"distance\"}") > 0);
    assert_eq!(metric(&m, "ah_query_settled_nodes{kind=\"distance\"}"), 0, "no graph search");
    assert!(metric(&m, "ah_query_settled_nodes{kind=\"path\"}") > 0, "paths come from AH");
    edge.shutdown();
}

#[test]
fn allow_reload_swaps_to_the_patched_index() {
    let f = fixture();
    let delta = scratch().join("delta.snap");
    let patched = scratch().join("patched.snap");
    let made = Command::new(env!("CARGO_BIN_EXE_make_delta"))
        .args(["--through", "S0", "--changes", "8", "--out"])
        .arg(&delta)
        .arg("--patched")
        .arg(&patched)
        .output()
        .expect("run make_delta");
    assert!(made.status.success(), "make_delta: {}", String::from_utf8_lossy(&made.stderr));
    let after = reference(&patched);
    // Lead with the re-weighted arcs' own endpoints, so the swap moves
    // answers of every kind and a server stuck on the old index fails.
    let cut = Snapshot::load(&delta).expect("load delta").delta.expect("delta section");
    let mut pairs: Vec<(u32, u32)> = cut.changes().iter().map(|c| (c.tail, c.head)).collect();
    pairs.extend(&f.pairs);
    let mut seen = std::collections::HashSet::new();
    pairs.retain(|p| seen.insert(*p));
    let mut q = AhQuery::new();
    assert!(
        pairs.iter().any(|&(s, t)| q.distance(&f.base.ah, s, t) != q.distance(&after.ah, s, t)),
        "the delta moves none of the driven answers"
    );

    let edge = Edge::spawn("reload", &["--load-index", &f.index, "--allow-reload"]);
    drive(&edge, &f.base, &pairs);
    check_metrics(&edge, "AH", pairs.len());

    let reload = format!("/admin/reload-delta?path={}", delta.display());
    let resp = edge.client().post_json(&reload, b"").expect("POST reload-delta");
    assert_eq!(resp.status, 202, "{}", resp.text());
    poll_until("the rebuilt index to be published", || {
        metric(&edge.metrics(), "ah_index_generation") == 1
    });
    let resp = edge.client().post_json(&reload, b"").expect("POST reload-delta again");
    assert_eq!(resp.status, 409, "a stale delta must be refused: {}", resp.text());

    drive(&edge, &after, &pairs);
    let m = edge.metrics();
    assert_eq!(metric(&m, "ah_reload_swaps_total"), 1);
    assert_eq!(metric(&m, "ah_reload_failures_total"), 1, "the stale replay");
    assert!(metric(&m, "ah_query_settled_nodes{kind=\"distance\"}") > 0);
    assert!(edge.shutdown().ends_with("index generation 1"));
}

#[test]
fn small_queue_sheds_a_pipelined_burst_as_429() {
    // One request in flight at a time (drive) never overflows the window.
    let (edge, _, _) = serve("overload", &["--queue", "2", "--slow-us", "20000"], "AH");

    // 32 requests in one write against a window of 2 at 20 ms each.
    let f = fixture();
    let burst: Vec<(u32, u32)> = f.pairs.iter().map(|&(s, t)| (t, s)).take(32).collect();
    let raw: String = burst
        .iter()
        .map(|(s, t)| format!("GET /v1/distance?src={s}&dst={t} HTTP/1.1\r\nHost: b\r\n\r\n"))
        .collect();
    let mut c = edge.client();
    c.send(raw.as_bytes()).expect("send burst");
    let mut q = AhQuery::new();
    let (mut served, mut shed) = (0u64, 0u64);
    for &(s, t) in &burst {
        let resp = c.recv().expect("burst response");
        match resp.status {
            200 => {
                served += 1;
                assert_eq!(resp.distance(), q.distance(&f.base.ah, s, t), "burst ({s},{t})");
            }
            429 => {
                shed += 1;
                assert_eq!(resp.header("retry-after"), Some("1"));
            }
            other => panic!("burst ({s},{t}) answered {other}: {}", resp.text()),
        }
    }
    assert!(served >= 2 && shed > 0, "served {served}, shed {shed}");
    let m = edge.metrics();
    assert_eq!(metric(&m, "ah_edge_responses_total{code=\"429\"}"), shed);
    assert!(metric(&m, "ah_queue_high_water") <= 2);
    assert!(edge.shutdown().contains(&format!("{shed} rejected, queue high-water")));
}

#[test]
fn trace_sample_1_records_every_request() {
    let (edge, m, sent) = serve("trace", &["--trace-sample", "1", "--slow-query-us", "1"], "AH");
    assert_eq!(metric(&m, "ah_trace_spans_total"), sent);
    assert!(metric(&m, "ah_trace_slow_total") > 0);
    for stage in ["admit", "queue", "cache_probe", "compute", "serialize", "flush"] {
        let series = format!("ah_stage_duration_seconds_count{{stage=\"{stage}\"}}");
        assert_eq!(metric(&m, &series), sent, "{stage}");
    }
    let (_, traces) = edge.get("/debug/traces");
    assert!(traces.starts_with(&format!("{{\"sample_every\":1,\"finished\":{sent},")), "{traces}");
    assert!(traces.contains("\"complete\":true,\"monotonic\":true"), "{traces}");
    assert!(!traces.contains("\"monotonic\":false"), "{traces}");
    edge.shutdown();
}

#[test]
fn slo_p99_objective_trips_readyz() {
    // Every query sleeps 5 ms against a 1 ms p99 objective.
    let (edge, _, _) = serve("slo", &["--slo-p99-us", "1000", "--slow-us", "5000"], "AH");
    let (status, verdict) = edge.get("/readyz");
    assert_eq!(status, 503, "{verdict}");
    assert!(verdict.contains("\"ready\":false") && verdict.contains("p99"), "{verdict}");
    assert!(edge.get("/debug/slo").1.contains("\"p99_target_ns\":1000000"));
    edge.shutdown();
}
