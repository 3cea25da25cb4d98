//! **The open service**: load (or build) an index and serve it over
//! HTTP on a real socket — the ROADMAP's "closed-loop harness → open
//! service" step, wiring `ah_net::EdgeServer` in front of
//! `ah_server::Server::serve_queue`.
//!
//! ```sh
//! # first start builds the indexes and persists them
//! cargo run --release -p ah_bench --bin serve_edge -- \
//!     --through S1 --save-index idx.snap
//! # restarts skip the build entirely
//! cargo run --release -p ah_bench --bin serve_edge -- \
//!     --through S1 --load-index idx.snap --addr 127.0.0.1:8080 --workers 4
//! # then:  curl 'http://127.0.0.1:8080/v1/distance?src=17&dst=910'
//! ```
//!
//! `--backend labels` serves distances from the hub-labeling index
//! (`ah_labels`; built from the CH order, or loaded from the snapshot's
//! `labels` section when present) with `/v1/path` delegated to AH —
//! answers stay bit-equal to the default AH backend. `--shards K`
//! serves through the region-sharded index
//! (`ah_shard::ShardedQuery` composition — answers stay bit-equal to
//! the global AH index). `--queue N` sets the admission window: bursts
//! beyond it are answered `429 Too Many Requests` with a `Retry-After`
//! hint (see `docs/EDGE.md`). `--slow-us N` injects a per-query delay
//! (fault injection for overload rehearsal — this is what the process
//! suite `tests/serve_edge_process.rs` uses to make 429s
//! deterministic). `--allow-shutdown` exposes
//! `GET /admin/shutdown` for supervised drains. The plain AH backend
//! always serves through the swappable `SnapshotServer` (its
//! `ah_index_generation` and `ah_index_tier` are in `/metrics`);
//! `--allow-reload` (AH backend, unsharded) only arms
//! `POST /admin/reload-delta?path=…`: the delta snapshot at `path` (see
//! `make_delta`) is applied to the live graph and the patched index is
//! published mid-traffic — 202 on acceptance, 409 on a stale or
//! concurrent reload, zero downtime, with `ah_reload_*` metrics in
//! `/metrics`. `--trace-sample N`
//! samples one request in N into the span ring behind
//! `GET /debug/traces` (default 64; 0 disables tracing), and
//! `--slow-query-us N` turns on the slow-query log for sampled spans
//! at or above that total (see `docs/OBSERVABILITY.md`).
//! `--slo-p99-us N` / `--slo-error-pct P` arm the SLO policy behind
//! `GET /readyz` (degrades 200→503 with a JSON reason while the
//! fast-window burn rate or p99 violates the objective, recovers as
//! the window slides) and `GET /debug/slo` (both windows, burn rates,
//! the policy); without either flag `/readyz` always answers 200.
//!
//! The first stdout line is `serve_edge listening on <addr> (…)` —
//! with `--addr 127.0.0.1:0` that is where a supervisor learns the
//! port. On shutdown the bin prints a one-line drain summary; anything
//! more detailed is one `GET /metrics`, `/debug/slo` or `/debug/traces`
//! away while the process runs.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Duration;

use ah_bench::{flag_value, obtain_indices, HarnessArgs};
use ah_net::{EdgeConfig, EdgeServer};
use ah_server::{
    DelayBackend, DeltaReloader, DistanceBackend, LabelBackend, Server, ServerConfig,
    ShardedBackend, SnapshotBackend, SnapshotServer, TraceConfig,
};

/// The flags, parsed straight into the config structs they set.
struct EdgeArgs {
    harness: HarnessArgs,
    addr: String,
    edge: EdgeConfig,
    trace: TraceConfig,
    slow_us: u64,
    allow_reload: bool,
    backend: String,
}

fn parse_args() -> EdgeArgs {
    let mut a = EdgeArgs {
        harness: HarnessArgs {
            through: 1, // S1 by default: builds in seconds, realistic enough
            ..Default::default()
        },
        addr: "127.0.0.1:8080".to_string(),
        edge: EdgeConfig::default(),
        trace: TraceConfig::default(),
        slow_us: 0,
        allow_reload: false,
        backend: "ah".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        // Dataset/index selection is the shared harness vocabulary
        // (--through, --shards, --save-index, --load-index, …).
        if a.harness.accept(&arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--addr" => a.addr = it.next().expect("--addr needs host:port"),
            "--workers" => {
                let n: NonZeroUsize = flag_value(&mut it, "--workers needs a positive number");
                a.edge.workers = n.get();
            }
            "--queue" => a.edge.queue_capacity = flag_value(&mut it, "--queue needs a number"),
            "--max-conns" => {
                a.edge.max_connections = flag_value(&mut it, "--max-conns needs a number");
            }
            "--slow-us" => a.slow_us = flag_value(&mut it, "--slow-us needs microseconds"),
            "--retry-after" => {
                a.edge.retry_after_secs = flag_value(&mut it, "--retry-after needs seconds");
            }
            "--allow-shutdown" => a.edge.allow_shutdown = true,
            "--allow-reload" => a.allow_reload = true,
            "--trace-sample" => {
                a.trace.sample_every = flag_value(&mut it, "--trace-sample needs a number");
            }
            "--slow-query-us" => {
                let us: u64 = flag_value(&mut it, "--slow-query-us needs microseconds");
                a.trace.slow_threshold_ns = us.saturating_mul(1000);
            }
            "--slo-p99-us" => {
                let us: u64 = flag_value(&mut it, "--slo-p99-us needs microseconds");
                a.edge.slo.p99_target_ns = us.saturating_mul(1000);
            }
            "--slo-error-pct" => {
                let pct: f64 = flag_value(&mut it, "--slo-error-pct needs a percentage");
                assert!((0.0..=100.0).contains(&pct), "--slo-error-pct must be in [0, 100]");
                a.edge.slo.error_budget = pct / 100.0;
            }
            "--backend" => {
                a.backend = it.next().expect("--backend needs ah|labels");
                assert!(
                    matches!(a.backend.as_str(), "ah" | "labels"),
                    "--backend must be ah or labels (got {})",
                    a.backend
                );
            }
            other => panic!(
                "unknown argument {other} (try --through SN | --shards K | \
                 --backend ah|labels | --load-index PATH | --save-index PATH | \
                 --addr HOST:PORT | --workers N | --queue N | --max-conns N | \
                 --slow-us N | --retry-after N | --allow-shutdown | --allow-reload | \
                 --trace-sample N | --slow-query-us N | --slo-p99-us N | \
                 --slo-error-pct P)"
            ),
        }
    }
    assert!(
        !(a.backend == "labels" && a.harness.shards > 0),
        "--backend labels and --shards are mutually exclusive"
    );
    assert!(
        !(a.allow_reload && (a.backend != "ah" || a.harness.shards > 0)),
        "--allow-reload rebuilds the plain AH index; combine it with the \
         default backend (no --backend labels, no --shards)"
    );
    // The labels backend needs the labeling obtained alongside AH.
    a.harness.labels |= a.backend == "labels";
    a
}

fn main() {
    let args = parse_args();
    let spec = *args.harness.datasets().last().expect("registry non-empty");

    eprintln!("[edge] building {} road network …", spec.name);
    let g = spec.build();
    let idx = obtain_indices(&args.harness, &spec, &g, "edge");

    let server = Server::new(ServerConfig {
        trace: args.trace,
        ..Default::default()
    });
    // The serving engine and the published index live together in a
    // SnapshotServer, the one owner of what serves; `--allow-reload`
    // adds the reloader that swaps the index under live traffic.
    let snap = Arc::new(SnapshotServer::with_server(Arc::clone(&idx.ah), server));
    let server = snap.server();
    let reloader = args
        .allow_reload
        .then(|| Arc::new(DeltaReloader::new(Arc::clone(&snap), g.clone(), Default::default())));

    // Pick the backend: hub labels under --backend labels, sharded
    // composition when requested, the swap-following snapshot backend
    // otherwise; optionally slowed for overload rehearsal.
    let snapshot_backend = SnapshotBackend::new(&snap);
    let sharded_backend = idx.sharded.as_deref().map(ShardedBackend::new);
    let label_backend = (args.backend == "labels").then(|| {
        let labels = idx.labels.as_deref().expect("labels obtained for --backend labels");
        LabelBackend::new(labels, &idx.ah)
    });
    let inner: &dyn DistanceBackend = match (&label_backend, &sharded_backend) {
        (Some(b), _) => b,
        (None, Some(b)) => b,
        (None, None) => &snapshot_backend,
    };
    let delayed;
    let backend: &dyn DistanceBackend = if args.slow_us > 0 {
        delayed = DelayBackend::new(inner, Duration::from_micros(args.slow_us));
        &delayed
    } else {
        inner
    };
    let edge = EdgeServer::bind(args.addr.as_str(), args.edge.clone())
        .unwrap_or_else(|e| panic!("cannot bind {}: {e}", args.addr));
    let addr = edge.local_addr().expect("local_addr");
    println!(
        "serve_edge listening on {addr} ({}, {} nodes, {} workers, queue {})",
        backend.name(),
        backend.num_nodes(),
        args.edge.workers,
        args.edge.queue_capacity,
    );

    let report = edge
        .serve_with_admin(server, backend, reloader.as_ref())
        .expect("edge event loop");

    let responses = report
        .responses_by_status
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(s, n)| format!("{s}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "serve_edge drained cleanly: {} connections, responses [{responses}], \
         {} rejected, queue high-water {}, index generation {}",
        report.connections,
        report.rejected,
        report.queue_high_water,
        snap.generation(),
    );
}
