//! `lifecycle`: the write side — index builds (timed in set-up, where
//! they happen), snapshot write and load, and one `WeightDelta` pushed
//! through `DeltaReloader::reload` while a paced closed-loop client
//! keeps querying the `SnapshotServer`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ah_core::{AhQuery, BuildConfig};
use ah_graph::{WeightChange, WeightDelta, CLOSED};
use ah_search::dijkstra_distance;
use ah_server::{
    BoundedQueue, DeltaReloader, Job, Request, Server, SnapshotBackend, SnapshotServer,
};
use ah_store::{Snapshot, SnapshotContents};
use ah_workload::WeightChurn;

use crate::engine::{distance_requests, server_config};
use crate::stats::{median_of_batches, timed as timed_batches};
use crate::trace::SpanId;
use crate::world::{timed, World};
use crate::Ctx;

/// Edges the delta re-weights (one of them closed).
const DELTA_EDGES: usize = 8;
/// The reload client's request rate, per second.
const CLIENT_RATE: u32 = 1_000;
/// Build outputs land beside the crate, inside the checkout.
pub(crate) const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Traced runs only: the three public phases of `AhIndex::build`,
/// called with the arguments `build` passes them. Elevating-set
/// construction is private to `ah_core`, so it is what remains of
/// `ah_build_s`; the replay is a second execution, so the four add up
/// to `ah_build_s` only within the run-to-run noise of the phases.
pub(crate) fn replay_build_phases(world: &World, ctx: &mut Ctx, parent: SpanId) {
    let cfg = BuildConfig::default();
    let (la, assign_s) = timed(ctx.rec, "ah_arterial.assign_levels", parent, || {
        ah_arterial::assign_levels(
            &world.graph,
            &ah_arterial::SelectionConfig {
                max_levels: cfg.max_levels,
            },
        )
    });
    let (ranking, rank_s) = timed(ctx.rec, "ah_core.rank_nodes", parent, || {
        ah_core::rank_nodes(&la, cfg.vertex_cover_rank, cfg.downgrade_non_cover)
    });
    let (hierarchy, contract_s) = timed(
        ctx.rec,
        "ah_contraction.contract_with_order",
        parent,
        || ah_contraction::contract_with_order(&world.graph, &ranking.order, cfg.contraction),
    );
    drop(hierarchy);
    let r = &mut ctx.report;
    r.put("ah_arterial.assign_levels_s", assign_s, "replayed once");
    r.put("ah_core.rank_s", rank_s, "replayed once");
    r.put("ah_contraction.contract_s", contract_s, "replayed once");
    r.put(
        "ah_core.elevating_s",
        (world.ah_build_s - assign_s - rank_s - contract_s).max(0.0),
        "ah_build_s minus the three replayed phases",
    );
}

/// The seeded delta: `WeightChurn`'s interactive re-weights, with one
/// change forced to a closure when the churn drew none.
fn delta(world: &World, seed: u64) -> WeightDelta {
    let plan = WeightChurn::interactive(1, DELTA_EDGES, seed).plan(&world.graph, 1);
    let mut changes: Vec<WeightChange> = plan.rounds[0].delta.changes().to_vec();
    if changes.iter().all(|c| c.weight != CLOSED) {
        changes[0] = WeightChange::close(changes[0].tail, changes[0].head);
    }
    WeightDelta::new(&world.graph, changes).expect("churn re-weights edges the graph has")
}

/// One exchange of the reload client.
struct Probe {
    pair: usize,
    sent: Instant,
    done: Instant,
    distance: Option<u64>,
}

/// Snapshot round trip: one write, `snapshot_loads` loads, and the
/// loaded index checked against the oracle.
pub(crate) fn snapshot_io(world: &World, ctx: &mut Ctx, parent: SpanId) {
    let nodes = world.graph.num_nodes();
    ctx.report.put(
        "ah_build_s",
        world.ah_build_s,
        "one AhIndex::build, timed in set-up",
    );

    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    // Unique per run, so runs sharing a process (the tests) or a
    // checkout do not share a file.
    let path = format!(
        "{OUT_DIR}/lifecycle-{}-{}-{}-{}.snap",
        std::process::id(),
        ctx.opts.workload.name(),
        ctx.opts.seed,
        u8::from(ctx.opts.traced)
    );
    let contents = SnapshotContents::new()
        .graph(&world.graph)
        .ah(&world.ah)
        .ch(&world.ch)
        .labels(&world.labels);
    let (bytes, write_s) = timed(ctx.rec, "ah_store.write", parent, || {
        Snapshot::write(&path, contents).expect("write the snapshot")
    });
    let mut loaded = None;
    let loads: Vec<f64> = (0..=ctx.sizes.snapshot_loads)
        .map(|_| {
            let (snapshot, secs) = timed(ctx.rec, "ah_store.load", parent, || {
                Snapshot::load(&path).expect("load the snapshot back")
            });
            loaded = Some(snapshot);
            secs * 1e3
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    ctx.report.put(
        "snapshot_load_ms",
        median_of_batches(&loads),
        format!(
            "median of {} loads of {bytes} bytes",
            timed_batches(&loads).len()
        ),
    );
    let loaded = loaded.expect("at least one load ran");
    let same_graph = loaded
        .graph
        .as_ref()
        .is_some_and(|g| g.content_id() == world.graph.content_id());
    ctx.report.check(same_graph, || {
        "the loaded graph differs from the written one".to_string()
    });
    let loaded_ah = loaded.ah.expect("the snapshot has an AH section");
    let mut q = AhQuery::new();
    for p in world.pairs.equal_mix(32) {
        let got = q.distance_full(&loaded_ah, p.s, p.t);
        ctx.report.check(got == Some(p.dist), || {
            format!(
                "loaded AH index {}->{}: {got:?}, Dijkstra {:?}",
                p.s, p.t, p.dist
            )
        });
    }

    if ctx.opts.traced {
        let r = &mut ctx.report;
        r.put(
            "ah_store.write_ms",
            write_s * 1e3,
            "one write incl. fsync and rename",
        );
        r.put(
            "ah_store.bytes_on_disk",
            bytes as f64,
            "graph + AH + CH + labels",
        );
        r.put(
            "ah_store.bytes_per_node",
            bytes as f64 / nodes as f64,
            "graph + AH + CH + labels",
        );
    }
}

/// One delta through `DeltaReloader::reload` under a paced client.
pub(crate) fn reload(world: &World, ctx: &mut Ctx, parent: SpanId) {
    // The delta, the patched graph, and both generations' answers on
    // the pairs the client will cycle through: the changed edges' own
    // endpoints (where a change shows first) plus a few long pairs.
    let delta = delta(world, ctx.opts.seed);
    let (applied, apply_s) = timed(ctx.rec, "ah_graph.delta_apply", parent, || {
        delta
            .apply(&world.graph)
            .expect("the delta was cut against this graph")
    });
    let patched = applied.graph;
    let mut pairs: Vec<(u32, u32)> = delta.changes().iter().map(|c| (c.tail, c.head)).collect();
    pairs.extend(
        world
            .pairs
            .pool
            .iter()
            .take(DELTA_EDGES)
            .map(|p| (p.s, p.t)),
    );
    let answers = |g: &ah_graph::Graph| -> Vec<Option<u64>> {
        pairs
            .iter()
            .map(|&(s, t)| dijkstra_distance(g, s, t).map(|d| d.length))
            .collect()
    };
    let (old, new) = (answers(&world.graph), answers(&patched));
    let moved: Vec<bool> = old.iter().zip(&new).map(|(a, b)| a != b).collect();

    let snap = Arc::new(SnapshotServer::with_server(
        Arc::clone(&world.ah),
        Server::new(server_config(1, 0)),
    ));
    let reloader = DeltaReloader::new(
        Arc::clone(&snap),
        world.graph.clone(),
        BuildConfig::default(),
    );
    let queue: BoundedQueue<Job<()>> = BoundedQueue::new(64);
    let (stop, seen_new) = (AtomicBool::new(false), AtomicBool::new(false));
    let (probes, called, published, outcome) = std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel();
        let (snap_ref, queue_ref, stop_ref, pairs_ref) = (&*snap, &queue, &stop, &pairs);
        let (seen_ref, moved_ref, new_ref) = (&seen_new, &moved, &new);
        scope.spawn(move || {
            let backend = SnapshotBackend::new(snap_ref);
            snap_ref
                .server()
                .serve_queue(&backend, queue_ref, |(), resp, _, _| {
                    let _ = tx.send(resp);
                });
        });
        let client = scope.spawn(move || {
            let mut probes: Vec<Probe> = Vec::new();
            let t0 = Instant::now();
            while !stop_ref.load(Ordering::Relaxed) {
                let i = probes.len();
                let due = t0 + Duration::from_secs(1) * i as u32 / CLIENT_RATE;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let pair = i % pairs_ref.len();
                let (s, t) = pairs_ref[pair];
                let sent = Instant::now();
                let job = Job {
                    req: Request::distance(i as u64, s, t),
                    batch: None,
                    span: None,
                    tag: (),
                };
                if queue_ref.try_push(job).is_err() {
                    break;
                }
                let Ok(resp) = rx.recv() else { break };
                if moved_ref[pair] && resp.distance == new_ref[pair] {
                    seen_ref.store(true, Ordering::Relaxed);
                }
                probes.push(Probe {
                    pair,
                    sent,
                    done: Instant::now(),
                    distance: resp.distance,
                });
            }
            queue_ref.close();
            probes
        });
        // Let the client settle, reload under it, wait until it has
        // seen the new generation (a fixed grace period is not enough:
        // the host can stall a thread for longer), then a few ticks more.
        std::thread::sleep(Duration::from_millis(100));
        let called = Instant::now();
        let outcome = ctx.rec.span("ah_server.reload", parent, |_| {
            reloader.reload(delta.clone())
        });
        let published = Instant::now();
        let observable = moved.contains(&true);
        while observable
            && !seen_new.load(Ordering::Relaxed)
            && published.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        (
            client.join().expect("reload client"),
            called,
            published,
            outcome,
        )
    });
    let outcome = outcome.expect("the delta reload publishes");

    // Serving = the first client answer that is the patched graph's on a
    // pair whose distance the delta moved (should a delta move none of
    // the client's pairs: the first answer after `reload` returned).
    let first_new = probes.iter().position(|p| {
        if moved.contains(&true) {
            p.sent >= called && moved[p.pair] && p.distance == new[p.pair]
        } else {
            p.sent >= published
        }
    });
    ctx.report.check(first_new.is_some(), || {
        "the client never saw a patched-graph answer on a pair the delta moved".to_string()
    });
    let serving_at = first_new.map_or_else(Instant::now, |i| probes[i].done);
    ctx.report.put(
        "reload_to_serving_s",
        (serving_at - called).as_secs_f64(),
        format!(
            "reload() call to first patched answer; {} client requests at {CLIENT_RATE}/s, {} of {} pairs moved",
            probes.len(),
            moved.iter().filter(|&&m| m).count(),
            pairs.len()
        ),
    );
    let mut client_failed = 0u64;
    for (i, p) in probes.iter().enumerate() {
        // Old-generation answers until the swap, patched ones after:
        // never anything else, never old again once new was seen.
        let stale_after_swap = first_new.is_some_and(|f| i > f) && moved[p.pair];
        let ok = if stale_after_swap {
            p.distance == new[p.pair]
        } else {
            p.distance == old[p.pair] || p.distance == new[p.pair]
        };
        client_failed += u64::from(!ok);
    }
    ctx.report.check_many(
        probes.len() as u64,
        client_failed,
        "reload client answer matches neither generation",
    );

    // After the swap every answer must be Dijkstra's on the patched graph.
    let after = world.pairs.equal_mix(64);
    let responses = snap.run(&distance_requests(&after)).responses;
    for (p, r) in after.iter().zip(&responses) {
        let want = dijkstra_distance(&patched, p.s, p.t).map(|d| d.length);
        ctx.report.check(r.distance == want, || {
            format!(
                "post-reload {}->{}: {:?}, Dijkstra on the patched graph {want:?}",
                p.s, p.t, r.distance
            )
        });
    }
    ctx.report.check(
        outcome.generation == 1 && responses.len() == after.len(),
        || {
            format!(
                "generation {} after one reload, {} responses",
                outcome.generation,
                responses.len()
            )
        },
    );

    if !ctx.opts.traced {
        return;
    }
    let stall_us = probes
        .iter()
        .filter(|p| p.sent >= called)
        .map(|p| (p.done - p.sent).as_nanos() as f64 / 1e3)
        .fold(0.0, f64::max);
    let r = &mut ctx.report;
    r.put(
        "ah_graph.delta_apply_ms",
        apply_s * 1e3,
        format!("{} changes", delta.len()),
    );
    r.put(
        "ah_server.reload_rebuild_s",
        outcome.staleness_secs,
        "apply + rebuild + swap, as the reloader reports it",
    );
    r.put(
        "ah_server.reload_max_stall_us",
        stall_us,
        "slowest client request from the reload call on",
    );
    r.put(
        "ah_server.reload_failed_requests",
        client_failed as f64,
        format!("of {}", probes.len()),
    );
}
