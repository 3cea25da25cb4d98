//! Index snapshot persistence end to end: build once, save, restart the
//! server from disk, then hot-swap to a reindexed network with zero
//! downtime.
//!
//! ```sh
//! cargo run --release --example snapshot_persistence
//! ```

use std::sync::Arc;
use std::time::Instant;

use ah_core::{AhIndex, BuildConfig};
use ah_server::{Request, Server, ServerConfig, SnapshotServer};
use ah_store::{Snapshot, SnapshotContents};

fn main() {
    let dir = std::env::temp_dir();
    let path = dir.join("ah_example_index.snap");

    // 1. Build an index from source data and persist it.
    let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 24,
        height: 24,
        seed: 7,
        ..Default::default()
    });
    let t = Instant::now();
    let idx = AhIndex::build(&g, &BuildConfig::default());
    let build_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let bytes = Snapshot::write(&path, SnapshotContents::new().graph(&g).ah(&idx))
        .expect("write snapshot");
    println!(
        "built AH over {} nodes in {build_secs:.2}s; snapshot: {:.1} KiB in {:.3}s → {}",
        g.num_nodes(),
        bytes as f64 / 1024.0,
        t.elapsed().as_secs_f64(),
        path.display()
    );

    // 2. "Restart": bring a server up from the snapshot alone.
    let t = Instant::now();
    let server: SnapshotServer =
        Server::from_snapshot(&path, ServerConfig::with_workers(2)).expect("load snapshot");
    println!(
        "server restarted from snapshot in {:.3}s (no rebuild)",
        t.elapsed().as_secs_f64()
    );

    let n = g.num_nodes() as u32;
    let requests: Vec<Request> = (0..500u64)
        .map(|i| Request::distance(i, (i as u32 * 17 + 3) % n, (i as u32 * 101 + 9) % n))
        .collect();
    let report = server.run(&requests);
    println!(
        "served {} requests at {:.0} q/s (p99 {:.1} µs)",
        report.responses.len(),
        report.snapshot.qps,
        report.snapshot.p99_us
    );

    // 3. Reindex under live traffic: new road data (here: a re-seeded
    //    network of the same shape), built off the serving path, swapped
    //    atomically. Queries already running finish on the old index;
    //    every query that starts after the swap answers from the new one.
    let g2 = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 24,
        height: 24,
        seed: 8,
        ..Default::default()
    });
    let idx2 = Arc::new(AhIndex::build(&g2, &BuildConfig::default()));
    let old = server.swap_index(idx2);
    println!(
        "swapped to the reindexed network (old generation had {} nodes; cache cleared)",
        old.num_nodes()
    );
    let report = server.run(&requests);
    println!(
        "post-swap: served {} requests at {:.0} q/s from the new index",
        report.responses.len(),
        report.snapshot.qps
    );

    std::fs::remove_file(&path).ok();
}
