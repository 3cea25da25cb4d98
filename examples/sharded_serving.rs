//! Region-sharded serving: one worker pool over four spatial shards.
//!
//! Builds a synthetic road network, partitions it into four grid-keyed
//! regions (`ah_shard`), and serves an interactive traffic mix through
//! `ShardedServer` — one pool fed in source-shard order, same-shard
//! queries answered from their region's index, cross-shard queries
//! composed exactly through boundary nodes. The same stream is then
//! served unsharded to show the answers are bit-equal. Mirrors
//! `server_traffic.rs`; see `docs/SHARDING.md` for the operator's
//! guide.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```

use std::sync::Arc;

use ah_core::{AhIndex, BuildConfig};
use ah_server::{
    AhBackend, Request, Server, ServerConfig, ShardedServer, ShardedServerConfig,
};
use ah_shard::{ShardConfig, ShardedIndex};
use ah_workload::{generate_query_sets, TrafficSchedule};

fn main() {
    // A mid-size synthetic road network (~2.3K nodes).
    let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 48,
        height: 48,
        seed: 2013,
        ..Default::default()
    });
    println!("network: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    println!("building the global AH index and sharding into 4 regions …");
    let global = Arc::new(AhIndex::build(&g, &BuildConfig::default()));
    let sharded = Arc::new(ShardedIndex::from_global(
        &g,
        global.clone(),
        &ShardConfig {
            shards: 4,
            ..Default::default()
        },
    ));
    let stats = sharded.stats();
    println!(
        "{} shards at grid level {}, largest {} nodes, {} border nodes, certified: {}",
        stats.shards, stats.level, stats.largest, stats.borders, stats.certified
    );

    // 5,000 requests: mostly local queries, 30% repeated pairs.
    let sets = generate_query_sets(&g, 120, 42);
    let stream = TrafficSchedule::interactive(5_000, 0.3, 42).generate(&sets);
    let requests: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| Request::distance(i as u64, s, t))
        .collect();

    let server = ShardedServer::new(sharded, ShardedServerConfig::with_workers_per_shard(2));
    let report = server.run(&requests);
    println!(
        "\nsharded: {:.0} qps total, {:.1}% of requests crossed shards",
        report.qps(),
        100.0 * report.cross_shard_fraction()
    );
    let s = &report.snapshot;
    println!(
        "p50 {:.1} us, p99 {:.1} us, cache hit rate {:.2}",
        s.p50_us, s.p99_us, s.cache_hit_rate
    );

    // Same stream, one unsharded pool: the answers must be identical.
    let unsharded = Server::new(ServerConfig::with_workers(8));
    let want = unsharded.run(&AhBackend::new(&global), &requests);
    let agree = report
        .responses
        .iter()
        .zip(&want.responses)
        .all(|(a, b)| (a.id, a.distance) == (b.id, b.distance));
    assert!(agree);
    println!(
        "\nunsharded: {:.0} qps — and every one of the {} answers is bit-equal.",
        want.snapshot.qps,
        requests.len()
    );
}
