//! Set-up: the graph, every index, and the seeded inputs, built once
//! before the first timed call. Its wall time is `setup_s`; the build
//! calls inside it are also the lifecycle phase's `*_build_s` metrics,
//! timed where they happen.

use std::sync::Arc;
use std::time::Instant;

use ah_ch::ChIndex;
use ah_core::{AhIndex, BuildConfig};
use ah_graph::Graph;
use ah_labels::LabelIndex;
use ah_server::PoiSet;
use ah_shard::{ShardConfig, ShardedIndex};

use crate::pairs::{self, BandedPairs};
use crate::trace::{Recorder, SpanId, ROOT};
use crate::{Options, Sizes};

/// Region shards of the sharded engine phase.
pub(crate) const SHARDS: usize = 4;

pub(crate) struct World {
    pub graph_name: &'static str,
    pub graph: Graph,
    pub ah: Arc<AhIndex>,
    pub ch: ChIndex,
    pub labels: Arc<LabelIndex>,
    pub sharded: Arc<ShardedIndex>,
    pub pairs: BandedPairs,
    pub pois: PoiSet,
    pub setup_s: f64,
    pub ah_build_s: f64,
    pub ch_build_s: f64,
    pub labels_build_s: f64,
    pub shard_build_s: f64,
}

/// Runs `f` in a span and returns its result with its wall seconds.
pub(crate) fn timed<T>(
    rec: &Recorder,
    name: &'static str,
    parent: SpanId,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    rec.span(name, parent, |_| {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    })
}

impl World {
    pub fn build(opts: &Options, sizes: &Sizes, rec: &Recorder) -> World {
        let t0 = Instant::now();
        rec.span("benchmark.setup", ROOT, |p| {
            let spec = ah_data::registry::by_name(sizes.graph).expect("registry graph");
            let (graph, _) = timed(rec, "ah_data.build", p, || spec.build());
            let (ah, ah_build_s) = timed(rec, "ah_core.build", p, || {
                Arc::new(AhIndex::build(&graph, &BuildConfig::default()))
            });
            let (ch, ch_build_s) = timed(rec, "ah_ch.build", p, || ChIndex::build(&graph));
            let (labels, labels_build_s) = timed(rec, "ah_labels.build", p, || {
                Arc::new(LabelIndex::build(&graph, ch.order()))
            });
            let (sharded, shard_build_s) = timed(rec, "ah_shard.from_global", p, || {
                let cfg = ShardConfig {
                    shards: SHARDS,
                    ..Default::default()
                };
                Arc::new(ShardedIndex::from_global(&graph, Arc::clone(&ah), &cfg))
            });
            let (pairs, _) = timed(rec, "benchmark.sample_pairs", p, || {
                pairs::sample(&graph, opts.seed, &sizes.sampler)
            });
            let pois = PoiSet::default_for(graph.num_nodes());
            World {
                graph_name: spec.name,
                graph,
                ah,
                ch,
                labels,
                sharded,
                pairs,
                pois,
                setup_s: t0.elapsed().as_secs_f64(),
                ah_build_s,
                ch_build_s,
                labels_build_s,
                shard_build_s,
            }
        })
    }
}
