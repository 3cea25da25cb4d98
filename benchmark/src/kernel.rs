//! `kernel_bands`: the query kernels called directly — no engine, no
//! socket — on the paper's distance-banded pairs (Fig. 8/9's axis).

use std::hint::black_box;
use std::time::Instant;

use ah_ch::ChQuery;
use ah_core::AhQuery;
use ah_search::BidirectionalDijkstra;

use crate::catalogue::{band_metric, BANDS};
use crate::pairs::Pair;
use crate::trace::SpanId;
use crate::world::World;
use crate::{Batches, Ctx};

/// Times one pass of `query` over `window`; returns ns per query.
fn ns_per_query<R>(window: &[Pair], mut query: impl FnMut(&Pair) -> R) -> f64 {
    let t = Instant::now();
    for p in window {
        black_box(query(black_box(p)));
    }
    t.elapsed().as_nanos() as f64 / window.len() as f64
}

/// Median ns per query over `batches` passes of `window` and one more,
/// the warm-up.
fn median_ns<R>(window: &[Pair], batches: usize, mut query: impl FnMut(&Pair) -> R) -> f64 {
    let runs: Vec<f64> = (0..=batches)
        .map(|_| ns_per_query(window, &mut query))
        .collect();
    crate::stats::median_of_batches(&runs)
}

pub(crate) struct Kernel<'w> {
    world: &'w World,
    /// The equal-weight Q2..Q10 mix, cut into batches.
    mix: Vec<Pair>,
    batch: usize,
    /// Batches handed out so far: every batch of a run is a fresh window.
    next: usize,
    ahq: AhQuery,
    chq: ChQuery,
    ah_dist: Batches,
    ah_path: Batches,
    labels_dist: Batches,
}

impl<'w> Kernel<'w> {
    /// Checks every kernel against the sampler's Dijkstra distances on
    /// every banded pair, then stands ready to measure.
    pub fn new(world: &'w World, ctx: &mut Ctx) -> Self {
        let (ah, ch, labels) = (&*world.ah, &world.ch, &*world.labels);
        let mut ahq = AhQuery::new();
        let mut chq = ChQuery::new();
        for (i, p) in world.pairs.bands.iter().flat_map(|b| &b.pairs).enumerate() {
            let want = Some(p.dist);
            let got = [
                ("AH", ahq.distance_full(ah, p.s, p.t)),
                ("CH", chq.distance_full(ch, p.s, p.t)),
                ("labels", labels.distance_full(p.s, p.t)),
            ];
            for (kernel, d) in got {
                ctx.report.check(d == want, || {
                    format!(
                        "{kernel} distance {}->{}: {d:?}, Dijkstra {want:?}",
                        p.s, p.t
                    )
                });
            }
            // AH paths must be real paths of exactly that length.
            let path = ahq.path(ah, p.s, p.t);
            let ok = path.as_ref().is_some_and(|path| {
                path.dist == p.dist
                    && path.source() == p.s
                    && path.target() == p.t
                    && (i % 64 != 0 || path.verify(&world.graph).is_ok())
            });
            ctx.report
                .check(ok, || format!("AH path {}->{}: {path:?}", p.s, p.t));
        }
        let batch = ctx.sizes.kernel_batch;
        let mix = world.pairs.equal_mix(ctx.sizes.sampler.per_band);
        assert!(
            mix.len() >= batch,
            "the equal-weight mix is shorter than one batch"
        );
        Kernel {
            world,
            mix,
            batch,
            next: 0,
            ahq,
            chq,
            ah_dist: Batches::new(),
            ah_path: Batches::new(),
            labels_dist: Batches::new(),
        }
    }

    pub fn round(&mut self, ctx: &Ctx, budget_s: f64, parent: SpanId) {
        let (ah, labels) = (&*self.world.ah, &*self.world.labels);
        let windows: Vec<&[Pair]> = self.mix.chunks_exact(self.batch).collect();
        let (ahq, next) = (&mut self.ahq, &mut self.next);
        let mut window = || {
            *next += 1;
            windows[*next % windows.len()]
        };
        self.ah_dist.extend(ctx.timed_batches(budget_s * 0.3, || {
            let w = window();
            ctx.rec.span("ah_core.distance_batch", parent, |_| {
                ns_per_query(w, |p| ahq.distance(ah, p.s, p.t))
            })
        }));
        self.ah_path.extend(ctx.timed_batches(budget_s * 0.5, || {
            let w = window();
            ctx.rec.span("ah_core.path_batch", parent, |_| {
                ns_per_query(w, |p| ahq.path(ah, p.s, p.t))
            })
        }));
        self.labels_dist
            .extend(ctx.timed_batches(budget_s * 0.2, || {
                let w = window();
                ctx.rec.span("ah_labels.distance_batch", parent, |_| {
                    ns_per_query(w, |p| labels.distance(p.s, p.t))
                })
            }));
    }

    pub fn finish(mut self, ctx: &mut Ctx, parent: SpanId) {
        let unit = format!("batches x {} queries", self.batch);
        ctx.report.put(
            "ah_dist_ns",
            self.ah_dist.median(),
            self.ah_dist.note(&unit),
        );
        ctx.report.put(
            "ah_path_ns",
            self.ah_path.median(),
            self.ah_path.note(&unit),
        );
        ctx.report.put(
            "labels_dist_ns",
            self.labels_dist.median(),
            self.labels_dist.note(&unit),
        );
        if ctx.opts.traced {
            self.layers(ctx, parent);
        }
    }

    /// Traced run: baselines, per-band cost, exact work counts, sizes.
    fn layers(&mut self, ctx: &mut Ctx, parent: SpanId) {
        let world = self.world;
        let (ah, ch, labels) = (&*world.ah, &world.ch, &*world.labels);
        let (ahq, chq, mix, batch) = (&mut self.ahq, &mut self.chq, &self.mix, self.batch);
        let batches = ctx.sizes.min_batches.max(5);

        // CH and plain bidirectional Dijkstra on the same mix.
        let ch_dist_ns = ctx.rec.span("ah_ch.distance_batches", parent, |_| {
            median_ns(&mix[..batch], batches, |p| chq.distance(ch, p.s, p.t))
        });
        ctx.report.put(
            "ah_ch.dist_ns",
            ch_dist_ns,
            format!("median of {batches} batches x {batch}"),
        );
        let mut bidi = BidirectionalDijkstra::new();
        let short = &mix[..mix.len().min(256)];
        let dijkstra_ns = ctx.rec.span("ah_search.distance_batch", parent, |_| {
            ns_per_query(short, |p| bidi.distance(&world.graph, p.s, p.t))
        });
        ctx.report.put(
            "ah_search.dist_ns",
            dijkstra_ns,
            format!("one pass x {}", short.len()),
        );
        ctx.report.put(
            "ah_search.settled_per_query",
            bidi.take_cost().nodes_settled as f64 / short.len() as f64,
            "exact count",
        );

        // Per-band cost, the paper's x axis. A band the graph does not
        // realise has no metric (never a zero).
        for b in BANDS {
            let Some(band) = world.pairs.band(b) else {
                ctx.report.unrealised_bands.push(b);
                continue;
            };
            let window: Vec<Pair> = band.pairs.iter().copied().cycle().take(batch).collect();
            let note = format!(
                "median of {batches} batches x {batch}, {} pairs",
                band.pairs.len()
            );
            let v = median_ns(&window, batches, |p| ahq.distance(ah, p.s, p.t));
            ctx.report
                .put(&band_metric("ah_core.dist_ns", b), v, note.clone());
            let v = median_ns(&window, batches, |p| ahq.path(ah, p.s, p.t));
            ctx.report
                .put(&band_metric("ah_core.path_ns", b), v, note.clone());
            let v = median_ns(&window, batches, |p| chq.distance(ch, p.s, p.t));
            ctx.report
                .put(&band_metric("ah_ch.dist_ns", b), v, note.clone());
            let v = median_ns(&window, batches, |p| labels.distance(p.s, p.t));
            ctx.report
                .put(&band_metric("ah_labels.dist_ns", b), v, note);
        }

        // Exact work counts over one pass of the mix; they repeat
        // bit-for-bit for a given seed.
        let per_query = |v: u64| v as f64 / mix.len() as f64;
        ahq.take_cost();
        mix.iter().for_each(|p| {
            black_box(ahq.distance(ah, p.s, p.t));
        });
        let cost = ahq.take_cost();
        ctx.report.put(
            "ah_core.settled_per_query",
            per_query(cost.nodes_settled),
            "exact count",
        );
        ctx.report.put(
            "ah_core.relaxed_per_query",
            per_query(cost.edges_relaxed),
            "exact count",
        );
        ctx.report.put(
            "ah_core.heap_pops_per_query",
            per_query(cost.heap_pops),
            "exact count",
        );
        let path_edges: usize = mix
            .iter()
            .map(|p| ahq.path(ah, p.s, p.t).map_or(0, |path| path.num_edges()))
            .sum();
        ctx.report.put(
            "ah_core.path_edges_per_query",
            per_query(path_edges as u64),
            "exact count",
        );
        chq.take_cost();
        mix.iter().for_each(|p| {
            black_box(chq.distance(ch, p.s, p.t));
        });
        ctx.report.put(
            "ah_ch.settled_per_query",
            per_query(chq.take_cost().nodes_settled),
            "exact count",
        );
        let mut label_cost = ah_obs::CostCounters::default();
        mix.iter().for_each(|p| {
            black_box(labels.distance_full_with_cost(p.s, p.t, &mut label_cost));
        });
        ctx.report.put(
            "ah_labels.entries_merged_per_query",
            per_query(label_cost.label_entries_merged),
            "exact count",
        );

        let per_node = |bytes: usize| bytes as f64 / world.graph.num_nodes() as f64;
        let label_stats = labels.stats();
        ctx.report.put(
            "ah_core.index_bytes_per_node",
            per_node(ah.size_bytes()),
            "AhIndex::size_bytes",
        );
        ctx.report.put(
            "ah_ch.index_bytes_per_node",
            per_node(ch.size_bytes()),
            "ChIndex::size_bytes",
        );
        ctx.report.put(
            "ah_labels.index_bytes_per_node",
            per_node(label_stats.bytes),
            "LabelStats::bytes",
        );
        ctx.report.put(
            "ah_labels.entries_per_node",
            per_node(label_stats.total_entries),
            "both directions",
        );
        ctx.report
            .put("ah_ch.build_s", world.ch_build_s, "one build, in set-up");
        ctx.report.put(
            "ah_labels.build_s",
            world.labels_build_s,
            "one build, in set-up",
        );
    }
}
