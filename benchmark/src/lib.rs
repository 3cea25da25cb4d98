//! One layered, self-checking benchmark for the AH serving stack.
//!
//! A run generates its inputs from a seed, measures five phase groups —
//! kernel, engine, wire points, wire scenarios, lifecycle — checks every
//! answer against a Dijkstra oracle, and reports every metric by name
//! with its unit. Each layer is measured from outside, through the
//! crates' public functions; the same request stream is replayed at
//! three depths (direct kernel call, in-process `ah_server`, `ah_net`
//! socket) so layer self-times fall out by subtraction. `README.md`
//! beside this crate is the catalogue and the reading guide.

mod affinity;
pub mod catalogue;
mod engine;
mod kernel;
mod lifecycle;
pub mod pairs;
pub mod report;
mod scenarios;
pub mod stats;
pub mod trace;
mod wire;
mod world;

use std::time::Instant;

use catalogue::Workload;
use report::Report;
use trace::{Recorder, SpanId, ROOT};

/// Input sizes. `Full` is what `BENCHMARK.json` measures; `Smoke` is
/// the same code on S0 with sub-second phases, for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Options {
    /// Names the run (report header, trace file); see README,
    /// "Workloads", for why it selects nothing else.
    pub workload: Workload,
    pub seed: u64,
    /// Measuring budget the four query phase groups split evenly.
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Engine worker threads (the feeder is one more).
    pub workers: usize,
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The engine phases' default pool: every hardware thread but the one
/// the feeder runs on.
pub fn default_workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

pub(crate) struct Sizes {
    graph: &'static str,
    sampler: pairs::SamplerConfig,
    /// Rounds the query phases are measured in, spread across the run.
    rounds: usize,
    /// Floor on the batches per round of a throughput / ns-per-query
    /// metric, after the round's first.
    min_batches: usize,
    kernel_batch: usize,
    hot_pool: usize,
    hot_batch: usize,
    cold_batch: usize,
    sharded_batch: usize,
    /// Requests per connection in one pipelined batch.
    pipeline_batch: usize,
    snapshot_loads: usize,
    /// Closed-loop requests before any latency sample is kept.
    wire_warmup: usize,
    /// Floor on depth-1 latency samples per round (a quarter of it per
    /// scenario kind).
    min_samples: usize,
    /// Sources, and targets, the scenario requests draw endpoints from.
    scenario_endpoints: usize,
    /// Seconds per open-loop rate step and for the overload probe.
    probe_secs: f64,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                graph: "S2",
                sampler: pairs::SamplerConfig::FULL,
                rounds: 6,
                min_batches: 3,
                kernel_batch: 1024,
                hot_pool: 16_384,
                hot_batch: 16_384,
                cold_batch: 2_048,
                sharded_batch: 256,
                pipeline_batch: 512,
                snapshot_loads: 9,
                wire_warmup: 50,
                min_samples: 100,
                scenario_endpoints: 128,
                probe_secs: 0.25,
            },
            Scale::Smoke => Sizes {
                graph: "S0",
                sampler: pairs::SamplerConfig::SMOKE,
                rounds: 3,
                min_batches: 2,
                kernel_batch: 128,
                hot_pool: 1_024,
                hot_batch: 2_048,
                cold_batch: 512,
                sharded_batch: 128,
                pipeline_batch: 256,
                snapshot_loads: 3,
                wire_warmup: 20,
                min_samples: 40,
                scenario_endpoints: 32,
                probe_secs: 0.05,
            },
        }
    }
}

/// What every phase needs: the run's options and sizes, the span
/// recorder, and the report it writes metrics and checks into.
pub(crate) struct Ctx<'a> {
    opts: &'a Options,
    sizes: Sizes,
    rec: &'a Recorder,
    report: Report,
}

impl Ctx<'_> {
    /// One round of one metric: runs `batch()` — which returns the
    /// batch's metric value — at least `min_batches + 1` times, more
    /// while `budget_s` lasts, and returns the values of the timed ones
    /// (the warm-up rule is [`stats::timed`]).
    fn timed_batches(&self, budget_s: f64, mut batch: impl FnMut() -> f64) -> Vec<f64> {
        let t0 = Instant::now();
        let mut values = vec![batch()];
        let per_batch = t0.elapsed().as_secs_f64().max(1e-6);
        let n = ((budget_s / per_batch) as usize).clamp(self.sizes.min_batches, 256);
        values.extend((0..n).map(|_| batch()));
        stats::timed(&values).to_vec()
    }
}

/// The timed batches of one throughput or ns-per-query metric, pooled
/// over the rounds; the metric is their median.
///
/// The machines this runs on drift, every few seconds, between speed
/// levels up to a quarter apart (README, "Noise"). Batches from one
/// contiguous slice of the run all land on one level; pooled from
/// rounds spread over the run they sample the mixture, and the median
/// reads the level that held for most of it.
pub(crate) struct Batches(Vec<f64>);

impl Batches {
    fn new() -> Batches {
        Batches(Vec::new())
    }

    fn extend(&mut self, round: Vec<f64>) {
        self.0.extend(round);
    }

    fn median(&self) -> f64 {
        stats::median(&stats::sorted(self.0.clone()))
    }

    fn note(&self, unit: &str) -> String {
        format!("median of {} {unit}", self.0.len())
    }
}

/// `(steal, all)` CPU ticks since boot, from the first line of
/// `/proc/stat` (user nice system idle iowait irq softirq steal ...).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// One full run: set-up, the five phase groups, the report.
pub fn run(opts: &Options) -> Report {
    assert!(
        opts.workers >= 1 && opts.workers <= nproc(),
        "--threads {} is outside 1..={} (nproc)",
        opts.workers,
        nproc()
    );
    affinity::init();
    let ticks_before = cpu_ticks();
    let rec = Recorder::new(opts.traced);
    let sizes = Sizes::of(opts.scale);
    let world = world::World::build(opts, &sizes, &rec);
    let mut ctx = Ctx {
        opts,
        sizes,
        rec: &rec,
        report: Report::new(report::Header::of(opts, &world)),
    };
    ctx.report.put(
        "setup_s",
        world.setup_s,
        "graph + indexes + input generation",
    );
    ctx.report.phase_secs.push(("setup", world.setup_s));

    // Runs one step of phase group `span` ("benchmark.<group>") inside a
    // span, and books its wall time to the group.
    fn step<T>(ctx: &mut Ctx, span: &'static str, f: impl FnOnce(&mut Ctx, SpanId) -> T) -> T {
        let t = Instant::now();
        let rec = ctx.rec;
        let out = rec.span(span, ROOT, |p| f(ctx, p));
        ctx.report.lap(span.trim_start_matches("benchmark."), t);
        out
    }
    if opts.traced {
        // Straight after the build they decompose, so both see the
        // same machine conditions.
        step(&mut ctx, "benchmark.replay_build", |ctx, p| {
            lifecycle::replay_build_phases(&world, ctx, p)
        });
    }
    let mut kernel = kernel::Kernel::new(&world, &mut ctx);
    let mut engine = engine::Engine::new(&world, &ctx);
    let mut wire = wire::Wire::new(&world, &ctx);
    let mut scenarios = scenarios::Scenarios::new(&world, &ctx);

    // The query phases run in rounds set around the two long lifecycle
    // operations, so each metric is sampled across ~15 s of the run.
    let rounds = ctx.sizes.rounds;
    // Every group gets the same share of `--seconds` in every round:
    // the driver gates every metric on every workload, so none may be
    // measured on less.
    let share = opts.seconds / 4.0 / rounds as f64;
    let mut round = |ctx: &mut Ctx| {
        step(ctx, "benchmark.kernel_bands", |ctx, p| {
            kernel.round(ctx, share, p)
        });
        step(ctx, "benchmark.engine_points", |ctx, p| {
            engine.round(ctx, share, p)
        });
        step(ctx, "benchmark.wire_points", |ctx, p| {
            wire.round(ctx, share, p)
        });
        step(ctx, "benchmark.wire_scenarios", |ctx, p| {
            scenarios.round(ctx, share, p)
        });
    };
    let (before_io, before_reload) = (rounds / 3, rounds / 2);
    (0..before_io).for_each(|_| round(&mut ctx));
    step(&mut ctx, "benchmark.lifecycle", |ctx, p| {
        lifecycle::snapshot_io(&world, ctx, p)
    });
    (before_io..before_reload).for_each(|_| round(&mut ctx));
    step(&mut ctx, "benchmark.lifecycle", |ctx, p| {
        lifecycle::reload(&world, ctx, p)
    });
    (before_reload..rounds).for_each(|_| round(&mut ctx));

    step(&mut ctx, "benchmark.kernel_bands", |ctx, p| {
        kernel.finish(ctx, p)
    });
    step(&mut ctx, "benchmark.engine_points", |ctx, p| {
        engine.finish(ctx, p)
    });
    let server_traces = step(&mut ctx, "benchmark.wire_points", |ctx, p| {
        wire.finish(ctx, p)
    });
    step(&mut ctx, "benchmark.wire_scenarios", |ctx, p| {
        scenarios.finish(ctx, p)
    });

    let mut report = ctx.report;
    if let (Some((steal0, all0)), Some((steal1, all1))) = (ticks_before, cpu_ticks()) {
        report.host_steal_pct =
            Some(100.0 * (steal1 - steal0) as f64 / (all1 - all0).max(1) as f64);
    }
    if opts.traced {
        report.layer_self_times = trace::self_times(&rec.spans());
        let path = format!("{}/{}.trace.json", lifecycle::OUT_DIR, opts.workload.name());
        let doc = rec.to_json(&report.header.to_json(), &server_traces);
        match std::fs::create_dir_all(lifecycle::OUT_DIR).and_then(|()| std::fs::write(&path, doc))
        {
            Ok(()) => report.trace_file = Some(path),
            Err(e) => eprintln!("[benchmark] could not write {path}: {e}"),
        }
    }
    report
}
