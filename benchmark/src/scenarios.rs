//! `wire_scenarios`: the same edge on the label backend — 40 %
//! `GET /v1/via`, 40 % `GET /v1/knn` (k in 1..=8), 20 % `POST /v1/matrix`
//! 8x8, every key distinct so the via cache stays cold. Depth-1 closed
//! loop.
//!
//! Every reply body is checked. `ScenarioEngine` — the workspace's
//! index-free oracle — costs one to eight full Dijkstra sweeps per
//! reply, twice what the requests themselves take, so endpoints are
//! drawn from a fixed set of sources and targets whose Dijkstra trees
//! are computed once ([`Tables`]): every reply is checked against the
//! tables, and the tables against `ScenarioEngine` on a 1-in-32 sample.

use std::time::Instant;

use ah_graph::NodeId;
use ah_search::{DijkstraDriver, Direction, SearchOptions};
use ah_server::{AhBackend, DistanceBackend, LabelBackend, ScenarioEngine, Server, POI_CATEGORIES};

use crate::engine::server_config;
use crate::pairs::Rng;
use crate::trace::SpanId;
use crate::wire::{connect, edge_config, with_edge, Latencies};
use crate::world::World;
use crate::Ctx;

const MATRIX_DIM: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    Via {
        s: u32,
        t: u32,
        cat: u32,
    },
    Knn {
        s: u32,
        cat: u32,
        k: u32,
    },
    Matrix {
        sources: Vec<u32>,
        targets: Vec<u32>,
    },
}

const KINDS: [&str; 3] = ["via", "knn", "matrix"];

impl Op {
    fn kind(&self) -> usize {
        match self {
            Op::Via { .. } => 0,
            Op::Knn { .. } => 1,
            Op::Matrix { .. } => 2,
        }
    }

    fn render(&self) -> Vec<u8> {
        match self {
            Op::Via { s, t, cat } => {
                format!("GET /v1/via?src={s}&dst={t}&cat={cat} HTTP/1.1\r\nHost: b\r\n\r\n")
                    .into_bytes()
            }
            Op::Knn { s, cat, k } => {
                format!("GET /v1/knn?src={s}&cat={cat}&k={k} HTTP/1.1\r\nHost: b\r\n\r\n")
                    .into_bytes()
            }
            Op::Matrix { sources, targets } => {
                let ids = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(",");
                let body = format!(
                    "{{\"sources\":[{}],\"targets\":[{}]}}",
                    ids(sources),
                    ids(targets)
                );
                format!(
                    "POST /v1/matrix HTTP/1.1\r\nHost: b\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            }
        }
    }

    /// The reply the wire contract (docs/EDGE.md) promises, with the
    /// answer taken from `ScenarioEngine`.
    fn expected_by_engine(&self, world: &World, engine: &mut ScenarioEngine) -> Expected {
        let g = &world.graph;
        match self {
            Op::Via { s, t, cat } => {
                let best = engine
                    .via(g, *s, *t, world.pois.category(*cat))
                    .map(|a| (a.poi, a.total, a.to_poi, a.from_poi));
                Expected::via(*s, *t, *cat, best)
            }
            Op::Knn { s, cat, k } => Expected::knn(
                *s,
                *cat,
                *k,
                &engine.knn(g, *s, world.pois.category(*cat), *k as usize),
            ),
            Op::Matrix { sources, targets } => {
                Expected::matrix(&engine.matrix(g, sources, targets))
            }
        }
    }
}

/// What a reply body must be: the whole body, or (via, whose trailing
/// `cache_hit` flag is not part of the answer) its beginning.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    text: String,
    whole: bool,
}

impl Expected {
    fn matches(&self, body: &str) -> bool {
        if self.whole {
            body == self.text
        } else {
            body.starts_with(&self.text)
        }
    }

    /// `best` is `(poi, total, to_poi, from_poi)`.
    fn via(s: NodeId, t: NodeId, cat: u32, best: Option<(NodeId, u64, u64, u64)>) -> Expected {
        let text = match best {
            Some((poi, total, to_poi, from_poi)) => format!(
                "{{\"src\":{s},\"dst\":{t},\"cat\":{cat},\"poi\":{poi},\"total\":{total},\"to_poi\":{to_poi},\"from_poi\":{from_poi},"
            ),
            None => format!(
                "{{\"src\":{s},\"dst\":{t},\"cat\":{cat},\"poi\":null,\"total\":null,\"to_poi\":null,\"from_poi\":null,"
            ),
        };
        Expected { text, whole: false }
    }

    fn knn(s: NodeId, cat: u32, k: u32, nearest: &[(NodeId, u64)]) -> Expected {
        let results: Vec<String> = nearest
            .iter()
            .map(|&(p, d)| format!("{{\"poi\":{p},\"distance\":{d}}}"))
            .collect();
        let text = format!(
            "{{\"src\":{s},\"cat\":{cat},\"k\":{k},\"results\":[{}]}}",
            results.join(",")
        );
        Expected { text, whole: true }
    }

    fn matrix(table: &[Vec<Option<u64>>]) -> Expected {
        let rows: Vec<String> = table
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|c| c.map_or("null".to_string(), |d| d.to_string()))
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let cols = table.first().map_or(0, Vec::len);
        let text = format!(
            "{{\"rows\":{},\"cols\":{cols},\"distances\":[{}]}}",
            table.len(),
            rows.join(",")
        );
        Expected { text, whole: true }
    }
}

/// Dijkstra trees of the scenario endpoints: distances from every
/// source and to every target, over the whole graph.
struct Tables {
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    /// `from[i][v]` = d(sources[i], v); `u64::MAX` when unreachable.
    from: Vec<Vec<u64>>,
    /// `to[j][v]` = d(v, targets[j]).
    to: Vec<Vec<u64>>,
}

impl Tables {
    /// Trees for the first `count` distinct sources and targets of the
    /// pair pool.
    fn build(world: &World, count: usize) -> Tables {
        let distinct = |side: fn(&crate::pairs::Pair) -> NodeId| {
            let mut seen = std::collections::HashSet::new();
            let picked: Vec<NodeId> = world
                .pairs
                .pool
                .iter()
                .rev()
                .map(side)
                .filter(|v| seen.insert(*v))
                .take(count)
                .collect();
            picked
        };
        let (sources, targets) = (distinct(|p| p.s), distinct(|p| p.t));
        let mut driver = DijkstraDriver::new();
        let mut tree = |root: NodeId, direction: Direction| -> Vec<u64> {
            driver.run(
                &world.graph,
                root,
                &SearchOptions {
                    direction,
                    ..Default::default()
                },
                |_| true,
            );
            world
                .graph
                .node_ids()
                .map(|v| driver.dist(v).length)
                .collect()
        };
        let from = sources
            .iter()
            .map(|&s| tree(s, Direction::Forward))
            .collect();
        let to = targets
            .iter()
            .map(|&t| tree(t, Direction::Backward))
            .collect();
        Tables {
            sources,
            targets,
            from,
            to,
        }
    }

    fn from(&self, s: NodeId) -> &[u64] {
        let i = self
            .sources
            .iter()
            .position(|&v| v == s)
            .expect("op sources come from the tables");
        &self.from[i]
    }

    fn to(&self, t: NodeId) -> &[u64] {
        let j = self
            .targets
            .iter()
            .position(|&v| v == t)
            .expect("op targets come from the tables");
        &self.to[j]
    }

    /// The reply the wire contract promises, with the answer read off
    /// the trees: via minimises `(total, poi)`, knn ranks by
    /// `(distance, poi)` (docs/SCENARIOS.md).
    fn expected(&self, op: &Op, world: &World) -> Expected {
        match op {
            Op::Via { s, t, cat } => {
                let (from, to) = (self.from(*s), self.to(*t));
                let best = world
                    .pois
                    .category(*cat)
                    .iter()
                    .filter(|&&p| from[p as usize] != u64::MAX && to[p as usize] != u64::MAX)
                    .map(|&p| (from[p as usize] + to[p as usize], p))
                    .min()
                    .map(|(total, p)| (p, total, from[p as usize], to[p as usize]));
                Expected::via(*s, *t, *cat, best)
            }
            Op::Knn { s, cat, k } => {
                let from = self.from(*s);
                let mut ranked: Vec<(u64, NodeId)> = world
                    .pois
                    .category(*cat)
                    .iter()
                    .filter(|&&p| from[p as usize] != u64::MAX)
                    .map(|&p| (from[p as usize], p))
                    .collect();
                ranked.sort_unstable();
                ranked.truncate(*k as usize);
                let nearest: Vec<(NodeId, u64)> = ranked.into_iter().map(|(d, p)| (p, d)).collect();
                Expected::knn(*s, *cat, *k, &nearest)
            }
            Op::Matrix { sources, targets } => {
                let table: Vec<Vec<Option<u64>>> = sources
                    .iter()
                    .map(|&s| {
                        let from = self.from(s);
                        targets
                            .iter()
                            .map(|&t| Some(from[t as usize]).filter(|&d| d != u64::MAX))
                            .collect()
                    })
                    .collect();
                Expected::matrix(&table)
            }
        }
    }
}

/// The mixed stream over the tables' endpoints. Via ops walk a shuffle
/// of all source-target combinations, so every via key `(s, t, cat)`
/// is distinct.
fn ops(tables: &Tables, len: usize, rng: &mut Rng) -> Vec<Op> {
    let (ns, nt) = (tables.sources.len(), tables.targets.len());
    let mut combos: Vec<(usize, usize)> =
        (0..ns).flat_map(|i| (0..nt).map(move |j| (i, j))).collect();
    let all = combos.len();
    rng.shuffle_prefix(&mut combos, all);
    let mut next_combo = 0usize;
    let some = |from: &[NodeId], rng: &mut Rng| -> Vec<NodeId> {
        let mut ids = from.to_vec();
        rng.shuffle_prefix(&mut ids, MATRIX_DIM);
        ids.truncate(MATRIX_DIM);
        ids
    };
    (0..len)
        .map(|_| {
            let cat = rng.below(POI_CATEGORIES as usize) as u32;
            match rng.below(10) {
                0..=3 => {
                    let (i, j) = combos[next_combo % all];
                    next_combo += 1;
                    Op::Via {
                        s: tables.sources[i],
                        t: tables.targets[j],
                        cat,
                    }
                }
                4..=7 => Op::Knn {
                    s: tables.sources[rng.below(ns)],
                    cat,
                    k: 1 + rng.below(8) as u32,
                },
                _ => Op::Matrix {
                    sources: some(&tables.sources, rng),
                    targets: some(&tables.targets, rng),
                },
            }
        })
        .collect()
}

struct Exchange {
    op: usize,
    status: u16,
    body: String,
    /// Round-trip time, microseconds; `None` for a round's warm-up.
    us: Option<f64>,
    /// Response bytes the edge wrote for it (traced runs only).
    bytes_out: u64,
}

pub(crate) struct Scenarios<'w> {
    world: &'w World,
    server: Server,
    tables: Tables,
    stream: Vec<Op>,
    /// Ops consumed so far: rounds continue the stream, never repeat it.
    next: usize,
    exchanges: Vec<Exchange>,
}

impl<'w> Scenarios<'w> {
    pub fn new(world: &'w World, ctx: &Ctx) -> Self {
        let mut rng = Rng::new(ctx.opts.seed ^ 0x5CE2_0001);
        let tables = Tables::build(world, ctx.sizes.scenario_endpoints);
        Scenarios {
            world,
            server: Server::new(server_config(1, 0)),
            stream: ops(&tables, 1 << 14, &mut rng),
            tables,
            next: 0,
            exchanges: Vec::new(),
        }
    }

    pub fn round(&mut self, ctx: &Ctx, budget_s: f64, parent: SpanId) {
        let backend = LabelBackend::new(&self.world.labels, &self.world.ah);
        let traced = ctx.opts.traced;
        let (stream, from) = (&self.stream, self.next);
        let min_per_kind = ctx.sizes.min_samples / 4;
        let (done, _) = with_edge(&self.server, &backend, edge_config(), |addr, handle| {
            let mut client = connect(addr);
            let mut done: Vec<Exchange> = Vec::new();
            let mut per_kind = [0usize; 3];
            let mut timed_from = Instant::now();
            let continuing = stream.iter().enumerate().cycle().skip(from % stream.len());
            for (nth, (i, op)) in continuing.enumerate() {
                if nth == ctx.sizes.wire_warmup {
                    timed_from = Instant::now();
                }
                let recording = nth >= ctx.sizes.wire_warmup;
                if recording
                    && per_kind.iter().all(|&n| n >= min_per_kind)
                    && timed_from.elapsed().as_secs_f64() >= budget_s
                {
                    break;
                }
                let raw = op.render();
                let bytes_before = if traced {
                    handle.metrics().bytes_out()
                } else {
                    0
                };
                let t = Instant::now();
                let reply = client.send(&raw).and_then(|()| client.recv());
                let rtt = t.elapsed();
                let (status, body) = match reply {
                    Ok(r) => (r.status, r.text()),
                    Err(e) => (0, format!("transport error: {e}")),
                };
                if recording {
                    per_kind[op.kind()] += 1;
                    ctx.rec.add(
                        "ah_net.scenario_request",
                        parent,
                        (from + nth) as u64 + 1,
                        ctx.rec.at_ns(t),
                        ctx.rec.at_ns(t + rtt),
                    );
                }
                done.push(Exchange {
                    op: i,
                    status,
                    body,
                    us: recording.then(|| rtt.as_nanos() as f64 / 1e3),
                    bytes_out: if traced {
                        handle.metrics().bytes_out() - bytes_before
                    } else {
                        0
                    },
                });
                if status == 0 {
                    break;
                }
            }
            done
        });
        self.next += done.len();
        self.exchanges.extend(done);
    }

    pub fn finish(self, ctx: &mut Ctx, parent: SpanId) {
        let Scenarios {
            world,
            server,
            tables,
            stream,
            exchanges,
            ..
        } = self;

        // Every reply against the trees; the trees against
        // `ScenarioEngine` on every 32nd.
        let mut engine = ScenarioEngine::new();
        for (n, x) in exchanges.iter().enumerate() {
            let op = &stream[x.op];
            let want = tables.expected(op, world);
            ctx.report
                .check(x.status == 200 && want.matches(&x.body), || {
                    format!(
                        "{op:?} -> {} {}, Dijkstra trees say {}",
                        x.status, x.body, want.text
                    )
                });
            if n % 32 == 0 {
                let by_engine = op.expected_by_engine(world, &mut engine);
                ctx.report.check(want == by_engine, || {
                    format!(
                        "{op:?}: trees say {}, ScenarioEngine says {}",
                        want.text, by_engine.text
                    )
                });
            }
        }

        // The traffic is what the workload says it is: every via key
        // distinct, so (next to) nothing was answered from the cache.
        let via_hit_ratio = server.metrics().snapshot(1.0).cache_hit_rate;
        ctx.report.check(via_hit_ratio < 0.01, || {
            format!("wire_scenarios via cache hit ratio {via_hit_ratio}: the keys are not distinct")
        });

        let by_kind: Vec<Latencies> = (0..KINDS.len())
            .map(|kind| {
                Latencies::new(
                    exchanges
                        .iter()
                        .filter(|x| stream[x.op].kind() == kind)
                        .filter_map(|x| x.us)
                        .collect(),
                )
            })
            .collect();
        for (kind, latency) in KINDS.iter().zip(&by_kind) {
            ctx.report
                .put(&format!("{kind}_p50_us"), latency.p50(), latency.note());
        }
        if !ctx.opts.traced {
            return;
        }

        for (kind, latency) in KINDS.iter().zip(&by_kind) {
            ctx.report.put(
                &format!("ah_net.{kind}_p99_us"),
                latency.p(99.0),
                latency.note(),
            );
        }
        let matrix_bytes: Vec<u64> = exchanges
            .iter()
            .filter(|x| stream[x.op].kind() == 2)
            .map(|x| x.bytes_out)
            .collect();
        ctx.report.put(
            "ah_net.matrix_bytes_out_per_resp",
            matrix_bytes.iter().sum::<u64>() as f64 / matrix_bytes.len() as f64,
            format!("{} responses", matrix_bytes.len()),
        );
        ctx.report.put(
            "ah_server.via_cache_hit_ratio",
            via_hit_ratio,
            "via is the only kind here that probes the cache",
        );

        // The same ops straight into a backend session: the kernels'
        // share of the wire latencies above.
        let backend = LabelBackend::new(&world.labels, &world.ah);
        let executed: Vec<&Op> = exchanges.iter().map(|x| &stream[x.op]).collect();
        let direct = |backend: &dyn DistanceBackend,
                      kind: usize,
                      cap: usize,
                      name: &'static str| {
            let mut session = backend.make_session();
            let ops: Vec<&&Op> = executed
                .iter()
                .filter(|op| op.kind() == kind)
                .take(cap)
                .collect();
            session.take_cost();
            let ns = ctx.rec.span(name, parent, |_| {
                let t = Instant::now();
                for op in &ops {
                    match op {
                        Op::Via { s, t, cat } => {
                            std::hint::black_box(session.via(*s, *t, world.pois.category(*cat)));
                        }
                        Op::Knn { s, cat, k } => {
                            std::hint::black_box(session.knn(
                                *s,
                                world.pois.category(*cat),
                                *k as usize,
                            ));
                        }
                        Op::Matrix { sources, targets } => {
                            std::hint::black_box(session.matrix(sources, targets));
                        }
                    }
                }
                t.elapsed().as_nanos() as f64 / ops.len() as f64
            });
            let merged = session.take_cost().label_entries_merged as f64 / ops.len() as f64;
            (ns, merged, ops.len())
        };
        let ah_backend = AhBackend::new(&world.ah);
        let (via_ns, via_merged, n) = direct(&backend, 0, usize::MAX, "ah_labels.via");
        let (knn_ns, knn_merged, m) = direct(&backend, 1, usize::MAX, "ah_labels.knn");
        let (matrix_ns, _, k) = direct(&backend, 2, usize::MAX, "ah_labels.matrix");
        let (ah_via_ns, _, an) = direct(&ah_backend, 0, 64, "ah_core.via");
        let (ah_knn_ns, _, am) = direct(&ah_backend, 1, 64, "ah_core.knn");
        let r = &mut ctx.report;
        r.put("ah_labels.via_ns", via_ns, format!("{n} direct calls"));
        r.put(
            "ah_labels.entries_merged_per_via",
            via_merged,
            "exact count",
        );
        r.put("ah_labels.knn_ns", knn_ns, format!("{m} direct calls"));
        r.put(
            "ah_labels.entries_merged_per_knn",
            knn_merged,
            "exact count",
        );
        r.put(
            "ah_labels.matrix8x8_ns",
            matrix_ns,
            format!("{k} direct calls"),
        );
        r.put("ah_core.via_ns", ah_via_ns, format!("{an} direct calls"));
        r.put("ah_core.knn_ns", ah_knn_ns, format!("{am} direct calls"));
    }
}
