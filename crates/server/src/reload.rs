//! Live weight updates: delta apply → CH publish → AH rebuild → upgrade.
//!
//! A [`DeltaReloader`] is the driver behind `/admin/reload-delta`: it
//! owns the *graph* generation (the serving [`SnapshotServer`] owns the
//! *index* generation) and turns an `ah_graph::WeightDelta` into a
//! published index swap without ever blocking the serving path. One
//! reload is four steps on one flight and one thread (for
//! [`DeltaReloader::start_from_file`], a background thread):
//!
//! 1. **Apply** — the delta is applied to the current base graph
//!    ([`ah_graph::WeightDelta::apply`] verifies the base content id, so
//!    changes cut against another generation are refused with a typed
//!    error, never served).
//! 2. **Contract and publish** — the patched graph is re-contracted
//!    under the serving tier's own contraction order (an order stays
//!    valid under any weights; only its quality ages), and that CH index
//!    is published with [`SnapshotServer::swap_index`]'s semantics: a
//!    new generation, the distance cache cleared atomically. Queries
//!    already running finish on the old tier; every query that starts
//!    after the publish answers from the new one. This closes the
//!    staleness window in a fraction of a full build.
//! 3. **Rebuild** — a fresh `AhIndex` is built from the patched graph,
//!    bit-identical to a from-scratch build, while traffic is answered
//!    by the CH tier.
//! 4. **Upgrade** — the AH index replaces the CH tier in the same
//!    generation: both answer the patched graph with bit-identical
//!    `(length, nuance)`, so the cache is kept and the generation stays.
//!    Should a [`SnapshotServer::swap_index`] have published another
//!    network since step 2, that network keeps serving and the rebuilt
//!    index is dropped.
//!
//! Reloads are **single-flight**: while one is in any of the four
//! steps, further requests fail fast with [`ReloadError::Busy`] (the
//! edge maps it to `409 Conflict`) instead of queueing rebuilds that
//! would each clear the cache. Progress and outcomes are observable
//! through `ah_obs`: swap counts, per-phase and whole-reload durations,
//! the staleness window each reload closed, and an in-progress flag
//! (the generation and the serving tier are the server's series).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ah_ch::ChIndex;
use ah_core::{AhIndex, BuildConfig};
use ah_graph::{DeltaError, Graph, WeightDelta};
use ah_obs::{Counter, Gauge, Histogram, Registry};
use ah_store::{Snapshot, SnapshotError};

use crate::snapshot::{SnapshotServer, Tier};

/// Why a reload was not performed.
#[derive(Debug)]
pub enum ReloadError {
    /// Another reload is in flight; retry after it upgrades.
    Busy,
    /// The delta could not be applied (wrong base generation, unknown
    /// edge, …).
    Delta(DeltaError),
    /// The delta file could not be loaded.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Busy => write!(f, "a reload is already in progress"),
            ReloadError::Delta(e) => write!(f, "delta rejected: {e}"),
            ReloadError::Snapshot(e) => write!(f, "delta load failed: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Delta(e) => Some(e),
            ReloadError::Snapshot(e) => Some(e),
            ReloadError::Busy => None,
        }
    }
}

impl From<DeltaError> for ReloadError {
    fn from(e: DeltaError) -> Self {
        ReloadError::Delta(e)
    }
}

impl From<SnapshotError> for ReloadError {
    fn from(e: SnapshotError) -> Self {
        ReloadError::Snapshot(e)
    }
}

/// What one published reload did.
#[derive(Debug, Clone)]
pub struct ReloadOutcome {
    /// The index generation the reload published
    /// ([`SnapshotServer::generation`]).
    pub generation: u64,
    /// Edges whose weight actually changed (no-op changes excluded).
    pub changed_edges: usize,
    /// Nodes incident to a changed edge — the invalidation set.
    pub touched_nodes: usize,
    /// Delta arrival to first patched publish, in seconds: how long the
    /// service kept answering from the pre-delta weights (apply,
    /// contract, publish).
    pub staleness_secs: f64,
    /// First patched publish to AH upgrade, in seconds (AH rebuild plus
    /// swap-in): how long the CH tier answered the patched graph.
    pub upgrade_secs: f64,
}

/// The five timed steps of a reload, one `ah_reload_phase_seconds`
/// series each.
struct Phases {
    apply: Arc<Histogram>,
    contract: Arc<Histogram>,
    publish: Arc<Histogram>,
    ah_build: Arc<Histogram>,
    upgrade: Arc<Histogram>,
}

impl Phases {
    fn new(reg: &Registry) -> Self {
        let phase = |name| {
            reg.histogram(
                "ah_reload_phase_seconds",
                &[("phase", name)],
                "Wall time per reload phase (apply, contract, publish, ah_build, upgrade)",
            )
        };
        Phases {
            apply: phase("apply"),
            contract: phase("contract"),
            publish: phase("publish"),
            ah_build: phase("ah_build"),
            upgrade: phase("upgrade"),
        }
    }
}

/// Runs `f`, records its wall time into `phase`, returns its result.
fn timed<T>(phase: &Histogram, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    phase.record_ns(t.elapsed().as_nanos() as u64);
    out
}

/// A reload stopped between its first publish and its AH upgrade: the
/// CH tier serves `patched`, the flight is still held.
pub(crate) struct Interim {
    patched: Arc<Graph>,
    generation: u64,
    changed_edges: usize,
    touched_nodes: usize,
    started: Instant,
    staleness: Duration,
}

/// Applies weight deltas to a live [`SnapshotServer`], publishing a CH
/// index of the patched graph at once and upgrading it to a rebuilt AH
/// index on the same flight.
pub struct DeltaReloader {
    server: Arc<SnapshotServer>,
    /// The graph generation currently *served* (updated only at publish,
    /// under this lock, so `reload` always applies against the graph
    /// that produced the serving index).
    graph: Mutex<Arc<Graph>>,
    build_cfg: BuildConfig,
    busy: AtomicBool,
    background: Mutex<Option<std::thread::JoinHandle<()>>>,
    last: Mutex<Option<Result<ReloadOutcome, String>>>,
    swaps_total: Arc<Counter>,
    failures_total: Arc<Counter>,
    duration: Arc<Histogram>,
    phases: Phases,
    in_progress: Arc<Gauge>,
    staleness_ns: Arc<Gauge>,
}

impl DeltaReloader {
    /// Drives reloads for `server`, whose current index must have been
    /// built from `graph` with `build_cfg` — the reloader rebuilds with
    /// the same knobs so a delta-refreshed index is bit-identical to a
    /// from-scratch build on the patched graph. The reload metrics are
    /// created in the serving engine's registry, next to its own.
    pub fn new(server: Arc<SnapshotServer>, graph: Graph, build_cfg: BuildConfig) -> Self {
        let reg = server.server().registry();
        let swaps_total = reg.counter(
            "ah_reload_swaps_total",
            &[],
            "Patched generations published by delta reloads",
        );
        let failures_total = reg.counter(
            "ah_reload_failures_total",
            &[],
            "Delta reloads rejected or failed before publishing",
        );
        let duration = reg.histogram(
            "ah_reload_duration_seconds",
            &[],
            "Apply through AH upgrade wall time per published reload",
        );
        let in_progress = reg.gauge(
            "ah_reload_in_progress",
            &[],
            "1 while a delta reload is in flight (apply through AH upgrade), else 0",
        );
        let staleness_ns = reg.gauge(
            "ah_reload_staleness_ns",
            &[],
            "Staleness window closed by the last reload (delta arrival to first patched publish)",
        );
        DeltaReloader {
            phases: Phases::new(reg),
            server,
            graph: Mutex::new(Arc::new(graph)),
            build_cfg,
            busy: AtomicBool::new(false),
            background: Mutex::new(None),
            last: Mutex::new(None),
            swaps_total,
            failures_total,
            duration,
            in_progress,
            staleness_ns,
        }
    }

    /// The server this reloader publishes into.
    pub fn server(&self) -> &Arc<SnapshotServer> {
        &self.server
    }

    /// Whether a reload is currently in flight.
    pub fn is_busy(&self) -> bool {
        self.busy.load(Ordering::SeqCst)
    }

    /// Patched generations published by delta reloads.
    pub fn swaps(&self) -> u64 {
        self.swaps_total.get()
    }

    /// The outcome of the most recently *finished* reload, if any
    /// (errors are flattened to their display form).
    pub fn last_outcome(&self) -> Option<Result<ReloadOutcome, String>> {
        self.last.lock().unwrap().clone()
    }

    /// Applies `delta`, publishes the CH tier, rebuilds AH and upgrades
    /// to it — synchronously, on the calling thread. Single-flight:
    /// fails fast with [`ReloadError::Busy`] if another reload is in
    /// flight.
    pub fn reload(&self, delta: WeightDelta) -> Result<ReloadOutcome, ReloadError> {
        let _flight = Self::begin(self)?;
        self.run_claimed(delta)
    }

    /// Loads the delta at `path` and reloads on a **background
    /// thread**, returning as soon as the flight is claimed — the shape
    /// the admin endpoint needs (answer `202 Accepted`, keep serving,
    /// observe the swap through the metrics). The claim happens here,
    /// synchronously, so a second call before the first upgrades gets
    /// [`ReloadError::Busy`] immediately.
    pub fn start_from_file(
        self: &Arc<Self>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), ReloadError> {
        let delta = Snapshot::load_delta(path)?;
        // Refuse a stale delta *before* claiming the flight, so the
        // caller (the admin endpoint) gets the mismatch synchronously
        // instead of a 202 whose failure only shows up in the metrics.
        // The apply inside the flight re-validates; this check can race
        // a concurrent publish but never accept a wrong delta.
        let found = self.graph.lock().unwrap().content_id();
        if delta.base_id() != found {
            self.failures_total.inc();
            return Err(ReloadError::Delta(DeltaError::BaseMismatch {
                expected: delta.base_id(),
                found,
            }));
        }
        let flight = Self::begin(Arc::clone(self))?;
        let handle = std::thread::spawn(move || {
            let outcome = flight.0.run_claimed(delta);
            *flight.0.last.lock().unwrap() = Some(outcome.map_err(|e| e.to_string()));
        });
        // Joining the *previous* flight's thread here (it has finished —
        // the claim above proves it) keeps at most one finished handle
        // around and lets `wait` observe the newest.
        let old = self.background.lock().unwrap().replace(handle);
        if let Some(old) = old {
            let _ = old.join();
        }
        Ok(())
    }

    /// Blocks until the in-flight background reload (if any) finishes,
    /// then returns its outcome.
    pub fn wait(&self) -> Option<Result<ReloadOutcome, String>> {
        let handle = self.background.lock().unwrap().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.last_outcome()
    }

    /// Claims the single flight or fails with `Busy`. The claimant may
    /// borrow the reloader (synchronous reloads) or own an `Arc` to it
    /// (background reloads, whose guard must be `'static`).
    fn begin<T: std::ops::Deref<Target = DeltaReloader>>(
        this: T,
    ) -> Result<Flight<T>, ReloadError> {
        if this
            .busy
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            this.failures_total.inc();
            return Err(ReloadError::Busy);
        }
        this.in_progress.set(1);
        Ok(Flight(this))
    }

    /// The claimed-flight body: the four steps of the module docs.
    fn run_claimed(&self, delta: WeightDelta) -> Result<ReloadOutcome, ReloadError> {
        let interim = self.publish_patched(delta)?;
        Ok(self.upgrade(interim))
    }

    /// Steps 1–2: apply `delta`, re-contract the patched graph under the
    /// serving order, publish it as a new generation. The caller holds
    /// the flight.
    pub(crate) fn publish_patched(&self, delta: WeightDelta) -> Result<Interim, ReloadError> {
        let started = Instant::now();
        let mut graph = self.graph.lock().unwrap();
        let applied = match timed(&self.phases.apply, || delta.apply(&graph)) {
            Ok(a) => a,
            Err(e) => {
                self.failures_total.inc();
                return Err(e.into());
            }
        };
        let order = self.server.tier().contraction_order();
        let ch = timed(&self.phases.contract, || {
            ChIndex::build_with_order(&applied.graph, &order, self.build_cfg.contraction)
        });
        let (_, generation) = timed(&self.phases.publish, || {
            self.server.publish(Tier::Ch(Arc::new(ch)))
        });
        *graph = Arc::new(applied.graph);
        let patched = Arc::clone(&graph);
        drop(graph);

        let staleness = started.elapsed();
        self.swaps_total.inc();
        self.staleness_ns.set(staleness.as_nanos() as u64);
        Ok(Interim {
            patched,
            generation,
            changed_edges: applied.changed_edges,
            touched_nodes: applied.touched.len(),
            started,
            staleness,
        })
    }

    /// Steps 3–4: rebuild AH from the patched graph on this thread and
    /// swap it in as an upgrade of the generation `interim` published.
    /// The caller holds the flight.
    pub(crate) fn upgrade(&self, interim: Interim) -> ReloadOutcome {
        let published = Instant::now();
        let index = timed(&self.phases.ah_build, || {
            AhIndex::build(&interim.patched, &self.build_cfg)
        });
        timed(&self.phases.upgrade, || {
            self.server.upgrade(Arc::new(index), interim.generation)
        });
        self.duration
            .record_ns(interim.started.elapsed().as_nanos() as u64);
        ReloadOutcome {
            generation: interim.generation,
            changed_edges: interim.changed_edges,
            touched_nodes: interim.touched_nodes,
            staleness_secs: interim.staleness.as_secs_f64(),
            upgrade_secs: published.elapsed().as_secs_f64(),
        }
    }
}

/// Releases the single-flight claim — also on panic, so a backend bug
/// inside a rebuild can never wedge the admin endpoint in `409`.
struct Flight<T: std::ops::Deref<Target = DeltaReloader>>(T);

impl<T: std::ops::Deref<Target = DeltaReloader>> Drop for Flight<T> {
    fn drop(&mut self) {
        self.0.in_progress.set(0);
        self.0.busy.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Request, ServerConfig};
    use ah_graph::{WeightChange, CLOSED};
    use ah_search::dijkstra_distance;

    fn setup(seed: u64) -> (Graph, Arc<SnapshotServer>, Arc<DeltaReloader>) {
        let g = ah_data::fixtures::lattice(6, 6, 10 + seed as i32);
        let cfg = BuildConfig::default();
        let idx = Arc::new(AhIndex::build(&g, &cfg));
        let server = Arc::new(SnapshotServer::new(idx, ServerConfig::with_workers(2)));
        let reloader = Arc::new(DeltaReloader::new(Arc::clone(&server), g.clone(), cfg));
        (g, server, reloader)
    }

    #[test]
    fn reload_publishes_answers_bit_equal_to_scratch_rebuild() {
        let (g, server, reloader) = setup(0);
        let delta = WeightDelta::new(
            &g,
            [
                WeightChange::new(0, 1, 99),
                WeightChange::new(7, 8, 1),
                WeightChange::close(14, 15),
            ],
        )
        .unwrap();
        let patched = delta.apply(&g).unwrap().graph;

        let out = reloader.reload(delta).unwrap();
        assert_eq!(out.generation, 1);
        assert!(out.changed_edges >= 2);
        assert!(out.touched_nodes >= 4);
        assert_eq!(server.generation(), 1);

        let reqs: Vec<Request> = (0..60)
            .map(|i| Request::distance(i, (i as u32 * 5) % 36, (i as u32 * 11 + 3) % 36))
            .collect();
        let report = server.run(&reqs);
        for (req, resp) in reqs.iter().zip(&report.responses) {
            let want = dijkstra_distance(&patched, req.s, req.t).map(|d| d.length);
            assert_eq!(resp.distance, want, "req {}", req.id);
        }
    }

    #[test]
    fn sequential_reloads_chain_generations() {
        let (g, server, reloader) = setup(1);
        let d1 = WeightDelta::new(&g, [WeightChange::new(0, 1, 42)]).unwrap();
        let g1 = d1.apply(&g).unwrap().graph;
        reloader.reload(d1).unwrap();

        // The second delta must be cut against the *patched* graph.
        let d2 = WeightDelta::new(&g1, [WeightChange::new(1, 0, 7)]).unwrap();
        let g2 = d2.apply(&g1).unwrap().graph;
        let out = reloader.reload(d2).unwrap();
        assert_eq!(out.generation, 2);

        let report = server.run(&[Request::distance(0, 0, 35)]);
        assert_eq!(
            report.responses[0].distance,
            dijkstra_distance(&g2, 0, 35).map(|d| d.length)
        );
    }

    #[test]
    fn stale_delta_is_refused_and_serving_is_untouched() {
        let (g, server, reloader) = setup(2);
        let d1 = WeightDelta::new(&g, [WeightChange::new(0, 1, 42)]).unwrap();
        reloader.reload(d1.clone()).unwrap();
        // Replaying the same delta: its base is the *original* graph,
        // which is no longer serving.
        let err = reloader.reload(d1).unwrap_err();
        assert!(matches!(
            err,
            ReloadError::Delta(DeltaError::BaseMismatch { .. })
        ));
        assert_eq!(server.generation(), 1, "failed reload must not publish");
    }

    #[test]
    fn closure_makes_routes_detour() {
        let (g, server, reloader) = setup(3);
        // Close every arc out of node 0 except via node 6 (the lattice
        // neighbor below); distances from 0 must re-route or grow.
        let delta =
            WeightDelta::new(&g, [WeightChange::close(0, 1), WeightChange::close(1, 0)]).unwrap();
        let patched = delta.apply(&g).unwrap().graph;
        reloader.reload(delta).unwrap();
        let report = server.run(&[Request::distance(0, 0, 1)]);
        let want = dijkstra_distance(&patched, 0, 1).map(|d| d.length);
        assert_eq!(report.responses[0].distance, want);
        // The direct arc now costs CLOSED; the answer must be a detour
        // strictly cheaper than that.
        assert!(report.responses[0].distance.unwrap() < CLOSED as u64);
    }

    #[test]
    fn background_reload_is_single_flight() {
        let (g, _server, reloader) = setup(4);
        let delta = WeightDelta::new(&g, [WeightChange::new(0, 1, 5)]).unwrap();
        let path = std::env::temp_dir().join(format!(
            "ah_reload_bg_{}.snap",
            std::process::id()
        ));
        ah_store::Snapshot::write(
            &path,
            ah_store::SnapshotContents::new().graph(&g).delta(&delta),
        )
        .unwrap();

        reloader.start_from_file(&path).unwrap();
        // The flight was claimed before start_from_file returned; a
        // second start while it rebuilds must 409 — or, if the rebuild
        // already finished (tiny graph), succeed against... no: same
        // delta against the patched graph is a BaseMismatch. Either way
        // it must NOT publish a second generation from this delta.
        match reloader.start_from_file(&path) {
            Err(ReloadError::Busy) => {}
            Err(ReloadError::Delta(DeltaError::BaseMismatch { .. })) => {}
            other => panic!("duplicate reload accepted: {other:?}"),
        }
        let outcome = reloader.wait().expect("background flight recorded");
        let ok = outcome.expect("first reload succeeds");
        assert_eq!(ok.generation, 1);
        assert_eq!(ok.changed_edges, 1);
        assert!(reloader.last_outcome().is_some());
        assert!(!reloader.is_busy());
        std::fs::remove_file(&path).ok();
    }

    /// A reload stopped between its CH publish and its AH upgrade serves
    /// the patched graph exactly, and the upgrade lands on the bytes of
    /// a scratch build without moving the generation.
    #[test]
    fn interim_tier_is_exact_and_the_upgrade_equals_a_scratch_build() {
        use crate::backend::DistanceBackend;
        use crate::snapshot::SnapshotBackend;
        use ah_search::dijkstra_path;
        use ah_store::SnapshotContents;

        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 12,
            height: 12,
            one_way: 0.2,
            seed: 39,
            ..Default::default()
        });
        let cfg = BuildConfig::default();
        let server = Arc::new(SnapshotServer::new(
            Arc::new(AhIndex::build(&g, &cfg)),
            ServerConfig::with_workers(2),
        ));
        let reloader = DeltaReloader::new(Arc::clone(&server), g.clone(), cfg);
        let arcs: Vec<(u32, u32)> = g.edges().map(|(u, a)| (u, a.head)).step_by(17).collect();
        let mut changes: Vec<WeightChange> = arcs
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| WeightChange::new(u, v, 3 + 29 * (i as u32 % 5)))
            .collect();
        changes[0] = WeightChange::close(arcs[0].0, arcs[0].1);
        let delta = WeightDelta::new(&g, changes).unwrap();
        let patched = delta.apply(&g).unwrap().graph;

        let flight = DeltaReloader::begin(&reloader).unwrap();
        let interim = reloader.publish_patched(delta).unwrap();
        assert_eq!(server.generation(), 1);
        assert!(matches!(server.tier(), Tier::Ch(_)), "the CH tier serves");
        assert!(reloader.is_busy(), "the flight covers the whole reload");

        let n = patched.num_nodes() as u32;
        let pairs: Vec<(u32, u32)> = (0..n)
            .step_by(5)
            .flat_map(|s| (0..n).step_by(11).map(move |t| (s, t)))
            .collect();
        let backend = SnapshotBackend::new(&server);
        let mut session = backend.make_session();
        for &(s, t) in &pairs {
            let want = dijkstra_path(&patched, s, t);
            assert_eq!(session.path(s, t), want, "interim path ({s},{t})");
            assert_eq!(session.distance(s, t), want.map(|p| p.dist.length));
        }
        let reqs: Vec<Request> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| Request::distance(i as u64, s, t))
            .collect();
        let check_run = |tier: &str| {
            for (req, resp) in reqs.iter().zip(&server.run(&reqs).responses) {
                let want = dijkstra_distance(&patched, req.s, req.t).map(|d| d.length);
                assert_eq!(resp.distance, want, "{tier} run ({}, {})", req.s, req.t);
            }
        };
        check_run("interim");

        let out = reloader.upgrade(interim);
        drop(flight);
        assert_eq!(
            (out.generation, server.generation()),
            (1, 1),
            "an upgrade is no new generation"
        );
        assert!(out.upgrade_secs > 0.0 && out.staleness_secs > 0.0);
        let Tier::Ah(served) = server.tier() else {
            panic!("the upgrade must serve AH")
        };
        let scratch = AhIndex::build(&patched, &cfg);
        assert!(
            Snapshot::to_bytes(SnapshotContents::new().ah(&served))
                == Snapshot::to_bytes(SnapshotContents::new().ah(&scratch)),
            "the upgraded AH index differs from a scratch build"
        );
        check_run("upgraded");
    }

    /// The value of the one `/metrics` line that starts with `series `.
    fn value_of(text: &str, series: &str) -> f64 {
        let key = format!("{series} ");
        let lines: Vec<&str> = text.lines().filter(|l| l.starts_with(&key)).collect();
        assert_eq!(lines.len(), 1, "{series} must render exactly once:\n{text}");
        lines[0][key.len()..].parse().unwrap()
    }

    #[test]
    fn tier_and_phase_series_render_once_and_move_with_a_reload() {
        let (g, server, reloader) = setup(6);
        let render = || server.server().registry().render();
        let phases = ["apply", "contract", "publish", "ah_build", "upgrade"];
        let phase_count = |text: &str, p: &str| {
            value_of(
                text,
                &format!("ah_reload_phase_seconds_count{{phase=\"{p}\"}}"),
            )
        };
        let tiers = |text: &str| {
            (
                value_of(text, "ah_index_tier{tier=\"ah\"}"),
                value_of(text, "ah_index_tier{tier=\"ch\"}"),
            )
        };

        let before = render();
        assert_eq!(tiers(&before), (1.0, 0.0));
        for p in phases {
            assert_eq!(phase_count(&before, p), 0.0, "{p}");
        }
        assert_eq!(value_of(&before, "ah_reload_staleness_ns"), 0.0);

        let delta = WeightDelta::new(&g, [WeightChange::new(0, 1, 77)]).unwrap();
        let flight = DeltaReloader::begin(&*reloader).unwrap();
        let interim = reloader.publish_patched(delta).unwrap();
        let mid = render();
        assert_eq!(tiers(&mid), (0.0, 1.0), "the CH tier serves mid-reload");
        assert_eq!(value_of(&mid, "ah_index_generation"), 1.0);
        assert_eq!(value_of(&mid, "ah_reload_in_progress"), 1.0);
        assert!(value_of(&mid, "ah_reload_staleness_ns") > 0.0);
        for p in ["apply", "contract", "publish"] {
            assert_eq!(phase_count(&mid, p), 1.0, "{p}");
        }
        for p in ["ah_build", "upgrade"] {
            assert_eq!(phase_count(&mid, p), 0.0, "{p}");
        }

        reloader.upgrade(interim);
        drop(flight);
        let after = render();
        assert_eq!(tiers(&after), (1.0, 0.0));
        for p in phases {
            assert_eq!(phase_count(&after, p), 1.0, "{p}");
        }
        assert_eq!(
            value_of(&after, "ah_index_generation"),
            1.0,
            "deltas, not tier swaps"
        );
        assert_eq!(
            value_of(&after, "ah_reload_swaps_total"),
            1.0,
            "deltas, not tier swaps"
        );
        assert_eq!(value_of(&after, "ah_reload_duration_seconds_count"), 1.0);
        assert_eq!(value_of(&after, "ah_reload_in_progress"), 0.0);
    }

    /// A network that `swap_index` publishes between a reload's CH
    /// publish and its AH upgrade keeps serving: the rebuilt index
    /// answers a graph that no longer serves.
    #[test]
    fn upgrade_yields_to_a_later_publish() {
        let (g, server, reloader) = setup(7);
        let other = ah_data::fixtures::lattice(6, 6, 40);
        let other = Arc::new(AhIndex::build(&other, &BuildConfig::default()));
        let delta = WeightDelta::new(&g, [WeightChange::new(0, 1, 77)]).unwrap();
        let flight = DeltaReloader::begin(&*reloader).unwrap();
        let interim = reloader.publish_patched(delta).unwrap();
        server.swap_index(Arc::clone(&other));
        reloader.upgrade(interim);
        drop(flight);
        let Tier::Ah(served) = server.tier() else {
            panic!("the swapped-in AH index must serve")
        };
        assert!(
            Arc::ptr_eq(&served, &other),
            "the upgrade overwrote a later publish"
        );
        assert_eq!(server.generation(), 2);
    }

    #[test]
    fn metrics_flow_into_a_shared_registry() {
        let (g, server, reloader) = setup(5);
        let delta = WeightDelta::new(&g, [WeightChange::new(0, 1, 77)]).unwrap();
        reloader.reload(delta).unwrap();
        let text = server.server().registry().render();
        assert!(text.contains("ah_reload_swaps_total 1"), "{text}");
        assert!(text.contains("ah_index_generation 1"), "{text}");
        assert!(text.contains("ah_reload_in_progress 0"), "{text}");
        assert!(
            text.contains("ah_reload_duration_seconds_count 1"),
            "{text}"
        );
    }
}
