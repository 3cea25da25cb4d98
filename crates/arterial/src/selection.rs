//! Incremental hierarchy-level assignment (Section 4.2 / Appendix D).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use ah_graph::{Graph, NodeId};
use ah_grid::{Cell, GridHierarchy, Region};

use crate::local::{Dir, LocalSearch};
use crate::overlay::{OArc, Overlay, Span};
use crate::region::{RegionGraph, BESIDE, BORDER, INSIDE, SIDES};

/// Tunables for [`assign_levels`].
#[derive(Debug, Clone, Copy)]
pub struct SelectionConfig {
    /// Upper bound on the number of grid levels `h` (the paper's planetary
    /// bound is 26).
    pub max_levels: u32,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig { max_levels: 26 }
    }
}

/// The output of level assignment: the node hierarchy levels plus the
/// per-stage pseudo-arterial evidence (used for ranking and for Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelAssignment {
    /// The grid hierarchy the levels were computed against.
    pub grid: GridHierarchy,
    /// Hierarchy level per node, `0 ..= h`.
    pub level: Vec<u8>,
    /// `pseudo_arterial[s-1]` = the distinct pseudo-arterial edges found at
    /// stage `s` (endpoints of these were promoted to level `s`). Oriented
    /// as forward edges of the overlay.
    pub pseudo_arterial: Vec<Vec<(NodeId, NodeId)>>,
    /// `region_counts[s-1]` = for every non-empty (4×4)-cell region of
    /// `R_s`, the number of distinct pseudo-arterial edges found in it
    /// (the Figure 3 measurements).
    pub region_counts: Vec<Vec<u32>>,
    /// Number of contraction shortcuts the overlay accumulated (an index
    /// construction cost metric).
    pub overlay_shortcuts: usize,
    /// `stages[s-1]` = how much work stage `s` did. Plain counts: equal
    /// for equal inputs, whatever the machine or the thread count.
    pub stages: Vec<StageStats>,
}

/// Work counts of one stage of [`assign_levels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Non-empty sliding (4×4)-cell regions of `R_s`.
    pub regions: usize,
    /// Nodes the stage started with (the reduced graph).
    pub live_nodes: usize,
    /// Overlay arcs between those nodes (original edges plus shortcuts).
    pub live_arcs: usize,
    /// Region-local searches of the selection phase: two per border node
    /// per region.
    pub searches: u64,
    /// Nodes those searches settled.
    pub settled: u64,
    /// Nodes at level `s` once the stage's pseudo-arterial edges are in.
    pub cores: usize,
    /// Shortcuts the stage's reduction added to the overlay.
    pub shortcuts: usize,
}

impl LevelAssignment {
    /// The number of grid levels `h`.
    pub fn h(&self) -> u32 {
        self.grid.levels()
    }

    /// Level of node `v`.
    #[inline]
    pub fn level_of(&self, v: NodeId) -> u8 {
        self.level[v as usize]
    }

    /// Histogram of node counts per level (`result[l]` = nodes at level
    /// `l`).
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.h() as usize + 1];
        for &l in &self.level {
            hist[l as usize] += 1;
        }
        hist
    }
}

/// Read-only stage geometry shared by the selection and shortcut phases.
struct Stage<'a> {
    /// The original road network (Definition 2's border-node test runs on
    /// *original* edges — they are short, so border sets shrink
    /// geometrically with the cell size, which is what keeps the reduced
    /// graphs small).
    g: &'a Graph,
    /// `R_1` cell per node (coarser cells derived by shifting).
    r1: &'a [Cell],
    s: u32,
}

impl Stage<'_> {
    #[inline]
    fn cell(&self, v: NodeId) -> Cell {
        let c = self.r1[v as usize];
        let sh = self.s - 1;
        Cell {
            x: c.x >> sh,
            y: c.y >> sh,
        }
    }

    #[inline]
    fn cell_at(&self, v: NodeId, lvl: u32) -> Cell {
        let c = self.r1[v as usize];
        let sh = lvl - 1;
        Cell {
            x: c.x >> sh,
            y: c.y >> sh,
        }
    }

    /// Border-node test (Definition 2) for `v` against region `b` at this
    /// stage's grid, evaluated on original edges.
    fn is_border_of(&self, b: &Region, v: NodeId) -> bool {
        self.is_border_of_at(b, v, self.s)
    }

    /// Border test for `v` against a region of an arbitrary grid level
    /// (used for the next-stage retention set).
    fn is_border_of_at(&self, b: &Region, v: NodeId, lvl: u32) -> bool {
        let cv = self.cell_at(v, lvl);
        if !b.contains_cell(cv) || b.in_center_2x2(cv) {
            return false;
        }
        let crosses = |to: NodeId| b.edge_crosses_strip_boundary(cv, self.cell_at(to, lvl));
        self.g.out_edges(v).iter().any(|a| crosses(a.head))
            || self.g.in_edges(v).iter().any(|a| crosses(a.head))
    }
}

/// Assigns hierarchy levels to every node of `g` with the paper's
/// incremental reduction (Section 4.2), collecting the pseudo-arterial
/// evidence along the way.
///
/// The regions of a stage are searched on every available core; the result
/// does not depend on how many there are.
pub fn assign_levels(g: &Graph, cfg: &SelectionConfig) -> LevelAssignment {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    assign_levels_on(g, cfg, threads)
}

/// [`assign_levels`] with an explicit worker count (at least 1).
fn assign_levels_on(g: &Graph, cfg: &SelectionConfig, threads: usize) -> LevelAssignment {
    let n = g.num_nodes();
    let bb = g.bounding_box();
    if n == 0 || bb.is_empty() {
        let grid = GridHierarchy::fit(
            ah_graph::BoundingBox::of([ah_graph::Point::new(0, 0), ah_graph::Point::new(1, 1)]),
            1,
        );
        return LevelAssignment {
            grid,
            level: vec![0; n],
            pseudo_arterial: Vec::new(),
            region_counts: Vec::new(),
            overlay_shortcuts: 0,
            stages: Vec::new(),
        };
    }

    let mut red = Reduction::new(g, cfg, threads);
    let h = red.grid.levels();
    let mut pseudo_arterial = Vec::with_capacity(h as usize);
    let mut region_counts = Vec::with_capacity(h as usize);
    let mut stages = Vec::with_capacity(h as usize);
    for s in 1..=h {
        let out = red.run_stage(s);
        // Every later search skips the nodes this stage dropped; make it
        // skip their arcs too.
        red.ov.compact(&red.active);
        pseudo_arterial.push(out.edges);
        region_counts.push(out.counts);
        stages.push(out.stats);
    }

    LevelAssignment {
        grid: red.grid,
        level: red.level,
        pseudo_arterial,
        region_counts,
        overlay_shortcuts: red.ov.num_shortcuts(),
        stages,
    }
}

/// What one stage contributes to the [`LevelAssignment`].
struct StageOutput {
    /// Distinct pseudo-arterial edges of the stage, sorted.
    edges: Vec<(NodeId, NodeId)>,
    /// Distinct pseudo-arterial edges per non-empty region, sorted.
    counts: Vec<u32>,
    stats: StageStats,
}

/// The incrementally reduced network: the overlay, the levels assigned so
/// far and the nodes the next stage still sees.
struct Reduction<'a> {
    g: &'a Graph,
    grid: GridHierarchy,
    r1: Vec<Cell>,
    ov: Overlay,
    level: Vec<u8>,
    active: Vec<bool>,
    /// One selection scratch per worker thread; the shortcut phase, which
    /// is sequential, borrows the first one's search.
    selectors: Vec<Selector>,
}

impl<'a> Reduction<'a> {
    fn new(g: &'a Graph, cfg: &SelectionConfig, threads: usize) -> Self {
        let n = g.num_nodes();
        let grid = GridHierarchy::fit_to_points(g.coords(), cfg.max_levels);
        let r1 = (0..n as NodeId)
            .map(|v| grid.cell_of(1, g.coord(v)))
            .collect();
        Reduction {
            g,
            grid,
            r1,
            ov: Overlay::from_graph(g),
            level: vec![0; n],
            active: vec![true; n],
            selectors: (0..threads.max(1)).map(|_| Selector::new(n)).collect(),
        }
    }

    /// Runs stage `s`: selects the pseudo-arterial edges of every region of
    /// `R_s`, promotes their endpoints to level `s`, and (below the top
    /// grid) adds the shortcuts that bridge the nodes the next stage drops
    /// and deactivates those nodes.
    fn run_stage(&mut self, s: u32) -> StageOutput {
        let stage = Stage {
            g: self.g,
            r1: &self.r1,
            s,
        };
        let regions = non_empty_regions(&self.grid, s, &self.r1, &self.active);
        let buckets = CellBuckets::build(s, &self.r1, &self.active);
        let live_nodes = self.active.iter().filter(|&&a| a).count();
        let live_arcs = self.ov.num_arcs();

        // ---- selection: pseudo-arterial edges of every region -----------
        // Regions only read the overlay here, so they are independent.
        // Workers first build every region's graph, pulling region indices
        // off a shared cursor, then search it, pulling units of a few
        // border sources each: a stage with one large region keeps every
        // core busy too. Each worker dedups a region's edges when it moves
        // on to the next region, and the merge sorts `(region, edge)`
        // pairs, so who searched which unit leaves no trace.
        let (ov, active) = (&self.ov, &self.active);
        let cursor = AtomicUsize::new(0);
        let built = on_workers(&mut self.selectors, regions.len(), |sel| {
            let mut built = Vec::new();
            loop {
                // Relaxed: the cursor publishes nothing but itself.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(b) = regions.get(i) else {
                    break built;
                };
                sel.members.clear();
                sel.members.extend(buckets.members(b));
                let rg = RegionGraph::build(
                    ov,
                    active,
                    b,
                    &sel.members,
                    |v| stage.cell(v),
                    |v| stage.is_border_of(b, v),
                    &mut sel.local,
                );
                built.push((i, rg));
            }
        });
        let mut graphs: Vec<(usize, RegionGraph)> = built.into_iter().flatten().collect();
        graphs.sort_unstable_by_key(|&(i, _)| i);
        let graphs: Vec<RegionGraph> = graphs.into_iter().map(|(_, rg)| rg).collect();
        let units: Vec<(usize, Range<usize>)> = graphs
            .iter()
            .enumerate()
            .flat_map(|(r, rg)| {
                let k = rg.sources.len();
                (0..k)
                    .step_by(SOURCES_PER_UNIT)
                    .map(move |lo| (r, lo..k.min(lo + SOURCES_PER_UNIT)))
            })
            .collect();
        let cursor = AtomicUsize::new(0);
        let found = on_workers(&mut self.selectors, units.len(), |sel| {
            let mut found = Selected::default();
            let mut current = None;
            while let Some((r, range)) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                if current != Some(*r) {
                    sel.finish_region(current, &mut found);
                    current = Some(*r);
                }
                let rg = &graphs[*r];
                for &u in &rg.sources[range.clone()] {
                    for dir in [Dir::Forward, Dir::Backward] {
                        #[cfg(test)]
                        let first_new = sel.region_edges.len();
                        sel.search(rg, u, dir, &mut found);
                        #[cfg(test)]
                        oracle::check(
                            &sel.ls,
                            rg,
                            &stage,
                            &regions[*r],
                            u,
                            dir,
                            &sel.region_edges[first_new..],
                        );
                    }
                }
            }
            sel.finish_region(current, &mut found);
            found
        });
        drop(graphs);
        let (mut pairs, mut searches, mut settled) = (Vec::new(), 0, 0);
        for f in found {
            pairs.extend(f.pairs);
            searches += f.searches;
            settled += f.settled;
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut counts = vec![0u32; regions.len()];
        for &(r, _) in &pairs {
            counts[r as usize] += 1;
        }
        counts.sort_unstable();
        let mut edges: Vec<(NodeId, NodeId)> = pairs.into_iter().map(|(_, e)| e).collect();
        edges.sort_unstable();
        edges.dedup();

        // ---- promote cores ----------------------------------------------
        let cur = s as u8;
        for &(a, b) in &edges {
            self.level[a as usize] = cur;
            self.level[b as usize] = cur;
        }
        let cores = self.level.iter().filter(|&&l| l == cur).count();

        let shortcuts = if s < self.grid.levels() {
            self.reduce(s, &regions, &buckets)
        } else {
            0
        };
        StageOutput {
            edges,
            counts,
            stats: StageStats {
                regions: regions.len(),
                live_nodes,
                live_arcs,
                searches,
                settled,
                cores,
                shortcuts,
            },
        }
    }

    /// The shortcut phase of stage `s`: bridges the nodes the next stage
    /// drops with shortcuts between the nodes it retains, then deactivates
    /// the dropped ones. Returns the number of shortcuts added.
    ///
    /// Sequential: every shortcut changes what the next search of an
    /// overlapping region sees, so the order of insertion is part of the
    /// result (the phase is ~11 % of `assign_levels` on two cores at S2).
    fn reduce(&mut self, s: u32, regions: &[Region], buckets: &CellBuckets) -> usize {
        let stage = Stage {
            g: self.g,
            r1: &self.r1,
            s,
        };
        let cur = s as u8;
        let (level, active, r1) = (&self.level, &self.active, &self.r1);
        let border_next = compute_border_next(&self.grid, s + 1, r1, active, &stage);
        // The nodes the next stage retains: its cores and the next grid's
        // border nodes.
        let retained = |v: NodeId| level[v as usize] == cur || border_next[v as usize];
        let ls = &mut self.selectors[0].ls;
        let shortcuts_before = self.ov.num_shortcuts();
        for &b in regions {
            let bspan = Span::of_region(b);
            // Shortcut endpoints are retained nodes only. That bounds the
            // arcs per retained node, not the overlay: S2's 4 094 nodes
            // collect 68 469 shortcuts.
            let eligible = |v: NodeId| active[v as usize] && retained(v);
            let members: Vec<NodeId> = buckets.members(&b).filter(|&v| eligible(v)).collect();
            for &u in &members {
                // Interiors: nodes the reduction is about to drop. The
                // search stops at retained nodes, so shortcuts only bridge
                // maximal removed segments (paths through other retained
                // nodes decompose there).
                let ov = &self.ov;
                let interior = |v: NodeId| {
                    active[v as usize] && !retained(v) && b.contains_cell(stage.cell(v))
                };
                ls.run(
                    ov.num_nodes(),
                    u,
                    |v| {
                        if v == u || interior(v) {
                            ov.out(v)
                        } else {
                            &[]
                        }
                    },
                    |a: &OArc| {
                        active[a.to as usize]
                            && a.span.covered_by(&bspan)
                            && b.contains_cell(stage.cell(a.to))
                    },
                );
                // Snapshot targets first: add_shortcut mutates the overlay.
                // Each shortcut is tagged with the bounding box of its
                // *actual underlying path* (node cells plus the spans of
                // any contracted sub-arcs): the tightest correct coverage
                // footprint, and identical no matter which sliding window
                // discovered the pair — so overlapping windows dedup to a
                // single arc.
                let targets: Vec<(NodeId, ah_graph::Dist, Span)> = ls
                    .settled_list()
                    .iter()
                    .copied()
                    .filter(|&v| v != u && ls.parent(v) != Some(u) && eligible(v))
                    .map(|v| {
                        let mut span = Span::of_cell(r1[v as usize].x, r1[v as usize].y);
                        let mut cur_node = v;
                        while cur_node != u {
                            let p = ls.parent(cur_node).expect("chain reaches source");
                            let arc = ls.in_arc(cur_node).expect("reached over an arc");
                            span = span.union(ov.out(p)[arc].span);
                            span = span.union(Span::of_cell(r1[p as usize].x, r1[p as usize].y));
                            cur_node = p;
                        }
                        (v, ls.dist(v), span)
                    })
                    .collect();
                for (v, d, span) in targets {
                    self.ov.add_shortcut(u, v, d, span);
                }
            }
        }
        let next_active = (0..active.len())
            .map(|v| active[v] && retained(v as NodeId))
            .collect();
        self.active = next_active;
        self.ov.num_shortcuts() - shortcuts_before
    }
}

/// Border sources per work unit of the selection phase. A unit is
/// 2 × this many searches of one region: a stage of one large region
/// splits across every worker, and a stage of many small regions keeps
/// about one unit per region.
const SOURCES_PER_UNIT: usize = 4;

/// Runs `work` once on each of the first `min(selectors, units)` selectors
/// (at least one): the first on the calling thread, the others on scoped
/// threads. Returns their results in selector order.
fn on_workers<T: Send>(
    selectors: &mut [Selector],
    units: usize,
    work: impl Fn(&mut Selector) -> T + Sync,
) -> Vec<T> {
    let workers = selectors.len().min(units).max(1);
    let (first, rest) = selectors[..workers]
        .split_first_mut()
        .expect("at least one selector");
    std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .iter_mut()
            .map(|sel| scope.spawn(|| work(sel)))
            .collect();
        let mut out = vec![work(first)];
        out.extend(
            spawned
                .into_iter()
                .map(|handle| handle.join().expect("selection worker panicked")),
        );
        out
    })
}

/// What one selection worker found in the units it searched.
#[derive(Default)]
struct Selected {
    /// Distinct pseudo-arterial edges per stint on a region, tagged with
    /// the region's index.
    pairs: Vec<(u32, (NodeId, NodeId))>,
    searches: u64,
    settled: u64,
}

/// "No crossing arc between here and the source."
const NO_ARC: (NodeId, NodeId) = (ah_graph::INVALID_NODE, ah_graph::INVALID_NODE);

/// One worker's scratch for the selection phase.
struct Selector {
    ls: LocalSearch,
    /// Per local node settled by the last search and per axis of
    /// `Axis::BOTH`: the bisector-crossing arc of its tree path nearest
    /// to it, as a forward edge of global ids. Written in settle order
    /// before it is read, so it needs no reset.
    crossing: Vec<[(NodeId, NodeId); 2]>,
    /// Global to local ids while a region graph is built, `NodeId::MAX`
    /// otherwise.
    local: Vec<NodeId>,
    members: Vec<NodeId>,
    /// Edges found in the current region since this worker took it up.
    region_edges: Vec<(NodeId, NodeId)>,
}

impl Selector {
    fn new(n: usize) -> Self {
        Selector {
            ls: LocalSearch::default(),
            crossing: Vec::new(),
            local: vec![NodeId::MAX; n],
            members: Vec::new(),
            region_edges: Vec::new(),
        }
    }

    /// Moves the distinct edges found in `region` to `found`.
    fn finish_region(&mut self, region: Option<usize>, found: &mut Selected) {
        let Some(r) = region else {
            return;
        };
        self.region_edges.sort_unstable();
        self.region_edges.dedup();
        found
            .pairs
            .extend(self.region_edges.drain(..).map(|e| (r as u32, e)));
    }

    /// Searches a region's graph from local border node `u` in direction
    /// `dir` and keeps the pseudo-arterial edges of the spanning paths
    /// found.
    fn search(&mut self, rg: &RegionGraph, u: NodeId, dir: Dir, found: &mut Selected) {
        self.ls
            .run(rg.num_nodes(), u, |v| rg.arcs(dir, v), |_| true);
        found.searches += 1;
        found.settled += self.ls.settled_list().len() as u64;
        if self.crossing.len() < rg.num_nodes() {
            self.crossing.resize(rg.num_nodes(), [NO_ARC; 2]);
        }
        self.collect_spanning_crossings(rg, u, dir);
    }

    /// Records, for every spanning-path endpoint the last search settled,
    /// the bisector-crossing arc (pseudo-arterial edge) of its path nearest
    /// to it. A node's nearest crossing is the arc from its parent if that
    /// crosses, else its parent's nearest crossing — and parents settle
    /// first, so one pass in settle order does it.
    fn collect_spanning_crossings(&mut self, rg: &RegionGraph, u: NodeId, dir: Dir) {
        let pu = rg.place[u as usize];
        self.crossing[u as usize] = [NO_ARC; 2];
        for &t in self.ls.settled_list() {
            if t == u {
                continue;
            }
            let p = self.ls.parent(t).expect("settled non-source has a parent");
            let pt = rg.place[t as usize];
            let mut nearest = self.crossing[p as usize];
            // Bit k: the arc between p and t crosses axis k's bisector.
            let crosses = (pt ^ rg.place[p as usize]) & SIDES;
            if crosses != 0 {
                let (gt, gp) = (rg.global[t as usize], rg.global[p as usize]);
                // Forward run: the parent precedes the child on the path;
                // backward run: it follows it.
                let arc = match dir {
                    Dir::Forward => (gp, gt),
                    Dir::Backward => (gt, gp),
                };
                for (k, slot) in nearest.iter_mut().enumerate() {
                    if crosses & (1 << k) != 0 {
                        *slot = arc;
                    }
                }
            }
            self.crossing[t as usize] = nearest;

            // Target eligibility: border of B (inside) or any retained node
            // reached through one crossing arc (outside, type-(b)).
            if pt & (INSIDE | BORDER) == INSIDE {
                continue;
            }
            // Valid spanning endpoints for axis k: on different sides of
            // its bisector, and neither beside it.
            let beside = ((pu | pt) & BESIDE) >> 2;
            let valid = (pu ^ pt) & SIDES & !beside;
            for (k, &edge) in nearest.iter().enumerate() {
                if valid & (1 << k) != 0 {
                    debug_assert_ne!(edge, NO_ARC, "endpoints on both sides, no crossing");
                    self.region_edges.push(edge);
                }
            }
        }
    }
}

/// The pre-propagation crossing collection: walks every endpoint's whole
/// parent chain, in global ids, and re-runs the edge-scanning border test
/// per settled node. Kept as the reference
/// [`Selector::collect_spanning_crossings`] is checked against on every
/// search of the tests that turn it on.
#[cfg(test)]
mod oracle {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use ah_grid::Axis;

    use super::*;

    /// Set by the tests that want every search checked (any test running
    /// concurrently gets checked too, which is harmless).
    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);
    /// Searches checked so far.
    pub(super) static CHECKED: AtomicUsize = AtomicUsize::new(0);

    /// Checks the edges the search of `rg` from local node `u` found.
    pub(super) fn check(
        ls: &LocalSearch,
        rg: &RegionGraph,
        stage: &Stage<'_>,
        b: &Region,
        u: NodeId,
        dir: Dir,
        propagated: &[(NodeId, NodeId)],
    ) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        let global = |v: NodeId| rg.global[v as usize];
        assert_eq!(
            propagated,
            chain_walk_crossings(ls, &global, stage, b, u, dir),
            "stage {} region {b:?} source {} {dir:?}",
            stage.s,
            global(u)
        );
        CHECKED.fetch_add(1, Ordering::Relaxed);
    }

    fn chain_walk_crossings(
        ls: &LocalSearch,
        global: &impl Fn(NodeId) -> NodeId,
        stage: &Stage<'_>,
        b: &Region,
        u: NodeId,
        dir: Dir,
    ) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        let cu = stage.cell(global(u));
        for &t in ls.settled_list() {
            if t == u {
                continue;
            }
            let ct = stage.cell(global(t));
            if b.contains_cell(ct) && !stage.is_border_of(b, global(t)) {
                continue;
            }
            let (from_cell, to_cell) = match dir {
                Dir::Forward => (cu, ct),
                Dir::Backward => (ct, cu),
            };
            for axis in Axis::BOTH {
                if !b.valid_spanning_endpoints(axis, from_cell, to_cell) {
                    continue;
                }
                // Walk the parent chain and record the first crossing arc.
                let chain: Vec<NodeId> = ls.walk_to_source(t).map(global).collect();
                for w in chain.windows(2) {
                    // Forward run: parent precedes child on the path, so the
                    // forward edge is (w[1] → w[0]); backward run: (w[0] → w[1]).
                    let (tail, head) = match dir {
                        Dir::Forward => (w[1], w[0]),
                        Dir::Backward => (w[0], w[1]),
                    };
                    if b.edge_crosses_bisector(axis, stage.cell(tail), stage.cell(head)) {
                        out.push((tail, head));
                        break;
                    }
                }
            }
        }
        out
    }
}

/// All sliding (4×4)-cell regions of `R_s` containing at least one active
/// node, deduplicated and sorted.
fn non_empty_regions(
    grid: &GridHierarchy,
    s: u32,
    r1: &[Cell],
    active: &[bool],
) -> Vec<Region> {
    let sh = s - 1;
    let mut cells: Vec<Cell> = active
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(v, _)| {
            let c = r1[v];
            Cell {
                x: c.x >> sh,
                y: c.y >> sh,
            }
        })
        .collect();
    cells.sort_unstable();
    cells.dedup();
    let mut regions: Vec<Region> = cells
        .iter()
        .flat_map(|&c| grid.regions_containing_cell(s, c))
        .collect();
    regions.sort_unstable();
    regions.dedup();
    regions
}

/// Active nodes bucketed by their `R_s` cell, so region membership is a
/// 16-cell lookup instead of a node scan.
struct CellBuckets {
    map: std::collections::HashMap<(u32, u32), Vec<NodeId>>,
}

impl CellBuckets {
    fn build(s: u32, r1: &[Cell], active: &[bool]) -> Self {
        let sh = s - 1;
        let mut map: std::collections::HashMap<(u32, u32), Vec<NodeId>> =
            std::collections::HashMap::new();
        for v in 0..r1.len() {
            if !active[v] {
                continue;
            }
            let c = r1[v];
            map.entry((c.x >> sh, c.y >> sh))
                .or_default()
                .push(v as NodeId);
        }
        CellBuckets { map }
    }

    /// Nodes whose cell lies inside the (4×4)-cell region `b`.
    fn members(&self, b: &Region) -> impl Iterator<Item = NodeId> + '_ {
        let (bx, by) = (b.x, b.y);
        (0..16u32).flat_map(move |i| {
            let cell = (bx + i % 4, by + i / 4);
            self.map.get(&cell).into_iter().flatten().copied()
        })
    }
}

/// Marks every active node that is a border node of some region of
/// `R_next` (the retention rule for the next stage's reduced graph).
fn compute_border_next(
    grid: &GridHierarchy,
    next: u32,
    r1: &[Cell],
    active: &[bool],
    stage: &Stage<'_>,
) -> Vec<bool> {
    let n = r1.len();
    let mut border = vec![false; n];
    let sh = next - 1;
    for v in 0..n as NodeId {
        if !active[v as usize] {
            continue;
        }
        let c = r1[v as usize];
        let cv = Cell {
            x: c.x >> sh,
            y: c.y >> sh,
        };
        for b in grid.regions_containing_cell(next, cv) {
            if stage.is_border_of_at(&b, v, next) {
                border[v as usize] = true;
                break;
            }
        }
    }
    border
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::SearchArc;
    use ah_data::fixtures;
    use ah_search::dijkstra_path;

    /// Empirical check of Lemma 3 / Statement 4: for far-apart pairs (no
    /// (3×3)-cell region of `R_j` covers both), the canonical shortest path
    /// must contain a node at level ≥ j (an interior one when the path has
    /// several edges).
    fn check_lemma3(g: &ah_graph::Graph, la: &LevelAssignment, pairs: &[(NodeId, NodeId)]) {
        for &(s, t) in pairs {
            let Some(path) = dijkstra_path(g, s, t) else {
                continue;
            };
            let Some(j) = la
                .grid
                .separation_level(g.coord(s), g.coord(t))
            else {
                continue;
            };
            let max_level = path.nodes.iter().map(|&v| la.level_of(v) as u32).max().unwrap();
            assert!(
                max_level >= j,
                "pair ({s},{t}): separation level {j} but max path level {max_level}; \
                 path = {:?}, levels = {:?}",
                path.nodes,
                path.nodes.iter().map(|&v| la.level_of(v)).collect::<Vec<_>>()
            );
            if path.num_edges() >= 2 {
                let interior_max = path.nodes[1..path.nodes.len() - 1]
                    .iter()
                    .map(|&v| la.level_of(v) as u32)
                    .max()
                    .unwrap();
                assert!(
                    interior_max >= j,
                    "pair ({s},{t}): no interior node at level ≥ {j}"
                );
            }
        }
    }

    fn all_distant_pairs(g: &ah_graph::Graph, stride: usize) -> Vec<(NodeId, NodeId)> {
        let n = g.num_nodes() as NodeId;
        let mut pairs = Vec::new();
        for s in (0..n).step_by(stride) {
            for t in (0..n).step_by(stride) {
                if s != t {
                    pairs.push((s, t));
                }
            }
        }
        pairs
    }

    #[test]
    fn levels_on_line_fixture() {
        let g = fixtures::line(64, 10);
        let la = assign_levels(&g, &SelectionConfig::default());
        assert!(la.h() >= 3);
        // A line is a single "highway": every node can legitimately end up
        // arterial, so we only check that cores exist and Lemma 3 holds.
        assert!(
            la.level.iter().any(|&l| l > 0),
            "a 64-node line must produce cores"
        );
        check_lemma3(&g, &la, &all_distant_pairs(&g, 5));
    }

    #[test]
    fn levels_on_lattice_fixture() {
        let g = fixtures::lattice(16, 16, 8);
        let la = assign_levels(&g, &SelectionConfig::default());
        check_lemma3(&g, &la, &all_distant_pairs(&g, 13));
    }

    #[test]
    fn levels_on_figure1_fixture() {
        let g = fixtures::figure1_like();
        let la = assign_levels(&g, &SelectionConfig::default());
        check_lemma3(&g, &la, &all_distant_pairs(&g, 1));
    }

    #[test]
    fn levels_on_small_road_network() {
        let g = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 24,
            height: 24,
            seed: 42,
            ..Default::default()
        });
        let la = assign_levels(&g, &SelectionConfig::default());
        check_lemma3(&g, &la, &all_distant_pairs(&g, 29));
        // The hierarchy must discriminate: the top level holds a small
        // fraction of the network (Lemma 4's density bound in spirit).
        let hist = la.level_histogram();
        let top = *hist.last().unwrap();
        assert!(
            top * 8 < g.num_nodes(),
            "top level too crowded: {hist:?}"
        );
    }

    #[test]
    fn levels_on_random_geometric() {
        let g = ah_data::random_geometric(120, 800, 140, 5);
        let la = assign_levels(&g, &SelectionConfig::default());
        check_lemma3(&g, &la, &all_distant_pairs(&g, 7));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = ah_graph::GraphBuilder::new().build();
        let la = assign_levels(&empty, &SelectionConfig::default());
        assert!(la.level.is_empty());

        let single = fixtures::line(1, 1);
        let la1 = assign_levels(&single, &SelectionConfig::default());
        assert_eq!(la1.level, vec![0]);
    }

    #[test]
    fn region_counts_are_recorded_per_stage() {
        let g = fixtures::lattice(16, 16, 8);
        let la = assign_levels(&g, &SelectionConfig::default());
        assert_eq!(la.region_counts.len(), la.h() as usize);
        // Stage 1 has many non-empty regions on a 16×16 lattice.
        assert!(!la.region_counts[0].is_empty());
        // Counts are sorted for quantile extraction.
        for counts in &la.region_counts {
            assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn pseudo_arterial_endpoints_have_matching_levels() {
        let g = fixtures::lattice(12, 12, 16);
        let la = assign_levels(&g, &SelectionConfig::default());
        for (idx, edges) in la.pseudo_arterial.iter().enumerate() {
            let s = (idx + 1) as u8;
            for &(a, b) in edges {
                assert!(la.level_of(a) >= s, "endpoint {a} below stage {s}");
                assert!(la.level_of(b) >= s);
            }
        }
    }

    #[test]
    fn deterministic_assignment() {
        let g = fixtures::lattice(10, 10, 8);
        let a = assign_levels(&g, &SelectionConfig::default());
        let b = assign_levels(&g, &SelectionConfig::default());
        assert_eq!(a.level, b.level);
        assert_eq!(a.pseudo_arterial, b.pseudo_arterial);
    }

    /// The query-time pruning also needs a *directed* refinement of the
    /// Lemma 3 check on one-way networks; exercise a network with one-way
    /// streets.
    #[test]
    fn lemma3_with_one_way_streets() {
        let g = one_way_grid();
        let la = assign_levels(&g, &SelectionConfig::default());
        check_lemma3(&g, &la, &all_distant_pairs(&g, 17));
    }

    #[test]
    fn max_levels_cap_respected() {
        let g = fixtures::lattice(16, 16, 64);
        let la = assign_levels(&g, &SelectionConfig { max_levels: 3 });
        assert_eq!(la.h(), 3);
        assert!(la.level.iter().all(|&l| l <= 3));
    }

    /// FNV-1a over every field the index is derived from.
    fn fingerprint(la: &LevelAssignment) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(la.level.len() as u64);
        la.level.iter().for_each(|&l| eat(l as u64));
        eat(la.pseudo_arterial.len() as u64);
        for edges in &la.pseudo_arterial {
            eat(edges.len() as u64);
            edges
                .iter()
                .for_each(|&(a, b)| eat((a as u64) << 32 | b as u64));
        }
        eat(la.region_counts.len() as u64);
        for counts in &la.region_counts {
            eat(counts.len() as u64);
            counts.iter().for_each(|&c| eat(c as u64));
        }
        eat(la.overlay_shortcuts as u64);
        h
    }

    fn one_way_grid() -> ah_graph::Graph {
        ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 16,
            height: 16,
            one_way: 0.3,
            seed: 9,
            ..Default::default()
        })
    }

    /// The values were recorded by running this `fingerprint` at the
    /// commit before the selection phase was reworked (chain-walk
    /// crossings, uncompacted overlay, one thread): the rework must not
    /// change a single level, edge, count or shortcut.
    #[test]
    fn assignment_matches_fingerprints_pinned_before_the_rework() {
        let (s0, s1) = (ah_data::REGISTRY[0].build(), ah_data::REGISTRY[1].build());
        let lattice = fixtures::lattice(16, 16, 8);
        let cases = [
            ("S0", s0, 0x45af_b2c6_ed3e_2a29, 10_710),
            ("S1", s1, 0x223b_8ac1_9b9b_6e19, 30_255),
            ("lattice", lattice, 0x6463_2896_0281_3cf1, 96),
            ("one_way", one_way_grid(), 0xdc1b_a71f_73c8_695f, 370),
        ];
        for (name, g, want, shortcuts) in cases {
            let la = assign_levels(&g, &SelectionConfig::default());
            assert_eq!(la.overlay_shortcuts, shortcuts, "{name}");
            assert_eq!(fingerprint(&la), want, "{name}: {:#018x}", fingerprint(&la));
        }
    }

    /// Registry S2 (4 094 nodes, six stages) with the work of every
    /// stage, recorded at the commit before the selection searches moved
    /// onto per-region graphs: the same settles, in the same order, give
    /// the same levels, edges, counts and shortcuts.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "S2 takes ~30 s unoptimised; the release CI step runs it in ~5 s"
    )]
    fn s2_assignment_and_stage_work_are_pinned() {
        let g = ah_data::REGISTRY[2].build();
        let la = assign_levels(&g, &SelectionConfig::default());
        assert_eq!(la.overlay_shortcuts, 68_469);
        assert_eq!(
            fingerprint(&la),
            0xaee6_2d75_2f51_b816,
            "{:#018x}",
            fingerprint(&la)
        );
        let row =
            |regions, live_nodes, live_arcs, searches, settled, cores, shortcuts| StageStats {
                regions,
                live_nodes,
                live_arcs,
                searches,
                settled,
                cores,
                shortcuts,
            };
        let want = [
            row(15_625, 4_094, 14_120, 93_706, 991_863, 4_093, 0),
            row(3_721, 4_094, 14_120, 89_184, 2_614_492, 3_954, 64),
            row(841, 4_044, 14_018, 76_516, 6_880_170, 2_716, 6_396),
            row(169, 3_063, 15_707, 38_112, 9_431_506, 682, 24_055),
            row(25, 1_607, 28_715, 11_812, 6_230_795, 244, 37_954),
            row(1, 476, 39_996, 656, 312_256, 17, 0),
        ];
        assert_eq!(la.stages, want);
        assert_eq!(la.stages.iter().map(|st| st.searches).sum::<u64>(), 309_986);
        assert_eq!(
            la.stages.iter().map(|st| st.settled).sum::<u64>(),
            26_461_082
        );
    }

    #[test]
    fn assignment_is_independent_of_the_thread_count() {
        for g in [ah_data::REGISTRY[0].build(), one_way_grid()] {
            let cfg = SelectionConfig::default();
            let one = assign_levels_on(&g, &cfg, 1);
            assert!(one.stages[0].regions >= 8, "every worker gets a region");
            for threads in [2, 3, 8] {
                let la = assign_levels_on(&g, &cfg, threads);
                assert_eq!(la, one, "{threads} threads");
            }
        }
    }

    #[test]
    fn propagated_crossings_match_the_chain_walk_on_every_search() {
        oracle::ENABLED.store(true, Ordering::Relaxed);
        let grid = ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
            width: 24,
            height: 24,
            seed: 42,
            ..Default::default()
        });
        let mut searches = 0;
        for g in [grid, ah_data::random_geometric(120, 800, 140, 5)] {
            let la = assign_levels_on(&g, &SelectionConfig::default(), 2);
            searches += la.stages.iter().map(|st| st.searches).sum::<u64>();
        }
        let checked = oracle::CHECKED.load(Ordering::Relaxed) as u64;
        assert!(searches > 1_000, "{searches} searches");
        assert!(checked >= searches, "{checked} of {searches} checked");
    }

    /// Runs the first stages without compacting, then checks that every
    /// search the next stage could start sees the same tree with and
    /// without the dead arcs.
    #[test]
    fn compaction_changes_no_search_on_a_mid_stage_overlay() {
        let g = ah_data::REGISTRY[0].build();
        let mut red = Reduction::new(&g, &SelectionConfig::default(), 1);
        for s in 1..=3 {
            red.run_stage(s);
        }
        let active = &red.active;
        let mut compacted = red.ov.clone();
        compacted.compact(active);
        assert!(active.iter().filter(|&&a| a).count() < g.num_nodes() / 2);
        assert!(compacted.num_arcs() < red.ov.num_arcs());

        let (mut a, mut b) = (LocalSearch::default(), LocalSearch::default());
        let live = (0..g.num_nodes() as NodeId).filter(|&v| active[v as usize]);
        for u in live {
            for dir in [Dir::Forward, Dir::Backward] {
                let admit = |arc: &OArc| active[arc.to as usize];
                for (ls, ov) in [(&mut a, &red.ov), (&mut b, &compacted)] {
                    let arcs = |v: NodeId| {
                        if active[v as usize] {
                            ov.arcs(dir, v)
                        } else {
                            &[]
                        }
                    };
                    ls.run(ov.num_nodes(), u, arcs, admit);
                }
                assert_eq!(a.settled_list(), b.settled_list());
                for &v in a.settled_list() {
                    assert_eq!((a.dist(v), a.parent(v)), (b.dist(v), b.parent(v)));
                    // The arcs differ in position, not in value.
                    let in_arc = |ls: &LocalSearch, ov: &Overlay| {
                        Some(ov.arcs(dir, ls.parent(v)?)[ls.in_arc(v)?])
                    };
                    assert_eq!(in_arc(&a, &red.ov), in_arc(&b, &compacted));
                }
            }
        }
    }

    /// Every search of the next stage, run on its region's graph, settles
    /// the nodes a search on the whole overlay settles, with the
    /// selection's expansion and admission rules as tests on the overlay:
    /// same order, same distances, same parents. Checked on S0 after one,
    /// two and three stages (the last leaves one region, the top grid's).
    #[test]
    fn region_graph_searches_equal_filtered_overlay_searches() {
        let g = ah_data::REGISTRY[0].build();
        let mut red = Reduction::new(&g, &SelectionConfig::default(), 1);
        let mut local = vec![NodeId::MAX; g.num_nodes()];
        let (mut on_region, mut on_overlay) = (LocalSearch::default(), LocalSearch::default());
        let (mut regions_seen, mut searches) = (0, 0);
        for s in 1..=3 {
            red.run_stage(s);
            let stage = Stage {
                g: &g,
                r1: &red.r1,
                s: s + 1,
            };
            let (ov, active) = (&red.ov, &red.active);
            let regions = non_empty_regions(&red.grid, stage.s, &red.r1, active);
            let buckets = CellBuckets::build(stage.s, &red.r1, active);
            regions_seen += regions.len();
            for b in &regions {
                let members: Vec<NodeId> = buckets.members(b).collect();
                let rg = RegionGraph::build(
                    ov,
                    active,
                    b,
                    &members,
                    |v| stage.cell(v),
                    |v| stage.is_border_of(b, v),
                    &mut local,
                );
                assert!(
                    local.iter().all(|&l| l == NodeId::MAX),
                    "scratch left clean"
                );
                let global = |v: NodeId| rg.global[v as usize];
                let bspan = Span::of_region(*b);
                let admit = |a: &OArc| active[a.to as usize] && a.span.covered_by(&bspan);
                // A member keeps its admitted arcs in overlay order, an
                // outside node none.
                for v in 0..rg.num_nodes() as NodeId {
                    for dir in [Dir::Forward, Dir::Backward] {
                        let got: Vec<_> = rg
                            .arcs(dir, v)
                            .iter()
                            .map(|a| (global(a.head()), a.dist()))
                            .collect();
                        let want: Vec<_> = if members.contains(&global(v)) {
                            let arcs = ov.arcs(dir, global(v)).iter().filter(|a| admit(a));
                            arcs.map(|a| (a.to, a.dist)).collect()
                        } else {
                            Vec::new()
                        };
                        assert_eq!(got, want, "{b:?} node {} {dir:?}", global(v));
                    }
                }
                let mut want_sources: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|&v| stage.is_border_of(b, v))
                    .collect();
                want_sources.sort_unstable();
                let sources: Vec<NodeId> = rg.sources.iter().map(|&v| global(v)).collect();
                assert_eq!(sources, want_sources, "{b:?}");

                let expand = |v: NodeId| active[v as usize] && b.contains_cell(stage.cell(v));
                for &u in &rg.sources {
                    for dir in [Dir::Forward, Dir::Backward] {
                        on_region.run(rg.num_nodes(), u, |v| rg.arcs(dir, v), |_| true);
                        let src = global(u);
                        let arcs = |v: NodeId| {
                            if v == src || expand(v) {
                                ov.arcs(dir, v)
                            } else {
                                &[]
                            }
                        };
                        on_overlay.run(ov.num_nodes(), src, arcs, admit);
                        let settled: Vec<NodeId> = on_region
                            .settled_list()
                            .iter()
                            .map(|&v| global(v))
                            .collect();
                        assert_eq!(
                            settled,
                            on_overlay.settled_list(),
                            "{b:?} from {src} {dir:?}"
                        );
                        for &v in on_region.settled_list() {
                            let want = (on_overlay.dist(global(v)), on_overlay.parent(global(v)));
                            assert_eq!((on_region.dist(v), on_region.parent(v).map(global)), want);
                        }
                        searches += 1;
                    }
                }
            }
        }
        assert!(regions_seen > 100, "{regions_seen} regions");
        assert!(searches > 100, "{searches} searches");
    }

    #[test]
    fn stage_stats_are_recorded_per_stage() {
        let g = fixtures::lattice(16, 16, 8);
        let la = assign_levels(&g, &SelectionConfig::default());
        assert_eq!(la.stages.len(), la.h() as usize);
        let first = la.stages[0];
        assert_eq!(first.live_nodes, 256);
        assert_eq!(first.live_arcs, g.num_edges());
        assert_eq!(first.regions, la.region_counts[0].len());
        assert!(first.searches > 0 && first.settled >= first.searches);
        let hist = la.level_histogram();
        for (idx, st) in la.stages.iter().enumerate() {
            // Promotion only raises levels, so a later stage can only take
            // nodes away from this one's cores.
            assert!(st.cores >= hist[idx + 1]);
        }
        let shortcuts: usize = la.stages.iter().map(|st| st.shortcuts).sum();
        assert_eq!(shortcuts, la.overlay_shortcuts);
        let top = la.stages.last().unwrap();
        assert_eq!(top.shortcuts, 0, "the top grid reduces nothing");
    }
}
