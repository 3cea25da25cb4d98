//! Pinned work fingerprints of the AH, CH and FC query kernels and of
//! the plain-graph searches (`BidirectionalDijkstra`, `DijkstraDriver`).
//!
//! Each kernel runs every pair (fixed stride) of a small road network
//! with one-way streets; the driver runs a full forward and backward sweep
//! from every strided source. The summed `CostCounters` and an FNV-1a hash
//! of every answer and every path node sequence (for the driver, every
//! node's distance after each sweep) must match values recorded before the
//! search state was packed into one record per node: a change to how a
//! search stores its state may not change which nodes it settles, which
//! arcs it relaxes, or which shortest path it returns.

use ah_ch::{ChIndex, ChQuery};
use ah_core::{AhIndex, AhQuery, BuildConfig};
use ah_fc::{FcIndex, FcQuery};
use ah_graph::{Dist, Graph, NodeId, Path};
use ah_search::{BidirectionalDijkstra, DijkstraDriver, Direction, SearchOptions};

const STRIDE: usize = 3;

/// The answer hash. Nuance makes every shortest path unique, so AH, CH,
/// FC and bidirectional Dijkstra must agree on it too.
const ANSWERS: u64 = 0x1f87_3bff_46b4_96a6;

fn one_way_grid() -> Graph {
    ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 16,
        height: 16,
        one_way: 0.3,
        seed: 9,
        ..Default::default()
    })
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn answer(&mut self, d: Option<Dist>) {
        match d {
            Some(d) => {
                self.eat(d.length);
                self.eat(d.nuance);
            }
            None => self.eat(u64::MAX),
        }
    }

    fn path(&mut self, p: Option<Path>) {
        match p {
            Some(p) => {
                self.eat(p.nodes.len() as u64);
                p.nodes.iter().for_each(|&v| self.eat(v as u64));
            }
            None => self.eat(u64::MAX),
        }
    }
}

/// Runs `distance` then `path` on every strided pair; returns the summed
/// `(nodes_settled, edges_relaxed, heap_pops)` and the answer hash.
fn fingerprint(
    g: &Graph,
    mut distance: impl FnMut(NodeId, NodeId) -> Option<Dist>,
    mut path: impl FnMut(NodeId, NodeId) -> Option<Path>,
    take_cost: impl FnOnce() -> (u64, u64, u64),
) -> (u64, u64, u64, u64) {
    let mut h = Fnv::new();
    let n = g.num_nodes() as NodeId;
    for s in (0..n).step_by(STRIDE) {
        for t in (0..n).step_by(STRIDE) {
            h.answer(distance(s, t));
            h.path(path(s, t));
        }
    }
    let (settled, relaxed, pops) = take_cost();
    (settled, relaxed, pops, h.0)
}

#[test]
fn ah_query_work_matches_the_pinned_fingerprint() {
    let g = one_way_grid();
    let idx = AhIndex::build(&g, &BuildConfig::default());
    let q = std::cell::RefCell::new(AhQuery::new());
    let got = fingerprint(
        &g,
        |s, t| q.borrow_mut().distance_full(&idx, s, t),
        |s, t| q.borrow_mut().path(&idx, s, t),
        || {
            let c = q.borrow_mut().take_cost();
            (c.nodes_settled, c.edges_relaxed, c.heap_pops)
        },
    );
    assert_eq!(got, (235_240, 453_134, 258_996, ANSWERS), "{got:#x?}");
}

#[test]
fn ch_query_work_matches_the_pinned_fingerprint() {
    let g = one_way_grid();
    let idx = ChIndex::build(&g);
    let q = std::cell::RefCell::new(ChQuery::new());
    let got = fingerprint(
        &g,
        |s, t| q.borrow_mut().distance_full(&idx, s, t),
        |s, t| q.borrow_mut().path(&idx, s, t),
        || {
            let c = q.borrow_mut().take_cost();
            (c.nodes_settled, c.edges_relaxed, c.heap_pops)
        },
    );
    assert_eq!(got, (377_226, 768_900, 406_962, ANSWERS), "{got:#x?}");
}

/// FC's settled count was recorded before the three kernels shared one
/// search loop; its relaxed arcs and heap pops were recorded after.
#[test]
fn fc_query_work_matches_the_pinned_fingerprint() {
    let g = one_way_grid();
    let idx = FcIndex::build(&g);
    let q = std::cell::RefCell::new(FcQuery::new());
    let got = fingerprint(
        &g,
        |s, t| q.borrow_mut().distance_full(&idx, s, t),
        |s, t| q.borrow_mut().path(&idx, s, t),
        || {
            let c = q.borrow_mut().take_cost();
            (c.nodes_settled, c.edges_relaxed, c.heap_pops)
        },
    );
    assert_eq!(got, (393_820, 1_006_144, 441_848, ANSWERS), "{got:#x?}");
}

#[test]
fn bidirectional_dijkstra_work_matches_the_pinned_fingerprint() {
    let g = one_way_grid();
    let q = std::cell::RefCell::new(BidirectionalDijkstra::new());
    let got = fingerprint(
        &g,
        |s, t| q.borrow_mut().distance(&g, s, t),
        |s, t| q.borrow_mut().path(&g, s, t),
        || {
            let c = q.borrow_mut().take_cost();
            (c.nodes_settled, c.edges_relaxed, c.heap_pops)
        },
    );
    assert_eq!(got, (980_918, 2_953_840, 1_004_036, ANSWERS), "{got:#x?}");
}

/// One driver, reused: a full forward then backward sweep from every
/// strided source, hashing every node's distance after each sweep.
#[test]
fn dijkstra_driver_sweeps_match_the_pinned_fingerprint() {
    let g = one_way_grid();
    let mut d = DijkstraDriver::new();
    let mut h = Fnv::new();
    let n = g.num_nodes() as NodeId;
    for s in (0..n).step_by(STRIDE) {
        for direction in [Direction::Forward, Direction::Backward] {
            let opts = SearchOptions {
                direction,
                ..Default::default()
            };
            d.run(&g, s, &opts, |_| true);
            for v in 0..n {
                let dv = d.dist(v);
                h.answer((!dv.is_infinite()).then_some(dv));
            }
        }
    }
    let c = d.take_cost();
    let got = (c.nodes_settled, c.edges_relaxed, c.heap_pops, h.0);
    assert_eq!(
        got,
        (43_350, 125_970, 45_499, 0xc741_9726_566a_2393),
        "{got:#x?}"
    );
}
