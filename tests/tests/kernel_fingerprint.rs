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
//!
//! The built AH and label indexes are pinned the same way, by a hash of
//! their snapshot bytes: moving a build-side search onto another loop may
//! not change a single stored arc or label entry.

use ah_ch::{ChIndex, ChQuery};
use ah_core::{AhIndex, AhQuery, BuildConfig};
use ah_fc::{FcIndex, FcQuery};
use ah_graph::{Dist, Graph, NodeId, Path};
use ah_labels::LabelIndex;
use ah_search::{BidirectionalDijkstra, DijkstraDriver, Direction, SearchOptions};
use ah_store::{Snapshot, SnapshotContents};

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

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
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

/// FNV-1a-64 of the snapshot bytes of `g`'s AH index and of its labels
/// over CH's contraction order.
fn index_hashes(g: &Graph) -> (u64, u64) {
    let hash = |bytes: Vec<u8>| {
        let mut h = Fnv::new();
        h.bytes(&bytes);
        h.0
    };
    let ah = AhIndex::build(g, &BuildConfig::default());
    let labels = LabelIndex::build(g, ChIndex::build(g).order());
    (
        hash(Snapshot::to_bytes(SnapshotContents::new().ah(&ah))),
        hash(Snapshot::to_bytes(SnapshotContents::new().labels(&labels))),
    )
}

/// Recorded while the elevating sets and the label build each ran their
/// own heap loop, before both moved onto `DijkstraDriver`.
#[test]
fn built_indexes_match_the_pinned_snapshot_hashes() {
    let cases = [
        (
            "lattice",
            ah_data::fixtures::lattice(8, 8, 14),
            (0x229d_0a38_e06c_dbfc, 0x8505_7e05_a51f_8162),
        ),
        (
            "one_way",
            one_way_grid(),
            (0x9f47_b78d_2534_82a6, 0xfdad_f48d_0c86_76bb),
        ),
        (
            "S0",
            ah_data::REGISTRY[0].build(),
            (0xc4d8_c047_801e_e69f, 0xacf5_7845_401c_be3d),
        ),
    ];
    for (name, g, want) in cases {
        let got = index_hashes(&g);
        assert_eq!(got, want, "{name}: {got:#018x?}");
    }
}

/// S1 and S2, pinned like [`built_indexes_match_the_pinned_snapshot_hashes`].
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "S1 and S2 builds are slow unoptimised; the release CI step runs them"
)]
fn large_built_indexes_match_the_pinned_snapshot_hashes() {
    let cases = [
        (1, (0x1db4_a792_21e1_e33f, 0x5e2f_8738_371d_7d90)),
        (2, (0x20e6_230e_c80e_ae56, 0x23bf_983d_453d_9fa6)),
    ];
    for (i, want) in cases {
        let got = index_hashes(&ah_data::REGISTRY[i].build());
        assert_eq!(got, want, "S{i}: {got:#018x?}");
    }
}
