//! Deterministic synthetic road-network generators.

use ah_graph::{condense_to_largest_scc, Graph, GraphBuilder, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`hierarchical_grid`].
///
/// The generator lays out a `width × height` lattice of intersections with
/// `spacing` coordinate units between neighbours, jitters each intersection,
/// classifies every row/column into a road *tier* (0 = local street,
/// 1 = collector, 2 = arterial, 3 = highway) by its index's divisibility by
/// the tier periods, and weights each segment by its Euclidean length times
/// the tier's cost factor. A fraction of local segments is deleted and a
/// fraction converted to one-way streets; the result is restricted to its
/// largest strongly connected component.
#[derive(Debug, Clone)]
pub struct HierarchicalGridConfig {
    /// Intersections per row.
    pub width: u32,
    /// Intersections per column.
    pub height: u32,
    /// Coordinate units between adjacent intersections.
    pub spacing: u32,
    /// Maximum absolute coordinate jitter applied to each intersection.
    pub jitter: u32,
    /// Row/column periods promoting a line to collector / arterial /
    /// highway tier. Must be strictly increasing.
    pub tier_periods: [u32; 3],
    /// Travel-time cost factor per tier (local, collector, arterial,
    /// highway); weight = length × factor / 16. Decreasing factors model
    /// faster roads.
    pub tier_cost: [u32; 4],
    /// Probability that a local (tier-0) segment is deleted entirely.
    pub local_edge_drop: f64,
    /// Probability that a surviving local segment keeps only one direction.
    pub one_way: f64,
    /// RNG seed; equal configs generate identical graphs.
    pub seed: u64,
}

impl Default for HierarchicalGridConfig {
    fn default() -> Self {
        HierarchicalGridConfig {
            width: 64,
            height: 64,
            spacing: 128,
            jitter: 32,
            tier_periods: [4, 16, 64],
            tier_cost: [16, 8, 4, 2],
            local_edge_drop: 0.15,
            one_way: 0.05,
            seed: 0xA117_E51A,
        }
    }
}

/// Tier of lattice line `i` under the given periods (3 = fastest).
fn line_tier(i: u32, periods: &[u32; 3]) -> usize {
    if i.is_multiple_of(periods[2]) {
        3
    } else if i.is_multiple_of(periods[1]) {
        2
    } else if i.is_multiple_of(periods[0]) {
        1
    } else {
        0
    }
}

/// Generates a tiered-lattice road network. See
/// [`HierarchicalGridConfig`] for the model; the returned graph is strongly
/// connected (largest SCC of the raw lattice).
pub fn hierarchical_grid(cfg: &HierarchicalGridConfig) -> Graph {
    assert!(cfg.width >= 2 && cfg.height >= 2, "need at least a 2×2 lattice");
    assert!(
        cfg.tier_periods[0] < cfg.tier_periods[1] && cfg.tier_periods[1] < cfg.tier_periods[2],
        "tier periods must be strictly increasing"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = (cfg.width as usize) * (cfg.height as usize);
    let mut b = GraphBuilder::with_capacity(n, 4 * n);

    let jitter = |rng: &mut StdRng, j: u32| -> i32 {
        if j == 0 {
            0
        } else {
            rng.random_range(-(j as i32)..=j as i32)
        }
    };

    for gy in 0..cfg.height {
        for gx in 0..cfg.width {
            let x = (gx as i64 * cfg.spacing as i64) as i32 + jitter(&mut rng, cfg.jitter);
            let y = (gy as i64 * cfg.spacing as i64) as i32 + jitter(&mut rng, cfg.jitter);
            b.add_node(Point::new(x, y));
        }
    }
    let id = |gx: u32, gy: u32| gy * cfg.width + gx;

    let add_segment = |b: &mut GraphBuilder,
                           rng: &mut StdRng,
                           u: u32,
                           v: u32,
                           tier: usize| {
        // Weight: geometric length scaled by the tier's cost factor. The
        // >>4 normalization keeps weights in a compact range while
        // preserving tier ratios.
        let (pu, pv) = (b_coord(b, u), b_coord(b, v));
        let len = (pu.l2_squared(&pv) as f64).sqrt();
        let w = ((len * cfg.tier_cost[tier] as f64) / 16.0).round().max(1.0) as u32;
        if tier == 0 {
            if rng.random_bool(cfg.local_edge_drop) {
                return;
            }
            if rng.random_bool(cfg.one_way) {
                if rng.random_bool(0.5) {
                    b.add_edge(u, v, w);
                } else {
                    b.add_edge(v, u, w);
                }
                return;
            }
        }
        b.add_bidirectional_edge(u, v, w);
    };

    for gy in 0..cfg.height {
        for gx in 0..cfg.width {
            if gx + 1 < cfg.width {
                let tier = line_tier(gy, &cfg.tier_periods);
                add_segment(&mut b, &mut rng, id(gx, gy), id(gx + 1, gy), tier);
            }
            if gy + 1 < cfg.height {
                let tier = line_tier(gx, &cfg.tier_periods);
                add_segment(&mut b, &mut rng, id(gx, gy), id(gx, gy + 1), tier);
            }
        }
    }

    let raw = b.build();
    let (scc, _) = condense_to_largest_scc(&raw);
    scc
}

/// Coordinate of node `v` inside a builder (helper: builders do not expose
/// coordinates, so we reconstruct through a tiny accessor).
fn b_coord(b: &GraphBuilder, v: u32) -> Point {
    b.coord(v)
}

/// Generates a strongly connected random geometric graph: `n` points
/// uniform in a `side × side` square, bidirectional edges between all pairs
/// within L2 distance `radius`, weight = rounded distance.
///
/// Unlike [`hierarchical_grid`] this has no road hierarchy, making it a
/// stress fixture: arterial dimensions are larger and shortest paths
/// erratic.
pub fn random_geometric(n: usize, side: i32, radius: u32, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, 8 * n);
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        let p = Point::new(rng.random_range(0..=side), rng.random_range(0..=side));
        pts.push(p);
        b.add_node(p);
    }
    let r2 = (radius as u64) * (radius as u64);
    for i in 0..n {
        for j in (i + 1)..n {
            let d2 = pts[i].l2_squared(&pts[j]);
            if d2 > 0 && d2 <= r2 {
                let w = (d2 as f64).sqrt().round().max(1.0) as u32;
                b.add_bidirectional_edge(i as u32, j as u32, w);
            }
        }
    }
    let (scc, _) = condense_to_largest_scc(&b.build());
    scc
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_graph::strongly_connected_components;

    #[test]
    fn line_tiers() {
        let p = [4, 16, 64];
        assert_eq!(line_tier(0, &p), 3);
        assert_eq!(line_tier(64, &p), 3);
        assert_eq!(line_tier(16, &p), 2);
        assert_eq!(line_tier(48, &p), 2);
        assert_eq!(line_tier(4, &p), 1);
        assert_eq!(line_tier(3, &p), 0);
        assert_eq!(line_tier(7, &p), 0);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = HierarchicalGridConfig {
            width: 20,
            height: 20,
            ..Default::default()
        };
        let g1 = hierarchical_grid(&cfg);
        let g2 = hierarchical_grid(&cfg);
        assert_eq!(g1.num_nodes(), g2.num_nodes());
        assert_eq!(g1.num_edges(), g2.num_edges());
        for v in g1.node_ids() {
            assert_eq!(g1.coord(v), g2.coord(v));
            assert_eq!(g1.out_edges(v), g2.out_edges(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = hierarchical_grid(&HierarchicalGridConfig {
            width: 20,
            height: 20,
            seed: 1,
            ..Default::default()
        });
        let b = hierarchical_grid(&HierarchicalGridConfig {
            width: 20,
            height: 20,
            seed: 2,
            ..Default::default()
        });
        assert_ne!(
            (a.num_edges(), a.coord(0)),
            (b.num_edges(), b.coord(0)),
            "independent seeds should perturb the network"
        );
    }

    #[test]
    fn strongly_connected_output() {
        let g = hierarchical_grid(&HierarchicalGridConfig {
            width: 30,
            height: 25,
            local_edge_drop: 0.3,
            one_way: 0.15,
            ..Default::default()
        });
        assert!(g.num_nodes() > 500, "SCC should retain most of the lattice");
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn highways_are_faster_per_unit_length() {
        // With zero jitter and no deletions the weights are exactly
        // spacing × factor / 16 per segment.
        let cfg = HierarchicalGridConfig {
            width: 65,
            height: 65,
            jitter: 0,
            local_edge_drop: 0.0,
            one_way: 0.0,
            ..Default::default()
        };
        let g = hierarchical_grid(&cfg);
        // Node ids are preserved (no SCC loss without deletions).
        assert_eq!(g.num_nodes(), 65 * 65);
        let id = |gx: u32, gy: u32| gy * 65 + gx;
        // Horizontal edge on highway row 0 vs local row 1.
        let w_highway = g.edge_weight(id(1, 0), id(2, 0)).unwrap();
        let w_local = g.edge_weight(id(1, 1), id(2, 1)).unwrap();
        assert_eq!(w_highway, 128 * 2 / 16);
        assert_eq!(w_local, 128 * 16 / 16);
        assert!(w_local > w_highway);
    }

    #[test]
    fn random_geometric_connected_and_symmetric_weights() {
        let g = random_geometric(150, 1000, 160, 11);
        assert!(g.num_nodes() > 50);
        let (_, count) = strongly_connected_components(&g);
        assert_eq!(count, 1);
        for (u, a) in g.edges() {
            assert_eq!(g.edge_weight(a.head, u), Some(a.weight));
        }
    }

    #[test]
    #[should_panic(expected = "2×2 lattice")]
    fn degenerate_config_panics() {
        hierarchical_grid(&HierarchicalGridConfig {
            width: 1,
            height: 5,
            ..Default::default()
        });
    }
}
