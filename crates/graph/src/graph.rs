//! The immutable CSR road-network graph.

use crate::point::{BoundingBox, Point};
use crate::{NodeId, Weight};

/// A directed edge as stored in an adjacency array: the endpoint it leads to
/// plus its weight and nuance (Appendix A tie-break value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arc {
    /// Endpoint of the arc: the head for forward adjacency, the tail for
    /// backward adjacency.
    pub head: NodeId,
    /// Positive edge weight (travel time).
    pub weight: Weight,
    /// Nuance used for lexicographic tie-breaking; see [`crate::Dist`].
    pub nuance: u32,
}

/// Borrowed view of a [`Graph`]'s five CSR arrays, in the order
/// `(out_offsets, out_arcs, in_offsets, in_arcs, coords)` (see
/// [`Graph::csr_parts`]).
pub type CsrParts<'a> = (&'a [u32], &'a [Arc], &'a [u32], &'a [Arc], &'a [Point]);

/// A directed, coordinate-embedded road network in compressed-sparse-row
/// form with both forward and backward adjacency.
///
/// Construct with [`crate::GraphBuilder`]. The structure is immutable; index
/// structures (FC/AH/CH/SILC) reference it by shared borrow or `Arc`.
#[derive(Debug, Clone)]
pub struct Graph {
    out_offsets: Vec<u32>,
    out_arcs: Vec<Arc>,
    in_offsets: Vec<u32>,
    in_arcs: Vec<Arc>,
    coords: Vec<Point>,
}

impl Graph {
    pub(crate) fn from_parts(
        out_offsets: Vec<u32>,
        out_arcs: Vec<Arc>,
        in_offsets: Vec<u32>,
        in_arcs: Vec<Arc>,
        coords: Vec<Point>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), coords.len() + 1);
        debug_assert_eq!(in_offsets.len(), coords.len() + 1);
        debug_assert_eq!(out_arcs.len(), in_arcs.len());
        Graph {
            out_offsets,
            out_arcs,
            in_offsets,
            in_arcs,
            coords,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_arcs.len()
    }

    /// Arcs leaving `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[Arc] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_arcs[lo..hi]
    }

    /// Arcs entering `v`; each returned [`Arc::head`] is the *tail* of the
    /// original edge.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[Arc] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_arcs[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// Planar position of `v`.
    #[inline]
    pub fn coord(&self, v: NodeId) -> Point {
        self.coords[v as usize]
    }

    /// All node coordinates, indexed by [`NodeId`].
    #[inline]
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over all directed edges as `(tail, arc)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Arc)> + '_ {
        self.node_ids()
            .flat_map(move |v| self.out_edges(v).iter().map(move |&a| (v, a)))
    }

    /// Weight of the edge `(u, v)` if present (the minimum if parallel edges
    /// survived deduplication, which the builder prevents).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.out_edges(u)
            .iter()
            .find(|a| a.head == v)
            .map(|a| a.weight)
    }

    /// Bounding box of all node coordinates.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of(self.coords.iter().copied())
    }

    /// Maximum of in- and out-degree over all nodes (the paper assumes this
    /// is bounded by a constant).
    pub fn max_degree(&self) -> usize {
        self.node_ids()
            .map(|v| self.out_degree(v).max(self.in_degree(v)))
            .max()
            .unwrap_or(0)
    }

    /// Approximate heap footprint of the CSR arrays, for Figure 10a style
    /// accounting.
    pub fn size_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<u32>()
            + self.in_offsets.len() * std::mem::size_of::<u32>()
            + (self.out_arcs.len() + self.in_arcs.len()) * std::mem::size_of::<Arc>()
            + self.coords.len() * std::mem::size_of::<Point>()
    }

    /// A deterministic 64-bit digest of the graph's full content — CSR
    /// shape, arc weights and nuances, and coordinates.
    ///
    /// Two graphs have the same id iff they are bit-identical, up to
    /// hash collisions (the digest is a SplitMix64-style mixer, not a
    /// cryptographic hash). [`crate::WeightDelta`] uses this as the
    /// *base snapshot id* a delta is cut against, and `ah_store`
    /// cross-checks it when loading a snapshot's `delta` section.
    pub fn content_id(&self) -> u64 {
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = h ^ v;
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut h = mix(0x41AE_5EED, self.num_nodes() as u64);
        h = mix(h, self.num_edges() as u64);
        for &off in &self.out_offsets {
            h = mix(h, off as u64);
        }
        for a in self.out_arcs.iter().chain(self.in_arcs.iter()) {
            h = mix(h, (a.head as u64) << 32 | a.weight as u64);
            h = mix(h, a.nuance as u64);
        }
        for p in &self.coords {
            h = mix(h, (p.x as u32 as u64) << 32 | p.y as u32 as u64);
        }
        h
    }

    /// Borrowed view of the five CSR arrays, in the order
    /// `(out_offsets, out_arcs, in_offsets, in_arcs, coords)`.
    ///
    /// This is the serialization hook used by `ah_store`: the arrays are
    /// exactly what a snapshot persists, and
    /// [`Graph::from_csr_parts`] is its validated inverse.
    pub fn csr_parts(&self) -> CsrParts<'_> {
        (
            &self.out_offsets,
            &self.out_arcs,
            &self.in_offsets,
            &self.in_arcs,
            &self.coords,
        )
    }

    /// Reassembles a graph from raw CSR arrays (the inverse of
    /// [`Graph::csr_parts`], used when loading snapshots).
    ///
    /// Unlike the crate-internal `from_parts`, which trusts the builder,
    /// this validates every structural invariant — offset monotonicity, arc
    /// counts, endpoint bounds — and returns an error instead of
    /// constructing a graph whose accessors could panic or misindex.
    pub fn from_csr_parts(
        out_offsets: Vec<u32>,
        out_arcs: Vec<Arc>,
        in_offsets: Vec<u32>,
        in_arcs: Vec<Arc>,
        coords: Vec<Point>,
    ) -> Result<Graph, &'static str> {
        let n = coords.len();
        validate_csr(&out_offsets, out_arcs.len(), n, "out")?;
        validate_csr(&in_offsets, in_arcs.len(), n, "in")?;
        if out_arcs.len() != in_arcs.len() {
            return Err("forward and backward arc counts differ");
        }
        if out_arcs
            .iter()
            .chain(in_arcs.iter())
            .any(|a| a.head as usize >= n)
        {
            return Err("arc endpoint out of range");
        }
        Ok(Graph {
            out_offsets,
            out_arcs,
            in_offsets,
            in_arcs,
            coords,
        })
    }
}

/// Shared CSR shape check: `offsets` must have `n + 1` monotone entries
/// starting at 0 and ending at `arcs_len`.
fn validate_csr(
    offsets: &[u32],
    arcs_len: usize,
    n: usize,
    _side: &'static str,
) -> Result<(), &'static str> {
    if offsets.len() != n + 1 {
        return Err("offset array length is not num_nodes + 1");
    }
    if offsets.first() != Some(&0) {
        return Err("offset array does not start at 0");
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("offset array is not monotone");
    }
    if offsets.last().copied().unwrap_or(0) as usize != arcs_len {
        return Err("offset array does not cover the arc array");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, Point};

    fn diamond() -> crate::Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i, i));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 2);
        b.add_edge(0, 2, 3);
        b.add_edge(2, 3, 4);
        b.build()
    }

    #[test]
    fn csr_adjacency_roundtrip() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        let heads: Vec<_> = g.out_edges(0).iter().map(|a| a.head).collect();
        assert_eq!(heads, vec![1, 2]);
        let tails: Vec<_> = g.in_edges(3).iter().map(|a| a.head).collect();
        assert_eq!(tails, vec![1, 2]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(2, 3), Some(4));
        assert_eq!(g.edge_weight(3, 0), None);
    }

    #[test]
    fn edges_iterator_counts_all() {
        let g = diamond();
        assert_eq!(g.edges().count(), 4);
        let total: u64 = g.edges().map(|(_, a)| a.weight as u64).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn forward_and_backward_arcs_agree() {
        let g = diamond();
        for (tail, arc) in g.edges() {
            assert!(g
                .in_edges(arc.head)
                .iter()
                .any(|b| b.head == tail && b.weight == arc.weight && b.nuance == arc.nuance));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn size_accounting_positive() {
        let g = diamond();
        assert!(g.size_bytes() > 0);
    }

    #[test]
    fn csr_parts_roundtrip() {
        let g = diamond();
        let (oo, oa, io, ia, co) = g.csr_parts();
        let g2 = crate::Graph::from_csr_parts(
            oo.to_vec(),
            oa.to_vec(),
            io.to_vec(),
            ia.to_vec(),
            co.to_vec(),
        )
        .unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        for v in g.node_ids() {
            assert_eq!(g2.out_edges(v), g.out_edges(v));
            assert_eq!(g2.in_edges(v), g.in_edges(v));
            assert_eq!(g2.coord(v), g.coord(v));
        }
    }

    #[test]
    fn from_csr_parts_rejects_malformed_shapes() {
        let g = diamond();
        let (oo, oa, io, ia, co) = g.csr_parts();
        // Offsets not covering the arc array.
        let mut bad = oo.to_vec();
        *bad.last_mut().unwrap() -= 1;
        assert!(crate::Graph::from_csr_parts(
            bad,
            oa.to_vec(),
            io.to_vec(),
            ia.to_vec(),
            co.to_vec()
        )
        .is_err());
        // Arc head out of range.
        let mut bad_arcs = oa.to_vec();
        bad_arcs[0].head = 99;
        assert!(crate::Graph::from_csr_parts(
            oo.to_vec(),
            bad_arcs,
            io.to_vec(),
            ia.to_vec(),
            co.to_vec()
        )
        .is_err());
        // Non-monotone offsets.
        let mut bad = io.to_vec();
        bad[1] = 3;
        bad[2] = 1;
        assert!(crate::Graph::from_csr_parts(
            oo.to_vec(),
            oa.to_vec(),
            bad,
            ia.to_vec(),
            co.to_vec()
        )
        .is_err());
    }
}
