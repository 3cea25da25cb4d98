//! The contracted hierarchy: upward adjacency plus path unpacking.

use ah_graph::{Dist, NodeId, INVALID_NODE};
use ah_search::SearchGraph;

/// A hierarchy arc: target (or source, for upward-in arcs), nuance-tagged
/// length, and the *middle node* recorded at shortcut creation
/// ([`INVALID_NODE`] for original edges). The middle node turns any
/// shortcut into a two-hop path, giving O(k) unpacking (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HArc {
    /// The other endpoint.
    pub to: NodeId,
    /// Length of the represented path.
    pub dist: Dist,
    /// Interior node bypassed by this shortcut; [`INVALID_NODE`] for
    /// original edges.
    pub middle: NodeId,
}

impl HArc {
    /// True if this arc is an original road-network edge.
    #[inline]
    pub fn is_original(&self) -> bool {
        self.middle == INVALID_NODE
    }
}

/// Borrowed view of every array a [`Hierarchy`] owns, in snapshot order.
/// Serialization hook for `ah_store`; [`Hierarchy::from_raw_parts`] is the
/// validated inverse.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyParts<'a> {
    /// Contraction rank per node.
    pub rank: &'a [u32],
    /// The two CSR views as `(offsets, arcs)` pairs: up-out, then up-in.
    pub views: [(&'a [u32], &'a [HArc]); 2],
    /// Shortcut count (denormalized; recomputed on load would also work
    /// but persisting it keeps load O(1) in the arc count).
    pub num_shortcuts: usize,
}

/// A contracted graph in CSR form: the two upward adjacency views a
/// bidirectional upward query relaxes. Every hierarchy arc sits in exactly
/// one of them, filed under its lower-ranked end.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Rank (contraction position) per node; higher = more important.
    rank: Vec<u32>,
    up_out_offsets: Vec<u32>,
    up_out_arcs: Vec<HArc>,
    up_in_offsets: Vec<u32>,
    up_in_arcs: Vec<HArc>,
    num_shortcuts: usize,
}

impl Hierarchy {
    /// Assembles the CSR views from per-node arc lists.
    ///
    /// `out[u]` must contain every hierarchy arc `u → v` (original +
    /// shortcut, deduplicated to the minimum distance per head), and `inn`
    /// the mirrored lists.
    pub(crate) fn assemble(
        rank: Vec<u32>,
        out: &[Vec<HArc>],
        inn: &[Vec<HArc>],
    ) -> Self {
        let n = rank.len();
        let mut num_shortcuts = 0usize;
        let mut up_out: Vec<Vec<HArc>> = vec![Vec::new(); n];
        let mut up_in: Vec<Vec<HArc>> = vec![Vec::new(); n];
        for u in 0..n {
            for &a in &out[u] {
                if !a.is_original() {
                    num_shortcuts += 1;
                }
                if rank[a.to as usize] > rank[u] {
                    up_out[u].push(a);
                }
            }
            up_in[u].extend(inn[u].iter().filter(|a| rank[a.to as usize] > rank[u]));
        }
        // Sort upward arcs by rank of the head: keeps query relaxation
        // cache-friendly and deterministic.
        for lists in [&mut up_out, &mut up_in] {
            for l in lists.iter_mut() {
                l.sort_unstable_by_key(|a| (rank[a.to as usize], a.to));
            }
        }
        let (up_out_offsets, up_out_arcs) = to_csr(&up_out);
        let (up_in_offsets, up_in_arcs) = to_csr(&up_in);
        Hierarchy {
            rank,
            up_out_offsets,
            up_out_arcs,
            up_in_offsets,
            up_in_arcs,
            num_shortcuts,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.rank.len()
    }

    /// Contraction rank of `v` (higher = contracted later = more
    /// important).
    #[inline]
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// Number of shortcut arcs in the hierarchy.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// The contraction order implied by the ranks: `order[i]` is the node
    /// with rank `i`, so `order[0]` was contracted first and the last
    /// element is the most important node. This is the hub order consumed
    /// by `ah_labels` (processed back to front), exported here so a
    /// labeling can be built from any hierarchy — AH's or CH's — without
    /// re-deriving the permutation at each call site.
    pub fn contraction_order(&self) -> Vec<NodeId> {
        let mut order = vec![0 as NodeId; self.rank.len()];
        for (v, &r) in self.rank.iter().enumerate() {
            order[r as usize] = v as NodeId;
        }
        order
    }

    /// Upward out-arcs of `u`: arcs `u → v` with `rank(v) > rank(u)`
    /// (relaxed by the forward search).
    #[inline]
    pub fn up_out(&self, u: NodeId) -> &[HArc] {
        slice(&self.up_out_offsets, &self.up_out_arcs, u)
    }

    /// Upward in-arcs of `u`: arcs `v → u` with `rank(v) > rank(u)`
    /// (relaxed by the backward search; [`HArc::to`] is the tail `v`).
    #[inline]
    pub fn up_in(&self, u: NodeId) -> &[HArc] {
        slice(&self.up_in_offsets, &self.up_in_arcs, u)
    }

    /// The hierarchy arc `a → b`, if there is one, with [`HArc::to`] set
    /// to `b`. It is filed under its lower-ranked end: `up_out(a)` when
    /// `b` ranks above `a`, else `up_in(b)`. A hierarchy keeps one arc per
    /// head, so the first match is the arc.
    #[inline]
    pub fn arc_between(&self, a: NodeId, b: NodeId) -> Option<HArc> {
        if self.rank(b) > self.rank(a) {
            self.up_out(a).iter().find(|x| x.to == b).copied()
        } else {
            let x = self.up_in(b).iter().find(|x| x.to == a)?;
            Some(HArc { to: b, ..*x })
        }
    }

    /// Borrowed view of all internal arrays (serialization hook).
    pub fn raw_parts(&self) -> HierarchyParts<'_> {
        HierarchyParts {
            rank: &self.rank,
            views: [
                (&self.up_out_offsets, &self.up_out_arcs),
                (&self.up_in_offsets, &self.up_in_arcs),
            ],
            num_shortcuts: self.num_shortcuts,
        }
    }

    /// Reassembles a hierarchy from raw arrays (the inverse of
    /// [`Hierarchy::raw_parts`], used when loading snapshots).
    ///
    /// Validates the CSR shape of both views, arc endpoint bounds, that
    /// `rank` is a permutation of `0..n` — the property every upward query
    /// and unpack walk relies on — and that every shortcut unpacks, so a
    /// corrupt or hand-forged snapshot is rejected instead of producing
    /// panics at query time.
    pub fn from_raw_parts(
        rank: Vec<u32>,
        views: [(Vec<u32>, Vec<HArc>); 2],
        num_shortcuts: usize,
    ) -> Result<Self, &'static str> {
        let n = rank.len();
        let mut seen = vec![false; n];
        for &r in &rank {
            if r as usize >= n || seen[r as usize] {
                return Err("rank is not a permutation of 0..n");
            }
            seen[r as usize] = true;
        }
        for (offsets, arcs) in &views {
            if offsets.len() != n + 1 {
                return Err("hierarchy offset array length is not num_nodes + 1");
            }
            if offsets.first() != Some(&0)
                || offsets.windows(2).any(|w| w[0] > w[1])
                || offsets.last().copied().unwrap_or(0) as usize != arcs.len()
            {
                return Err("hierarchy offset array is malformed");
            }
            if arcs
                .iter()
                .any(|a| a.to as usize >= n || (!a.is_original() && a.middle as usize >= n))
            {
                return Err("hierarchy arc endpoint out of range");
            }
        }
        let [(up_out_offsets, up_out_arcs), (up_in_offsets, up_in_arcs)] = views;
        let h = Hierarchy {
            rank,
            up_out_offsets,
            up_out_arcs,
            up_in_offsets,
            up_in_arcs,
            num_shortcuts,
        };
        // Every shortcut must unpack: its two halves are hierarchy arcs,
        // and its middle ranks below both ends, so each recursion step of
        // `unpack_arc` lowers the lower end's rank and the walk ends.
        for u in 0..n as NodeId {
            let out = h.up_out(u).iter().map(|a| (u, a.to, a.middle));
            let inn = h.up_in(u).iter().map(|a| (a.to, u, a.middle));
            for (a, b, m) in out.chain(inn).filter(|&(_, _, m)| m != INVALID_NODE) {
                if h.rank(m) >= h.rank(a).min(h.rank(b)) {
                    return Err("shortcut middle does not rank below both ends");
                }
                if h.arc_between(a, m).is_none() || h.arc_between(m, b).is_none() {
                    return Err("shortcut half is not a hierarchy arc");
                }
            }
        }
        Ok(h)
    }

    /// Approximate heap footprint (Figure 10a accounting).
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.rank.len() + self.up_out_offsets.len() + self.up_in_offsets.len())
            * size_of::<u32>()
            + (self.up_out_arcs.len() + self.up_in_arcs.len()) * size_of::<HArc>()
    }

    /// Expands the hierarchy arc `u → v` with middle node `middle`
    /// ([`INVALID_NODE`] for an original edge) into the original-edge node
    /// sequence, *excluding* `u` and *including* `v`, appending to `out`.
    /// A shortcut's two halves `u → middle → v` are found with
    /// [`Hierarchy::arc_between`].
    pub fn unpack_arc(&self, u: NodeId, v: NodeId, middle: NodeId, out: &mut Vec<NodeId>) {
        if middle == INVALID_NODE {
            out.push(v);
            return;
        }
        for (a, b) in [(u, middle), (middle, v)] {
            let half = self
                .arc_between(a, b)
                .unwrap_or_else(|| panic!("missing unpack arc {a} → {b}"));
            self.unpack_arc(a, b, half.middle, out);
        }
    }
}

/// A hierarchy's upward arcs as a plain graph for `ah_search`'s
/// one-sided searches: a node's out-arcs are [`Hierarchy::up_out`], its
/// in-arcs [`Hierarchy::up_in`], so a forward search climbs from its
/// source and a backward one climbs the paths that end there.
#[derive(Debug, Clone, Copy)]
pub struct Upward<'a>(pub &'a Hierarchy);

impl SearchGraph for Upward<'_> {
    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }

    fn for_each_out<F: FnMut(NodeId, u64, u64)>(&self, v: NodeId, mut f: F) {
        for a in self.0.up_out(v) {
            f(a.to, a.dist.length, a.dist.nuance);
        }
    }

    fn for_each_in<F: FnMut(NodeId, u64, u64)>(&self, v: NodeId, mut f: F) {
        for a in self.0.up_in(v) {
            f(a.to, a.dist.length, a.dist.nuance);
        }
    }
}

fn slice<'a>(offsets: &[u32], arcs: &'a [HArc], u: NodeId) -> &'a [HArc] {
    &arcs[offsets[u as usize] as usize..offsets[u as usize + 1] as usize]
}

fn to_csr(lists: &[Vec<HArc>]) -> (Vec<u32>, Vec<HArc>) {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    offsets.push(0u32);
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut arcs = Vec::with_capacity(total);
    for l in lists {
        arcs.extend_from_slice(l);
        offsets.push(arcs.len() as u32);
    }
    (offsets, arcs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tiny hand-made hierarchy: 0 —1→ 1 —1→ 2, ranks 0<2, 1 is
    /// lowest; shortcut 0→2 via middle 1.
    fn tiny() -> Hierarchy {
        let e = |to, len, middle| HArc {
            to,
            dist: Dist::new(len, 0),
            middle,
        };
        let rank = vec![1, 0, 2];
        let out = vec![
            vec![e(1, 1, INVALID_NODE), e(2, 2, 1)],
            vec![e(2, 1, INVALID_NODE)],
            vec![],
        ];
        let inn = vec![
            vec![],
            vec![e(0, 1, INVALID_NODE)],
            vec![e(1, 1, INVALID_NODE), e(0, 2, 1)],
        ];
        Hierarchy::assemble(rank, &out, &inn)
    }

    #[test]
    fn adjacency_partitions_by_rank() {
        let h = tiny();
        // 0 (rank 1): upward out-arc to 2 (rank 2); its arc to 1 (rank
        // 0) is filed under 1 as an upward in-arc.
        assert_eq!(h.up_out(0).len(), 1);
        assert_eq!(h.up_out(0)[0].to, 2);
        assert_eq!(h.up_in(1).len(), 1);
        assert_eq!(h.up_in(1)[0].to, 0);
        // 1 (rank 0): its out-arc climbs to 2.
        assert_eq!(h.up_out(1).len(), 1);
        // 2 (rank 2) is the apex: nothing ranks above it, so its upward
        // views are empty.
        assert!(h.up_in(2).is_empty());
        assert!(h.up_out(2).is_empty());
        assert_eq!(h.num_shortcuts(), 1);
    }

    #[test]
    fn arc_between_finds_each_arc_in_either_view() {
        let h = tiny();
        // Upward: filed in up_out(tail).
        let up = h.arc_between(0, 2).unwrap();
        assert_eq!((up.to, up.dist, up.middle), (2, Dist::new(2, 0), 1));
        // Downward 0 → 1: filed in up_in(1) with `to` = 0, returned with
        // `to` = 1.
        let down = h.arc_between(0, 1).unwrap();
        assert_eq!((down.to, down.dist, down.middle), (1, Dist::new(1, 0), INVALID_NODE));
        // No arc 2 → 0, 1 → 0 or 0 → 0.
        assert_eq!(h.arc_between(2, 0), None);
        assert_eq!(h.arc_between(1, 0), None);
        assert_eq!(h.arc_between(0, 0), None);
    }

    #[test]
    fn unpack_shortcut() {
        let h = tiny();
        let sc = *h
            .up_out(0)
            .iter()
            .find(|a| !a.is_original())
            .expect("shortcut 0→2 present");
        assert_eq!(sc.to, 2);
        let mut nodes = vec![0u32];
        h.unpack_arc(0, sc.to, sc.middle, &mut nodes);
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn unpack_original_edge() {
        let h = tiny();
        let arc = h.up_out(1)[0];
        assert!(arc.is_original());
        let mut nodes = vec![1u32];
        h.unpack_arc(1, arc.to, arc.middle, &mut nodes);
        assert_eq!(nodes, vec![1, 2]);
    }

    #[test]
    fn size_accounting() {
        let h = tiny();
        assert!(h.size_bytes() > 0);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let h = tiny();
        let p = h.raw_parts();
        let views = p.views.map(|(o, a)| (o.to_vec(), a.to_vec()));
        let h2 =
            Hierarchy::from_raw_parts(p.rank.to_vec(), views, p.num_shortcuts).unwrap();
        assert_eq!(h2.num_nodes(), h.num_nodes());
        assert_eq!(h2.num_shortcuts(), h.num_shortcuts());
        for v in 0..h.num_nodes() as NodeId {
            assert_eq!(h2.rank(v), h.rank(v));
            assert_eq!(h2.up_out(v), h.up_out(v));
            assert_eq!(h2.up_in(v), h.up_in(v));
        }
    }

    #[test]
    fn from_raw_parts_rejects_bad_rank_and_shapes() {
        let h = tiny();
        let p = h.raw_parts();
        let views = || p.views.map(|(o, a)| (o.to_vec(), a.to_vec()));
        // Duplicate rank.
        let bad_rank = vec![1, 1, 2];
        assert!(Hierarchy::from_raw_parts(bad_rank, views(), 1).is_err());
        // Arc endpoint out of range.
        let mut v = views();
        if let Some(a) = v[0].1.first_mut() {
            a.to = 77;
        }
        assert!(Hierarchy::from_raw_parts(p.rank.to_vec(), v, 1).is_err());
        // Offsets not covering arcs.
        let mut v = views();
        *v[1].0.last_mut().unwrap() += 1;
        assert!(Hierarchy::from_raw_parts(p.rank.to_vec(), v, 1).is_err());
        // The 0 → 2 shortcut with a forged middle: an end (0 would miss an
        // unpack arc) or the shortcut's own head (2 would recurse forever).
        for middle in [0, 2] {
            let mut v = views();
            v[0].1.iter_mut().find(|a| !a.is_original()).unwrap().middle = middle;
            assert_eq!(
                Hierarchy::from_raw_parts(p.rank.to_vec(), v, 1).err(),
                Some("shortcut middle does not rank below both ends"),
                "middle {middle}"
            );
        }
        // The shortcut's first half 0 → 1, filed in up_in(1), redirected
        // to come from 2.
        let mut v = views();
        v[1].1.iter_mut().find(|a| a.to == 0).unwrap().to = 2;
        assert_eq!(
            Hierarchy::from_raw_parts(p.rank.to_vec(), v, 1).err(),
            Some("shortcut half is not a hierarchy arc")
        );
    }
}
