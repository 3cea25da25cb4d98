//! Section payload encoders/decoders for the persisted types.
//!
//! Each top-level object maps to one section (see
//! [`crate::format::SectionTag`]); composite objects are encoded as a
//! fixed sequence of sub-blocks so the contraction [`Hierarchy`] encoding
//! is shared verbatim between the `ah.index` and `ch.index` sections. The
//! byte-exact field order is normative and documented in
//! `docs/FORMAT.md`; any change here must bump
//! [`crate::format::VERSION`].
//!
//! Decoders run only on checksum-verified payloads and still trust
//! nothing: every structural invariant is re-checked through the source
//! crates' validated `from_raw_parts` constructors, so a forged file
//! yields a typed [`SnapshotError`], never a panic or an index that
//! answers queries from out-of-bounds memory.

use ah_ch::ChIndex;
use ah_contraction::{HArc, Hierarchy};
use ah_core::{AhIndex, ElevArc, ElevatingSets, ElevatingSide};
use ah_graph::{Arc, Dist, Graph, Point, WeightChange, WeightDelta};
use ah_grid::GridHierarchy;
use ah_labels::{LabelEntry, LabelIndex};
use ah_shard::ShardedIndex;

use crate::codec::{FieldReader, FieldWriter};
use crate::error::SnapshotError;
use crate::format::SectionTag;

// ---------------------------------------------------------------- graph

/// Encodes a [`Graph`] as the `graph` section payload.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let (out_offsets, out_arcs, in_offsets, in_arcs, coords) = g.csr_parts();
    let mut w = FieldWriter::new();
    w.put_u64(g.num_nodes() as u64);
    w.put_u32_slice(out_offsets);
    put_arc_slice(&mut w, out_arcs);
    w.put_u32_slice(in_offsets);
    put_arc_slice(&mut w, in_arcs);
    put_point_slice(&mut w, coords);
    w.into_bytes()
}

/// Decodes the `graph` section payload.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    let mut r = FieldReader::new(SectionTag::GRAPH, bytes);
    let n = r.get_u64()? as usize;
    let out_offsets = r.get_u32_vec()?;
    let out_arcs = get_arc_vec(&mut r)?;
    let in_offsets = r.get_u32_vec()?;
    let in_arcs = get_arc_vec(&mut r)?;
    let coords = get_point_vec(&mut r)?;
    r.expect_end()?;
    if coords.len() != n {
        return Err(r.malformed("node count disagrees with the coordinate array"));
    }
    Graph::from_csr_parts(out_offsets, out_arcs, in_offsets, in_arcs, coords)
        .map_err(|reason| SnapshotError::Malformed {
            section: SectionTag::GRAPH,
            reason,
        })
}

fn put_arc_slice(w: &mut FieldWriter, arcs: &[Arc]) {
    w.put_u64(arcs.len() as u64);
    for a in arcs {
        w.put_u32(a.head);
        w.put_u32(a.weight);
        w.put_u32(a.nuance);
    }
    w.pad8();
}

fn get_arc_vec(r: &mut FieldReader<'_>) -> Result<Vec<Arc>, SnapshotError> {
    let n = r.get_len(12)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Arc {
            head: r.get_u32()?,
            weight: r.get_u32()?,
            nuance: r.get_u32()?,
        });
    }
    r.align8()?;
    Ok(out)
}

fn put_point_slice(w: &mut FieldWriter, points: &[Point]) {
    w.put_u64(points.len() as u64);
    for p in points {
        w.put_i32(p.x);
        w.put_i32(p.y);
    }
    w.pad8();
}

fn get_point_vec(r: &mut FieldReader<'_>) -> Result<Vec<Point>, SnapshotError> {
    let n = r.get_len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let x = r.get_i32()?;
        let y = r.get_i32()?;
        out.push(Point::new(x, y));
    }
    r.align8()?;
    Ok(out)
}

// ------------------------------------------------------------ hierarchy

fn put_harc_slice(w: &mut FieldWriter, arcs: &[HArc]) {
    w.put_u64(arcs.len() as u64);
    for a in arcs {
        w.put_u32(a.to);
        w.put_u32(a.middle);
        w.put_u64(a.dist.length);
        w.put_u64(a.dist.nuance);
    }
}

fn get_harc_vec(r: &mut FieldReader<'_>) -> Result<Vec<HArc>, SnapshotError> {
    let n = r.get_len(24)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let to = r.get_u32()?;
        let middle = r.get_u32()?;
        let length = r.get_u64()?;
        let nuance = r.get_u64()?;
        out.push(HArc {
            to,
            middle,
            dist: Dist::new(length, nuance),
        });
    }
    Ok(out)
}

/// Encodes a contraction [`Hierarchy`] sub-block (shared by the AH and CH
/// sections).
fn put_hierarchy(w: &mut FieldWriter, h: &Hierarchy) {
    let parts = h.raw_parts();
    w.put_u64(parts.rank.len() as u64);
    w.put_u64(parts.num_shortcuts as u64);
    w.put_u32_slice(parts.rank);
    for (offsets, arcs) in parts.views {
        w.put_u32_slice(offsets);
        put_harc_slice(w, arcs);
    }
}

fn get_hierarchy(r: &mut FieldReader<'_>) -> Result<Hierarchy, SnapshotError> {
    let n = r.get_u64()? as usize;
    let num_shortcuts = r.get_u64()? as usize;
    let rank = r.get_u32_vec()?;
    if rank.len() != n {
        return Err(r.malformed("hierarchy node count disagrees with the rank array"));
    }
    let mut views: [(Vec<u32>, Vec<HArc>); 2] = Default::default();
    for view in views.iter_mut() {
        let offsets = r.get_u32_vec()?;
        let arcs = get_harc_vec(r)?;
        *view = (offsets, arcs);
    }
    let section = r.section();
    Hierarchy::from_raw_parts(rank, views, num_shortcuts)
        .map_err(|reason| SnapshotError::Malformed { section, reason })
}

// ------------------------------------------------------------- ah.index

/// Encodes an [`AhIndex`] as the `ah.index` section payload.
pub fn encode_ah(idx: &AhIndex) -> Vec<u8> {
    let parts = idx.raw_parts();
    let mut w = FieldWriter::new();
    let (origin, h, s1) = parts.grid.raw_parts();
    w.put_i32(origin.x);
    w.put_i32(origin.y);
    w.put_u32(h);
    w.put_u32(0); // reserved / alignment
    w.put_u64(s1);
    put_hierarchy(&mut w, parts.hierarchy);
    w.put_u8_slice(parts.level);
    put_point_slice(&mut w, parts.coords);
    put_side(&mut w, &parts.elevating.forward);
    put_side(&mut w, &parts.elevating.backward);
    w.into_bytes()
}

/// Decodes the `ah.index` section payload.
pub fn decode_ah(bytes: &[u8]) -> Result<AhIndex, SnapshotError> {
    decode_ah_in(SectionTag::AH, bytes)
}

/// Decodes an AH-index payload from `section` (the global `ah.index`
/// section or a per-shard `shardNNN` section — the payloads are
/// identical; only error attribution differs).
fn decode_ah_in(section: SectionTag, bytes: &[u8]) -> Result<AhIndex, SnapshotError> {
    let mut r = FieldReader::new(section, bytes);
    let ox = r.get_i32()?;
    let oy = r.get_i32()?;
    let h = r.get_u32()?;
    let _reserved = r.get_u32()?;
    let s1 = r.get_u64()?;
    let grid = GridHierarchy::from_raw_parts(Point::new(ox, oy), h, s1)
        .map_err(|reason| r.malformed(reason))?;
    let hierarchy = get_hierarchy(&mut r)?;
    let level = r.get_u8_vec()?;
    let coords = get_point_vec(&mut r)?;
    let forward = get_side(&mut r)?;
    let backward = get_side(&mut r)?;
    r.expect_end()?;
    AhIndex::from_raw_parts(
        grid,
        hierarchy,
        level,
        coords,
        ElevatingSets { forward, backward },
    )
    .map_err(|reason| SnapshotError::Malformed { section, reason })
}

fn put_side(w: &mut FieldWriter, side: &ElevatingSide) {
    let (node_offsets, entries, arcs, chains) = side.raw_parts();
    w.put_u32_slice(node_offsets);
    w.put_u64(entries.len() as u64);
    for &(level, start, len) in entries {
        w.put_u32(level as u32);
        w.put_u32(start);
        w.put_u32(len);
    }
    w.pad8();
    w.put_u64(arcs.len() as u64);
    for a in arcs {
        let (chain_start, chain_len) = a.chain_range();
        w.put_u32(a.to);
        w.put_u32(chain_start);
        w.put_u32(chain_len);
        w.put_u32(0); // reserved / alignment
        w.put_u64(a.dist.length);
        w.put_u64(a.dist.nuance);
    }
    w.put_u32_slice(chains);
}

fn get_side(r: &mut FieldReader<'_>) -> Result<ElevatingSide, SnapshotError> {
    let node_offsets = r.get_u32_vec()?;
    let n_entries = r.get_len(12)?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        let level = r.get_u32()?;
        let start = r.get_u32()?;
        let len = r.get_u32()?;
        if level > u8::MAX as u32 {
            return Err(r.malformed("elevating entry level exceeds u8"));
        }
        entries.push((level as u8, start, len));
    }
    r.align8()?;
    let n_arcs = r.get_len(32)?;
    let mut arcs = Vec::with_capacity(n_arcs);
    for _ in 0..n_arcs {
        let to = r.get_u32()?;
        let chain_start = r.get_u32()?;
        let chain_len = r.get_u32()?;
        let _reserved = r.get_u32()?;
        let length = r.get_u64()?;
        let nuance = r.get_u64()?;
        arcs.push(ElevArc::from_raw_parts(
            to,
            Dist::new(length, nuance),
            chain_start,
            chain_len,
        ));
    }
    let chains = r.get_u32_vec()?;
    let section = r.section();
    ElevatingSide::from_raw_parts(node_offsets, entries, arcs, chains)
        .map_err(|reason| SnapshotError::Malformed { section, reason })
}

// ------------------------------------------------------------- ch.index

/// Encodes a [`ChIndex`] as the `ch.index` section payload.
pub fn encode_ch(idx: &ChIndex) -> Vec<u8> {
    let mut w = FieldWriter::new();
    put_hierarchy(&mut w, idx.hierarchy());
    w.put_u32_slice(idx.order());
    w.into_bytes()
}

/// Decodes the `ch.index` section payload.
pub fn decode_ch(bytes: &[u8]) -> Result<ChIndex, SnapshotError> {
    let mut r = FieldReader::new(SectionTag::CH, bytes);
    let hierarchy = get_hierarchy(&mut r)?;
    let order = r.get_u32_vec()?;
    r.expect_end()?;
    ChIndex::from_raw_parts(hierarchy, order).map_err(|reason| SnapshotError::Malformed {
        section: SectionTag::CH,
        reason,
    })
}

// --------------------------------------------------- labels (format v3)

fn put_label_slice(w: &mut FieldWriter, entries: &[LabelEntry]) {
    w.put_u64(entries.len() as u64);
    for e in entries {
        w.put_u32(e.hub);
        w.put_u32(0); // reserved / alignment
        w.put_u64(e.dist.length);
        w.put_u64(e.dist.nuance);
    }
}

fn get_label_vec(r: &mut FieldReader<'_>) -> Result<Vec<LabelEntry>, SnapshotError> {
    let n = r.get_len(24)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let hub = r.get_u32()?;
        let _reserved = r.get_u32()?;
        let length = r.get_u64()?;
        let nuance = r.get_u64()?;
        out.push(LabelEntry {
            hub,
            dist: Dist::new(length, nuance),
        });
    }
    Ok(out)
}

/// Encodes a [`LabelIndex`] as the `labels` section payload.
pub fn encode_labels(idx: &LabelIndex) -> Vec<u8> {
    let (out_offsets, out_entries, in_offsets, in_entries) = idx.raw_parts();
    let mut w = FieldWriter::new();
    w.put_u64(idx.num_nodes() as u64);
    w.put_u32_slice(out_offsets);
    put_label_slice(&mut w, out_entries);
    w.put_u32_slice(in_offsets);
    put_label_slice(&mut w, in_entries);
    w.into_bytes()
}

/// Decodes the `labels` section payload.
pub fn decode_labels(bytes: &[u8]) -> Result<LabelIndex, SnapshotError> {
    let mut r = FieldReader::new(SectionTag::LABELS, bytes);
    let n = r.get_u64()? as usize;
    let out_offsets = r.get_u32_vec()?;
    let out_entries = get_label_vec(&mut r)?;
    let in_offsets = r.get_u32_vec()?;
    let in_entries = get_label_vec(&mut r)?;
    r.expect_end()?;
    if out_offsets.len() != n + 1 {
        return Err(r.malformed("node count disagrees with the label offsets"));
    }
    LabelIndex::from_raw_parts(out_offsets, out_entries, in_offsets, in_entries).map_err(
        |reason| SnapshotError::Malformed {
            section: SectionTag::LABELS,
            reason,
        },
    )
}

// ---------------------------------------------------- delta (format v4)

/// Encodes a [`WeightDelta`] as the `delta` section payload. Weights
/// are stored raw (0 stays 0; clamping happens at apply time), so the
/// codec is lossless for every boundary weight including `0`,
/// `u32::MAX - 1` and the `u32::MAX` closure sentinel.
pub fn encode_delta(delta: &WeightDelta) -> Vec<u8> {
    let mut w = FieldWriter::new();
    w.put_u64(delta.base_id());
    w.put_u64(delta.len() as u64);
    for c in delta.changes() {
        w.put_u32(c.tail);
        w.put_u32(c.head);
        w.put_u32(c.weight);
        w.put_u32(0); // reserved / alignment
    }
    w.into_bytes()
}

/// Decodes the `delta` section payload. Canonical form (strictly
/// ascending `(tail, head)`, no self-loops) is re-validated through
/// [`WeightDelta::from_raw_parts`]; the base id is cross-checked
/// against the snapshot's graph section by the caller.
pub fn decode_delta(bytes: &[u8]) -> Result<WeightDelta, SnapshotError> {
    let mut r = FieldReader::new(SectionTag::DELTA, bytes);
    let base_id = r.get_u64()?;
    let n = r.get_len(16)?;
    let mut changes = Vec::with_capacity(n);
    for _ in 0..n {
        let tail = r.get_u32()?;
        let head = r.get_u32()?;
        let weight = r.get_u32()?;
        let _reserved = r.get_u32()?;
        changes.push(WeightChange { tail, head, weight });
    }
    r.expect_end()?;
    WeightDelta::from_raw_parts(base_id, changes).map_err(|e| SnapshotError::Malformed {
        section: SectionTag::DELTA,
        reason: match e {
            ah_graph::DeltaError::Unsorted => "delta changes are not strictly ascending",
            ah_graph::DeltaError::SelfLoop { .. } => "delta names a self-loop",
            _ => "delta changes are not in canonical form",
        },
    })
}

// --------------------------------------------------- shards (format v2)

/// Encodes a [`ShardedIndex`] as its sharded-snapshot sections: the
/// `shards` metadata section plus one `shardNNN` AH-payload section per
/// non-empty shard. The global AH index and the graph are *not* among
/// the returned sections — the caller persists them under their own
/// tags ([`SectionTag::AH`], [`SectionTag::GRAPH`]), and the decoder
/// reassembles the partition skeleton from them.
pub fn encode_shard_sections(idx: &ShardedIndex) -> Vec<(SectionTag, Vec<u8>)> {
    let mut w = FieldWriter::new();
    w.put_u32(idx.num_shards() as u32);
    w.put_u32(idx.map().level());
    w.put_u32(idx.certified() as u32);
    w.put_u32(0); // reserved / alignment
    w.put_u64(idx.num_nodes() as u64);
    w.put_u64(idx.border_nodes().len() as u64);
    w.put_u64_slice(idx.matrix());
    for s in 0..idx.num_shards() {
        let pairs = idx.shard(s).reentry();
        w.put_u64(pairs.len() as u64);
        for &(u, q) in pairs {
            w.put_u32(u);
            w.put_u32(q);
        }
    }
    let mut sections = vec![(SectionTag::SHARDS, w.into_bytes())];
    for s in 0..idx.num_shards() {
        if let Some(shard_idx) = idx.shard(s).index() {
            sections.push((SectionTag::shard_slot(s), encode_ah(shard_idx)));
        }
    }
    sections
}

/// Decodes the sharded-snapshot sections of `container` against the
/// already-decoded graph and global AH index. The partition skeleton is
/// recomputed deterministically ([`ShardedIndex::from_raw_parts`]) and
/// every persisted piece is validated against it *structurally*: shard
/// count, partition level, per-shard node counts, matrix size, border
/// and reentry index ranges. A combination of sections that fails any
/// of these yields a typed error, never a misrouting index. Like every
/// other section (edge weights included), the *values* — matrix
/// distances, reentry sets, per-shard index contents — are trusted
/// from the writer; checksums guard against corruption, not against a
/// writer persisting stale data.
pub fn decode_sharded(
    container: &crate::format::Container<'_>,
    graph: &Graph,
    global: std::sync::Arc<AhIndex>,
) -> Result<ShardedIndex, SnapshotError> {
    let bytes = container
        .section(SectionTag::SHARDS)
        .ok_or(SnapshotError::MissingSection {
            section: SectionTag::SHARDS,
        })?;
    let mut r = FieldReader::new(SectionTag::SHARDS, bytes);
    let k = r.get_u32()? as usize;
    let level = r.get_u32()?;
    let certified = match r.get_u32()? {
        0 => false,
        1 => true,
        _ => return Err(r.malformed("certified flag is not 0 or 1")),
    };
    let _reserved = r.get_u32()?;
    let num_nodes = r.get_u64()? as usize;
    let border_count = r.get_u64()? as usize;
    let matrix = r.get_u64_vec()?;
    if k == 0 || k > 256 {
        return Err(r.malformed("shard count outside 1..=256"));
    }
    let mut reentry: Vec<Vec<(u32, u32)>> = Vec::with_capacity(k);
    for _ in 0..k {
        let n_pairs = r.get_len(8)?;
        let mut pairs = Vec::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            let u = r.get_u32()?;
            let q = r.get_u32()?;
            if u as usize >= border_count || q as usize >= border_count {
                return Err(r.malformed("reentry pair names a border out of range"));
            }
            pairs.push((u, q));
        }
        reentry.push(pairs);
    }
    r.expect_end()?;
    if num_nodes != graph.num_nodes() {
        return Err(r.malformed("sharded node count disagrees with the graph section"));
    }
    if certified && matrix.len() != border_count * border_count {
        return Err(r.malformed("boundary matrix size is not |borders|^2"));
    }

    let mut indexes = Vec::with_capacity(k);
    for s in 0..k {
        let tag = SectionTag::shard_slot(s);
        let idx = container
            .index_section(tag)?
            .map(|b| decode_ah_in(tag, b))
            .transpose()?;
        indexes.push(idx);
    }

    let idx =
        ShardedIndex::from_raw_parts(graph, global, k, indexes, certified, matrix, reentry)
            .map_err(|reason| SnapshotError::Malformed {
                section: SectionTag::SHARDS,
                reason,
            })?;
    if idx.map().level() != level || idx.border_nodes().len() != border_count {
        return Err(SnapshotError::Malformed {
            section: SectionTag::SHARDS,
            reason: "persisted partition disagrees with the graph-derived one",
        });
    }
    Ok(idx)
}
