//! **Index snapshot persistence** — save built indexes to disk, reload
//! them in milliseconds instead of rebuilding for seconds.
//!
//! The paper's practical pitch (Section 6) is small indexes and fast
//! queries, but a real deployment restarts its servers far more often
//! than it reindexes its road data — the experimental methodology of Wu
//! et al. (VLDB 2012) treats (re)construction cost as a first-class axis
//! for exactly this reason. This crate closes that gap with a versioned
//! binary container holding any subset of:
//!
//! * the road network ([`ah_graph::Graph`]),
//! * the Arterial Hierarchy index ([`ah_core::AhIndex`]),
//! * the Contraction Hierarchies index ([`ah_ch::ChIndex`]),
//! * the hub-labeling index ([`ah_labels::LabelIndex`]),
//! * the region-sharded index ([`ah_shard::ShardedIndex`]).
//!
//! The on-disk layout — magic, version, section table, CRC-64 per
//! section, flat little-endian arrays — is specified normatively in
//! `docs/FORMAT.md`; the `format` and `encode` modules implement it.
//! Loads never panic: every failure mode (truncation, bit rot, version
//! skew, forged structure) maps to a typed [`SnapshotError`], and all
//! structural invariants are re-validated through the source crates'
//! checked constructors before an object is handed back.
//!
//! Writes are atomic (tmp file + rename), so a crash mid-write can never
//! leave a half-valid snapshot at the target path — the property
//! `ah_server`'s zero-downtime snapshot swap builds on.
//!
//! ```
//! use ah_core::{AhIndex, BuildConfig};
//! use ah_store::{Snapshot, SnapshotContents};
//!
//! let g = ah_data::fixtures::lattice(6, 6, 16);
//! let idx = AhIndex::build(&g, &BuildConfig::default());
//! let path = std::env::temp_dir().join("ah_store_doc.snap");
//!
//! Snapshot::write(&path, SnapshotContents::new().graph(&g).ah(&idx)).unwrap();
//! let loaded = Snapshot::load(&path).unwrap();
//! assert_eq!(loaded.ah.as_ref().unwrap().num_nodes(), idx.num_nodes());
//! # std::fs::remove_file(&path).ok();
//! ```

mod codec;
mod crc;
mod encode;
mod error;
mod format;

use std::path::Path;
use std::sync::Arc;

use ah_ch::ChIndex;
use ah_core::AhIndex;
use ah_graph::{Graph, WeightDelta};
use ah_labels::LabelIndex;
use ah_shard::ShardedIndex;

pub use crc::crc64;
pub use error::SnapshotError;
pub use format::{Container, ContainerWriter, SectionEntry, SectionTag, MAGIC, VERSION};

/// Borrowed selection of what one [`Snapshot::write`] call persists.
///
/// All components are optional; sections are written in the fixed order
/// graph, AH, CH, labels regardless of the order the setters were called
/// in.
#[derive(Default, Clone, Copy)]
pub struct SnapshotContents<'a> {
    graph: Option<&'a Graph>,
    ah: Option<&'a AhIndex>,
    ch: Option<&'a ChIndex>,
    labels: Option<&'a LabelIndex>,
    sharded: Option<&'a ShardedIndex>,
    delta: Option<&'a WeightDelta>,
}

impl<'a> SnapshotContents<'a> {
    /// Starts an empty selection.
    pub fn new() -> Self {
        SnapshotContents::default()
    }

    /// Includes the road network.
    pub fn graph(mut self, g: &'a Graph) -> Self {
        self.graph = Some(g);
        self
    }

    /// Includes the AH index.
    pub fn ah(mut self, idx: &'a AhIndex) -> Self {
        self.ah = Some(idx);
        self
    }

    /// Includes the CH index.
    pub fn ch(mut self, idx: &'a ChIndex) -> Self {
        self.ch = Some(idx);
        self
    }

    /// Includes the hub-labeling index (format v3 `labels` section).
    pub fn labels(mut self, idx: &'a LabelIndex) -> Self {
        self.labels = Some(idx);
        self
    }

    /// Includes the region-sharded index (format v2 sections: `shards`
    /// metadata + one `shardNNN` payload per non-empty shard).
    ///
    /// A sharded snapshot must also carry the graph — the decoder
    /// recomputes the partition skeleton from it — so
    /// [`SnapshotContents::graph`] is mandatory alongside this; the
    /// global AH section is taken from [`ShardedIndex::global`]
    /// automatically unless [`SnapshotContents::ah`] set one — which
    /// must be the very same object (asserted at encode time; see
    /// [`Snapshot::to_bytes`]).
    pub fn sharded(mut self, idx: &'a ShardedIndex) -> Self {
        self.sharded = Some(idx);
        self
    }

    /// Includes an incremental weight delta (format v4 `delta`
    /// section). When the graph section is also written,
    /// [`Snapshot::write`] refuses a delta whose base id does not name
    /// that graph ([`SnapshotError::DeltaBaseMismatch`]), and loaders
    /// re-check the same invariant.
    pub fn delta(mut self, delta: &'a WeightDelta) -> Self {
        self.delta = Some(delta);
        self
    }
}

/// A loaded snapshot: whichever of the three persistable objects the file
/// contained, fully decoded and validated.
#[derive(Default)]
pub struct Snapshot {
    /// The road network, if the file has a `graph` section.
    pub graph: Option<Graph>,
    /// The AH index, if the file has an `ah.index` section. Shared
    /// (`Arc`) because a sharded snapshot's [`ShardedIndex::global`]
    /// is this same decoded index — the payload is decoded once.
    pub ah: Option<Arc<AhIndex>>,
    /// The CH index, if the file has a `ch.index` section.
    pub ch: Option<ChIndex>,
    /// The hub-labeling index, if the file has a `labels` section.
    /// Shared (`Arc`) because serving backends hold it across worker
    /// threads the same way they hold the AH index.
    pub labels: Option<Arc<LabelIndex>>,
    /// The sharded index, if the file has a `shards` section (which
    /// requires the `graph` and `ah.index` sections to reassemble).
    pub sharded: Option<ShardedIndex>,
    /// The incremental weight delta, if the file has a `delta` section
    /// (format v4). When a graph section is present too, the delta's
    /// base id has been verified to name exactly that graph.
    pub delta: Option<WeightDelta>,
}

impl Snapshot {
    /// Serializes `contents` to `path` atomically and durably: written
    /// to a sibling temporary file, `fsync`ed, renamed over the target,
    /// and the parent directory synced (where the platform allows) so
    /// neither a process crash nor a power loss can leave a truncated
    /// file at the published path — the rename is only ever of
    /// fully-flushed bytes. Returns the snapshot size in bytes.
    pub fn write(path: impl AsRef<Path>, contents: SnapshotContents<'_>) -> Result<u64, SnapshotError> {
        use std::io::Write;
        let path = path.as_ref();
        if contents.sharded.is_some() && contents.graph.is_none() {
            return Err(SnapshotError::MissingSection {
                section: SectionTag::GRAPH,
            });
        }
        if let (Some(delta), Some(graph)) = (contents.delta, contents.graph) {
            let found = graph.content_id();
            if delta.base_id() != found {
                return Err(SnapshotError::DeltaBaseMismatch {
                    expected: delta.base_id(),
                    found,
                });
            }
        }
        let bytes = Self::to_bytes(contents);
        // Append ".tmp" to the *full* file name (never replace the
        // extension): targets differing only in extension must not
        // collide on one tmp file.
        let tmp = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is a Unix
        // notion; elsewhere (and on filesystems that refuse it) the
        // rename's durability is best-effort, so errors are ignored.
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(bytes.len() as u64)
    }

    /// Serializes `contents` to an in-memory file image.
    ///
    /// # Panics
    /// Panics if a sharded index is included without the graph it was
    /// built from (the decoder cannot reassemble the partition without
    /// it) — [`Snapshot::write`] surfaces that condition as a typed
    /// error instead — or if an explicitly set AH index is a *different
    /// object* than the sharded index's global (the file has one
    /// `ah.index` section, and the decoder reuses it as the sharded
    /// global; silently writing one of two disagreeing indexes would
    /// corrupt fallback and path answers on load).
    pub fn to_bytes(contents: SnapshotContents<'_>) -> Vec<u8> {
        let mut w = format::ContainerWriter::new();
        if let Some(g) = contents.graph {
            w.add_section(SectionTag::GRAPH, encode::encode_graph(g));
        }
        if let Some(idx) = contents.ah {
            if let Some(sh) = contents.sharded {
                assert!(
                    std::ptr::eq(idx, sh.global().as_ref()),
                    "SnapshotContents::ah must be the sharded index's own global \
                     (or be left unset so it is included automatically)"
                );
            }
            w.add_section(SectionTag::AH, encode::encode_ah(idx));
        } else if let Some(sh) = contents.sharded {
            // A sharded snapshot always carries its global index.
            w.add_section(SectionTag::AH, encode::encode_ah(sh.global()));
        }
        if let Some(idx) = contents.ch {
            w.add_section(SectionTag::CH, encode::encode_ch(idx));
        }
        if let Some(idx) = contents.labels {
            w.add_section(SectionTag::LABELS, encode::encode_labels(idx));
        }
        if let Some(delta) = contents.delta {
            w.add_section(SectionTag::DELTA, encode::encode_delta(delta));
        }
        if let Some(sh) = contents.sharded {
            assert!(
                contents.graph.is_some(),
                "a sharded snapshot must include the graph section"
            );
            for (tag, payload) in encode::encode_shard_sections(sh) {
                w.add_section(tag, payload);
            }
        }
        w.finish()
    }

    /// Reads and fully verifies the snapshot at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Loads *only* the AH index from the snapshot at `path`.
    ///
    /// Every section's checksum is still verified (that is container
    /// parsing, and cheap), but the graph and CH payloads are not
    /// decoded or validated — the restart path a server cares about
    /// pays only for the section it serves from.
    pub fn load_ah(path: impl AsRef<Path>) -> Result<AhIndex, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let container = format::Container::parse(&bytes)?;
        let section = container
            .index_section(SectionTag::AH)?
            .ok_or(SnapshotError::MissingSection {
                section: SectionTag::AH,
            })?;
        encode::decode_ah(section)
    }

    /// Decodes a snapshot from an in-memory file image. Unknown sections
    /// are ignored (after their checksums verify), so same-version files
    /// written by extended tooling stay loadable.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let container = format::Container::parse(bytes)?;
        let graph = container
            .section(SectionTag::GRAPH)
            .map(encode::decode_graph)
            .transpose()?;
        let ah = container
            .index_section(SectionTag::AH)?
            .map(encode::decode_ah)
            .transpose()?
            .map(Arc::new);
        let ch = container
            .index_section(SectionTag::CH)?
            .map(encode::decode_ch)
            .transpose()?;
        let labels = container
            .section(SectionTag::LABELS)
            .map(encode::decode_labels)
            .transpose()?
            .map(Arc::new);
        let delta = container
            .section(SectionTag::DELTA)
            .map(encode::decode_delta)
            .transpose()?;
        if let (Some(d), Some(g)) = (&delta, &graph) {
            let found = g.content_id();
            if d.base_id() != found {
                return Err(SnapshotError::DeltaBaseMismatch {
                    expected: d.base_id(),
                    found,
                });
            }
        }
        let sharded = if container.section(SectionTag::SHARDS).is_some() {
            Some(Self::decode_sharded_from(
                &container,
                graph.as_ref(),
                ah.clone(),
            )?)
        } else {
            None
        };
        Ok(Snapshot {
            graph,
            ah,
            ch,
            labels,
            sharded,
            delta,
        })
    }

    /// Loads *only* the weight delta from the snapshot at `path`
    /// (checksums of every section still verify; other payloads are not
    /// decoded). The base-graph cross-check is *not* run here — the
    /// caller applies the delta against its live graph, and
    /// `ah_graph::WeightDelta::apply` re-checks the base id there.
    pub fn load_delta(path: impl AsRef<Path>) -> Result<WeightDelta, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let container = format::Container::parse(&bytes)?;
        let section = container
            .section(SectionTag::DELTA)
            .ok_or(SnapshotError::MissingSection {
                section: SectionTag::DELTA,
            })?;
        encode::decode_delta(section)
    }

    /// Loads *only* the sharded index (graph + global AH + shard
    /// sections) from the snapshot at `path`, skipping the CH payload —
    /// the restart path of a sharded server.
    pub fn load_sharded(path: impl AsRef<Path>) -> Result<ShardedIndex, SnapshotError> {
        let bytes = std::fs::read(path)?;
        let container = format::Container::parse(&bytes)?;
        let graph = container
            .section(SectionTag::GRAPH)
            .map(encode::decode_graph)
            .transpose()?;
        let global = container
            .index_section(SectionTag::AH)?
            .map(encode::decode_ah)
            .transpose()?
            .map(Arc::new);
        Self::decode_sharded_from(&container, graph.as_ref(), global)
    }

    /// Shared sharded-section decode: requires the graph and the global
    /// AH index, both already decoded by the caller (the sharded index
    /// shares the same `Arc` as [`Snapshot::ah`], so the dominant AH
    /// payload is decoded exactly once per load).
    fn decode_sharded_from(
        container: &format::Container<'_>,
        graph: Option<&Graph>,
        global: Option<Arc<AhIndex>>,
    ) -> Result<ShardedIndex, SnapshotError> {
        let graph = graph.ok_or(SnapshotError::MissingSection {
            section: SectionTag::GRAPH,
        })?;
        let global = global.ok_or(SnapshotError::MissingSection {
            section: SectionTag::AH,
        })?;
        encode::decode_sharded(container, graph, global)
    }

    /// The hub-labeling index, or [`SnapshotError::MissingSection`].
    pub fn require_labels(self) -> Result<Arc<LabelIndex>, SnapshotError> {
        self.labels.ok_or(SnapshotError::MissingSection {
            section: SectionTag::LABELS,
        })
    }

    /// The road network, or [`SnapshotError::MissingSection`].
    pub fn require_graph(self) -> Result<Graph, SnapshotError> {
        self.graph.ok_or(SnapshotError::MissingSection {
            section: SectionTag::GRAPH,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ah_core::BuildConfig;

    #[test]
    fn graph_roundtrips_in_memory() {
        let g = ah_data::fixtures::lattice(5, 4, 12);
        let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g));
        let loaded = Snapshot::from_bytes(&bytes).unwrap().require_graph().unwrap();
        assert_eq!(loaded.num_nodes(), g.num_nodes());
        assert_eq!(loaded.num_edges(), g.num_edges());
        for v in g.node_ids() {
            assert_eq!(loaded.out_edges(v), g.out_edges(v));
            assert_eq!(loaded.in_edges(v), g.in_edges(v));
            assert_eq!(loaded.coord(v), g.coord(v));
        }
    }

    #[test]
    fn ah_and_ch_roundtrip_with_identical_answers() {
        let g = ah_data::fixtures::lattice(8, 8, 14);
        let ah = AhIndex::build(&g, &BuildConfig::default());
        let ch = ah_ch::ChIndex::build(&g);
        let bytes = Snapshot::to_bytes(SnapshotContents::new().ah(&ah).ch(&ch));
        let loaded = Snapshot::from_bytes(&bytes).unwrap();
        let (ah2, ch2) = (loaded.ah.unwrap(), loaded.ch.unwrap());
        assert_eq!(ah2.stats(), ah.stats());
        assert_eq!(ch2.num_shortcuts(), ch.num_shortcuts());

        let mut q1 = ah_core::AhQuery::new();
        let mut q2 = ah_core::AhQuery::new();
        let mut c1 = ah_ch::ChQuery::new();
        let mut c2 = ah_ch::ChQuery::new();
        for s in (0..64).step_by(5) {
            for t in (0..64).step_by(7) {
                assert_eq!(
                    q2.distance_full(&ah2, s, t),
                    q1.distance_full(&ah, s, t),
                    "AH ({s},{t})"
                );
                assert_eq!(
                    c2.distance_full(&ch2, s, t),
                    c1.distance_full(&ch, s, t),
                    "CH ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn labels_roundtrip_with_identical_answers() {
        let g = ah_data::fixtures::lattice(7, 7, 12);
        let ch = ah_ch::ChIndex::build(&g);
        let labels = ah_labels::LabelIndex::build(&g, ch.order());
        let bytes = Snapshot::to_bytes(SnapshotContents::new().labels(&labels));
        let loaded = Snapshot::from_bytes(&bytes).unwrap().require_labels().unwrap();
        assert_eq!(loaded.stats(), labels.stats());
        for s in (0..49).step_by(3) {
            for t in (0..49).step_by(5) {
                assert_eq!(
                    loaded.distance_full(s, t),
                    labels.distance_full(s, t),
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn missing_sections_are_typed() {
        let g = ah_data::fixtures::ring(6);
        let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g));
        let loaded = Snapshot::from_bytes(&bytes).unwrap();
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap().require_labels(),
            Err(SnapshotError::MissingSection { section }) if section == SectionTag::LABELS
        ));
        assert!(loaded.require_graph().is_ok());
    }

    #[test]
    fn write_is_atomic_and_loadable() {
        let g = ah_data::fixtures::lattice(4, 4, 10);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ah_store_atomic_{}.snap", std::process::id()));
        let size = Snapshot::write(&path, SnapshotContents::new().graph(&g)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        let tmp = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        assert!(!tmp.exists(), "tmp renamed away");
        let loaded = Snapshot::load(&path).unwrap();
        assert_eq!(loaded.graph.unwrap().num_nodes(), g.num_nodes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_roundtrips_with_identical_answers() {
        use ah_shard::{ShardConfig, ShardedIndex, ShardedQuery};
        let g = ah_data::fixtures::lattice(8, 8, 14);
        let sh = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 4,
                ..Default::default()
            },
        );
        let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g).sharded(&sh));
        let loaded = Snapshot::from_bytes(&bytes).unwrap();
        // The auto-included global AH section decodes standalone too.
        assert_eq!(loaded.ah.as_ref().unwrap().num_nodes(), g.num_nodes());
        let sh2 = loaded.sharded.unwrap();
        assert_eq!(sh2.stats(), sh.stats());
        assert_eq!(sh2.border_nodes(), sh.border_nodes());
        assert_eq!(sh2.matrix(), sh.matrix());

        let mut q1 = ShardedQuery::new();
        let mut q2 = ShardedQuery::new();
        for s in (0..64).step_by(5) {
            for t in (0..64).step_by(7) {
                assert_eq!(q2.distance(&sh2, s, t), q1.distance(&sh, s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn sharded_snapshot_requires_the_graph_section() {
        use ah_shard::{ShardConfig, ShardedIndex};
        let g = ah_data::fixtures::lattice(5, 5, 10);
        let sh = ShardedIndex::build(&g, &ShardConfig::default());
        let path = std::env::temp_dir().join(format!(
            "ah_store_shard_nograph_{}.snap",
            std::process::id()
        ));
        assert!(matches!(
            Snapshot::write(&path, SnapshotContents::new().sharded(&sh)),
            Err(SnapshotError::MissingSection { section }) if section == SectionTag::GRAPH
        ));
        assert!(!path.exists());
    }

    #[test]
    fn forged_sharded_meta_is_rejected_typed() {
        use ah_shard::{ShardConfig, ShardedIndex};
        let g = ah_data::fixtures::lattice(6, 6, 12);
        let sh = ShardedIndex::build(
            &g,
            &ShardConfig {
                shards: 2,
                ..Default::default()
            },
        );
        // Re-pair the sharded sections with a graph of a *different
        // node count*: the skeleton recomputation must notice.
        let smaller = ah_data::fixtures::lattice(3, 3, 12);
        let mismatched =
            Snapshot::to_bytes(SnapshotContents::new().graph(&smaller).sharded(&sh));
        assert!(matches!(
            Snapshot::from_bytes(&mismatched),
            Err(SnapshotError::Malformed { section, .. }) if section == SectionTag::SHARDS
        ));
        // Same node count but moved geometry (spacing 20 vs 12): the
        // graph-derived partition drifts from the persisted one.
        let moved = ah_data::fixtures::lattice(6, 6, 20);
        let drifted =
            Snapshot::to_bytes(SnapshotContents::new().graph(&moved).sharded(&sh));
        assert!(
            Snapshot::from_bytes(&drifted).is_err(),
            "a drifted partition must not load silently"
        );
    }

    #[test]
    fn load_of_missing_file_is_io_error() {
        let err = match Snapshot::load("/nonexistent/definitely/not/here.snap") {
            Err(e) => e,
            Ok(_) => panic!("expected an I/O error"),
        };
        assert!(matches!(err, SnapshotError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }
}
