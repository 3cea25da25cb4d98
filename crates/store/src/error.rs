//! Typed snapshot failure modes.
//!
//! Every way a snapshot load can fail maps to one variant here — the
//! loader never panics and never constructs a partially valid object. The
//! variants are ordered roughly by how early the failure is detected:
//! I/O, then container framing (magic/version/table), then per-section
//! checksums, then payload decoding.

use crate::format::SectionTag;

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file-system failure (open, read, rename, …).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a snapshot
    /// at all, or the header bytes were damaged.
    BadMagic,
    /// The file declares a format version this reader does not speak —
    /// newer than this build, or the never-assigned version 0. Layout
    /// changes bump [`crate::format::VERSION`]; old readers must refuse
    /// newer files rather than misread them.
    UnsupportedVersion {
        /// Version found in the file.
        found: u16,
        /// Newest version this build understands.
        supported: u16,
    },
    /// The file ends before the promised bytes: a truncated download or a
    /// partially flushed write (the atomic tmp+rename in
    /// [`crate::Snapshot::write`] prevents the latter on the happy path).
    Truncated {
        /// Bytes the container layout requires.
        needed: u64,
        /// Bytes actually present.
        available: u64,
    },
    /// The header/section-table checksum does not match: the table cannot
    /// be trusted, so no section is readable.
    TableChecksumMismatch,
    /// A section's payload checksum does not match its table entry.
    SectionChecksumMismatch {
        /// The damaged section.
        section: SectionTag,
    },
    /// The container is internally inconsistent (overlapping or
    /// out-of-bounds section ranges, misaligned offsets).
    BadLayout(&'static str),
    /// A required section is absent from the file.
    MissingSection {
        /// The section the caller needed.
        section: SectionTag,
    },
    /// The same tag appears twice in the section table.
    DuplicateSection {
        /// The repeated section.
        section: SectionTag,
    },
    /// The `delta` section names a different base graph than the
    /// snapshot's `graph` section (by `ah_graph::Graph::content_id`):
    /// the changes were cut against another generation of the network
    /// and applying them would produce weights that never coexisted.
    DeltaBaseMismatch {
        /// Base graph content id the delta was cut against.
        expected: u64,
        /// Content id of the graph actually in the snapshot.
        found: u64,
    },
    /// An index section (`ah.index`, `ch.index` or `shardNNN`) comes from
    /// a file older than format version 5, whose index layout this build
    /// no longer decodes. The file's `graph` section still loads: rebuild
    /// the index from it and write a fresh snapshot.
    StaleIndex {
        /// The refused section.
        section: SectionTag,
        /// Version found in the file.
        found: u16,
    },
    /// A section passed its checksum but its payload violates a structural
    /// invariant (CSR shape, index bounds, …) — an encoder bug or a
    /// deliberately forged file.
    Malformed {
        /// The offending section.
        section: SectionTag,
        /// The violated invariant.
        reason: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this reader implements version {supported})"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needs {needed} bytes, found {available}"
            ),
            SnapshotError::TableChecksumMismatch => {
                write!(f, "snapshot header/section-table checksum mismatch")
            }
            SnapshotError::SectionChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            SnapshotError::BadLayout(reason) => {
                write!(f, "inconsistent snapshot layout: {reason}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot has no `{section}` section")
            }
            SnapshotError::DuplicateSection { section } => {
                write!(f, "section `{section}` appears twice")
            }
            SnapshotError::DeltaBaseMismatch { expected, found } => write!(
                f,
                "delta section was cut against base graph {expected:#018x}, but the snapshot's graph is {found:#018x}"
            ),
            SnapshotError::StaleIndex { section, found } => write!(
                f,
                "section `{section}` was written by snapshot format version {found}, \
                 whose index layout this reader no longer decodes (version {} and later): \
                 rebuild the index and write a new snapshot",
                crate::format::MIN_INDEX_VERSION
            ),
            SnapshotError::Malformed { section, reason } => {
                write!(f, "malformed `{section}` section: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}
