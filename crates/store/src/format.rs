//! The snapshot container: magic, version, section table, checksums.
//!
//! This module implements the normative layout documented in
//! `docs/FORMAT.md`:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "AHSNAP\r\n"
//! 8       2     format version (u16 LE)
//! 10      2     section count  (u16 LE)
//! 12      4     reserved (zero)
//! 16      32×k  section table: tag[8] | offset u64 | len u64 | crc64 u64
//! 16+32k  8     crc64 of bytes [0, 16+32k)
//! …       …     section payloads, each starting on an 8-byte boundary
//! ```
//!
//! The magic embeds `\r\n` (the PNG trick) so ASCII-mode transfers that
//! rewrite line endings are caught by the very first check. Per-section
//! CRC-64 checksums (see [`crate::crc`]) are verified *before* any payload
//! byte is interpreted; the table itself is covered by a trailing CRC so a
//! damaged offset can never point a reader at the wrong bytes.

use crate::crc::crc64;
use crate::error::SnapshotError;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"AHSNAP\r\n";

/// Current format version. Any layout change — field order, element
/// encoding, section semantics — must bump this, and loaders refuse files
/// with a newer version than they understand.
///
/// History: **1** graph/AH/CH sections; **2** adds the sharded-snapshot
/// sections (`shards` metadata + one `shardNNN` AH payload per
/// non-empty shard); **3** adds the hub-labeling section (`labels`) with
/// its new 24-byte label-entry element encoding and cross-section
/// semantics (a labels-backed server answers paths from the `ah.index`
/// section); **4** adds the weight-delta section (`delta`): incremental
/// edge re-weights (closures as `u32::MAX` weight) against a named base
/// graph, cross-checked on load against the `graph` section's content
/// id; **5** stores only what queries read: the contraction-hierarchy
/// sub-block keeps its two upward views (the downward ones are gone) and
/// an elevating chain is its interior node ids (`u32`) instead of a
/// 32-byte record per hierarchy arc. This changes the `ah.index`,
/// `ch.index` and `shardNNN` payloads. The `graph`, `labels` and `delta`
/// sections of every version 1–5 file still load; the index sections of
/// a version 1–4 file are refused with [`SnapshotError::StaleIndex`]
/// (rebuild them from the graph).
pub const VERSION: u16 = 5;

/// The version the current `ah.index`, `ch.index` and `shardNNN` payload
/// layout dates from; older index payloads are refused, never misread.
pub(crate) const MIN_INDEX_VERSION: u16 = 5;

/// Fixed header bytes before the section table.
pub const HEADER_LEN: usize = 16;

/// Bytes per section-table entry.
pub const TABLE_ENTRY_LEN: usize = 32;

/// An eight-byte ASCII section identifier, NUL-padded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectionTag(pub [u8; 8]);

impl SectionTag {
    /// The road network (`ah_graph::Graph`).
    pub const GRAPH: SectionTag = SectionTag(*b"graph\0\0\0");
    /// The Arterial Hierarchy index (`ah_core::AhIndex`).
    pub const AH: SectionTag = SectionTag(*b"ah.index");
    /// The Contraction Hierarchies index (`ah_ch::ChIndex`).
    pub const CH: SectionTag = SectionTag(*b"ch.index");
    /// Sharded-snapshot metadata (`ah_shard::ShardedIndex`): shard
    /// count, certification flag, boundary matrix, reentry pairs.
    pub const SHARDS: SectionTag = SectionTag(*b"shards\0\0");
    /// The hub-labeling index (`ah_labels::LabelIndex`), format v3.
    pub const LABELS: SectionTag = SectionTag(*b"labels\0\0");
    /// The incremental weight delta (`ah_graph::WeightDelta`), format
    /// v4: edge re-weights against a named base graph.
    pub const DELTA: SectionTag = SectionTag(*b"delta\0\0\0");

    /// The per-shard AH index section for shard `slot`
    /// (`shard000` … `shard255`; payload encoding identical to
    /// [`SectionTag::AH`]). Empty shards have no section.
    ///
    /// # Panics
    /// Panics if `slot` exceeds 255 (`ah_shard::MAX_SHARDS` keeps real
    /// indexes below this).
    pub fn shard_slot(slot: usize) -> SectionTag {
        assert!(slot < 256, "shard slot {slot} out of tag range");
        let mut tag = *b"shard\0\0\0";
        tag[5] = b'0' + (slot / 100) as u8;
        tag[6] = b'0' + (slot / 10 % 10) as u8;
        tag[7] = b'0' + (slot % 10) as u8;
        SectionTag(tag)
    }
}

impl std::fmt::Display for SectionTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &b in self.0.iter().take_while(|&&b| b != 0) {
            write!(f, "{}", b as char)?;
        }
        Ok(())
    }
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// Section identifier.
    pub tag: SectionTag,
    /// Absolute payload offset (8-aligned).
    pub offset: u64,
    /// Payload length in bytes (excluding inter-section padding).
    pub len: u64,
    /// CRC-64/XZ of the payload bytes.
    pub crc: u64,
}

/// Assembles a snapshot container in memory.
#[derive(Default)]
pub struct ContainerWriter {
    sections: Vec<(SectionTag, Vec<u8>)>,
}

impl ContainerWriter {
    /// Starts an empty container.
    pub fn new() -> Self {
        ContainerWriter::default()
    }

    /// Appends one section. Order is preserved in the file.
    pub fn add_section(&mut self, tag: SectionTag, payload: Vec<u8>) {
        debug_assert!(
            !self.sections.iter().any(|(t, _)| *t == tag),
            "duplicate section {tag}"
        );
        self.sections.push((tag, payload));
    }

    /// Produces the complete file image: header, table, table CRC,
    /// padded payloads.
    pub fn finish(self) -> Vec<u8> {
        let count = self.sections.len();
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * count;
        // Trailing table CRC keeps the first payload 8-aligned:
        // 16 + 32k + 8 ≡ 0 (mod 8).
        let mut cursor = (table_end + 8) as u64;
        let mut entries = Vec::with_capacity(count);
        for (tag, payload) in &self.sections {
            entries.push(SectionEntry {
                tag: *tag,
                offset: cursor,
                len: payload.len() as u64,
                crc: crc64(payload),
            });
            cursor += payload.len() as u64;
            cursor = cursor.next_multiple_of(8);
        }

        let mut out = Vec::with_capacity(cursor as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(count as u16).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for e in &entries {
            out.extend_from_slice(&e.tag.0);
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
        }
        let table_crc = crc64(&out);
        out.extend_from_slice(&table_crc.to_le_bytes());
        for (entry, (_, payload)) in entries.iter().zip(&self.sections) {
            debug_assert_eq!(out.len() as u64, entry.offset);
            out.extend_from_slice(payload);
            while out.len() % 8 != 0 {
                out.push(0);
            }
        }
        out
    }
}

/// A parsed, checksum-verified container over a byte buffer.
pub struct Container<'a> {
    data: &'a [u8],
    version: u16,
    entries: Vec<SectionEntry>,
}

impl<'a> Container<'a> {
    /// Parses and fully verifies a container: magic, version, table CRC,
    /// section bounds and every section's payload CRC. After `parse`
    /// succeeds, section payloads can be handed to decoders without
    /// further integrity concerns.
    pub fn parse(data: &'a [u8]) -> Result<Self, SnapshotError> {
        let need = |n: u64| -> Result<(), SnapshotError> {
            if (data.len() as u64) < n {
                Err(SnapshotError::Truncated {
                    needed: n,
                    available: data.len() as u64,
                })
            } else {
                Ok(())
            }
        };
        need(HEADER_LEN as u64)?;
        if data[0..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes(data[8..10].try_into().unwrap());
        // Versions start at 1; 0 has never existed, so it is just as
        // unreadable as a future version.
        if version == 0 || version > VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let count = u16::from_le_bytes(data[10..12].try_into().unwrap()) as usize;
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * count;
        need((table_end + 8) as u64)?;
        let stored_table_crc =
            u64::from_le_bytes(data[table_end..table_end + 8].try_into().unwrap());
        if crc64(&data[..table_end]) != stored_table_crc {
            return Err(SnapshotError::TableChecksumMismatch);
        }

        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let e = SectionEntry {
                tag: SectionTag(data[at..at + 8].try_into().unwrap()),
                offset: u64::from_le_bytes(data[at + 8..at + 16].try_into().unwrap()),
                len: u64::from_le_bytes(data[at + 16..at + 24].try_into().unwrap()),
                crc: u64::from_le_bytes(data[at + 24..at + 32].try_into().unwrap()),
            };
            if entries.iter().any(|p: &SectionEntry| p.tag == e.tag) {
                return Err(SnapshotError::DuplicateSection { section: e.tag });
            }
            if !e.offset.is_multiple_of(8) {
                return Err(SnapshotError::BadLayout("section offset not 8-aligned"));
            }
            if e.offset < (table_end + 8) as u64 {
                return Err(SnapshotError::BadLayout("section overlaps the header"));
            }
            let end = e
                .offset
                .checked_add(e.len)
                .ok_or(SnapshotError::BadLayout("section range overflows"))?;
            need(end)?;
            let payload = &data[e.offset as usize..end as usize];
            if crc64(payload) != e.crc {
                return Err(SnapshotError::SectionChecksumMismatch { section: e.tag });
            }
            entries.push(e);
        }
        // No two sections may share bytes: a forged table aliasing one
        // payload under two tags is rejected even though each range's
        // checksum verifies.
        let mut ranges: Vec<(u64, u64)> = entries.iter().map(|e| (e.offset, e.len)).collect();
        ranges.sort_unstable();
        if ranges
            .windows(2)
            .any(|w| w[0].0 + w[0].1 > w[1].0)
        {
            return Err(SnapshotError::BadLayout("section ranges overlap"));
        }
        Ok(Container {
            data,
            version,
            entries,
        })
    }

    /// The verified payload of `tag`, if present.
    pub fn section(&self, tag: SectionTag) -> Option<&'a [u8]> {
        self.entries
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| &self.data[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// The verified payload of the index section `tag` (`ah.index`,
    /// `ch.index` or `shardNNN`), if present. An index payload from a file
    /// older than version 5 has a layout this build no longer decodes, so
    /// it fails with [`SnapshotError::StaleIndex`] instead.
    pub(crate) fn index_section(
        &self,
        tag: SectionTag,
    ) -> Result<Option<&'a [u8]>, SnapshotError> {
        match self.section(tag) {
            Some(_) if self.version < MIN_INDEX_VERSION => Err(SnapshotError::StaleIndex {
                section: tag,
                found: self.version,
            }),
            payload => Ok(payload),
        }
    }

    /// The parsed section table (spec tooling and tests).
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_image() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.add_section(SectionTag::GRAPH, vec![1, 2, 3]);
        w.add_section(SectionTag::AH, vec![4; 16]);
        w.finish()
    }

    #[test]
    fn writer_parser_roundtrip() {
        let img = two_section_image();
        let c = Container::parse(&img).unwrap();
        assert_eq!(c.section(SectionTag::GRAPH).unwrap(), &[1, 2, 3]);
        assert_eq!(c.section(SectionTag::AH).unwrap(), &[4; 16]);
        assert!(c.section(SectionTag::CH).is_none());
        for e in c.entries() {
            assert_eq!(e.offset % 8, 0, "section {} misaligned", e.tag);
        }
    }

    #[test]
    fn bad_magic_detected() {
        let mut img = two_section_image();
        img[0] ^= 0xFF;
        assert!(matches!(
            Container::parse(&img),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn newline_translation_detected() {
        // An ASCII-mode transfer turning \r\n into \n shifts every byte;
        // the magic check alone must catch it.
        let img = two_section_image();
        let mangled: Vec<u8> = {
            let mut out = Vec::new();
            let mut i = 0;
            while i < img.len() {
                if img[i] == b'\r' && img.get(i + 1) == Some(&b'\n') {
                    out.push(b'\n');
                    i += 2;
                } else {
                    out.push(img[i]);
                    i += 1;
                }
            }
            out
        };
        assert!(matches!(
            Container::parse(&mangled),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_refused() {
        let mut img = two_section_image();
        img[8..10].copy_from_slice(&(VERSION + 1).to_le_bytes());
        // The version bump also breaks the table CRC; patch it so the
        // version check is what fires.
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * 2;
        let crc = crc64(&img[..table_end]).to_le_bytes();
        img[table_end..table_end + 8].copy_from_slice(&crc);
        assert!(matches!(
            Container::parse(&img),
            Err(SnapshotError::UnsupportedVersion { found, .. }) if found == VERSION + 1
        ));
    }

    #[test]
    fn version_zero_refused() {
        let mut img = two_section_image();
        img[8..10].copy_from_slice(&0u16.to_le_bytes());
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * 2;
        let crc = crc64(&img[..table_end]).to_le_bytes();
        img[table_end..table_end + 8].copy_from_slice(&crc);
        assert!(matches!(
            Container::parse(&img),
            Err(SnapshotError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn table_corruption_detected() {
        let mut img = two_section_image();
        img[HEADER_LEN + 9] ^= 0x01; // an offset byte in entry 0
        assert!(matches!(
            Container::parse(&img),
            Err(SnapshotError::TableChecksumMismatch)
        ));
    }

    #[test]
    fn payload_corruption_detected() {
        let mut img = two_section_image();
        let last = img.len() - 4; // inside the second payload
        img[last] ^= 0x40;
        assert!(matches!(
            Container::parse(&img),
            Err(SnapshotError::SectionChecksumMismatch { section }) if section == SectionTag::AH
        ));
    }

    #[test]
    fn overlapping_sections_rejected() {
        // Forge a table whose second entry aliases the first payload,
        // with every checksum recomputed to verify — only the overlap
        // check can catch it.
        let mut img = two_section_image();
        let e0_off =
            u64::from_le_bytes(img[HEADER_LEN + 8..HEADER_LEN + 16].try_into().unwrap());
        let e0_len =
            u64::from_le_bytes(img[HEADER_LEN + 16..HEADER_LEN + 24].try_into().unwrap());
        let e1 = HEADER_LEN + TABLE_ENTRY_LEN;
        img[e1 + 8..e1 + 16].copy_from_slice(&e0_off.to_le_bytes());
        img[e1 + 16..e1 + 24].copy_from_slice(&e0_len.to_le_bytes());
        let payload_crc =
            crc64(&img[e0_off as usize..(e0_off + e0_len) as usize]).to_le_bytes();
        img[e1 + 24..e1 + 32].copy_from_slice(&payload_crc);
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * 2;
        let table_crc = crc64(&img[..table_end]).to_le_bytes();
        img[table_end..table_end + 8].copy_from_slice(&table_crc);
        assert!(matches!(
            Container::parse(&img),
            Err(SnapshotError::BadLayout(_))
        ));
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let img = two_section_image();
        for cut in 0..img.len() {
            match Container::parse(&img[..cut]) {
                Err(
                    SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::TableChecksumMismatch
                    | SnapshotError::SectionChecksumMismatch { .. },
                ) => {}
                Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
                Ok(_) => panic!("cut at {cut}: truncated file parsed"),
            }
        }
    }

    #[test]
    fn empty_container_roundtrips() {
        let img = ContainerWriter::new().finish();
        let c = Container::parse(&img).unwrap();
        assert!(c.entries().is_empty());
    }
}
