//! Golden-bytes test: pins the exact on-disk encoding of a tiny fixture.
//!
//! The hexdump below is the *same* worked example documented in
//! `docs/FORMAT.md`. If an encoder change breaks this test, the change is
//! a format change: bump `ah_store::VERSION`, update `docs/FORMAT.md`'s
//! spec and worked example, and regenerate the expected bytes here (run
//! the test with `--nocapture` after deleting the assertion to print the
//! new dump).

use ah_graph::{GraphBuilder, Point};
use ah_store::{Snapshot, SnapshotContents};

/// The fixture: two nodes at (0,0) and (3,4), one bidirectional edge of
/// weight 7 (two directed arcs with deterministic nuances).
fn tiny_graph() -> ah_graph::Graph {
    let mut b = GraphBuilder::new();
    let a = b.add_node(Point::new(0, 0));
    let c = b.add_node(Point::new(3, 4));
    b.add_bidirectional_edge(a, c, 7);
    b.build()
}

fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        out.push_str(&format!("{:08x} ", i * 16));
        for b in chunk {
            out.push_str(&format!(" {b:02x}"));
        }
        out.push('\n');
    }
    out
}

#[test]
fn tiny_fixture_bytes_are_stable() {
    let g = tiny_graph();
    let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g));
    let dump = hexdump(&bytes);
    println!("{dump}");

    let expected = "\
00000000  41 48 53 4e 41 50 0d 0a 05 00 01 00 00 00 00 00
00000010  67 72 61 70 68 00 00 00 38 00 00 00 00 00 00 00
00000020  90 00 00 00 00 00 00 00 17 57 bf 83 fb c6 2b ae
00000030  5b 1f 85 6a 30 20 f6 33 02 00 00 00 00 00 00 00
00000040  03 00 00 00 00 00 00 00 00 00 00 00 01 00 00 00
00000050  02 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00
00000060  01 00 00 00 07 00 00 00 6e a4 d1 00 00 00 00 00
00000070  07 00 00 00 cc 3b ef 00 03 00 00 00 00 00 00 00
00000080  00 00 00 00 01 00 00 00 02 00 00 00 00 00 00 00
00000090  02 00 00 00 00 00 00 00 01 00 00 00 07 00 00 00
000000a0  cc 3b ef 00 00 00 00 00 07 00 00 00 6e a4 d1 00
000000b0  02 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00
000000c0  03 00 00 00 04 00 00 00
";
    assert_eq!(dump, expected, "on-disk encoding changed — see module docs");

    // And the canonical sanity check: those bytes load back.
    let loaded = Snapshot::from_bytes(&bytes).unwrap().require_graph().unwrap();
    assert_eq!(loaded.num_nodes(), 2);
    assert_eq!(loaded.edge_weight(0, 1), Some(7));
    assert_eq!(loaded.edge_weight(1, 0), Some(7));
}

/// The `delta` section of the same fixture, re-weighting the 0 → 1 arc
/// to 9 and closing 1 → 0: base content id, change count, then one
/// 16-byte record per change. This is the worked delta example in
/// `docs/FORMAT.md`.
#[test]
fn tiny_delta_bytes_are_stable() {
    use ah_graph::{WeightChange, WeightDelta};
    let g = tiny_graph();
    let delta = WeightDelta::new(
        &g,
        [WeightChange::new(0, 1, 9), WeightChange::close(1, 0)],
    )
    .unwrap();
    let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g).delta(&delta));
    let dump = hexdump(&bytes);
    println!("{dump}");

    let expected = "\
00000000  41 48 53 4e 41 50 0d 0a 05 00 02 00 00 00 00 00
00000010  67 72 61 70 68 00 00 00 58 00 00 00 00 00 00 00
00000020  90 00 00 00 00 00 00 00 17 57 bf 83 fb c6 2b ae
00000030  64 65 6c 74 61 00 00 00 e8 00 00 00 00 00 00 00
00000040  30 00 00 00 00 00 00 00 5b 45 6f 91 8c 85 65 3f
00000050  50 29 6c b7 d2 08 af f1 02 00 00 00 00 00 00 00
00000060  03 00 00 00 00 00 00 00 00 00 00 00 01 00 00 00
00000070  02 00 00 00 00 00 00 00 02 00 00 00 00 00 00 00
00000080  01 00 00 00 07 00 00 00 6e a4 d1 00 00 00 00 00
00000090  07 00 00 00 cc 3b ef 00 03 00 00 00 00 00 00 00
000000a0  00 00 00 00 01 00 00 00 02 00 00 00 00 00 00 00
000000b0  02 00 00 00 00 00 00 00 01 00 00 00 07 00 00 00
000000c0  cc 3b ef 00 00 00 00 00 07 00 00 00 6e a4 d1 00
000000d0  02 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00
000000e0  03 00 00 00 04 00 00 00 35 e4 96 d1 ce c2 17 35
000000f0  02 00 00 00 00 00 00 00 00 00 00 00 01 00 00 00
00000100  09 00 00 00 00 00 00 00 01 00 00 00 00 00 00 00
00000110  ff ff ff ff 00 00 00 00
";
    assert_eq!(dump, expected, "delta encoding changed — see module docs");

    let loaded = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.delta.unwrap(), delta);
}

/// A single flipped bit anywhere in the delta payload is caught by the
/// section checksum and attributed to the `delta` section — a damaged
/// update feed can never patch live weights.
#[test]
fn delta_payload_bit_flip_is_detected() {
    use ah_graph::{WeightChange, WeightDelta};
    use ah_store::{SectionTag, SnapshotError};
    let g = tiny_graph();
    let delta = WeightDelta::new(&g, [WeightChange::close(0, 1)]).unwrap();
    let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g).delta(&delta));

    // The delta is the last section written, so the file's final byte
    // (a change record's nuance-free weight bytes) is inside it.
    let mut img = bytes.clone();
    *img.last_mut().unwrap() ^= 0x01;
    match Snapshot::from_bytes(&img).err() {
        Some(SnapshotError::SectionChecksumMismatch { section }) => {
            assert_eq!(section, SectionTag::DELTA, "damage must name the delta section");
        }
        other => panic!("corrupt delta accepted or mistyped: {other:?}"),
    }
}

/// A delta whose base id names a *different* graph than the snapshot's
/// own graph section is refused typed — by the writer up front, and by
/// the loader even when the payload checksums are deliberately
/// re-sealed (a forged file, not line noise).
#[test]
fn forged_delta_base_id_is_rejected_typed() {
    use ah_graph::{WeightChange, WeightDelta};
    use ah_store::{crc64, SnapshotError};
    let g = tiny_graph();
    let delta = WeightDelta::new(&g, [WeightChange::new(0, 1, 9)]).unwrap();

    // Writer: a delta cut against some other graph never hits disk.
    let mut other = GraphBuilder::new();
    let a = other.add_node(Point::new(0, 0));
    let c = other.add_node(Point::new(3, 4));
    other.add_bidirectional_edge(a, c, 8); // different weight → different id
    let other = other.build();
    let stale = WeightDelta::new(&other, [WeightChange::new(0, 1, 9)]).unwrap();
    let path = std::env::temp_dir().join(format!("ah_forged_base_{}.snap", std::process::id()));
    match Snapshot::write(&path, SnapshotContents::new().graph(&g).delta(&stale)) {
        Err(SnapshotError::DeltaBaseMismatch { expected, found }) => {
            assert_eq!(expected, other.content_id());
            assert_eq!(found, g.content_id());
        }
        other => panic!("mismatched base written or mistyped: {other:?}"),
    }
    std::fs::remove_file(&path).ok();

    // Loader: forge the base id in valid bytes and re-seal both the
    // section CRC and the table CRC, so only the cross-check can object.
    let mut img = Snapshot::to_bytes(SnapshotContents::new().graph(&g).delta(&delta));
    let count = u16::from_le_bytes(img[10..12].try_into().unwrap()) as usize;
    assert_eq!(count, 2, "fixture writes graph + delta");
    let entry = 16 + 32; // second table entry: the delta section
    let off = u64::from_le_bytes(img[entry + 8..entry + 16].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(img[entry + 16..entry + 24].try_into().unwrap()) as usize;
    let forged_id = 0xDEAD_BEEF_u64;
    img[off..off + 8].copy_from_slice(&forged_id.to_le_bytes());
    let section_crc = crc64(&img[off..off + len]).to_le_bytes();
    img[entry + 24..entry + 32].copy_from_slice(&section_crc);
    let table_end = 16 + 32 * count;
    let table_crc = crc64(&img[..table_end]).to_le_bytes();
    img[table_end..table_end + 8].copy_from_slice(&table_crc);
    match Snapshot::from_bytes(&img).err() {
        Some(SnapshotError::DeltaBaseMismatch { expected, found }) => {
            assert_eq!(expected, forged_id);
            assert_eq!(found, g.content_id());
        }
        other => panic!("forged base id accepted or mistyped: {other:?}"),
    }
}

/// `bytes` restamped with format version `version`, the table CRC
/// re-sealed the way a writer of that version would have.
fn restamped(bytes: &[u8], version: u16) -> Vec<u8> {
    let mut img = bytes.to_vec();
    img[8..10].copy_from_slice(&version.to_le_bytes());
    let count = u16::from_le_bytes(img[10..12].try_into().unwrap()) as usize;
    let table_end = 16 + 32 * count;
    let crc = ah_store::crc64(&img[..table_end]).to_le_bytes();
    img[table_end..table_end + 8].copy_from_slice(&crc);
    img
}

/// Compatibility floor: the very same graph payload stamped with every
/// previous format version still loads. No bump since v1 changed the
/// `graph` section (v5 changed only the index sections), so those files
/// must keep working.
#[test]
fn older_version_stamps_still_load() {
    let g = tiny_graph();
    let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g));
    for old in [1u16, 2, 3, 4] {
        let img = restamped(&bytes, old);
        let loaded = Snapshot::from_bytes(&img)
            .unwrap_or_else(|e| panic!("v{old} file refused: {e}"))
            .require_graph()
            .unwrap();
        assert_eq!(loaded.num_nodes(), 2, "v{old} graph decoded differently");
    }
}

/// A v4-stamped image holding an AH index: v5 changed the `ah.index` and
/// `ch.index` layouts, so their pre-v5 payloads are refused with a typed
/// error naming the section, never decoded under the new layout. The
/// `graph`, `labels` and `delta` sections still load from a v4 image.
#[test]
fn v4_stamped_index_sections_are_refused_as_stale() {
    use ah_core::{AhIndex, BuildConfig};
    use ah_graph::{WeightChange, WeightDelta};
    use ah_store::{SectionTag, SnapshotError};

    let g = ah_data::fixtures::lattice(4, 4, 10);
    let ah = AhIndex::build(&g, &BuildConfig::default());
    let ch = ah_ch::ChIndex::build(&g);
    let delta = WeightDelta::new(&g, [WeightChange::new(0, 1, 99)]).unwrap();
    for (contents, section) in [
        (SnapshotContents::new().graph(&g).ah(&ah), SectionTag::AH),
        (SnapshotContents::new().ch(&ch), SectionTag::CH),
    ] {
        let img = restamped(&Snapshot::to_bytes(contents), 4);
        match Snapshot::from_bytes(&img).err() {
            Some(e @ SnapshotError::StaleIndex { section: s, found: 4 }) if s == section => {
                let text = e.to_string();
                assert!(text.contains(&format!("`{section}`")) && text.contains("rebuild"), "{text}");
            }
            other => panic!("v4 `{section}` decoded or mistyped: {other:?}"),
        }
    }
    let path = std::env::temp_dir().join(format!("ah_v4_stale_{}.snap", std::process::id()));
    let img = restamped(&Snapshot::to_bytes(SnapshotContents::new().graph(&g).ah(&ah)), 4);
    std::fs::write(&path, &img).unwrap();
    assert!(matches!(
        Snapshot::load_ah(&path),
        Err(SnapshotError::StaleIndex { found: 4, .. })
    ));
    std::fs::remove_file(&path).ok();

    let labels = ah_labels::LabelIndex::build(&g, ch.order());
    let contents = SnapshotContents::new().graph(&g).labels(&labels).delta(&delta);
    let img = restamped(&Snapshot::to_bytes(contents), 4);
    let loaded = Snapshot::from_bytes(&img).expect("v4 graph + labels + delta load");
    assert_eq!(loaded.graph.unwrap().num_nodes(), 16);
    assert_eq!(loaded.labels.unwrap().raw_parts(), labels.raw_parts());
    assert_eq!(loaded.delta.unwrap(), delta);
}
