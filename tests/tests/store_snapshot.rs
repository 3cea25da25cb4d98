//! Snapshot persistence: round-trip identity and failure-path coverage.
//!
//! The contract under test (ISSUE 3 acceptance criteria):
//!
//! * `Snapshot::load(Snapshot::write(idx))` answers **every** Q1–Q10
//!   query bit-identically (including the nuance tie-break component) to
//!   the index it was written from, for both AH and CH;
//! * every corruption mode — truncation, flipped payload byte, wrong
//!   magic, future version, damaged section table — surfaces as a typed
//!   [`SnapshotError`], never a panic or a silently wrong index.

use ah_ch::{ChIndex, ChQuery};
use ah_core::{AhIndex, AhQuery, BuildConfig};
use ah_store::{crc64, Snapshot, SnapshotContents, SnapshotError, VERSION};

fn road_network() -> ah_graph::Graph {
    ah_data::hierarchical_grid(&ah_data::HierarchicalGridConfig {
        width: 12,
        height: 12,
        one_way: 0.15,
        seed: 0xC0FFEE,
        ..Default::default()
    })
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ah_snapshot_{name}_{}.snap", std::process::id()))
}

/// The tentpole guarantee: a reloaded snapshot is indistinguishable from
/// the index it was written from, on every one of the paper's ten
/// distance-stratified query sets.
#[test]
fn roundtrip_is_bit_identical_on_q1_to_q10() {
    let g = road_network();
    let query_sets = ah_workload::generate_query_sets(&g, 25, 0xF16);
    assert_eq!(query_sets.len(), 10, "Q1..Q10");

    let ah = AhIndex::build(&g, &BuildConfig::default());
    let ch = ChIndex::build(&g);

    let path = tmp("roundtrip");
    Snapshot::write(&path, SnapshotContents::new().graph(&g).ah(&ah).ch(&ch)).unwrap();
    let loaded = Snapshot::load(&path).unwrap();
    let g2 = loaded.graph.expect("graph section");
    let ah2 = loaded.ah.expect("ah section");
    let ch2 = loaded.ch.expect("ch section");

    // Structural identity.
    assert_eq!(g2.num_nodes(), g.num_nodes());
    assert_eq!(g2.num_edges(), g.num_edges());
    assert_eq!(ah2.stats(), ah.stats());
    assert_eq!(ah2.size_bytes(), ah.size_bytes());
    assert_eq!(ch2.num_shortcuts(), ch.num_shortcuts());
    assert_eq!(ch2.order(), ch.order());

    // Behavioural identity: every pair of every query set, full Dist
    // (length *and* nuance) so even tie-break bookkeeping must survive.
    let mut ahq_a = AhQuery::new();
    let mut ahq_b = AhQuery::new();
    let mut chq_a = ChQuery::new();
    let mut chq_b = ChQuery::new();
    let mut checked = 0usize;
    for set in &query_sets {
        for &(s, t) in &set.pairs {
            assert_eq!(
                ahq_b.distance_full(&ah2, s, t),
                ahq_a.distance_full(&ah, s, t),
                "AH Q{} ({s},{t})",
                set.index
            );
            assert_eq!(
                chq_b.distance_full(&ch2, s, t),
                chq_a.distance_full(&ch, s, t),
                "CH Q{} ({s},{t})",
                set.index
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "query sets were non-empty");

    // Paths unpack identically through the reloaded elevating chains.
    for set in query_sets.iter().step_by(3) {
        for &(s, t) in set.pairs.iter().take(5) {
            let want = ahq_a.path(&ah, s, t);
            let got = ahq_b.path(&ah2, s, t);
            match (want, got) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.nodes, b.nodes, "Q{} ({s},{t})", set.index);
                    b.verify(&g).unwrap();
                }
                (None, None) => {}
                _ => panic!("path reachability changed for ({s},{t})"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A snapshot of the *graph* rebuilds an index equivalent to one built
/// from the original — the restart path for cold standbys that persist
/// only the network.
#[test]
fn graph_section_supports_rebuild() {
    let g = road_network();
    let path = tmp("graph_only");
    Snapshot::write(&path, SnapshotContents::new().graph(&g)).unwrap();
    let g2 = Snapshot::load(&path).unwrap().require_graph().unwrap();
    for v in g.node_ids() {
        assert_eq!(g2.out_edges(v), g.out_edges(v));
        assert_eq!(g2.in_edges(v), g.in_edges(v));
        assert_eq!(g2.coord(v), g.coord(v));
    }
    std::fs::remove_file(&path).ok();
}

fn small_snapshot_bytes() -> Vec<u8> {
    let g = ah_data::fixtures::lattice(6, 6, 12);
    let ah = AhIndex::build(&g, &BuildConfig::default());
    Snapshot::to_bytes(SnapshotContents::new().graph(&g).ah(&ah))
}

#[test]
fn truncated_file_is_typed_at_every_cut() {
    let bytes = small_snapshot_bytes();
    // Exhaustive near the framing-sensitive head, sampled over the body.
    let cuts = (0..256.min(bytes.len()))
        .chain((256..bytes.len()).step_by(97))
        .chain([bytes.len() - 1]);
    for cut in cuts {
        match Snapshot::from_bytes(&bytes[..cut]) {
            Err(
                SnapshotError::Truncated { .. }
                | SnapshotError::BadMagic
                | SnapshotError::TableChecksumMismatch
                | SnapshotError::SectionChecksumMismatch { .. },
            ) => {}
            Err(e) => panic!("cut {cut}: unexpected error kind {e}"),
            Ok(_) => panic!("cut {cut}: truncated snapshot loaded"),
        }
    }
}

#[test]
fn flipped_payload_byte_is_checksum_mismatch() {
    let bytes = small_snapshot_bytes();
    // Flip one byte well inside the last section's payload.
    let mut corrupt = bytes.clone();
    let at = corrupt.len() - 16;
    corrupt[at] ^= 0x20;
    assert!(matches!(
        Snapshot::from_bytes(&corrupt),
        Err(SnapshotError::SectionChecksumMismatch { .. })
    ));
}

#[test]
fn every_single_byte_flip_is_detected() {
    // Not just detected *somewhere*: no byte of the file is uncovered by
    // a checksum, so any single flip must fail the load with a typed
    // error (which one depends on where the flip lands).
    let g = ah_data::fixtures::ring(10);
    let bytes = Snapshot::to_bytes(SnapshotContents::new().graph(&g));
    for at in (0..bytes.len()).step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x01;
        assert!(
            Snapshot::from_bytes(&corrupt).is_err(),
            "flip at byte {at} went undetected"
        );
    }
}

#[test]
fn wrong_magic_is_bad_magic() {
    let mut bytes = small_snapshot_bytes();
    bytes[..8].copy_from_slice(b"NOTSNAP!");
    assert!(matches!(
        Snapshot::from_bytes(&bytes),
        Err(SnapshotError::BadMagic)
    ));
    // An empty or foreign file hits the same typed error, not a panic.
    assert!(matches!(
        Snapshot::from_bytes(b""),
        Err(SnapshotError::Truncated { .. })
    ));
    assert!(matches!(
        Snapshot::from_bytes(b"p 1234 graph file, definitely not binary"),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn future_version_is_refused_with_found_version() {
    let mut bytes = small_snapshot_bytes();
    let future = VERSION + 7;
    bytes[8..10].copy_from_slice(&future.to_le_bytes());
    // Re-seal the header/table checksum so the version check itself is
    // exercised (a real future writer would produce a valid table).
    let count = u16::from_le_bytes(bytes[10..12].try_into().unwrap()) as usize;
    let table_end = 16 + 32 * count;
    let crc = crc64(&bytes[..table_end]).to_le_bytes();
    bytes[table_end..table_end + 8].copy_from_slice(&crc);
    match Snapshot::from_bytes(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert_eq!(supported, VERSION);
        }
        Err(e) => panic!("unexpected error kind: {e}"),
        Ok(_) => panic!("future version loaded"),
    }
}

/// The format-v3 labels section round-trips through a real file with
/// bit-identical structure and answers.
#[test]
fn labels_section_roundtrips_through_write_and_load() {
    use ah_labels::LabelIndex;

    let g = road_network();
    let ch = ChIndex::build(&g);
    let labels = LabelIndex::build(&g, ch.order());

    let path = tmp("labels_roundtrip");
    Snapshot::write(&path, SnapshotContents::new().graph(&g).labels(&labels)).unwrap();
    let loaded = Snapshot::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let labels2 = loaded.require_labels().unwrap();

    assert_eq!(labels2.stats(), labels.stats());
    assert_eq!(labels2.raw_parts(), labels.raw_parts());
    let sets = ah_workload::generate_query_sets(&g, 20, 0x1AB);
    for set in &sets {
        for &(s, t) in &set.pairs {
            assert_eq!(
                labels2.distance_full(s, t),
                labels.distance_full(s, t),
                "Q{} ({s},{t})",
                set.index
            );
        }
    }
}

fn labels_snapshot_bytes() -> (Vec<u8>, std::ops::Range<usize>) {
    use ah_labels::LabelIndex;
    let g = ah_data::fixtures::lattice(6, 6, 12);
    let ch = ChIndex::build(&g);
    let labels = LabelIndex::build(&g, ch.order());
    let bytes = Snapshot::to_bytes(SnapshotContents::new().labels(&labels));
    // Locate the labels payload via the section table: entries start at
    // offset 16, each `tag[8] | offset u64 | len u64 | crc u64`.
    let count = u16::from_le_bytes(bytes[10..12].try_into().unwrap()) as usize;
    let payload = (0..count)
        .map(|i| 16 + 32 * i)
        .find(|&e| &bytes[e..e + 8] == b"labels\0\0")
        .map(|e| {
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            off..off + len
        })
        .expect("labels section present");
    (bytes, payload)
}

/// Corruption inside the labels payload is a typed error, never a panic
/// or a silently wrong labeling: flips land on the section checksum;
/// cuts land on truncation/framing errors.
#[test]
fn corrupted_labels_payload_is_typed() {
    let (bytes, payload) = labels_snapshot_bytes();
    for at in payload.clone().step_by(11) {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x40;
        assert!(
            matches!(
                Snapshot::from_bytes(&corrupt),
                Err(SnapshotError::SectionChecksumMismatch { .. })
            ),
            "flip at labels byte {at} not a checksum mismatch"
        );
    }
    for cut in [payload.start + 8, payload.start + payload.len() / 2] {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut} inside the labels payload loaded"
        );
    }
}

/// A structurally forged labels payload — valid checksum, nonsense
/// contents — is refused as `Malformed`, not trusted. Forgery here:
/// re-sealing the section CRC and table after scrambling the entry
/// area, the strongest corruption the container itself cannot catch.
#[test]
fn forged_labels_payload_is_malformed() {
    let (bytes, payload) = labels_snapshot_bytes();
    let count = u16::from_le_bytes(bytes[10..12].try_into().unwrap()) as usize;
    // Swap the node count for a lie (payload starts with `u64 n`).
    let mut forged = bytes.clone();
    forged[payload.start..payload.start + 8].copy_from_slice(&9999u64.to_le_bytes());
    // Re-seal: section CRC in the table entry, then the table CRC.
    let entry = (0..count)
        .map(|i| 16 + 32 * i)
        .find(|&e| &forged[e..e + 8] == b"labels\0\0")
        .unwrap();
    let crc = crc64(&forged[payload.clone()]).to_le_bytes();
    forged[entry + 24..entry + 32].copy_from_slice(&crc);
    let table_end = 16 + 32 * count;
    let tcrc = crc64(&forged[..table_end]).to_le_bytes();
    forged[table_end..table_end + 8].copy_from_slice(&tcrc);
    match Snapshot::from_bytes(&forged) {
        Err(SnapshotError::Malformed { .. }) => {}
        Err(e) => panic!("unexpected error kind: {e}"),
        Ok(_) => panic!("forged labels payload loaded"),
    }
}

/// Version floor: a labels-free v2 image (what a pre-labels writer
/// produced) still loads its graph under the current reader. Its AH
/// section predates the v5 index layout, so it is refused typed and
/// naming the section rather than decoded.
#[test]
fn v2_image_without_labels_still_loads() {
    let restamp = |mut bytes: Vec<u8>| {
        bytes[8..10].copy_from_slice(&2u16.to_le_bytes());
        let count = u16::from_le_bytes(bytes[10..12].try_into().unwrap()) as usize;
        let table_end = 16 + 32 * count;
        let crc = crc64(&bytes[..table_end]).to_le_bytes();
        bytes[table_end..table_end + 8].copy_from_slice(&crc);
        bytes
    };
    let g = ah_data::fixtures::lattice(6, 6, 12);
    let graph_only = restamp(Snapshot::to_bytes(SnapshotContents::new().graph(&g)));
    let loaded = Snapshot::from_bytes(&graph_only).expect("v2 image refused");
    assert_eq!(loaded.graph.map(|g| g.num_nodes()), Some(36));
    assert!(loaded.labels.is_none(), "v2 image grew a labels section");
    match Snapshot::from_bytes(&restamp(small_snapshot_bytes())) {
        Err(SnapshotError::StaleIndex { section, found: 2 }) => {
            assert_eq!(section, ah_store::SectionTag::AH)
        }
        Err(e) => panic!("unexpected error kind: {e}"),
        Ok(_) => panic!("v2 AH section decoded under the v5 layout"),
    }
}

/// End-to-end restart: a server brought up from a snapshot serves the
/// same answers as one built from source data.
#[test]
fn server_restart_from_snapshot_matches_fresh_build() {
    use ah_server::{AhBackend, Request, Server, ServerConfig};

    let g = road_network();
    let ah = AhIndex::build(&g, &BuildConfig::default());
    let path = tmp("server_restart");
    Snapshot::write(&path, SnapshotContents::new().ah(&ah)).unwrap();

    let n = g.num_nodes() as u32;
    let requests: Vec<Request> = (0..200u64)
        .map(|i| Request::distance(i, (i as u32 * 13 + 1) % n, (i as u32 * 31 + 7) % n))
        .collect();

    let fresh = Server::new(ServerConfig::with_workers(2));
    let want = fresh.run(&AhBackend::new(&ah), &requests);

    let restarted = Server::from_snapshot(&path, ServerConfig::with_workers(2)).unwrap();
    let got = restarted.run(&requests);
    for (a, b) in want.responses.iter().zip(&got.responses) {
        assert_eq!((a.id, a.distance), (b.id, b.distance));
    }
    std::fs::remove_file(&path).ok();
}
