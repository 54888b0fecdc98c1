//! Snapshot round-trip battery: a restored engine must be observably
//! identical to the one that was saved — byte-identical ranked results for
//! a spread of query shapes — and every malformed file must fail with a
//! typed error instead of a panic.

#![expect(clippy::disallowed_methods, reason = "queries one restored engine from several threads")]

mod common;

use std::sync::Arc;

use common::{build_engine, query_battery};
use snaps_obs::Obs;
use snaps_query::{QueryRecord, RankedMatch, SearchKind};
use snaps_serve::snapshot::{self, SnapshotError, FORMAT_VERSION, MAGIC};

/// Exact comparison on purpose: scores are deterministic f64 arithmetic,
/// so save/load must reproduce them bit for bit, not just approximately.
fn assert_identical(a: &[RankedMatch], b: &[RankedMatch]) {
    assert_eq!(a.len(), b.len(), "result counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.entity, y.entity);
        assert_eq!(x.score_percent.to_bits(), y.score_percent.to_bits());
        assert_eq!(x.first_name_sim.to_bits(), y.first_name_sim.to_bits());
        assert_eq!(x.surname_sim.to_bits(), y.surname_sim.to_bits());
        assert_eq!(x.year_score.map(f64::to_bits), y.year_score.map(f64::to_bits));
        assert_eq!(x.gender_score.map(f64::to_bits), y.gender_score.map(f64::to_bits));
        assert_eq!(x.location_score.map(f64::to_bits), y.location_score.map(f64::to_bits));
    }
}

#[test]
fn restored_engine_returns_byte_identical_results() {
    let engine = build_engine();
    let bytes = snapshot::to_bytes(&engine);
    let restored = snapshot::from_bytes(&bytes, &Obs::disabled()).expect("load");

    for q in query_battery(&engine) {
        let before = engine.query(&q, 10);
        let after = restored.query(&q, 10);
        assert_identical(&before, &after);
    }
}

#[test]
fn snapshot_survives_a_second_generation() {
    // save → load → save again: the grandchild must serialise to the same
    // bytes, proving nothing is lost or reordered by a round trip.
    let engine = build_engine();
    let bytes = snapshot::to_bytes(&engine);
    let restored = snapshot::from_bytes(&bytes, &Obs::disabled()).expect("load");
    let bytes2 = snapshot::to_bytes(&restored);
    assert_eq!(bytes, bytes2, "round trip is byte-stable");
}

#[test]
fn two_pipeline_runs_same_seed_byte_identical_snapshots() {
    // The determinism guarantee clippy's disallowed-types list protects: two
    // *independent* full pipeline runs (generate → resolve → build indexes)
    // on the same seed must serialise to byte-identical snapshot files.
    // With HashMap anywhere on the result path this fails — each process-
    // level RandomState ordered the keyword values differently, which leaked
    // into index insertion order and snapshot bytes.
    let first = snapshot::to_bytes(&build_engine());
    let second = snapshot::to_bytes(&build_engine());
    assert_eq!(first, second, "independent builds must agree byte-for-byte");

    let dir = std::env::temp_dir();
    let path_a = dir.join("snaps_det_run_a.snap");
    let path_b = dir.join("snaps_det_run_b.snap");
    snapshot::save(&build_engine(), &path_a).expect("save a");
    snapshot::save(&build_engine(), &path_b).expect("save b");
    let (a, b) = (std::fs::read(&path_a).expect("read a"), std::fs::read(&path_b).expect("read b"));
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
    assert_eq!(a, b, "snapshot files from independent runs must be identical");
}

#[test]
fn restored_engine_is_shareable_across_threads() {
    let engine = build_engine();
    let bytes = snapshot::to_bytes(&engine);
    let restored = Arc::new(snapshot::from_bytes(&bytes, &Obs::disabled()).expect("load"));
    let expected = restored.query(&QueryRecord::new("mary", "macdonald", SearchKind::Birth), 10);

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&restored);
            std::thread::spawn(move || {
                engine.query(&QueryRecord::new("mary", "macdonald", SearchKind::Birth), 10)
            })
        })
        .collect();
    for h in handles {
        assert_identical(&expected, &h.join().expect("thread"));
    }
}

#[test]
fn file_round_trip() {
    let engine = build_engine();
    let path = std::env::temp_dir().join("snaps_roundtrip_integration.snap");
    snapshot::save(&engine, &path).expect("save");
    let restored = snapshot::load(&path, &Obs::disabled()).expect("load");
    let q = QueryRecord::new("mary", "macdonald", SearchKind::Birth);
    assert_identical(&engine.query(&q, 5), &restored.query(&q, 5));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_header_is_bad_magic() {
    let engine = build_engine();
    let mut bytes = snapshot::to_bytes(&engine);
    for i in 0..MAGIC.len() {
        let mut b = bytes.clone();
        b[i] ^= 0x55;
        assert!(
            matches!(snapshot::from_bytes(&b, &Obs::disabled()), Err(SnapshotError::BadMagic)),
            "flip at byte {i}"
        );
    }
    // Whole-header garbage.
    bytes[..16].fill(0xAB);
    assert!(matches!(snapshot::from_bytes(&bytes, &Obs::disabled()), Err(SnapshotError::BadMagic)));
}

#[test]
fn wrong_version_is_typed() {
    let engine = build_engine();
    for version in [0u32, FORMAT_VERSION + 1, u32::MAX] {
        let mut bytes = snapshot::to_bytes(&engine);
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match snapshot::from_bytes(&bytes, &Obs::disabled()) {
            Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, version),
            other => panic!("expected UnsupportedVersion({version}), got {other:?}"),
        }
    }
}

#[test]
fn truncation_anywhere_errors_not_panics() {
    let engine = build_engine();
    let bytes = snapshot::to_bytes(&engine);
    // Exhaustive over header + section table, then sampled along payloads.
    let cuts = (0..bytes.len()).filter(|c| *c < 256 || c % 503 == 0);
    for cut in cuts {
        let r = snapshot::from_bytes(&bytes[..cut], &Obs::disabled());
        assert!(r.is_err(), "truncation at {cut} bytes must be an error");
    }
}

#[test]
fn payload_corruption_fails_checksum() {
    let engine = build_engine();
    let clean = snapshot::to_bytes(&engine);
    let payload_start = 16 + 6 * 24; // header + section table
    let step = (clean.len() - payload_start) / 50;
    for i in (payload_start..clean.len()).step_by(step.max(1)) {
        let mut b = clean.clone();
        b[i] ^= 0x01;
        assert!(
            matches!(
                snapshot::from_bytes(&b, &Obs::disabled()),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "payload flip at {i} must fail its CRC"
        );
    }
}

#[test]
fn random_garbage_never_panics() {
    // A cheap deterministic byte mixer; no rand dependency in tests.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [0usize, 7, 16, 64, 1024, 65536] {
        let garbage: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
        assert!(snapshot::from_bytes(&garbage, &Obs::disabled()).is_err());
        // Same garbage wearing a valid magic + version: still a typed error.
        if len >= 16 {
            let mut framed = garbage;
            framed[..8].copy_from_slice(&MAGIC);
            framed[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
            assert!(snapshot::from_bytes(&framed, &Obs::disabled()).is_err());
        }
    }
}

#[test]
fn error_messages_name_the_failure() {
    let e = SnapshotError::UnsupportedVersion(7);
    assert!(e.to_string().contains('7'));
    assert!(SnapshotError::BadMagic.to_string().contains("magic"));
    assert!(SnapshotError::Truncated.to_string().contains("truncated"));
    assert!(SnapshotError::ChecksumMismatch { section: 3 }.to_string().contains("CRC"));
}
