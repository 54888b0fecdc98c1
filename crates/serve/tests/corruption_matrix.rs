//! Corruption matrix over the snapshot binary format: truncate and
//! bit-flip a saved snapshot at every structurally meaningful boundary —
//! header fields, each section-table entry's id/offset/len/crc, and each
//! payload's first and last byte — and assert every load comes back as a
//! typed [`SnapshotError`], never a panic. The pristine bytes must still
//! decode, and re-encoding the decoded engine must reproduce them
//! byte-for-byte (the canonical sort inside the encoders makes the
//! round-trip exact, not just equivalent).
//!
//! A seeded fuzzer then damages one section per case and re-stamps that
//! section's CRC-32, so the damage reaches the section decoders instead of
//! stopping at the checksum. Every mutant must either fail with a typed
//! error or load into an engine that answers queries and extracts
//! pedigrees without panicking.

mod common;

use common::{build_engine, query_battery};
use snaps_obs::Obs;
use snaps_pedigree::extract;
use snaps_rng::{check_cases, Rng};
use snaps_serve::snapshot::{self, SnapshotError};
use snaps_serve::wire::crc32;

/// Mutants per fuzzer run.
const FUZZ_CASES: u64 = 4000;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    let b: [u8; 4] = bytes[at..at + 4].try_into().expect("u32 slice");
    u32::from_le_bytes(b)
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let b: [u8; 8] = bytes[at..at + 8].try_into().expect("u64 slice");
    u64::from_le_bytes(b)
}

/// Byte offset of section `i`'s table entry: id u32 | offset u64 | len u64
/// | crc32 u32.
fn entry(i: usize) -> usize {
    16 + 24 * i
}

/// `(offset, len)` of section `i`'s payload, as its table entry says.
fn payload(bytes: &[u8], i: usize) -> (usize, usize) {
    let offset = usize::try_from(u64_at(bytes, entry(i) + 4)).expect("offset fits");
    let len = usize::try_from(u64_at(bytes, entry(i) + 12)).expect("len fits");
    (offset, len)
}

/// Every boundary worth attacking, parsed straight from the file header:
/// magic start, version, section count, each table entry's four fields,
/// each payload's first/last byte, and the very last byte of the file.
fn boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = vec![0, 8, 12];
    let n_sections = u32_at(bytes, 12) as usize;
    for i in 0..n_sections {
        let base = entry(i);
        out.extend([base, base + 4, base + 12, base + 20]);
        let (offset, len) = payload(bytes, i);
        assert!(len > 0, "sections are never empty");
        out.extend([offset, offset + len - 1, offset + len]);
    }
    out.push(bytes.len() - 1);
    out.sort_unstable();
    out.dedup();
    out
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let engine = build_engine();
    let bytes = snapshot::to_bytes(&engine);
    for &b in boundaries(&bytes).iter().filter(|&&b| b < bytes.len()) {
        match snapshot::from_bytes(&bytes[..b], &Obs::disabled()) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::Truncated
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Corrupt(_),
            ) => {}
            Err(other) => panic!("truncation at {b}: unexpected error kind {other}"),
            Ok(_) => panic!("truncation at {b} must not load"),
        }
    }
}

#[test]
fn bit_flip_at_every_boundary_is_a_typed_error() {
    let engine = build_engine();
    let pristine = snapshot::to_bytes(&engine);
    for &b in &boundaries(&pristine) {
        if b >= pristine.len() {
            continue;
        }
        let mut bytes = pristine.clone();
        bytes[b] ^= 0x01;
        match snapshot::from_bytes(&bytes, &Obs::disabled()) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_)
                | SnapshotError::Truncated
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Corrupt(_),
            ) => {}
            Err(SnapshotError::Io(e)) => panic!("bit flip at {b}: unexpected I/O error {e}"),
            Ok(_) => panic!("bit flip at byte {b} must not load"),
        }
    }
}

#[test]
fn pristine_reload_round_trips_byte_identically() {
    let engine = build_engine();
    let bytes = snapshot::to_bytes(&engine);
    let restored = snapshot::from_bytes(&bytes, &Obs::disabled()).expect("pristine load");
    assert_eq!(snapshot::to_bytes(&restored), bytes, "re-encode must reproduce the file");
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Damage section `i` of `bytes` one way, chosen by `rng`, then re-stamp its
/// CRC-32 over whatever payload its table entry now names.
fn mutate(bytes: &mut [u8], i: usize, n_sections: usize, rng: &mut Rng) {
    let (offset, len) = payload(bytes, i);
    match rng.gen_range(0..5_u32) {
        // Splice: overwrite a window of the payload with bytes copied from
        // anywhere in the file.
        0 => {
            let width = rng.gen_range(1..65_usize).min(len);
            let to = offset + rng.gen_range(0..len - width + 1);
            let from = rng.gen_range(0..bytes.len() - width + 1);
            let window = bytes[from..from + width].to_vec();
            bytes[to..to + width].copy_from_slice(&window);
        }
        // Truncation: the table entry claims a shorter payload.
        1 => put_u64(bytes, entry(i) + 12, rng.gen_range(0..len) as u64),
        // Byte flips.
        2 => {
            for _ in 0..rng.gen_range(1..9_u32) {
                let at = offset + rng.gen_range(0..len);
                bytes[at] ^= rng.gen_range(1..=u8::MAX);
            }
        }
        // Length-field inflation: a u32 at the payload's start (always a
        // count or part of the meta weights) or anywhere in it.
        3 if len >= 4 => {
            let at = if rng.gen_bool(0.25) { offset } else { offset + rng.gen_range(0..len - 3) };
            let old = u32_at(bytes, at);
            let payload_len = u32::try_from(len).expect("payload fits u32");
            let values =
                [u32::MAX, payload_len + 1, payload_len / 2, 0x8000_0000, old.wrapping_add(1)];
            put_u32(bytes, at, values[rng.gen_range(0..values.len())]);
        }
        // Re-point the entry at another section's payload.
        _ => {
            let j = (i + rng.gen_range(1..n_sections)) % n_sections;
            let (other_offset, other_len) = payload(bytes, j);
            put_u64(bytes, entry(i) + 4, other_offset as u64);
            put_u64(bytes, entry(i) + 12, other_len as u64);
        }
    }
    let (offset, len) = payload(bytes, i);
    let crc = crc32(&bytes[offset..offset + len]);
    put_u32(bytes, entry(i) + 20, crc);
}

#[test]
fn crc_restamped_section_mutants_fail_typed_or_serve_cleanly() {
    let engine = build_engine();
    let pristine = snapshot::to_bytes(&engine);
    let n_sections = u32_at(&pristine, 12) as usize;
    let (mut loaded, mut truncated, mut corrupt) = (0, 0, 0);
    check_cases(FUZZ_CASES, |rng| {
        let mut bytes = pristine.clone();
        let section = rng.gen_range(0..n_sections);
        mutate(&mut bytes, section, n_sections, rng);
        match snapshot::from_bytes(&bytes, &Obs::disabled()) {
            Ok(mutant) => {
                loaded += 1;
                for q in query_battery(&mutant) {
                    for hit in mutant.query(&q, 10) {
                        let _ = extract(mutant.graph(), hit.entity, 2);
                    }
                }
            }
            Err(SnapshotError::Truncated) => truncated += 1,
            Err(SnapshotError::Corrupt(_)) => corrupt += 1,
            Err(other) => panic!("section {section}: unexpected error kind {other:?}"),
        }
    });
    // Every outcome is reached, so the mutants get past the checksums.
    assert!(loaded > 0 && truncated > 0 && corrupt > 0, "{loaded} {truncated} {corrupt}");
}
