//! Pins the HTTP response bytes of `/search` and `/pedigree` across
//! versions: a fixed-scale, fixed-seed snapshot is served, a fixed request
//! battery is sent, and an FNV-1a digest of every reply body is compared
//! with a recorded constant. Any change to ranking, scoring, pedigree
//! extraction or JSON rendering moves the digest.
//!
//! The same fixture pins the snapshot bytes: the pair (format version,
//! FNV-1a of `snapshot::to_bytes`) is compared with a recorded pair, so a
//! layout change cannot ship without a format version bump.
//!
//! When a change is *meant* to alter responses, re-record the constant
//! from the assertion message and say why in the change log.

#![expect(clippy::disallowed_types, reason = "drives the server over real sockets")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use snaps_core::{resolve, PedigreeGraph, SnapsConfig};
use snaps_datagen::{generate, DatasetProfile};
use snaps_obs::{Obs, ObsConfig};
use snaps_query::SearchEngine;
use snaps_serve::{snapshot, Server, ServerConfig};

/// Digest of every body the battery below receives, in order.
const GOLDEN_DIGEST: u64 = 0x6bc4_6d49_1f3a_8260;

/// The battery's totals of `query.candidates_scored` and
/// `query.index_probes`: the work behind the bytes, pinned so that a
/// change scoring more candidates or probing more postings shows even
/// when the responses do not move.
const GOLDEN_CANDIDATES_SCORED: u64 = 9104;
const GOLDEN_INDEX_PROBES: u64 = 3201;

/// `(FORMAT_VERSION, FNV-1a of the snapshot bytes)` of the fixture engine.
const GOLDEN_SNAPSHOT: (u32, u64) = (1, 0x7d5b_e2f6_9d75_1a83);

/// Entities whose names seed the battery (spread across the graph).
const SEED_ENTITIES: usize = 12;

/// FNV-1a's 64-bit offset basis: the digest of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The engine as `snaps-serve serve` runs it: built offline, written to
/// snapshot bytes, and restored from them. Also returns the bytes.
fn served_engine(obs: &Obs) -> (Arc<SearchEngine>, Vec<u8>) {
    let data = generate(&DatasetProfile::ios().scaled(0.05), 42);
    let res = resolve(&data.dataset, &SnapsConfig::default());
    let built = SearchEngine::build(PedigreeGraph::build(&data.dataset, &res));
    let bytes = snapshot::to_bytes(&built);
    let engine = snapshot::from_bytes(&bytes, obs).expect("snapshot round trip");
    (Arc::new(engine), bytes)
}

/// Percent-encode everything but ASCII alphanumerics.
fn encode(v: &str) -> String {
    v.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() {
                char::from(b).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// One GET on a fresh connection; returns `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    write!(s, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// The first `"entity": N` of a search body: its top hit.
fn top_hit(body: &str) -> Option<u32> {
    let rest = body.split_once("\"entity\": ")?.1;
    rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

/// A one-letter typo: the second character dropped, so the name is (very
/// likely) unseen and takes the similarity cache's compute path.
fn typo(name: &str) -> String {
    name.chars().enumerate().filter(|&(i, _)| i != 1).map(|(_, c)| c).collect()
}

/// The `/search` targets of the battery: for each seed entity, m = 10 and
/// m = 100, both kinds, with and without gender, years and location, and
/// typo'd names.
fn search_targets(engine: &SearchEngine) -> Vec<String> {
    let graph = engine.graph();
    let mut targets = Vec::new();
    for i in 0..SEED_ENTITIES {
        let e = &graph.entities[i * graph.len() / SEED_ENTITIES];
        let (Some(first), Some(last)) = (e.first_names.first(), e.surnames.first()) else {
            continue;
        };
        let (f, l) = (encode(first), encode(last));
        let gender = if e.gender.code() == "m" { "m" } else { "f" };
        let year = e.birth_year.or(e.death_year).unwrap_or(1870);
        let place = e.addresses.first().map_or("portree", String::as_str);
        let location = encode(place);
        targets.push(format!("/search?first={f}&last={l}&m=10"));
        targets.push(format!("/search?first={f}&last={l}&kind=death&m=100"));
        targets.push(format!(
            "/search?first={f}&last={l}&gender={gender}&year_from={}&year_to={}&location={location}&m=10",
            year - 2,
            year + 1
        ));
        targets.push(format!(
            "/search?first={}&last={}&kind=death&gender={gender}&year_from={year}&year_to={year}&location={}&m=100",
            encode(&typo(first)),
            encode(&typo(last)),
            encode(&typo(place)),
        ));
        targets.push(format!(
            "/search?first={}&last={l}&location={location}&m=100",
            encode(&typo(first))
        ));
    }
    targets
}

#[test]
fn search_and_pedigree_bodies_match_the_recorded_digest() {
    let obs = Obs::new(&ObsConfig::full());
    let (engine, snapshot_bytes) = served_engine(&obs);
    let mut snapshot_digest = FNV_OFFSET;
    fnv1a(&mut snapshot_digest, &snapshot_bytes);
    assert_eq!(
        (snapshot::FORMAT_VERSION, snapshot_digest),
        GOLDEN_SNAPSHOT,
        "snapshot bytes changed: digest {snapshot_digest:#018x}. A layout change must bump \
         FORMAT_VERSION; then re-record the pair"
    );
    let server = Server::start("127.0.0.1:0", Arc::clone(&engine), &obs, &ServerConfig::default())
        .expect("bind ephemeral");
    let addr = server.addr();

    let mut digest = FNV_OFFSET;
    let mut pedigrees = 0;
    for (n, target) in search_targets(&engine).iter().enumerate() {
        let (status, body) = get(addr, target);
        assert_eq!(status, 200, "{target}: {body}");
        fnv1a(&mut digest, body.as_bytes());
        fnv1a(&mut digest, b"\n");
        let Some(hit) = top_hit(&body) else { continue };
        let g = ["", "?g=1", "?g=3"][n % 3];
        let (status, body) = get(addr, &format!("/pedigree/{hit}{g}"));
        assert_eq!(status, 200, "pedigree of {hit}: {body}");
        fnv1a(&mut digest, body.as_bytes());
        fnv1a(&mut digest, b"\n");
        pedigrees += 1;
    }
    server.shutdown();

    let report = obs.report().expect("enabled obs");
    assert_eq!(report.counter("query.candidates_scored"), Some(GOLDEN_CANDIDATES_SCORED));
    assert_eq!(report.counter("query.index_probes"), Some(GOLDEN_INDEX_PROBES));
    assert!(pedigrees >= SEED_ENTITIES, "the battery reaches pedigrees: {pedigrees}");
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "response bytes changed: digest {digest:#018x}, recorded {GOLDEN_DIGEST:#018x}"
    );
}
