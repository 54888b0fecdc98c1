//! Versioned, checksummed snapshot persistence for a ready-to-serve
//! [`SearchEngine`].
//!
//! The offline ER phase is expensive (paper §10: hours at full scale); the
//! online service must not repeat it on every start. A snapshot captures
//! the *output* of that phase — the resolved [`PedigreeGraph`], the keyword
//! index, and the three similarity-aware indexes with their pre-computed
//! matches — in one self-describing binary file:
//!
//! ```text
//! offset 0  magic  b"SNAPSSHT"                      (8 bytes)
//!        8  format version, u32 LE                  (currently 1)
//!       12  section count, u32 LE
//!       16  section table: per section
//!              id u32 | offset u64 | len u64 | crc32 u32   (24 bytes)
//!        …  section payloads, back to back
//! ```
//!
//! Every section carries its own CRC-32; the loader validates magic,
//! version, table bounds, and each checksum before decoding, and every
//! decode path returns a typed [`SnapshotError`] — corrupted or truncated
//! files never panic. All derived structures (bigram postings, adjacency
//! lists) are rebuilt on load rather than stored; they are cheap and keeping
//! them out of the file halves its size.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

use snaps_core::{PedigreeEntity, PedigreeGraph};
use snaps_index::simindex::Matches;
use snaps_index::{KeywordIndex, SimilarityIndex};
use snaps_model::{person::GeoCoord, EntityId, Gender, RecordId, Relationship};
use snaps_obs::Obs;
use snaps_query::{QueryWeights, SearchEngine};

use crate::wire::{crc32, len_u32, Reader, Writer};

/// Magic bytes identifying a SNAPS snapshot.
pub const MAGIC: [u8; 8] = *b"SNAPSSHT";
/// Current format version; bump on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Section identifiers of the snapshot's section table.
mod section {
    pub(crate) const META: u32 = 1;
    pub(crate) const GRAPH: u32 = 2;
    pub(crate) const KEYWORD: u32 = 3;
    pub(crate) const SIM_FIRST: u32 = 4;
    pub(crate) const SIM_SURNAME: u32 = 5;
    pub(crate) const SIM_LOCATION: u32 = 6;
}

/// Why a snapshot could not be written or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file's format version is one this build cannot read.
    UnsupportedVersion(u32),
    /// The file ends before the data its header promises.
    Truncated,
    /// A section's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Section id from the table.
        section: u32,
    },
    /// Structurally invalid data in an otherwise well-formed file.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a SNAPS snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot section {section} failed its CRC-32 check")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot is corrupt: {what}"),
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

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn gender_code(g: Gender) -> u8 {
    match g {
        Gender::Female => 0,
        Gender::Male => 1,
        Gender::Unknown => 2,
    }
}

fn gender_decode(b: u8) -> Result<Gender, SnapshotError> {
    match b {
        0 => Ok(Gender::Female),
        1 => Ok(Gender::Male),
        2 => Ok(Gender::Unknown),
        _ => Err(SnapshotError::Corrupt("invalid gender code")),
    }
}

fn rel_code(r: Relationship) -> u8 {
    match r {
        Relationship::MotherOf => 0,
        Relationship::FatherOf => 1,
        Relationship::SpouseOf => 2,
        Relationship::ChildOf => 3,
    }
}

fn rel_decode(b: u8) -> Result<Relationship, SnapshotError> {
    match b {
        0 => Ok(Relationship::MotherOf),
        1 => Ok(Relationship::FatherOf),
        2 => Ok(Relationship::SpouseOf),
        3 => Ok(Relationship::ChildOf),
        _ => Err(SnapshotError::Corrupt("invalid relationship code")),
    }
}

// Exact encoded sizes, mirroring the Writer primitives: a string is a u32
// length prefix plus its bytes, an Option<i32> a presence byte plus the
// value when present. The encoders pass these to `Writer::with_capacity`
// so multi-MB section payloads are written without a single `Vec`
// re-growth; the hints must stay exact (capacity == len is asserted in
// tests), so any wire-layout change must update them in step.

fn strings_size(strings: &[impl AsRef<str>]) -> usize {
    4 + strings.iter().map(|s| 4 + s.as_ref().len()).sum::<usize>()
}

fn opt_i32_size(v: Option<i32>) -> usize {
    if v.is_some() {
        5
    } else {
        1
    }
}

fn graph_size(graph: &PedigreeGraph) -> usize {
    let entities: usize = graph
        .entities
        .iter()
        .map(|e| {
            4 + 4 * e.records.len()
                + strings_size(&e.first_names)
                + strings_size(&e.surnames)
                + strings_size(&e.addresses)
                + strings_size(&e.occupations)
                + 4
                + 16 * e.geos.len()
                + 1
                + opt_i32_size(e.birth_year)
                + opt_i32_size(e.death_year)
                + 2
                + 4
                + 4 * e.event_years.len()
        })
        .sum();
    4 + entities + 4 + 9 * graph.edges.len() + 4 + 4 * graph.record_entity.len()
}

fn keyword_map_size(entries: &[(&str, &[EntityId])]) -> usize {
    4 + entries.iter().map(|(value, ids)| 4 + value.len() + 4 + 4 * ids.len()).sum::<usize>()
}

fn sim_size(index: &SimilarityIndex, entries: &[(&str, &Matches)]) -> usize {
    let matches: usize = entries
        .iter()
        .map(|(value, m)| {
            let others: usize =
                m.iter().map(|&(other, _)| 4 + value_of(index, other).len() + 8).sum();
            4 + value.len() + 4 + others
        })
        .sum();
    8 + strings_size(index.indexed_values()) + 4 + matches
}

/// Indexed value `id` of `index`; match lists only name indexed values, so
/// the empty fallback is never written.
fn value_of(index: &SimilarityIndex, id: u32) -> &str {
    index.indexed_values().get(id as usize).map_or("", |v| v)
}

fn write_strings(w: &mut Writer, strings: &[impl AsRef<str>]) {
    w.u32(len_u32(strings.len()));
    for s in strings {
        w.string(s.as_ref());
    }
}

fn read_strings(r: &mut Reader) -> Result<Vec<String>, SnapshotError> {
    let n = r.len(4)?;
    (0..n).map(|_| r.string()).collect()
}

fn encode_meta(engine: &SearchEngine) -> Vec<u8> {
    let mut w = Writer::new();
    let weights = engine.weights();
    w.f64(weights.first_name);
    w.f64(weights.surname);
    w.f64(weights.year);
    w.f64(weights.gender);
    w.f64(weights.location);
    w.u32(len_u32(engine.graph().len()));
    w.u32(len_u32(engine.graph().edges.len()));
    w.into_bytes()
}

fn decode_meta(bytes: &[u8]) -> Result<QueryWeights, SnapshotError> {
    let mut r = Reader::new(bytes);
    let weights = QueryWeights {
        first_name: r.f64()?,
        surname: r.f64()?,
        year: r.f64()?,
        gender: r.f64()?,
        location: r.f64()?,
    };
    let _entities = r.u32()?;
    let _edges = r.u32()?;
    Ok(weights)
}

fn encode_graph(graph: &PedigreeGraph) -> Vec<u8> {
    let mut w = Writer::with_capacity(graph_size(graph));
    w.u32(len_u32(graph.entities.len()));
    for e in &graph.entities {
        w.u32(len_u32(e.records.len()));
        for rid in &e.records {
            w.u32(rid.0);
        }
        write_strings(&mut w, &e.first_names);
        write_strings(&mut w, &e.surnames);
        write_strings(&mut w, &e.addresses);
        write_strings(&mut w, &e.occupations);
        w.u32(len_u32(e.geos.len()));
        for g in &e.geos {
            w.f64(g.lat);
            w.f64(g.lon);
        }
        w.u8(gender_code(e.gender));
        w.opt_i32(e.birth_year);
        w.opt_i32(e.death_year);
        w.bool(e.has_birth_record);
        w.bool(e.has_death_record);
        w.u32(len_u32(e.event_years.len()));
        for y in &e.event_years {
            w.i32(*y);
        }
    }
    w.u32(len_u32(graph.edges.len()));
    for &(a, b, rel) in &graph.edges {
        w.u32(a.0);
        w.u32(b.0);
        w.u8(rel_code(rel));
    }
    w.u32(len_u32(graph.record_entity.len()));
    for e in &graph.record_entity {
        w.u32(e.0);
    }
    w.into_bytes()
}

fn decode_graph(bytes: &[u8]) -> Result<PedigreeGraph, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n_entities = r.len(8)?;
    let mut entities = Vec::with_capacity(n_entities);
    for i in 0..n_entities {
        let n_records = r.len(4)?;
        let records: Vec<RecordId> =
            (0..n_records).map(|_| r.u32().map(RecordId)).collect::<Result<_, _>>()?;
        let first_names = read_strings(&mut r)?;
        let surnames = read_strings(&mut r)?;
        let addresses = read_strings(&mut r)?;
        let occupations = read_strings(&mut r)?;
        let n_geos = r.len(16)?;
        let geos = (0..n_geos)
            .map(|_| Ok(GeoCoord { lat: r.f64()?, lon: r.f64()? }))
            .collect::<Result<_, SnapshotError>>()?;
        let gender = gender_decode(r.u8()?)?;
        let birth_year = r.opt_i32()?;
        let death_year = r.opt_i32()?;
        let has_birth_record = r.bool()?;
        let has_death_record = r.bool()?;
        let n_years = r.len(4)?;
        let event_years = (0..n_years).map(|_| r.i32()).collect::<Result<_, _>>()?;
        entities.push(PedigreeEntity {
            id: EntityId::from_index(i),
            records,
            first_names,
            surnames,
            addresses,
            occupations,
            geos,
            gender,
            birth_year,
            death_year,
            has_birth_record,
            has_death_record,
            event_years,
        });
    }

    let n_edges = r.len(9)?;
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        let a = EntityId(r.u32()?);
        let b = EntityId(r.u32()?);
        let rel = rel_decode(r.u8()?)?;
        if a.index() >= entities.len() || b.index() >= entities.len() {
            return Err(SnapshotError::Corrupt("edge endpoint out of range"));
        }
        edges.push((a, b, rel));
    }

    let n_records = r.len(4)?;
    let record_entity: Vec<EntityId> =
        (0..n_records).map(|_| r.u32().map(EntityId)).collect::<Result<_, _>>()?;
    for e in &record_entity {
        if *e != snaps_core::pedigree::NO_ENTITY && e.index() >= entities.len() {
            return Err(SnapshotError::Corrupt("record→entity mapping out of range"));
        }
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("trailing bytes after graph section"));
    }
    // Adjacency and out-edge lists are derived data, rebuilt exactly as
    // `PedigreeGraph::build_with` builds them.
    Ok(PedigreeGraph::from_parts(entities, edges, record_entity))
}

fn encode_keyword_map(w: &mut Writer, entries: Vec<(&str, &[EntityId])>) {
    let mut entries = entries;
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0)); // stable bytes
    w.u32(len_u32(entries.len()));
    for (value, ids) in entries {
        w.string(value);
        w.u32(len_u32(ids.len()));
        for id in ids {
            w.u32(id.0);
        }
    }
}

fn decode_keyword_map(
    r: &mut Reader,
    n_entities: usize,
) -> Result<Vec<(String, Vec<EntityId>)>, SnapshotError> {
    let n = r.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let value = r.string()?;
        let n_ids = r.len(4)?;
        let ids: Vec<EntityId> =
            (0..n_ids).map(|_| r.u32().map(EntityId)).collect::<Result<_, _>>()?;
        if ids.iter().any(|e| e.index() >= n_entities) {
            return Err(SnapshotError::Corrupt("keyword posting out of range"));
        }
        out.push((value, ids));
    }
    Ok(out)
}

fn encode_keyword(keyword: &KeywordIndex) -> Vec<u8> {
    let first: Vec<(&str, &[EntityId])> = keyword.first_names().entries().collect();
    let sur: Vec<(&str, &[EntityId])> = keyword.surnames().entries().collect();
    let loc: Vec<(&str, &[EntityId])> = keyword.locations().entries().collect();
    let cap = keyword_map_size(&first) + keyword_map_size(&sur) + keyword_map_size(&loc);
    let mut w = Writer::with_capacity(cap);
    encode_keyword_map(&mut w, first);
    encode_keyword_map(&mut w, sur);
    encode_keyword_map(&mut w, loc);
    w.into_bytes()
}

fn decode_keyword(bytes: &[u8], n_entities: usize) -> Result<KeywordIndex, SnapshotError> {
    let mut r = Reader::new(bytes);
    let first = decode_keyword_map(&mut r, n_entities)?;
    let sur = decode_keyword_map(&mut r, n_entities)?;
    let loc = decode_keyword_map(&mut r, n_entities)?;
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("trailing bytes after keyword section"));
    }
    Ok(KeywordIndex::from_parts(first, sur, loc))
}

fn encode_sim(index: &SimilarityIndex) -> Vec<u8> {
    let mut entries: Vec<(&str, &Matches)> = index.precomputed().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0)); // stable bytes
    let mut w = Writer::with_capacity(sim_size(index, &entries));
    w.f64(index.s_t());
    write_strings(&mut w, index.indexed_values());
    w.u32(len_u32(entries.len()));
    for (value, matches) in entries {
        w.string(value);
        w.u32(len_u32(matches.len()));
        for &(other, sim) in matches {
            w.string(value_of(index, other));
            w.f64(sim);
        }
    }
    w.into_bytes()
}

fn decode_sim(bytes: &[u8]) -> Result<SimilarityIndex, SnapshotError> {
    let mut r = Reader::new(bytes);
    let s_t = r.f64()?;
    if !(s_t > 0.0 && s_t < 1.0) {
        return Err(SnapshotError::Corrupt("similarity threshold out of (0,1)"));
    }
    let values: Vec<Arc<str>> = read_strings(&mut r)?.into_iter().map(Arc::from).collect();
    let n = r.len(8)?;
    if n != values.len() {
        return Err(SnapshotError::Corrupt("match-list count differs from value count"));
    }
    // Match strings are resolved to value ids as they are read and then
    // dropped: the restored lists are id lists, as the index keeps them.
    // The map is only probed, never iterated, so its order cannot leak out.
    let ids: HashMap<&str, u32> = values.iter().zip(0..).map(|(v, id)| (&**v, id)).collect();
    let id_of = |value: &str, missing: &'static str| {
        ids.get(value).copied().ok_or(SnapshotError::Corrupt(missing))
    };
    let mut matches = Vec::with_capacity(n);
    for _ in 0..n {
        let value = id_of(&r.string()?, "match list for un-indexed value")?;
        let n_m = r.len(12)?;
        let m: Matches = (0..n_m)
            .map(|_| Ok((id_of(&r.string()?, "match names an un-indexed value")?, r.f64()?)))
            .collect::<Result<_, SnapshotError>>()?;
        matches.push((value, m));
    }
    drop(ids);
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("trailing bytes after similarity section"));
    }
    SimilarityIndex::try_from_parts(s_t, values, matches).map_err(SnapshotError::Corrupt)
}

// ---------------------------------------------------------------------------
// File assembly
// ---------------------------------------------------------------------------

/// Serialise a ready engine to snapshot bytes.
#[must_use]
pub fn to_bytes(engine: &SearchEngine) -> Vec<u8> {
    let sections: Vec<(u32, Vec<u8>)> = vec![
        (section::META, encode_meta(engine)),
        (section::GRAPH, encode_graph(engine.graph())),
        (section::KEYWORD, encode_keyword(engine.keyword_index())),
        (section::SIM_FIRST, encode_sim(engine.first_name_sims())),
        (section::SIM_SURNAME, encode_sim(engine.surname_sims())),
        (section::SIM_LOCATION, encode_sim(engine.location_sims())),
    ];

    let mut header = Writer::new();
    header.bytes(&MAGIC);
    header.u32(FORMAT_VERSION);
    header.u32(len_u32(sections.len()));
    let table_len = sections.len() * 24;
    let mut offset = (MAGIC.len() + 8 + table_len) as u64;
    for (id, payload) in &sections {
        header.u32(*id);
        header.u64(offset);
        header.u64(payload.len() as u64);
        header.u32(crc32(payload));
        offset += payload.len() as u64;
    }
    let mut out = header.into_bytes();
    for (_, payload) in sections {
        out.extend_from_slice(&payload);
    }
    out
}

/// Write a snapshot of `engine` to `path` (atomically: a temp file in the
/// same directory is renamed into place, so readers never see a half-written
/// snapshot).
///
/// # Errors
/// Propagates filesystem errors.
pub fn save(engine: &SearchEngine, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let bytes = to_bytes(engine);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

struct Section<'a> {
    id: u32,
    payload: &'a [u8],
}

fn parse_sections(bytes: &[u8]) -> Result<Vec<Section<'_>>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let magic = r.bytes(8).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let n_sections = r.len(24)?;
    let mut sections = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let id = r.u32()?;
        let offset = usize::try_from(r.u64()?).map_err(|_| SnapshotError::Truncated)?;
        let len = usize::try_from(r.u64()?).map_err(|_| SnapshotError::Truncated)?;
        let crc = r.u32()?;
        let end = offset.checked_add(len).ok_or(SnapshotError::Truncated)?;
        let payload = bytes.get(offset..end).ok_or(SnapshotError::Truncated)?;
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch { section: id });
        }
        sections.push(Section { id, payload });
    }
    Ok(sections)
}

fn find<'a>(sections: &'a [Section<'a>], id: u32) -> Result<&'a [u8], SnapshotError> {
    sections
        .iter()
        .find(|s| s.id == id)
        .map(|s| s.payload)
        .ok_or(SnapshotError::Corrupt("missing required section"))
}

/// Restore a ready [`SearchEngine`] from snapshot bytes. `obs` wires the
/// same instrumentation as a freshly built engine (`query.*` counters,
/// `query.latency` histogram, `index.sim_cache.*` counters).
///
/// # Errors
/// Returns a typed [`SnapshotError`] on any malformed input; never panics
/// on corrupted, truncated, or wrong-version files.
pub fn from_bytes(bytes: &[u8], obs: &Obs) -> Result<SearchEngine, SnapshotError> {
    let span = obs.span("snapshot_load");
    let sections = parse_sections(bytes)?;
    let weights = decode_meta(find(&sections, section::META)?)?;
    let graph = decode_graph(find(&sections, section::GRAPH)?)?;
    let keyword = decode_keyword(find(&sections, section::KEYWORD)?, graph.len())?;
    let first = decode_sim(find(&sections, section::SIM_FIRST)?)?;
    let sur = decode_sim(find(&sections, section::SIM_SURNAME)?)?;
    let loc = decode_sim(find(&sections, section::SIM_LOCATION)?)?;
    let engine = SearchEngine::from_parts(graph, keyword, first, sur, loc, weights, obs);
    span.finish();
    Ok(engine)
}

/// Load a snapshot file into a ready [`SearchEngine`].
///
/// # Errors
/// I/O errors and every validation failure of [`from_bytes`].
pub fn load(path: impl AsRef<Path>, obs: &Obs) -> Result<SearchEngine, SnapshotError> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes, obs)
}

/// Identity of a loaded snapshot, reported by `/healthz` so a load
/// balancer can tell which artifact (and which bytes) a replica serves —
/// a stale or half-swapped snapshot shows up as a checksum mismatch
/// across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStamp {
    /// Snapshot format version ([`FORMAT_VERSION`] of the loaded file).
    pub version: u32,
    /// CRC-32 over the entire snapshot file (header and all sections).
    pub checksum: u32,
    /// File size in bytes.
    pub bytes: u64,
}

/// [`load`], additionally returning the [`SnapshotStamp`] identifying the
/// exact bytes that were restored.
///
/// # Errors
/// I/O errors and every validation failure of [`from_bytes`].
pub fn load_stamped(
    path: impl AsRef<Path>,
    obs: &Obs,
) -> Result<(SearchEngine, SnapshotStamp), SnapshotError> {
    let bytes = std::fs::read(path)?;
    let engine = from_bytes(&bytes, obs)?;
    let stamp = SnapshotStamp {
        version: FORMAT_VERSION,
        checksum: crc32(&bytes),
        bytes: u64::try_from(bytes.len()).unwrap_or(u64::MAX),
    };
    Ok((engine, stamp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaps_core::{resolve, SnapsConfig};
    use snaps_model::{CertificateKind, Dataset, Role};

    fn engine() -> SearchEngine {
        let mut ds = Dataset::new("t");
        let b = ds.push_certificate(CertificateKind::Birth, 1880);
        for (role, f, s) in [
            (Role::BirthBaby, "flora", "macrae"),
            (Role::BirthMother, "effie", "macrae"),
            (Role::BirthFather, "torquil", "macrae"),
        ] {
            let g = role.implied_gender().unwrap_or(Gender::Female);
            let r = ds.push_record(b, role, g);
            ds.record_mut(r).first_name = Some(f.into());
            ds.record_mut(r).surname = Some(s.into());
            ds.record_mut(r).address = Some("portree".into());
        }
        let res = resolve(&ds, &SnapsConfig::default());
        SearchEngine::build(PedigreeGraph::build(&ds, &res))
    }

    #[test]
    fn bytes_round_trip_preserves_engine() {
        let e = engine();
        let bytes = to_bytes(&e);
        let restored = from_bytes(&bytes, &Obs::disabled()).expect("round trip");
        assert_eq!(restored.graph().len(), e.graph().len());
        assert_eq!(restored.graph().edges, e.graph().edges);
        assert_eq!(restored.graph().record_entity, e.graph().record_entity);
        assert_eq!(
            restored.keyword_index().first_names().len(),
            e.keyword_index().first_names().len()
        );
        assert_eq!(restored.first_name_sims().len(), e.first_name_sims().len());
        assert_eq!(restored.first_name_sims().lookup("flora"), e.first_name_sims().lookup("flora"));
    }

    #[test]
    fn serialisation_is_deterministic() {
        let e = engine();
        assert_eq!(to_bytes(&e), to_bytes(&e), "same engine, same bytes");
    }

    #[test]
    fn encode_size_hints_are_exact() {
        // An exact `with_capacity` hint means the buffer never re-grows, so
        // the final capacity equals the encoded length; any drift between a
        // size helper and its encoder shows up here as an inequality.
        let e = engine();
        for (what, bytes) in [
            ("graph", encode_graph(e.graph())),
            ("keyword", encode_keyword(e.keyword_index())),
            ("sim_first", encode_sim(e.first_name_sims())),
            ("sim_surname", encode_sim(e.surname_sims())),
            ("sim_location", encode_sim(e.location_sims())),
        ] {
            assert_eq!(bytes.capacity(), bytes.len(), "{what}: size hint must be exact");
            assert!(!bytes.is_empty(), "{what}: sections are never empty");
        }
    }

    /// A similarity section whose one match list is `ann → [(other, 0.9)]`.
    fn sim_section(other: &str) -> Vec<u8> {
        let mut w = Writer::new();
        w.f64(0.5);
        write_strings(&mut w, &["ann", "anna"]);
        w.u32(2);
        for (value, m) in [("ann", Some(other)), ("anna", None)] {
            w.string(value);
            w.u32(u32::from(m.is_some()));
            if let Some(m) = m {
                w.string(m);
                w.f64(0.9);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn decoded_matches_name_values_by_id() {
        let index = decode_sim(&sim_section("anna")).expect("valid section");
        let m = index.lookup("ann").expect("indexed");
        assert_eq!(m.as_slice(), [(index.id_of("anna").expect("indexed"), 0.9)]);
        assert_eq!(encode_sim(&index), sim_section("anna"), "re-encodes to the same bytes");
    }

    #[test]
    fn match_naming_an_unindexed_value_is_typed() {
        assert!(matches!(
            decode_sim(&sim_section("bob")),
            Err(SnapshotError::Corrupt("match names an un-indexed value"))
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = to_bytes(&engine());
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes, &Obs::disabled()), Err(SnapshotError::BadMagic)));
        assert!(matches!(from_bytes(b"", &Obs::disabled()), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = to_bytes(&engine());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes, &Obs::disabled()),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = to_bytes(&engine());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            from_bytes(&bytes, &Obs::disabled()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        let bytes = to_bytes(&engine());
        // Exhaustive on the header, sampled through the payload.
        for cut in (0..bytes.len()).filter(|c| *c < 200 || c % 97 == 0) {
            let r = from_bytes(&bytes[..cut], &Obs::disabled());
            assert!(r.is_err(), "truncation at {cut} must error");
        }
    }

    #[test]
    fn save_and_load_via_file() {
        let e = engine();
        let path = std::env::temp_dir().join("snaps_snapshot_unit_test.snap");
        save(&e, &path).expect("save");
        let restored = load(&path, &Obs::disabled()).expect("load");
        assert_eq!(restored.graph().len(), e.graph().len());
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_stamped_reports_file_identity() {
        let e = engine();
        let path = std::env::temp_dir().join("snaps_snapshot_stamp_test.snap");
        save(&e, &path).expect("save");
        let (restored, stamp) = load_stamped(&path, &Obs::disabled()).expect("load");
        assert_eq!(restored.graph().len(), e.graph().len());
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(stamp.version, FORMAT_VERSION);
        assert_eq!(stamp.checksum, crc32(&bytes));
        assert_eq!(stamp.bytes, bytes.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let r = load("/nonexistent/snaps.snap", &Obs::disabled());
        assert!(matches!(r, Err(SnapshotError::Io(_))));
    }
}
