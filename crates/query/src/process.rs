//! The search engine: accumulator construction, refinement, and ranking.
//!
//! A query works on dense ids, not strings: the similarity indexes name
//! each matched value by its value id, the engine maps a value id to its
//! keyword posting through a table derived once at assembly, and the
//! accumulator is a dense per-entity table borrowed from a small pool.
//! Names and the location are all scored through their postings; each
//! candidate is refined from a compact per-entity row, and the top `m` are
//! picked over `(score, entity)` keys.

use std::sync::{Mutex, PoisonError};

use snaps_core::{PedigreeEntity, PedigreeGraph};
use snaps_index::{KeywordIndex, Postings, SimilarityIndex, DEFAULT_S_T};
use snaps_model::{EntityId, Gender};
use snaps_obs::{Counter, HistogramHandle, Obs};

use crate::query::{QueryRecord, QueryWeights, SearchKind};

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedMatch {
    /// The matched entity.
    pub entity: EntityId,
    /// Overall match score normalised to a percentage (paper §7).
    pub score_percent: f64,
    /// Best first-name similarity contributing to the score.
    pub first_name_sim: f64,
    /// Best surname similarity contributing to the score.
    pub surname_sim: f64,
    /// Year match score, when a range was queried.
    pub year_score: Option<f64>,
    /// Gender match score, when a gender was queried.
    pub gender_score: Option<f64>,
    /// Best location similarity, when a location was queried.
    pub location_score: Option<f64>,
}

/// The online search service: pedigree graph + indices, ready for queries.
///
/// Queries take `&self`: the §7 memoisation of unseen query values lives in
/// the similarity indexes' internal sharded caches, and each query borrows
/// its accumulator from a pool, so one engine can be shared across threads
/// (e.g. behind an `Arc` in `snaps-serve`).
#[derive(Debug)]
pub struct SearchEngine {
    graph: PedigreeGraph,
    keyword: KeywordIndex,
    first_name_sims: SimilarityIndex,
    surname_sims: SimilarityIndex,
    location_sims: SimilarityIndex,
    /// Keyword posting position of each first-name value, by value id.
    first_name_postings: Vec<usize>,
    /// Keyword posting position of each surname value, by value id.
    surname_postings: Vec<usize>,
    /// Keyword posting position of each location value, by value id.
    location_postings: Vec<usize>,
    /// The fields refinement reads, per entity, by entity index.
    rows: Vec<EntityRow>,
    /// Idle accumulators; a query pops one (or makes one when none is
    /// idle) and pushes it back clean.
    pool: Mutex<Vec<Accumulator>>,
    weights: QueryWeights,
    obs: Obs,
    n_queries: Counter,
    results_returned: Counter,
    index_probes: Counter,
    candidates_scored: Counter,
    latency: HistogramHandle,
}

/// The fields of a [`PedigreeEntity`] that refinement scores, copied out
/// once so a candidate costs one small read instead of the whole entity.
#[derive(Debug, Clone, Copy)]
struct EntityRow {
    has_birth_record: bool,
    has_death_record: bool,
    gender: Gender,
    birth_year: Option<i32>,
    death_year: Option<i32>,
}

impl EntityRow {
    fn of(e: &PedigreeEntity) -> Self {
        Self {
            has_birth_record: e.has_birth_record,
            has_death_record: e.has_death_record,
            gender: e.gender,
            birth_year: e.birth_year,
            death_year: e.death_year,
        }
    }
}

/// One entity's accumulator slot: the best similarity of each queried
/// value among the entity's values, and whether a name posting reached it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    first_name: f64,
    surname: f64,
    location: f64,
    seen: bool,
}

/// Accumulator M of one query: a slot per entity, the entities a name
/// posting reached (in the order reached), and the rank keys of those that
/// pass refinement. Only touched slots are reset, so a query's cost does
/// not depend on the number of entities.
#[derive(Debug)]
struct Accumulator {
    slots: Vec<Slot>,
    touched: Vec<EntityId>,
    keys: Vec<(u64, EntityId)>,
}

impl Accumulator {
    fn new(entities: usize) -> Self {
        Self { slots: vec![Slot::default(); entities], touched: Vec::new(), keys: Vec::new() }
    }

    /// Raise the `field` similarity of every entity carrying `value`
    /// exactly or one of its approximate matches, marking each as a
    /// candidate. Returns the number of name values probed.
    fn add_name(
        &mut self,
        field: fn(&mut Slot) -> &mut f64,
        value: &str,
        sims: &SimilarityIndex,
        positions: &[usize],
        postings: &Postings,
    ) -> u64 {
        for_each_hit(value, sims, positions, postings, |e, sim| {
            // Postings name graph entities; `get_mut` keeps the request
            // path total if a caller-built index/graph pair disagrees.
            let Some(slot) = self.slots.get_mut(e.index()) else { return };
            if !slot.seen {
                slot.seen = true;
                self.touched.push(e);
            }
            let best = field(slot);
            *best = best.max(sim);
        })
    }

    /// Raise the location similarity of every candidate carrying `value`
    /// exactly or one of its approximate matches; entities no name posting
    /// reached stay untouched.
    fn add_location(
        &mut self,
        value: &str,
        sims: &SimilarityIndex,
        positions: &[usize],
        postings: &Postings,
    ) {
        for_each_hit(value, sims, positions, postings, |e, sim| {
            if let Some(slot) = self.slots.get_mut(e.index()).filter(|s| s.seen) {
                slot.location = slot.location.max(sim);
            }
        });
    }

    /// Clear the touched slots and the keys, leaving the accumulator as
    /// [`Accumulator::new`] made it.
    fn reset(&mut self) {
        for e in self.touched.drain(..) {
            if let Some(slot) = self.slots.get_mut(e.index()) {
                *slot = Slot::default();
            }
        }
        self.keys.clear();
    }
}

/// Call `hit(entity, similarity)` for every entity in the keyword posting
/// of `value` (similarity 1.0, when indexed) and of each of its approximate
/// matches; `positions` maps a value id of `sims` to its posting. Returns
/// the number of values probed: the exact value plus each match.
fn for_each_hit(
    value: &str,
    sims: &SimilarityIndex,
    positions: &[usize],
    postings: &Postings,
    mut hit: impl FnMut(EntityId, f64),
) -> u64 {
    let (exact, matches) = sims.lookup_with_id(value);
    for (id, sim) in exact.map(|id| (id, 1.0)).into_iter().chain(matches.iter().copied()) {
        let position = positions.get(id as usize).copied().unwrap_or(usize::MAX);
        for &e in postings.at(position) {
            hit(e, sim);
        }
    }
    1 + matches.len() as u64
}

impl SearchEngine {
    /// Build the engine (keyword + similarity indices) from a pedigree graph.
    #[must_use]
    pub fn build(graph: PedigreeGraph) -> Self {
        Self::build_with(graph, QueryWeights::default(), DEFAULT_S_T)
    }

    /// [`SearchEngine::build`] with default weights and threshold but an
    /// explicit instrumentation handle.
    #[must_use]
    pub fn build_obs(graph: PedigreeGraph, obs: &Obs) -> Self {
        Self::build_with_obs(graph, QueryWeights::default(), DEFAULT_S_T, obs)
    }

    /// Build with explicit weights and similarity threshold.
    #[must_use]
    pub fn build_with(graph: PedigreeGraph, weights: QueryWeights, s_t: f64) -> Self {
        Self::build_with_obs(graph, weights, s_t, &Obs::disabled())
    }

    /// Build with instrumentation: index construction is timed under an
    /// `engine_build` span, and queries record `query.*` counters plus a
    /// `query.latency` histogram on `obs`.
    #[must_use]
    pub(crate) fn build_with_obs(
        graph: PedigreeGraph,
        weights: QueryWeights,
        s_t: f64,
        obs: &Obs,
    ) -> Self {
        let build_span = obs.span("engine_build");
        let span = build_span.child("keyword_index");
        let keyword = KeywordIndex::build(&graph);
        span.finish();
        let span = build_span.child("similarity_indices");
        let first_name_sims = SimilarityIndex::build(keyword.first_names().values(), s_t);
        let surname_sims = SimilarityIndex::build(keyword.surnames().values(), s_t);
        let location_sims = SimilarityIndex::build(keyword.locations().values(), s_t);
        span.finish();
        build_span.finish();
        Self::from_parts(graph, keyword, first_name_sims, surname_sims, location_sims, weights, obs)
    }

    /// Assemble an engine from already-built parts — the snapshot-restore
    /// path (`snaps-serve`), which deserialises the graph and indexes
    /// instead of recomputing them. Wires the same instrumentation as
    /// [`SearchEngine::build_with_obs`], including the similarity indexes'
    /// `index.sim_cache.*` counters, and derives what the query path reads:
    /// the value id → keyword posting tables of the three fields (the
    /// postings themselves are not copied) and each entity's scoring row.
    #[must_use]
    pub fn from_parts(
        graph: PedigreeGraph,
        keyword: KeywordIndex,
        mut first_name_sims: SimilarityIndex,
        mut surname_sims: SimilarityIndex,
        mut location_sims: SimilarityIndex,
        weights: QueryWeights,
        obs: &Obs,
    ) -> Self {
        first_name_sims.instrument(obs);
        surname_sims.instrument(obs);
        location_sims.instrument(obs);
        let first_name_postings = posting_positions(&first_name_sims, keyword.first_names());
        let surname_postings = posting_positions(&surname_sims, keyword.surnames());
        let location_postings = posting_positions(&location_sims, keyword.locations());
        let rows = graph.entities.iter().map(EntityRow::of).collect();
        Self {
            graph,
            keyword,
            first_name_sims,
            surname_sims,
            location_sims,
            first_name_postings,
            surname_postings,
            location_postings,
            rows,
            pool: Mutex::new(Vec::new()),
            weights,
            obs: obs.clone(),
            n_queries: obs.counter("query.count"),
            results_returned: obs.counter("query.results_returned"),
            index_probes: obs.counter("query.index_probes"),
            candidates_scored: obs.counter("query.candidates_scored"),
            latency: obs.histogram("query.latency"),
        }
    }

    /// The underlying pedigree graph.
    #[must_use]
    pub fn graph(&self) -> &PedigreeGraph {
        &self.graph
    }

    /// The keyword index.
    #[must_use]
    pub fn keyword_index(&self) -> &KeywordIndex {
        &self.keyword
    }

    /// The first-name similarity index.
    #[must_use]
    pub fn first_name_sims(&self) -> &SimilarityIndex {
        &self.first_name_sims
    }

    /// The surname similarity index.
    #[must_use]
    pub fn surname_sims(&self) -> &SimilarityIndex {
        &self.surname_sims
    }

    /// The location similarity index.
    #[must_use]
    pub fn location_sims(&self) -> &SimilarityIndex {
        &self.location_sims
    }

    /// The scoring weights.
    #[must_use]
    pub fn weights(&self) -> QueryWeights {
        self.weights
    }

    /// Process a query and return the `top_m` ranked entities.
    ///
    /// Takes `&self` — concurrent callers sharing one engine get identical
    /// results to sequential ones. Each call records one `query` span, one
    /// `query.latency` histogram sample, and bumps the `query.count` /
    /// `query.results_returned` counters (all no-ops without
    /// instrumentation).
    pub fn query(&self, q: &QueryRecord, top_m: usize) -> Vec<RankedMatch> {
        let span = self.obs.span("query");
        let pooled = self.pool.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let mut acc = pooled.unwrap_or_else(|| Accumulator::new(self.rows.len()));
        let results = self.process_query(&mut acc, q, top_m);
        acc.reset();
        self.pool.lock().unwrap_or_else(PoisonError::into_inner).push(acc);
        self.latency.record(span.finish());
        self.n_queries.incr();
        self.results_returned.add(results.len() as u64);
        results
    }

    /// Run the full §7 pipeline on a clean accumulator: accumulate name
    /// matches, refine with optional attributes, rank, and normalise.
    ///
    /// Records `query.index_probes` (similarity-index lookups plus one
    /// keyword bucket probe per matched name value) and
    /// `query.candidates_scored`. The location's posting probes are not
    /// counted — only its one similarity-index lookup is — so the counter
    /// stays comparable with versions that scored location by string.
    fn process_query(
        &self,
        acc: &mut Accumulator,
        q: &QueryRecord,
        top_m: usize,
    ) -> Vec<RankedMatch> {
        // --- Accumulator M: entities with an exact or approximate name
        // match, keeping the best similarity of each name.
        let fn_values = acc.add_name(
            |s| &mut s.first_name,
            &q.first_name,
            &self.first_name_sims,
            &self.first_name_postings,
            self.keyword.first_names(),
        );
        let sn_values = acc.add_name(
            |s| &mut s.surname,
            &q.surname,
            &self.surname_sims,
            &self.surname_postings,
            self.keyword.surnames(),
        );
        self.index_probes.add(2); // the two similarity-index lookups
        self.index_probes.add(fn_values + sn_values);
        self.candidates_scored.add(acc.touched.len() as u64);

        // --- Refinement: certificate kind, gender, year, location.
        if let Some(location) = q.location.as_deref() {
            acc.add_location(
                location,
                &self.location_sims,
                &self.location_postings,
                self.keyword.locations(),
            );
            self.index_probes.incr(); // location similarity-index lookup
        }
        let max_score = self.weights.max_score(q.provided());
        let Accumulator { slots, touched, keys } = acc;
        for &e in touched.iter() {
            let (Some(row), Some(slot)) = (self.rows.get(e.index()), slots.get(e.index())) else {
                continue;
            };
            // The full entity is read only for a geo filter.
            let in_region = q.geo_filter.is_none()
                || self.graph.get(e).is_some_and(|entity| geo_matches(entity, q.geo_filter));
            if !kind_matches(row, q.kind) || !in_region {
                continue;
            }
            keys.push(rank_key(self.rank(q, max_score, e, row, slot).score_percent, e));
        }

        // --- Top m under the total order (score descending, then entity):
        // the keys order exactly so, and no two are equal.
        if top_m < keys.len() {
            if let Some(last) = top_m.checked_sub(1) {
                keys.select_nth_unstable(last);
            }
            keys.truncate(top_m);
        }
        keys.sort_unstable();
        keys.iter()
            .filter_map(|&(_, e)| {
                let (row, slot) = (self.rows.get(e.index())?, slots.get(e.index())?);
                Some(self.rank(q, max_score, e, row, slot))
            })
            .collect()
    }

    /// Score one candidate from its scoring row and accumulator slot.
    fn rank(
        &self,
        q: &QueryRecord,
        max_score: f64,
        entity: EntityId,
        row: &EntityRow,
        slot: &Slot,
    ) -> RankedMatch {
        let weights = self.weights;
        let mut score = weights.first_name * slot.first_name + weights.surname * slot.surname;
        let gender_score = q.gender.map(|g| {
            let s = if row.gender.compatible(g) { 1.0 } else { 0.0 };
            score += weights.gender * s;
            s
        });
        let year_score = q.year_range.map(|range| {
            let s = year_score(row, q.kind, range);
            score += weights.year * s;
            s
        });
        let location_score = q.location.as_ref().map(|_| {
            score += weights.location * slot.location;
            slot.location
        });
        RankedMatch {
            entity,
            score_percent: 100.0 * score / max_score,
            first_name_sim: slot.first_name,
            surname_sim: slot.surname,
            year_score,
            gender_score,
            location_score,
        }
    }
}

/// Keyword posting position of every value of `sims`, by value id;
/// `usize::MAX` (no posting) for a value the keyword index lacks.
fn posting_positions(sims: &SimilarityIndex, postings: &Postings) -> Vec<usize> {
    sims.indexed_values().iter().map(|v| postings.position(v).unwrap_or(usize::MAX)).collect()
}

/// The rank order as a plain integer key: the score's bits mapped so that
/// unsigned order is [`f64::total_cmp`] order, then inverted so a higher
/// score sorts first; ties go to the lower entity id.
fn rank_key(score: f64, e: EntityId) -> (u64, EntityId) {
    let bits = score.to_bits();
    let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    (!ordered, e)
}

/// Does the entity match the searched certificate kind?
fn kind_matches(row: &EntityRow, kind: SearchKind) -> bool {
    match kind {
        SearchKind::Birth => row.has_birth_record,
        SearchKind::Death => row.has_death_record,
    }
}

/// Does the entity fall inside the query's geographic restriction?
/// Entities without any geocoded address never match a geo-filtered query —
/// the filter *limits* the search region (§12 future work).
fn geo_matches(e: &PedigreeEntity, filter: Option<(snaps_strsim::geo::GeoPoint, f64)>) -> bool {
    let Some((centre, radius_km)) = filter else { return true };
    e.geos.iter().any(|&g| snaps_strsim::geo::haversine_km(g.into(), centre) <= radius_km)
}

/// Year score: 1.0 inside the queried range, linearly decaying to 0 at
/// three years outside it (user-supplied years are uncertain, §7).
fn year_score(row: &EntityRow, kind: SearchKind, range: (i32, i32)) -> f64 {
    let year = match kind {
        SearchKind::Birth => row.birth_year,
        SearchKind::Death => row.death_year,
    };
    let Some(y) = year else { return 0.0 };
    let (lo, hi) = range;
    let dist = if y < lo {
        lo - y
    } else if y > hi {
        y - hi
    } else {
        0
    };
    (1.0 - f64::from(dist) / 3.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaps_core::{resolve, SnapsConfig};
    use snaps_model::{CertificateKind, Dataset, Gender, Role};

    /// Dataset: the birth and death of flora macrae (linked), the birth of
    /// douglas macdonald, and the death of doyd macdougall.
    fn engine() -> SearchEngine {
        let mut ds = Dataset::new("t");
        let person = |ds: &mut Dataset, kind, year, role, f: &str, s: &str, g, addr: &str| {
            let c = ds.push_certificate(kind, year);
            let r = ds.push_record(c, role, g);
            ds.record_mut(r).first_name = Some(f.into());
            ds.record_mut(r).surname = Some(s.into());
            ds.record_mut(r).address = Some(addr.into());
            if role == Role::DeathDeceased {
                ds.record_mut(r).age = Some(5);
            }
            r
        };
        person(
            &mut ds,
            CertificateKind::Birth,
            1880,
            Role::BirthBaby,
            "flora",
            "macrae",
            Gender::Female,
            "portree",
        );
        person(
            &mut ds,
            CertificateKind::Death,
            1885,
            Role::DeathDeceased,
            "flora",
            "macrae",
            Gender::Female,
            "portree",
        );
        person(
            &mut ds,
            CertificateKind::Birth,
            1874,
            Role::BirthBaby,
            "douglas",
            "macdonald",
            Gender::Male,
            "snizort",
        );
        person(
            &mut ds,
            CertificateKind::Death,
            1891,
            Role::DeathDeceased,
            "doyd",
            "macdougall",
            Gender::Male,
            "duirinish",
        );
        let res = resolve(&ds, &SnapsConfig::default());
        SearchEngine::build(PedigreeGraph::build(&ds, &res))
    }

    #[test]
    fn exact_match_scores_100() {
        let e = engine();
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth);
        let r = e.query(&q, 10);
        assert!(!r.is_empty());
        assert!((r[0].score_percent - 100.0).abs() < 1e-9);
        assert_eq!(r[0].first_name_sim, 1.0);
        assert_eq!(r[0].surname_sim, 1.0);
    }

    #[test]
    fn approximate_names_found_and_ranked_below_exact() {
        let e = engine();
        // The paper's running example: query douglas macdonald also surfaces
        // doyd macdougall (Fig. 6).
        let q = QueryRecord::new("douglas", "macdonald", SearchKind::Death);
        let r = e.query(&q, 10);
        assert!(!r.is_empty());
        let names: Vec<String> =
            r.iter().map(|m| e.graph().entity(m.entity).display_name()).collect();
        assert!(names.contains(&"doyd macdougall".to_string()), "{names:?}");
        // All death-search results have death records.
        for m in &r {
            assert!(e.graph().entity(m.entity).has_death_record);
        }
    }

    #[test]
    fn kind_filter_excludes_other_kind() {
        let e = engine();
        let q = QueryRecord::new("douglas", "macdonald", SearchKind::Birth);
        let r = e.query(&q, 10);
        assert!(r.iter().all(|m| e.graph().entity(m.entity).has_birth_record));
        // douglas macdonald only has a birth record → found here…
        assert!(!r.is_empty());
        // …and not in a death search with an exact name requirement.
        let q = QueryRecord::new("douglas", "macdonald", SearchKind::Death);
        let r = e.query(&q, 10);
        assert!(r.iter().all(|m| e.graph().entity(m.entity).display_name() != "douglas macdonald"));
    }

    #[test]
    fn year_range_boosts_in_range() {
        let e = engine();
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth).with_years(1878, 1882);
        let r = e.query(&q, 10);
        assert!((r[0].score_percent - 100.0).abs() < 1e-9);
        assert_eq!(r[0].year_score, Some(1.0));
        // Out-of-range by 10 years → year component zero, score below 100.
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth).with_years(1890, 1895);
        let r = e.query(&q, 10);
        assert_eq!(r[0].year_score, Some(0.0));
        assert!(r[0].score_percent < 100.0);
    }

    #[test]
    fn near_miss_year_decays() {
        let e = engine();
        // Born 1880, queried 1881-1885: one year out → 2/3.
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth).with_years(1881, 1885);
        let r = e.query(&q, 10);
        let ys = r[0].year_score.unwrap();
        assert!((ys - (1.0 - 1.0 / 3.0)).abs() < 1e-9, "{ys}");
    }

    #[test]
    fn gender_and_location_refine() {
        let e = engine();
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth)
            .with_gender(Gender::Female)
            .with_location("portree");
        let r = e.query(&q, 10);
        assert_eq!(r[0].gender_score, Some(1.0));
        assert_eq!(r[0].location_score, Some(1.0));
        assert!((r[0].score_percent - 100.0).abs() < 1e-9);
        // Wrong gender drops the component.
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth).with_gender(Gender::Male);
        let r = e.query(&q, 10);
        assert_eq!(r[0].gender_score, Some(0.0));
    }

    #[test]
    fn no_name_match_no_results() {
        let e = engine();
        let q = QueryRecord::new("zzyzx", "qqqqq", SearchKind::Birth);
        assert!(e.query(&q, 10).is_empty());
    }

    #[test]
    fn top_m_truncates_and_sorts() {
        let e = engine();
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth);
        let all = e.query(&q, 10);
        let one = e.query(&q, 1);
        assert_eq!(one.len(), 1.min(all.len()));
        for w in all.windows(2) {
            assert!(w[0].score_percent >= w[1].score_percent);
        }
    }

    #[test]
    fn instrumented_engine_records_queries() {
        let obs = snaps_obs::Obs::new(&snaps_obs::ObsConfig::full());
        let base = engine();
        let e = SearchEngine::build_with_obs(
            base.graph().clone(),
            QueryWeights::default(),
            snaps_index::DEFAULT_S_T,
            &obs,
        );
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth);
        let n = e.query(&q, 10).len();
        let _ = e.query(&q, 1);

        let report = obs.report().expect("enabled obs");
        assert!(report.span("engine_build").is_some(), "index build timed");
        assert_eq!(report.span("query").map(|s| s.count), Some(2));
        assert_eq!(report.counter("query.count"), Some(2));
        assert_eq!(report.counter("query.results_returned"), Some(n as u64 + 1));
        assert!(
            report.counter("query.index_probes").unwrap_or(0) >= 4,
            "2 sim + keyword probes per query"
        );
        assert!(report.counter("query.candidates_scored").unwrap_or(0) >= 2);
        let h = report.histogram("query.latency").expect("latency histogram");
        assert_eq!(h.count, 2);
        assert!(h.min_ns > 0 && h.p95_ns >= h.p50_ns);
    }

    #[test]
    fn misspelled_query_still_finds() {
        let e = engine();
        // "flra macre" — typo'd both names.
        let q = QueryRecord::new("flra", "macre", SearchKind::Birth);
        let r = e.query(&q, 10);
        assert!(!r.is_empty());
        let top = e.graph().entity(r[0].entity).display_name();
        assert_eq!(top, "flora macrae");
        assert!(r[0].score_percent < 100.0, "approximate match scores below 100");
    }
}

#[cfg(test)]
mod geo_filter_tests {
    use super::*;
    use crate::query::{QueryRecord, SearchKind};
    use snaps_core::{resolve, SnapsConfig};
    use snaps_model::person::GeoCoord;
    use snaps_model::{CertificateKind, Dataset, Gender, Role};
    use snaps_strsim::geo::GeoPoint;

    /// Two same-named people: one geocoded near Portree, one near Sleat
    /// (~30 km apart), plus one without any geocode.
    fn engine() -> SearchEngine {
        let mut ds = Dataset::new("t");
        let add = |ds: &mut Dataset, addr: &str, geo: Option<GeoCoord>| {
            let c = ds.push_certificate(CertificateKind::Birth, 1880);
            let r = ds.push_record(c, Role::BirthBaby, Gender::Female);
            let rec = ds.record_mut(r);
            rec.first_name = Some("flora".into());
            rec.surname = Some("macrae".into());
            rec.address = Some(addr.into());
            rec.geo = geo;
        };
        add(&mut ds, "portree", Some(GeoCoord { lat: 57.41, lon: -6.19 }));
        add(&mut ds, "sleat", Some(GeoCoord { lat: 57.15, lon: -5.90 }));
        add(&mut ds, "unknown", None);
        let res = resolve(&ds, &SnapsConfig::default());
        SearchEngine::build(PedigreeGraph::build(&ds, &res))
    }

    #[test]
    fn geo_filter_limits_to_radius() {
        let e = engine();
        let portree = GeoPoint::new(57.41, -6.19);
        let q =
            QueryRecord::new("flora", "macrae", SearchKind::Birth).with_geo_filter(portree, 10.0);
        let r = e.query(&q, 10);
        assert_eq!(r.len(), 1, "only the Portree flora is within 10 km");
        let hit = e.graph().entity(r[0].entity);
        assert_eq!(hit.addresses[0], "portree");
    }

    #[test]
    fn wide_radius_admits_both_geocoded() {
        let e = engine();
        let portree = GeoPoint::new(57.41, -6.19);
        let q =
            QueryRecord::new("flora", "macrae", SearchKind::Birth).with_geo_filter(portree, 100.0);
        let r = e.query(&q, 10);
        assert_eq!(r.len(), 2, "both geocoded floras, never the ungeocoded one");
    }

    #[test]
    fn no_filter_admits_everyone() {
        let e = engine();
        let q = QueryRecord::new("flora", "macrae", SearchKind::Birth);
        assert_eq!(e.query(&q, 10).len(), 3);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_panics() {
        let _ = QueryRecord::new("a", "b", SearchKind::Birth)
            .with_geo_filter(GeoPoint::new(0.0, 0.0), 0.0);
    }
}

/// The dense-id query path against the string-keyed one it replaced, kept
/// here as the oracle: on seeded random graphs and queries both must
/// return bit-identical ranked lists and count the same work.
#[cfg(test)]
mod oracle_tests {
    use std::collections::BTreeMap;

    use super::*;
    use snaps_model::person::GeoCoord;
    use snaps_model::Gender;
    use snaps_obs::ObsConfig;
    use snaps_rng::{check_cases, Rng};
    use snaps_strsim::geo::GeoPoint;

    /// Value → similarity for one query value, keyed by string: the exact
    /// value at `1.0` plus every approximate match.
    fn string_similarities(value: &str, index: &SimilarityIndex) -> BTreeMap<String, f64> {
        let mut map: BTreeMap<String, f64> = BTreeMap::new();
        map.insert(value.to_string(), 1.0);
        for &(id, s) in index.lookup_or_compute(value).iter() {
            map.entry(index.indexed_values()[id as usize].to_string()).or_insert(s);
        }
        map
    }

    /// The string-keyed §7 pipeline: name maps, keyword probes by string,
    /// a `BTreeMap` accumulator, and a full sort.
    fn oracle(engine: &SearchEngine, q: &QueryRecord, top_m: usize, obs: &Obs) -> Vec<RankedMatch> {
        let probes = obs.counter("query.index_probes");
        let keyword = engine.keyword_index();
        let fn_map = string_similarities(&q.first_name, engine.first_name_sims());
        let sn_map = string_similarities(&q.surname, engine.surname_sims());
        probes.add(2);

        let mut acc: BTreeMap<EntityId, (f64, f64)> = BTreeMap::new();
        for (value, &sim) in &fn_map {
            for &e in keyword.first_names().get(value) {
                let entry = acc.entry(e).or_insert((0.0, 0.0));
                entry.0 = entry.0.max(sim);
            }
        }
        for (value, &sim) in &sn_map {
            for &e in keyword.surnames().get(value) {
                let entry = acc.entry(e).or_insert((0.0, 0.0));
                entry.1 = entry.1.max(sim);
            }
        }
        probes.add((fn_map.len() + sn_map.len()) as u64);
        obs.counter("query.candidates_scored").add(acc.len() as u64);

        let loc_map = q.location.as_ref().map(|l| string_similarities(l, engine.location_sims()));
        if loc_map.is_some() {
            probes.incr();
        }
        let weights = engine.weights();
        let max_score = weights.max_score(q.provided());
        let mut results: Vec<RankedMatch> = acc
            .into_iter()
            .filter_map(|(e, (fn_sim, sn_sim))| {
                let entity = engine.graph().get(e)?;
                let row = EntityRow::of(entity);
                if !kind_matches(&row, q.kind) || !geo_matches(entity, q.geo_filter) {
                    return None;
                }
                let mut score = weights.first_name * fn_sim + weights.surname * sn_sim;
                let gender_score = q.gender.map(|g| {
                    let s = if entity.gender.compatible(g) { 1.0 } else { 0.0 };
                    score += weights.gender * s;
                    s
                });
                let year_sc = q.year_range.map(|range| {
                    let s = year_score(&row, q.kind, range);
                    score += weights.year * s;
                    s
                });
                let location_score = loc_map.as_ref().map(|map| {
                    let s = entity
                        .addresses
                        .iter()
                        .filter_map(|a| map.get(a))
                        .copied()
                        .fold(0.0f64, f64::max);
                    score += weights.location * s;
                    s
                });
                Some(RankedMatch {
                    entity: e,
                    score_percent: 100.0 * score / max_score,
                    first_name_sim: fn_sim,
                    surname_sim: sn_sim,
                    year_score: year_sc,
                    gender_score,
                    location_score,
                })
            })
            .collect();
        results.sort_by(|a, b| {
            b.score_percent.total_cmp(&a.score_percent).then_with(|| a.entity.cmp(&b.entity))
        });
        results.truncate(top_m);
        results
    }

    /// A short word over a small alphabet, so values collide and resemble
    /// each other often.
    fn word(rng: &mut Rng) -> String {
        let len = rng.gen_range(3..=7);
        (0..len).map(|_| char::from(rng.gen_range(b'a'..=b'f'))).collect()
    }

    fn pick<'a>(rng: &mut Rng, values: &'a [String]) -> &'a str {
        &values[rng.gen_range(0..values.len())]
    }

    /// Drop one letter: a name the indexes have (almost surely) not seen.
    fn typo(rng: &mut Rng, v: &str) -> String {
        let at = rng.gen_range(0..v.len());
        v.chars().enumerate().filter(|&(i, _)| i != at).map(|(_, c)| c).collect()
    }

    /// 8-60 entities drawing names and places from small pools, some with
    /// two of each, a few geocoded.
    fn random_graph(rng: &mut Rng) -> (PedigreeGraph, [Vec<String>; 3]) {
        let pools: [Vec<String>; 3] =
            [0, 1, 2].map(|_| (0..rng.gen_range(3..12)).map(|_| word(rng)).collect());
        let n = rng.gen_range(8..60);
        let entities = (0..n)
            .map(|i| {
                let mut values = |pool: &[String]| {
                    let mut vs = vec![pick(rng, pool).to_owned()];
                    if rng.gen_bool(0.3) {
                        let v = pick(rng, pool).to_owned();
                        if !vs.contains(&v) {
                            vs.push(v);
                        }
                    }
                    vs
                };
                let (first_names, surnames, addresses) =
                    (values(&pools[0]), values(&pools[1]), values(&pools[2]));
                let geos = if rng.gen_bool(0.5) {
                    vec![GeoCoord {
                        lat: rng.gen_range(57.0..57.6),
                        lon: rng.gen_range(-6.5..-5.8),
                    }]
                } else {
                    Vec::new()
                };
                let has_birth_record = rng.gen_bool(0.7);
                PedigreeEntity {
                    id: EntityId::from_index(i),
                    records: Vec::new(),
                    first_names,
                    surnames,
                    addresses,
                    occupations: Vec::new(),
                    geos,
                    gender: [Gender::Female, Gender::Male, Gender::Unknown]
                        [rng.gen_range(0..3usize)],
                    birth_year: rng.gen_bool(0.8).then(|| rng.gen_range(1850..1880)),
                    death_year: rng.gen_bool(0.5).then(|| rng.gen_range(1860..1900)),
                    has_birth_record,
                    has_death_record: !has_birth_record || rng.gen_bool(0.3),
                    event_years: Vec::new(),
                }
            })
            .collect();
        (PedigreeGraph::from_parts(entities, Vec::new(), Vec::new()), pools)
    }

    /// A query from the pools: names exact or typo'd, a random kind, and
    /// each optional attribute half the time (the location exact or typo'd).
    fn random_query(rng: &mut Rng, pools: &[Vec<String>; 3]) -> QueryRecord {
        let name = |rng: &mut Rng, pool: &[String]| {
            let v = pick(rng, pool).to_owned();
            if rng.gen_bool(0.3) {
                typo(rng, &v)
            } else {
                v
            }
        };
        let first = name(rng, &pools[0]);
        let surname = name(rng, &pools[1]);
        let kind = if rng.gen_bool(0.5) { SearchKind::Birth } else { SearchKind::Death };
        let mut q = QueryRecord::new(&first, &surname, kind);
        if rng.gen_bool(0.5) {
            q = q.with_gender(if rng.gen_bool(0.5) { Gender::Female } else { Gender::Male });
        }
        if rng.gen_bool(0.5) {
            let lo = rng.gen_range(1850..1890);
            q = q.with_years(lo, lo + rng.gen_range(0..6));
        }
        if rng.gen_bool(0.5) {
            q = q.with_location(&name(rng, &pools[2]));
        }
        if rng.gen_bool(0.25) {
            let centre = GeoPoint::new(rng.gen_range(57.0..57.6), rng.gen_range(-6.5..-5.8));
            q = q.with_geo_filter(centre, rng.gen_range(5.0..40.0));
        }
        q
    }

    fn assert_bit_equal(got: &[RankedMatch], want: &[RankedMatch], q: &QueryRecord) {
        let bits = |m: &RankedMatch| {
            (
                m.entity,
                m.score_percent.to_bits(),
                m.first_name_sim.to_bits(),
                m.surname_sim.to_bits(),
                m.year_score.map(f64::to_bits),
                m.gender_score.map(f64::to_bits),
                m.location_score.map(f64::to_bits),
            )
        };
        let (got, want): (Vec<_>, Vec<_>) =
            (got.iter().map(bits).collect(), want.iter().map(bits).collect());
        assert_eq!(got, want, "query {q:?}");
    }

    #[test]
    fn dense_id_path_matches_the_string_keyed_oracle() {
        check_cases(48, |rng| {
            let (graph, pools) = random_graph(rng);
            let n = graph.len();
            let obs = Obs::new(&ObsConfig::full());
            let engine = SearchEngine::build_obs(graph, &obs);
            let oracle_obs = Obs::new(&ObsConfig::full());
            for _ in 0..24 {
                let q = random_query(rng, &pools);
                for m in [1, 10, n + 1] {
                    let want = oracle(&engine, &q, m, &oracle_obs);
                    assert_bit_equal(&engine.query(&q, m), &want, &q);
                }
            }
            let (got, want) = (obs.report().unwrap(), oracle_obs.report().unwrap());
            for counter in ["query.index_probes", "query.candidates_scored"] {
                assert_eq!(got.counter(counter), want.counter(counter), "{counter}");
            }
        });
    }

    /// [`random_graph`] with the addresses redrawn: one to four per entity
    /// from a pool of two to six places, about half of the entities also
    /// sharing the first place.
    fn located_graph(rng: &mut Rng) -> (PedigreeGraph, [Vec<String>; 3]) {
        let (graph, mut pools) = random_graph(rng);
        pools[2] = (0..rng.gen_range(2..7)).map(|_| word(rng)).collect();
        let mut entities = graph.entities;
        for e in &mut entities {
            e.addresses.clear();
            if rng.gen_bool(0.5) {
                e.addresses.push(pools[2][0].clone());
            }
            for _ in 0..rng.gen_range(1..=4) {
                let v = pick(rng, &pools[2]).to_owned();
                if !e.addresses.contains(&v) {
                    e.addresses.push(v);
                }
            }
        }
        (PedigreeGraph::from_parts(entities, Vec::new(), Vec::new()), pools)
    }

    /// Location scoring through the location postings equals the string
    /// compare over each entity's addresses, for a location that is
    /// indexed, a typo the similarity cache serves, and one matching no
    /// place; with and without gender and years, for m of 1, 10 and all.
    #[test]
    fn location_postings_match_the_string_keyed_oracle() {
        check_cases(32, |rng| {
            let (graph, pools) = located_graph(rng);
            let n = graph.len();
            let obs = Obs::new(&ObsConfig::full());
            let engine = SearchEngine::build_obs(graph, &obs);
            let oracle_obs = Obs::new(&ObsConfig::full());
            let cache_hits = || obs.report().and_then(|r| r.counter("index.sim_cache.hits"));
            for _ in 0..12 {
                let place = pick(rng, &pools[2]).to_owned();
                let kind = if rng.gen_bool(0.5) { SearchKind::Birth } else { SearchKind::Death };
                let base = QueryRecord::new(pick(rng, &pools[0]), pick(rng, &pools[1]), kind);
                let (gender, lo) = (rng.gen_bool(0.5), rng.gen_range(1850..1890));
                for location in [place.clone(), typo(rng, &place), "zzyzx".to_owned()] {
                    // Values the indexes lack; the oracle's lookups put them
                    // in the similarity caches just before each query.
                    let cached = [
                        (engine.first_name_sims(), &base.first_name),
                        (engine.surname_sims(), &base.surname),
                        (engine.location_sims(), &location),
                    ]
                    .iter()
                    .filter(|(sims, v)| sims.id_of(v).is_none())
                    .count() as u64;
                    for refined in [false, true] {
                        let mut q = base.clone().with_location(&location);
                        if refined {
                            q = q.with_years(lo, lo + 2).with_gender(if gender {
                                Gender::Female
                            } else {
                                Gender::Male
                            });
                        }
                        for m in [1, 10, n + 1] {
                            let want = oracle(&engine, &q, m, &oracle_obs);
                            let hits = cache_hits();
                            let got = engine.query(&q, m);
                            let served = cache_hits().zip(hits).map(|(a, b)| a - b);
                            assert_eq!(served, Some(cached), "{q:?} served by the cache");
                            if location == "zzyzx" {
                                assert!(got.iter().all(|r| r.location_score == Some(0.0)));
                            }
                            assert_bit_equal(&got, &want, &q);
                        }
                    }
                }
            }
            let (got, want) = (obs.report().unwrap(), oracle_obs.report().unwrap());
            for counter in ["query.index_probes", "query.candidates_scored"] {
                assert_eq!(got.counter(counter), want.counter(counter), "{counter}");
            }
        });
    }

    /// A query leaves nothing behind in the pooled accumulator: query B
    /// after query A on one engine equals query B on a fresh engine.
    #[test]
    fn a_query_leaves_no_residue() {
        check_cases(32, |rng| {
            let (graph, pools) = located_graph(rng);
            let n = graph.len();
            let (used, fresh) = (SearchEngine::build(graph.clone()), SearchEngine::build(graph));
            for _ in 0..8 {
                let (a, b) = (random_query(rng, &pools), random_query(rng, &pools));
                let (m_a, m_b) = ([1, 10, n + 1][rng.gen_range(0..3usize)], n + 1);
                let _ = used.query(&a, m_a);
                assert_bit_equal(&used.query(&b, m_b), &fresh.query(&b, m_b), &b);
            }
        });
    }

    /// Four threads sharing one engine, released together and each running
    /// the query list from its own starting point, get exactly the
    /// sequential answers.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test queries one engine from several threads"
    )]
    fn concurrent_queries_match_a_sequential_run() {
        check_cases(8, |rng| {
            let (graph, pools) = located_graph(rng);
            let n = graph.len();
            let queries: Vec<(QueryRecord, usize)> =
                (0..32).map(|i| (random_query(rng, &pools), [1, 10, n + 1][i % 3])).collect();
            let sequential: Vec<Vec<RankedMatch>> = {
                let engine = SearchEngine::build(graph.clone());
                queries.iter().map(|(q, m)| engine.query(q, *m)).collect()
            };
            let engine = SearchEngine::build(graph);
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let (engine, queries, sequential) = (&engine, &queries, &sequential);
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        for round in 0..4 {
                            for i in 0..queries.len() {
                                let at = (i + 8 * t + round) % queries.len();
                                let (q, m) = &queries[at];
                                assert_bit_equal(&engine.query(q, *m), &sequential[at], q);
                            }
                        }
                    });
                }
            });
        });
    }

    /// Ties in score are broken by entity id whichever `m` cuts the list.
    #[test]
    fn top_m_is_a_prefix_of_the_full_ranking() {
        check_cases(16, |rng| {
            let (graph, pools) = random_graph(rng);
            let n = graph.len();
            let engine = SearchEngine::build(graph);
            let q = random_query(rng, &pools);
            let all = engine.query(&q, n + 1);
            for m in 0..=all.len() {
                assert_eq!(engine.query(&q, m), all[..m], "m = {m}");
            }
        });
    }
}
