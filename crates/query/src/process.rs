//! The search engine: accumulator construction, refinement, and ranking.

use std::collections::BTreeMap;

use snaps_core::{PedigreeEntity, PedigreeGraph};
use snaps_index::{KeywordIndex, SimilarityIndex, DEFAULT_S_T};
use snaps_model::EntityId;
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
/// the similarity indexes' internal sharded caches, so one engine can be
/// shared across threads (e.g. behind an `Arc` in `snaps-serve`).
#[derive(Debug)]
pub struct SearchEngine {
    graph: PedigreeGraph,
    keyword: KeywordIndex,
    first_name_sims: SimilarityIndex,
    surname_sims: SimilarityIndex,
    location_sims: SimilarityIndex,
    weights: QueryWeights,
    obs: Obs,
    n_queries: Counter,
    results_returned: Counter,
    latency: HistogramHandle,
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
        let first_name_sims = SimilarityIndex::build(keyword.first_name_values(), s_t);
        let surname_sims = SimilarityIndex::build(keyword.surname_values(), s_t);
        let location_sims = SimilarityIndex::build(keyword.location_values(), s_t);
        span.finish();
        build_span.finish();
        Self::from_parts(graph, keyword, first_name_sims, surname_sims, location_sims, weights, obs)
    }

    /// Assemble an engine from already-built parts — the snapshot-restore
    /// path (`snaps-serve`), which deserialises the graph and indexes
    /// instead of recomputing them. Wires the same instrumentation as
    /// [`SearchEngine::build_with_obs`], including the similarity indexes'
    /// `index.sim_cache.*` counters.
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
        Self {
            graph,
            keyword,
            first_name_sims,
            surname_sims,
            location_sims,
            weights,
            obs: obs.clone(),
            n_queries: obs.counter("query.count"),
            results_returned: obs.counter("query.results_returned"),
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
        let results = process_query(
            q,
            &self.graph,
            &self.keyword,
            &self.first_name_sims,
            &self.surname_sims,
            &self.location_sims,
            self.weights,
            top_m,
            &self.obs,
        );
        self.latency.record(span.finish());
        self.n_queries.incr();
        self.results_returned.add(results.len() as u64);
        results
    }
}

/// Value → similarity map for one query value: the exact value at `1.0`
/// plus every approximate match from the similarity index.
fn value_similarities(value: &str, index: &SimilarityIndex) -> BTreeMap<String, f64> {
    let mut map: BTreeMap<String, f64> = BTreeMap::new();
    map.insert(value.to_string(), 1.0);
    for (v, s) in index.lookup_or_compute(value).iter() {
        map.entry(v.to_string()).or_insert(*s);
    }
    map
}

/// Does the entity match the searched certificate kind?
fn kind_matches(e: &PedigreeEntity, kind: SearchKind) -> bool {
    match kind {
        SearchKind::Birth => e.has_birth_record,
        SearchKind::Death => e.has_death_record,
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
fn year_score(e: &PedigreeEntity, kind: SearchKind, range: (i32, i32)) -> f64 {
    let year = match kind {
        SearchKind::Birth => e.birth_year,
        SearchKind::Death => e.death_year,
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

/// Run the full §7 pipeline: accumulate name matches, refine with optional
/// attributes, rank, and normalise.
///
/// Records `query.index_probes` (similarity-index lookups plus keyword
/// bucket probes) and `query.candidates_scored` on `obs`; pass
/// [`Obs::disabled`] when calling outside an instrumented engine.
#[allow(clippy::too_many_arguments)]
pub fn process_query(
    q: &QueryRecord,
    graph: &PedigreeGraph,
    keyword: &KeywordIndex,
    first_name_sims: &SimilarityIndex,
    surname_sims: &SimilarityIndex,
    location_sims: &SimilarityIndex,
    weights: QueryWeights,
    top_m: usize,
    obs: &Obs,
) -> Vec<RankedMatch> {
    let probes = obs.counter("query.index_probes");

    // --- Accumulator M: entities with an exact or approximate name match.
    let fn_map = value_similarities(&q.first_name, first_name_sims);
    let sn_map = value_similarities(&q.surname, surname_sims);
    probes.add(2); // the two similarity-index lookups

    let mut acc: BTreeMap<EntityId, (f64, f64)> = BTreeMap::new();
    for (value, &sim) in &fn_map {
        for &e in keyword.by_first_name(value) {
            let entry = acc.entry(e).or_insert((0.0, 0.0));
            entry.0 = entry.0.max(sim);
        }
    }
    for (value, &sim) in &sn_map {
        for &e in keyword.by_surname(value) {
            let entry = acc.entry(e).or_insert((0.0, 0.0));
            entry.1 = entry.1.max(sim);
        }
    }
    // One keyword bucket probe per matched name value.
    probes.add((fn_map.len() + sn_map.len()) as u64);
    obs.counter("query.candidates_scored").add(acc.len() as u64);

    // --- Refinement: certificate kind, gender, year, location.
    let loc_map = q.location.as_ref().map(|l| value_similarities(l, location_sims));
    if loc_map.is_some() {
        probes.incr(); // location similarity-index lookup
    }
    let provided = q.provided();
    let max_score = weights.max_score(provided);

    let mut results: Vec<RankedMatch> = acc
        .into_iter()
        .filter_map(|(e, (fn_sim, sn_sim))| {
            // Ids come from the keyword index; `get` keeps the request path
            // total even if an index/graph snapshot pair ever disagrees.
            let entity = graph.get(e)?;
            if !kind_matches(entity, q.kind) || !geo_matches(entity, q.geo_filter) {
                return None;
            }
            let mut score = weights.first_name * fn_sim + weights.surname * sn_sim;

            let gender_score = q.gender.map(|g| {
                let s = if entity.gender.compatible(g) { 1.0 } else { 0.0 };
                score += weights.gender * s;
                s
            });
            let year_sc = q.year_range.map(|range| {
                let s = year_score(entity, q.kind, range);
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
