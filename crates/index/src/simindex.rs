//! The similarity-aware index S (paper §6, after Christen et al.).
//!
//! For every indexed string value, all other values that share at least one
//! bigram and reach a Jaro-Winkler similarity of `s_t` are pre-computed, so
//! approximate matching at query time is a hash lookup. Query values never
//! seen before are compared once against the bigram-sharing candidates and
//! the result is cached "to speed-up future queries of the same value" (§7)
//! — in a sharded, bounded [`SimCache`] so concurrent readers share one
//! index through `&self` and novel query strings cannot grow memory without
//! limit.
//!
//! Every distinct value is stored once and has a dense id, its position
//! among the indexed values. Match lists — pre-computed, restored from a
//! snapshot, or cached for query values — name their values by that id, so
//! a list entry is 16 bytes, a cache miss costs one vector, and callers
//! that key other tables by value id (the search engine's keyword
//! postings) never compare strings.

use std::collections::BTreeMap;
use std::sync::Arc;

use snaps_obs::Obs;
use snaps_strsim::jaro_winkler;
use snaps_strsim::qgram::bigrams;

use crate::simcache::{SimCache, DEFAULT_CACHE_CAPACITY};

/// A value's approximate matches: `(value id, similarity)`, sorted
/// descending by similarity and then ascending by value. The id is the
/// matched value's position in [`SimilarityIndex::indexed_values`].
pub type Matches = Vec<(u32, f64)>;

/// The similarity-aware index.
///
/// Pre-computed matches of *indexed* values are immutable after
/// [`build`](Self::build); matches of unseen *query* values live in a
/// bounded memoisation cache. Both are readable through `&self`, so one
/// index can serve many threads.
#[derive(Debug)]
pub struct SimilarityIndex {
    /// Minimum similarity retained (`s_t`).
    s_t: f64,
    /// Indexed values in insertion order; position `i` is value id `i`.
    values: Vec<Arc<str>>,
    /// value → its id, for lookups and for skipping duplicate values.
    positions: BTreeMap<Arc<str>, u32>,
    /// Bigram → indices into `values` (postings lists).
    postings: BTreeMap<String, Vec<u32>>,
    /// Value id → its matches among `values` (immutable after build).
    matches: Vec<Arc<Matches>>,
    /// Bounded memo for query values not among `values`.
    cache: SimCache,
}

impl Clone for SimilarityIndex {
    /// Clones the index structure; the query-value cache starts empty (it
    /// is a per-instance memo, not part of the index's logical content).
    fn clone(&self) -> Self {
        Self {
            s_t: self.s_t,
            values: self.values.clone(),
            positions: self.positions.clone(),
            postings: self.postings.clone(),
            matches: self.matches.clone(),
            cache: SimCache::new(self.cache.capacity()),
        }
    }
}

impl SimilarityIndex {
    /// An index over no values yet, with the default cache.
    fn empty(s_t: f64) -> Self {
        Self {
            s_t,
            values: Vec::new(),
            positions: BTreeMap::new(),
            postings: BTreeMap::new(),
            matches: Vec::new(),
            cache: SimCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// Pre-compute the index over `values` with threshold `s_t`.
    ///
    /// # Panics
    /// Panics unless `0 < s_t < 1` (the paper's setting is `0.5`).
    #[must_use]
    pub fn build<'v>(values: impl IntoIterator<Item = &'v str>, s_t: f64) -> Self {
        assert!(s_t > 0.0 && s_t < 1.0, "s_t must be in (0,1)");
        let mut idx = Self::empty(s_t);
        for v in values {
            idx.insert_value(Arc::from(v));
        }
        // Pre-compute every indexed value's matches.
        idx.matches = idx.values.iter().map(|v| Arc::new(idx.compute_matches(v))).collect();
        idx
    }

    /// Restore an index from its serialised parts (snapshot loading):
    /// threshold, indexed values, and each value's pre-computed matches.
    /// Matches name values by id, their position in `values`, and are kept
    /// as given. Postings are rebuilt from the values — they are derived
    /// data.
    ///
    /// # Errors
    /// Rejects an out-of-range `s_t`, duplicate or empty values, a value id
    /// out of range, and match lists that do not carry exactly one entry
    /// per indexed value. Snapshot checksums catch random corruption, but
    /// the loader still refuses structurally invalid parts instead of
    /// panicking on the serve path.
    pub fn try_from_parts(
        s_t: f64,
        values: Vec<Arc<str>>,
        matches: Vec<(u32, Matches)>,
    ) -> Result<Self, &'static str> {
        if !(s_t > 0.0 && s_t < 1.0) {
            return Err("s_t must be in (0,1)");
        }
        let mut idx = Self::empty(s_t);
        let n = values.len();
        for v in values {
            idx.insert_value(v);
        }
        if idx.values.len() != n {
            return Err("indexed values must be distinct and non-empty");
        }
        let mut lists: Vec<Option<Arc<Matches>>> = vec![None; n];
        for (id, m) in matches {
            if m.iter().any(|&(other, _)| other as usize >= n) {
                return Err("match names an un-indexed value");
            }
            let slot = lists.get_mut(id as usize).ok_or("match list for an un-indexed value")?;
            if slot.replace(Arc::new(m)).is_some() {
                return Err("one match list required per indexed value");
            }
        }
        idx.matches = lists
            .into_iter()
            .collect::<Option<_>>()
            .ok_or("one match list required per indexed value")?;
        Ok(idx)
    }

    /// [`Self::try_from_parts`] for offline builders that trust their input.
    ///
    /// # Panics
    /// Panics where `try_from_parts` would return an error.
    #[must_use]
    #[expect(clippy::panic, reason = "documented panic for trusted offline input")]
    pub fn from_parts(s_t: f64, values: Vec<Arc<str>>, matches: Vec<(u32, Matches)>) -> Self {
        match Self::try_from_parts(s_t, values, matches) {
            Ok(idx) => idx,
            Err(e) => panic!("invalid index parts: {e}"),
        }
    }

    /// Replace the query-value cache with one holding `capacity` entries
    /// (zero is clamped to the cache's minimum).
    #[must_use]
    // snaps-lint: allow(dead-pub) -- public tuning knob for the paper's cache-size experiments
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = SimCache::new(capacity);
        self
    }

    /// Wire the cache's `index.sim_cache.*` counters to `obs`.
    pub fn instrument(&mut self, obs: &Obs) {
        self.cache.instrument(obs);
    }

    /// Number of indexed values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the index holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The similarity threshold `s_t`.
    #[must_use]
    pub fn s_t(&self) -> f64 {
        self.s_t
    }

    /// Indexed values in insertion order.
    #[must_use]
    pub fn indexed_values(&self) -> &[Arc<str>] {
        &self.values
    }

    /// Id of indexed value `v`: its position in [`Self::indexed_values`].
    #[must_use]
    pub fn id_of(&self, v: &str) -> Option<u32> {
        self.positions.get(v).copied()
    }

    /// Every indexed value with its pre-computed matches, in ascending
    /// value order (serialisation support).
    pub fn precomputed(&self) -> impl Iterator<Item = (&str, &Matches)> {
        self.positions
            .iter()
            .filter_map(|(v, &id)| self.matches.get(id as usize).map(|m| (v.as_ref(), m.as_ref())))
    }

    /// Entries currently memoised for unseen query values.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// Total stored match pairs (the index's size driver — the reason `s_t`
    /// is not set lower, §6).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn stored_pairs(&self) -> usize {
        self.matches.iter().map(|m| m.len()).sum()
    }

    /// Position of indexed value `v`.
    fn position(&self, v: &str) -> Option<usize> {
        self.id_of(v).map(|id| id as usize)
    }

    /// Indexed value `id`; empty for an id out of range.
    fn value(&self, id: u32) -> &str {
        self.values.get(id as usize).map_or("", |v| v)
    }

    fn insert_value(&mut self, v: Arc<str>) {
        if v.is_empty() || self.positions.contains_key(&v) {
            return;
        }
        // Postings ids are u32; past 2^32 values further inserts are dropped
        // rather than panicking (real datasets are orders of magnitude off).
        let Ok(id) = u32::try_from(self.values.len()) else { return };
        for bg in bigrams(&v) {
            self.postings.entry(bg).or_default().push(id);
        }
        self.positions.insert(Arc::clone(&v), id);
        self.values.push(v);
    }

    /// Candidates sharing at least one bigram with `v`.
    fn candidates(&self, v: &str) -> Vec<u32> {
        let mut ids: Vec<u32> =
            bigrams(v).iter().filter_map(|bg| self.postings.get(bg)).flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn compute_matches(&self, v: &str) -> Matches {
        let mut out: Matches = self
            .candidates(v)
            .into_iter()
            .filter(|&id| self.value(id) != v)
            .filter_map(|id| {
                let s = jaro_winkler(v, self.value(id));
                (s >= self.s_t).then_some((id, s))
            })
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| self.value(a.0).cmp(self.value(b.0))));
        out
    }

    /// The pre-computed matches of an indexed value, if present.
    #[must_use]
    pub fn lookup(&self, v: &str) -> Option<&Matches> {
        self.position(v).and_then(|id| self.matches.get(id)).map(Arc::as_ref)
    }

    /// Matches for any value: pre-computed when indexed, otherwise computed
    /// against the bigram-sharing candidates and memoised in the bounded
    /// cache (the §7 online extension — the unseen value itself is *not*
    /// added to the postings, it is a query string, not data).
    ///
    /// Takes `&self`: safe to call from many threads on one shared index.
    #[must_use]
    pub fn lookup_or_compute(&self, v: &str) -> Arc<Matches> {
        self.lookup_with_id(v).1
    }

    /// [`Self::id_of`] and [`Self::lookup_or_compute`] together, from one
    /// search of the value table: `v`'s id when it is indexed, and its
    /// matches either way.
    #[must_use]
    pub fn lookup_with_id(&self, v: &str) -> (Option<u32>, Arc<Matches>) {
        let id = self.id_of(v);
        if let Some(m) = id.and_then(|id| self.matches.get(id as usize)) {
            return (id, Arc::clone(m));
        }
        if let Some(m) = self.cache.get(v) {
            return (id, m);
        }
        let m = Arc::new(self.compute_matches(v));
        self.cache.insert(v, Arc::clone(&m));
        (id, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> SimilarityIndex {
        SimilarityIndex::build(["macdonald", "mcdonald", "macdougall", "martin", "tweedie"], 0.5)
    }

    /// The values `m` names, in list order.
    fn names<'a>(i: &'a SimilarityIndex, m: &Matches) -> Vec<&'a str> {
        m.iter().map(|&(id, _)| i.value(id)).collect()
    }

    #[test]
    fn exact_values_indexed() {
        let i = idx();
        assert_eq!(i.len(), 5);
        assert!(i.lookup("macdonald").is_some());
        assert!(i.lookup("nosuch").is_none());
        assert_eq!(i.id_of("mcdonald"), Some(1));
        assert_eq!(i.id_of("nosuch"), None);
    }

    #[test]
    fn similar_values_found_sorted() {
        let i = idx();
        let m = i.lookup("macdonald").unwrap();
        assert!(!m.is_empty());
        assert_eq!(names(&i, m)[0], "mcdonald", "most similar first: {m:?}");
        for w in m.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Self is never among the matches.
        assert!(!names(&i, m).contains(&"macdonald"));
    }

    #[test]
    fn threshold_respected() {
        let i = idx();
        for v in ["macdonald", "martin", "tweedie"] {
            for (_, s) in i.lookup(v).unwrap() {
                assert!(*s >= 0.5);
            }
        }
    }

    #[test]
    fn dissimilar_not_matched() {
        let i = idx();
        let m = i.lookup("tweedie").unwrap();
        assert!(!names(&i, m).contains(&"martin"), "{m:?}");
    }

    #[test]
    fn unseen_query_value_cached() {
        let i = idx();
        assert!(i.lookup("macdonalds").is_none());
        let m = i.lookup_or_compute("macdonalds");
        assert!(names(&i, &m).contains(&"macdonald"));
        // Second lookup hits the memo and agrees.
        assert_eq!(i.cached_queries(), 1);
        assert_eq!(i.lookup_or_compute("macdonalds"), m);
        assert_eq!(i.cached_queries(), 1);
        // The query string was not added as an indexed value.
        assert_eq!(i.len(), 5);
        assert!(i.lookup("macdonalds").is_none(), "not among pre-computed");
        assert_eq!(i.id_of("macdonalds"), None);
        assert_eq!(i.lookup_with_id("macdonalds"), (None, m));
        let others = i.lookup("macdonald").unwrap();
        assert!(others.iter().all(|&(id, _)| (id as usize) < i.len()));
    }

    #[test]
    fn indexed_lookup_or_compute_skips_cache() {
        let i = idx();
        let m = i.lookup_or_compute("macdonald");
        assert_eq!(&*m, i.lookup("macdonald").unwrap());
        assert_eq!(i.lookup_with_id("macdonald"), (Some(0), m));
        assert_eq!(i.cached_queries(), 0, "indexed values never enter the cache");
    }

    #[test]
    fn cache_capacity_bounds_memoisation() {
        let i = idx().with_cache_capacity(16);
        for n in 0..1000 {
            let _ = i.lookup_or_compute(&format!("query{n}"));
        }
        assert!(i.cached_queries() <= 16 + 16, "bounded: {}", i.cached_queries());
        assert_eq!(i.len(), 5, "indexed values untouched");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test queries one index from several threads"
    )]
    fn shared_index_answers_identically_across_threads() {
        let i = std::sync::Arc::new(idx());
        let expected = i.lookup_or_compute("macdonalds");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let i = std::sync::Arc::clone(&i);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(i.lookup_or_compute("macdonalds"), expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn clone_preserves_index_but_not_memo() {
        let i = idx();
        let _ = i.lookup_or_compute("macdonalds");
        let c = i.clone();
        assert_eq!(c.len(), i.len());
        assert_eq!(c.stored_pairs(), i.stored_pairs());
        assert_eq!(c.cached_queries(), 0);
    }

    /// Arguments of `try_from_parts` after the threshold.
    type Parts = (Vec<Arc<str>>, Vec<(u32, Matches)>);

    /// `i`'s values, and its match lists keyed by value id.
    fn parts(i: &SimilarityIndex) -> Parts {
        let matches =
            i.precomputed().map(|(v, m)| (i.id_of(v).expect("indexed"), m.clone())).collect();
        (i.indexed_values().to_vec(), matches)
    }

    #[test]
    fn from_parts_round_trips() {
        let i = idx();
        let (values, matches) = parts(&i);
        let restored = SimilarityIndex::from_parts(i.s_t(), values, matches);
        assert_eq!(restored.len(), i.len());
        for v in restored.indexed_values() {
            assert_eq!(restored.lookup(v), i.lookup(v), "{v}");
            assert_eq!(restored.id_of(v), i.id_of(v), "{v}");
        }
        // Derived postings work: unseen values still match.
        let m = restored.lookup_or_compute("macdonalds");
        assert!(names(&restored, &m).contains(&"macdonald"));
    }

    /// Ties in similarity are broken by the matched value, not by its id,
    /// so a list does not depend on the order values were inserted in.
    #[test]
    fn equal_similarities_sort_by_value() {
        let i = SimilarityIndex::build(["abx", "aby", "abw", "ab"], 0.5);
        let m = i.lookup("ab").unwrap();
        assert_eq!(names(&i, m), ["abw", "abx", "aby"], "{m:?}");
        assert!(m.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn invalid_parts_are_rejected() {
        let i = idx();
        let check = |f: &dyn Fn(&mut Parts)| {
            let mut p = parts(&i);
            f(&mut p);
            SimilarityIndex::try_from_parts(i.s_t(), p.0, p.1).err()
        };
        assert_eq!(check(&|_| {}), None);
        assert_eq!(
            check(&|(_, m)| m[0].1.push((99, 0.9))),
            Some("match names an un-indexed value")
        );
        assert_eq!(check(&|(_, m)| m[0].0 = 99), Some("match list for an un-indexed value"));
        assert_eq!(
            check(&|(_, m)| m[1].0 = m[0].0),
            Some("one match list required per indexed value")
        );
        assert_eq!(
            check(&|(_, m)| drop(m.pop())),
            Some("one match list required per indexed value")
        );
        assert_eq!(
            check(&|(v, _)| v[1] = Arc::clone(&v[0])),
            Some("indexed values must be distinct and non-empty")
        );
        assert_eq!(
            check(&|(v, _)| v[1] = Arc::from("")),
            Some("indexed values must be distinct and non-empty")
        );
    }

    #[test]
    fn duplicates_and_empties_ignored() {
        let i = SimilarityIndex::build(["ann", "ann", ""], 0.5);
        assert_eq!(i.len(), 1);
    }

    #[test]
    #[should_panic(expected = "s_t must be in (0,1)")]
    fn invalid_threshold_panics() {
        let _ = SimilarityIndex::build(["a"], 1.0);
    }

    #[test]
    fn stored_pairs_counts() {
        let i = idx();
        assert!(i.stored_pairs() >= 2, "mac* family yields pairs");
        let higher = SimilarityIndex::build(
            ["macdonald", "mcdonald", "macdougall", "martin", "tweedie"],
            0.9,
        );
        assert!(higher.stored_pairs() < i.stored_pairs(), "higher s_t stores less");
    }
}
