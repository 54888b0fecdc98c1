//! Query records and scoring weights.

use snaps_model::Gender;
use snaps_strsim::geo::GeoPoint;
use snaps_strsim::normalize::normalize_name;

/// Which certificate kind the user is searching (the paper's UI offers
/// Birth or Death, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// Search people with a birth record.
    Birth,
    /// Search people with a death record.
    Death,
}

/// A user query as entered on the search form (paper Fig. 5).
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// First name (mandatory).
    pub first_name: String,
    /// Surname (mandatory).
    pub surname: String,
    /// Birth or death search.
    pub kind: SearchKind,
    /// Optional gender restriction.
    pub gender: Option<Gender>,
    /// Optional inclusive year range for the birth/death year.
    pub year_range: Option<(i32, i32)>,
    /// Optional parish/district or settlement name.
    pub location: Option<String>,
    /// Optional geographic restriction: only entities with a geocoded
    /// address within `radius_km` of the centre are returned. This realises
    /// the paper's stated future work ("incorporate geographical distances
    /// into the query process to allow users to limit searches to certain
    /// geographical regions", §12).
    pub geo_filter: Option<(GeoPoint, f64)>,
}

impl QueryRecord {
    /// Build a query, normalising all strings the way the indices were
    /// normalised. Fallible twin of [`Self::new`] for callers holding
    /// untrusted input (the HTTP search handler).
    ///
    /// # Errors
    /// Fails when either mandatory name normalises to the empty string.
    pub fn try_new(
        first_name: &str,
        surname: &str,
        kind: SearchKind,
    ) -> Result<Self, &'static str> {
        let first_name = normalize_name(first_name);
        let surname = normalize_name(surname);
        if first_name.is_empty() {
            return Err("first name is mandatory");
        }
        if surname.is_empty() {
            return Err("surname is mandatory");
        }
        Ok(Self {
            first_name,
            surname,
            kind,
            gender: None,
            year_range: None,
            location: None,
            geo_filter: None,
        })
    }

    /// Build a query from trusted input (experiment binaries, tests).
    ///
    /// # Panics
    /// Panics if either mandatory name normalises to the empty string.
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented panic for trusted input; requests use the try_ twin"
    )]
    pub fn new(first_name: &str, surname: &str, kind: SearchKind) -> Self {
        match Self::try_new(first_name, surname, kind) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Restrict to a gender.
    #[must_use]
    pub fn with_gender(mut self, g: Gender) -> Self {
        self.gender = Some(g);
        self
    }

    /// Restrict to an inclusive year range; fallible twin of
    /// [`Self::with_years`].
    ///
    /// # Errors
    /// Fails on an inverted range.
    pub fn try_with_years(mut self, from: i32, to: i32) -> Result<Self, &'static str> {
        if from > to {
            return Err("year range is inverted");
        }
        self.year_range = Some((from, to));
        Ok(self)
    }

    /// Restrict to an inclusive year range.
    ///
    /// # Panics
    /// Panics on an inverted range.
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented panic for trusted input; requests use the try_ twin"
    )]
    pub fn with_years(self, from: i32, to: i32) -> Self {
        match self.try_with_years(from, to) {
            Ok(q) => q,
            Err(_) => panic!("year range is inverted: {from}..{to}"),
        }
    }

    /// Restrict results to entities geocoded within `radius_km` of `centre`.
    ///
    /// # Panics
    /// Panics on a non-positive radius.
    #[must_use]
    pub fn with_geo_filter(mut self, centre: GeoPoint, radius_km: f64) -> Self {
        assert!(radius_km > 0.0, "radius must be positive");
        self.geo_filter = Some((centre, radius_km));
        self
    }

    /// Add a location; fallible twin of [`Self::with_location`].
    ///
    /// # Errors
    /// Fails when the location normalises to the empty string.
    pub fn try_with_location(mut self, location: &str) -> Result<Self, &'static str> {
        let l = normalize_name(location);
        if l.is_empty() {
            return Err("location must not normalise to empty");
        }
        self.location = Some(l);
        Ok(self)
    }

    /// Add a location.
    ///
    /// # Panics
    /// Panics when the location normalises to the empty string.
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented panic for trusted input; requests use the try_ twin"
    )]
    pub fn with_location(self, location: &str) -> Self {
        match self.try_with_location(location) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// The attributes provided, for score normalisation.
    #[must_use]
    pub(crate) fn provided(&self) -> ProvidedFields {
        ProvidedFields {
            gender: self.gender.is_some(),
            year: self.year_range.is_some(),
            location: self.location.is_some(),
        }
    }
}

/// Which optional fields a query provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProvidedFields {
    /// A gender was given.
    pub gender: bool,
    /// A year range was given.
    pub year: bool,
    /// A location was given.
    pub location: bool,
}

/// Attribute weights `w_a` of the match score `s_r = Σ w_a · sim(q_a, o_a)`
/// (paper §7). Names carry more weight than location — "name values that
/// match provide more evidence that an entity is relevant".
#[derive(Debug, Clone, Copy)]
pub struct QueryWeights {
    /// Weight of the first-name similarity.
    pub first_name: f64,
    /// Weight of the surname similarity.
    pub surname: f64,
    /// Weight of the year match.
    pub year: f64,
    /// Weight of the gender match.
    pub gender: f64,
    /// Weight of the location similarity.
    pub location: f64,
}

impl Default for QueryWeights {
    fn default() -> Self {
        Self { first_name: 0.3, surname: 0.3, year: 0.15, gender: 0.1, location: 0.15 }
    }
}

impl QueryWeights {
    /// The maximum achievable raw score for a query (used to normalise to
    /// a percentage): mandatory names plus whichever optional fields were
    /// provided.
    #[must_use]
    pub(crate) fn max_score(&self, provided: ProvidedFields) -> f64 {
        let mut m = self.first_name + self.surname;
        if provided.gender {
            m += self.gender;
        }
        if provided.year {
            m += self.year;
        }
        if provided.location {
            m += self.location;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_normalises() {
        let q = QueryRecord::new("  Douglas ", "MacDonald", SearchKind::Birth)
            .with_location("Duirinish");
        assert_eq!(q.first_name, "douglas");
        assert_eq!(q.surname, "macdonald");
        assert_eq!(q.location.as_deref(), Some("duirinish"));
    }

    #[test]
    #[should_panic(expected = "first name is mandatory")]
    fn empty_first_name_panics() {
        let _ = QueryRecord::new("  ", "macdonald", SearchKind::Birth);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_year_range_panics() {
        let _ = QueryRecord::new("a", "b", SearchKind::Death).with_years(1900, 1890);
    }

    #[test]
    fn provided_tracks_optionals() {
        let q = QueryRecord::new("a", "b", SearchKind::Birth);
        assert_eq!(q.provided(), ProvidedFields { gender: false, year: false, location: false });
        let q = q.with_gender(Gender::Male).with_years(1850, 1900);
        let p = q.provided();
        assert!(p.gender && p.year && !p.location);
    }

    #[test]
    fn max_score_scales_with_provided() {
        let w = QueryWeights::default();
        let none = ProvidedFields { gender: false, year: false, location: false };
        let all = ProvidedFields { gender: true, year: true, location: true };
        assert!((w.max_score(none) - 0.6).abs() < 1e-12);
        assert!((w.max_score(all) - 1.0).abs() < 1e-12);
    }
}
