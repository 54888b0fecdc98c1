//! The keyword index K: QID value → entity identifiers.

use std::collections::BTreeMap;

use snaps_core::PedigreeGraph;
use snaps_model::EntityId;

/// One QID field's postings: every distinct value with the entities
/// carrying it, in ascending value order. A value's rank in that order is
/// its *posting position*; [`Postings::at`] reaches a posting by position
/// without comparing strings.
#[derive(Debug, Clone, Default)]
pub struct Postings(Vec<(String, Vec<EntityId>)>);

impl Postings {
    fn from_map(map: BTreeMap<String, Vec<EntityId>>) -> Self {
        Self(map.into_iter().collect())
    }

    /// Posting position of `value`.
    #[must_use]
    pub fn position(&self, value: &str) -> Option<usize> {
        self.0.binary_search_by(|(v, _)| v.as_str().cmp(value)).ok()
    }

    /// Entities carrying `value` exactly.
    #[must_use]
    pub fn get(&self, value: &str) -> &[EntityId] {
        self.position(value).map_or(&[], |p| self.at(p))
    }

    /// Entities of the posting at `position`; empty past the end.
    #[must_use]
    pub fn at(&self, position: usize) -> &[EntityId] {
        self.0.get(position).map_or(&[], |(_, e)| e.as_slice())
    }

    /// The distinct values, ascending.
    pub fn values(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(v, _)| v.as_str())
    }

    /// Every `(value, entities)` entry, ascending by value (serialisation
    /// support).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &[EntityId])> {
        self.0.iter().map(|(v, e)| (v.as_str(), e.as_slice()))
    }

    /// Number of distinct values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no value is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Maps first names, surnames, and locations to the entities carrying them
/// (paper §6).
#[derive(Debug, Clone, Default)]
pub struct KeywordIndex {
    first_names: Postings,
    surnames: Postings,
    locations: Postings,
}

impl KeywordIndex {
    /// Index every entity of a pedigree graph under all of its values
    /// (an entity with both a maiden and a married surname is findable under
    /// either).
    #[must_use]
    pub fn build(graph: &PedigreeGraph) -> Self {
        let mut first_names: BTreeMap<String, Vec<EntityId>> = BTreeMap::new();
        let mut surnames: BTreeMap<String, Vec<EntityId>> = BTreeMap::new();
        let mut locations: BTreeMap<String, Vec<EntityId>> = BTreeMap::new();
        for e in &graph.entities {
            for v in &e.first_names {
                first_names.entry(v.clone()).or_default().push(e.id);
            }
            for v in &e.surnames {
                surnames.entry(v.clone()).or_default().push(e.id);
            }
            for v in &e.addresses {
                locations.entry(v.clone()).or_default().push(e.id);
            }
        }
        Self {
            first_names: Postings::from_map(first_names),
            surnames: Postings::from_map(surnames),
            locations: Postings::from_map(locations),
        }
    }

    /// Restore an index from its serialised entry lists (snapshot loading);
    /// a value listed twice keeps its last list.
    #[must_use]
    pub fn from_parts(
        first_names: Vec<(String, Vec<EntityId>)>,
        surnames: Vec<(String, Vec<EntityId>)>,
        locations: Vec<(String, Vec<EntityId>)>,
    ) -> Self {
        Self {
            first_names: Postings::from_map(first_names.into_iter().collect()),
            surnames: Postings::from_map(surnames.into_iter().collect()),
            locations: Postings::from_map(locations.into_iter().collect()),
        }
    }

    /// First name → entities.
    #[must_use]
    pub fn first_names(&self) -> &Postings {
        &self.first_names
    }

    /// Surname (maiden and married forms) → entities.
    #[must_use]
    pub fn surnames(&self) -> &Postings {
        &self.surnames
    }

    /// Address → entities.
    #[must_use]
    pub fn locations(&self) -> &Postings {
        &self.locations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaps_core::{resolve, PedigreeGraph, SnapsConfig};
    use snaps_model::{CertificateKind, Dataset, Gender, Role};

    fn graph() -> PedigreeGraph {
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
        PedigreeGraph::build(&ds, &res)
    }

    #[test]
    fn indexes_all_name_values() {
        let g = graph();
        let idx = KeywordIndex::build(&g);
        assert_eq!(idx.first_names().get("flora").len(), 1);
        assert_eq!(idx.surnames().get("macrae").len(), 3);
        assert_eq!(idx.locations().get("portree").len(), 3);
        assert!(idx.first_names().get("zeb").is_empty());
    }

    #[test]
    fn values_ascend_and_positions_reach_their_postings() {
        let g = graph();
        let idx = KeywordIndex::build(&g);
        let names: Vec<&str> = idx.first_names().values().collect();
        assert_eq!(names, vec!["effie", "flora", "torquil"]);
        assert_eq!(idx.surnames().len(), 1);
        for (p, (v, entities)) in idx.first_names().entries().enumerate() {
            assert_eq!(idx.first_names().position(v), Some(p));
            assert_eq!(idx.first_names().at(p), entities);
        }
        assert_eq!(idx.first_names().position("zeb"), None);
        assert!(idx.first_names().at(3).is_empty(), "past the end");
    }

    #[test]
    fn from_parts_sorts_and_keeps_the_last_duplicate() {
        let e = |i: u32| vec![EntityId(i)];
        let idx = KeywordIndex::from_parts(
            vec![("b".into(), e(1)), ("a".into(), e(2)), ("b".into(), e(3))],
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(idx.first_names().values().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(idx.first_names().get("b"), [EntityId(3)]);
    }

    #[test]
    fn empty_graph_empty_index() {
        let idx = KeywordIndex::build(&PedigreeGraph::default());
        assert!(idx.first_names().is_empty());
        assert!(idx.surnames().get("x").is_empty());
    }
}
