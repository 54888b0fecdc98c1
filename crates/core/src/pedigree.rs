//! Pedigree-graph generation (paper §5, Algorithm 1).
//!
//! The pedigree graph `G_P` has one node per resolved entity, carrying the
//! QID values accumulated from the entity's records, and one edge per
//! family relationship (*motherOf*, *fatherOf*, *spouseOf*, *childOf*)
//! lifted from the certificates: when a certificate relates two records and
//! both records have resolved entities, their entities are related.
//!
//! Algorithm 1 only adds entities of *merged* nodes; for a usable search
//! service we default to including singleton entities as well (a person with
//! one surviving record is still findable), controllable via
//! [`PedigreeGraph::build_with`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

use std::collections::BTreeSet;

use snaps_model::{Dataset, EntityId, Gender, RecordId, Relationship, Role};

use crate::pipeline::Resolution;

/// One resolved entity as a pedigree-graph node.
#[derive(Debug, Clone)]
pub struct PedigreeEntity {
    /// Dense entity id (index in [`PedigreeGraph::entities`]).
    pub id: EntityId,
    /// The records this entity was resolved from.
    pub records: Vec<RecordId>,
    /// All first names appearing across the records.
    pub first_names: Vec<String>,
    /// All surnames (maiden and married forms).
    pub surnames: Vec<String>,
    /// All addresses.
    pub addresses: Vec<String>,
    /// All occupations.
    pub occupations: Vec<String>,
    /// Geocoded coordinates of the entity's addresses (geocoded datasets).
    pub geos: Vec<snaps_model::person::GeoCoord>,
    /// Entity gender.
    pub gender: Gender,
    /// Birth year (from a `Bb` record, else the best estimate).
    pub birth_year: Option<i32>,
    /// Death year (from a `Dd` record).
    pub death_year: Option<i32>,
    /// Whether the entity has an actual birth (`Bb`) record.
    pub has_birth_record: bool,
    /// Whether the entity has an actual death (`Dd`) record.
    pub has_death_record: bool,
    /// Event years of the entity's records (for search by year range).
    pub event_years: Vec<i32>,
}

impl PedigreeEntity {
    /// Preferred display name: most recent first name + surname.
    #[must_use]
    pub fn display_name(&self) -> String {
        let (first, surname) = self.name_parts();
        format!("{first} {surname}")
    }

    /// The two parts of [`Self::display_name`]: first name and surname,
    /// `?` where the entity has none.
    #[must_use]
    pub fn name_parts(&self) -> (&str, &str) {
        (
            self.first_names.first().map_or("?", String::as_str),
            self.surnames.first().map_or("?", String::as_str),
        )
    }
}

/// The pedigree graph: entities and their family relationships.
#[derive(Debug, Clone, Default)]
pub struct PedigreeGraph {
    /// Entity nodes.
    pub entities: Vec<PedigreeEntity>,
    /// Directed relationship edges `(from, to, relationship)`.
    pub edges: Vec<(EntityId, EntityId, Relationship)>,
    /// Adjacency: `adjacency[e]` lists `(neighbour, relationship-from-e)`,
    /// sorted.
    pub adjacency: Vec<Vec<(EntityId, Relationship)>>,
    /// Outgoing edges: `out_edges[e]` lists the positions in
    /// [`Self::edges`] of the edges leaving `e`, ascending.
    pub out_edges: Vec<Vec<usize>>,
    /// Entity of each record (`EntityId(u32::MAX)` = record excluded).
    pub record_entity: Vec<EntityId>,
}

/// Sentinel for records without a pedigree entity (only occurs when
/// singletons are excluded).
pub const NO_ENTITY: EntityId = EntityId(u32::MAX);

impl PedigreeGraph {
    /// Build from a resolution, including singleton entities (the default
    /// for the search service).
    #[must_use]
    pub fn build(ds: &Dataset, res: &Resolution) -> Self {
        Self::build_with(ds, res, true)
    }

    /// Build from a resolution; `include_singletons = false` reproduces
    /// Algorithm 1 literally (only entities of merged nodes appear).
    #[must_use]
    #[expect(
        clippy::indexing_slicing,
        reason = "record ids come from `ds`, and `record_entity` has one slot per record"
    )]
    pub fn build_with(ds: &Dataset, res: &Resolution, include_singletons: bool) -> Self {
        let mut entities = Vec::with_capacity(res.clusters.len());
        let mut record_entity = vec![NO_ENTITY; ds.len()];

        // Lines 1–6: one node per (merged) entity.
        for cluster in &res.clusters {
            if !include_singletons && cluster.len() < 2 {
                continue;
            }
            let id = EntityId::from_index(entities.len());
            entities.push(build_entity(ds, id, cluster));
            for &r in cluster {
                record_entity[r.index()] = id;
            }
        }

        // Lines 7–15: lift certificate relationships to entity edges.
        let mut seen: BTreeSet<(EntityId, EntityId, Relationship)> = BTreeSet::new();
        let edges = ds
            .all_relationships()
            .into_iter()
            .map(|(a, b, rel)| (record_entity[a.index()], record_entity[b.index()], rel))
            .filter(|&(ea, eb, _)| ea != NO_ENTITY && eb != NO_ENTITY && ea != eb)
            .filter(|&edge| seen.insert(edge))
            .collect();
        Self::from_parts(entities, edges, record_entity)
    }

    /// Assemble a graph from its entities, edges and record → entity map,
    /// deriving [`Self::adjacency`] and [`Self::out_edges`]. Both
    /// [`Self::build_with`] and snapshot loading come through here. An edge
    /// whose source is out of range is kept in `edges` but reaches no
    /// derived list.
    #[must_use]
    pub fn from_parts(
        entities: Vec<PedigreeEntity>,
        edges: Vec<(EntityId, EntityId, Relationship)>,
        record_entity: Vec<EntityId>,
    ) -> Self {
        let mut adjacency = vec![Vec::new(); entities.len()];
        let mut out_edges = vec![Vec::new(); entities.len()];
        for (i, &(a, b, rel)) in edges.iter().enumerate() {
            if let (Some(adj), Some(out)) =
                (adjacency.get_mut(a.index()), out_edges.get_mut(a.index()))
            {
                adj.push((b, rel));
                out.push(i);
            }
        }
        for adj in &mut adjacency {
            adj.sort_unstable();
        }
        PedigreeGraph { entities, edges, adjacency, out_edges, record_entity }
    }

    /// Number of entities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the graph has no entities.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Entity lookup; panics on an out-of-range id. Offline pipeline code
    /// that mints its own ids uses this; request handlers use [`Self::get`].
    #[must_use]
    #[expect(clippy::indexing_slicing, reason = "arena accessor; the panic is documented above")]
    pub fn entity(&self, id: EntityId) -> &PedigreeEntity {
        &self.entities[id.index()]
    }

    /// Entity lookup that tolerates out-of-range ids (the serve path takes
    /// ids from untrusted clients and from snapshot bytes).
    #[must_use]
    pub fn get(&self, id: EntityId) -> Option<&PedigreeEntity> {
        self.entities.get(id.index())
    }

    /// Neighbours of an entity with the relationship *from* the entity;
    /// empty for out-of-range ids.
    #[must_use]
    pub fn neighbours(&self, id: EntityId) -> &[(EntityId, Relationship)] {
        self.adjacency.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// Positions in [`Self::edges`] of the edges leaving `id`, ascending;
    /// empty for out-of-range ids.
    #[must_use]
    pub fn out_edges(&self, id: EntityId) -> &[usize] {
        self.out_edges.get(id.index()).map_or(&[], Vec::as_slice)
    }

    /// The entities with a given relationship from `id` (e.g. its mother:
    /// edges point *from* the mother, so use [`Relationship::ChildOf`] from
    /// the child or query the inverse direction).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn related(&self, id: EntityId, rel: Relationship) -> Vec<EntityId> {
        self.neighbours(id).iter().filter(|&&(_, r)| r == rel).map(|&(e, _)| e).collect()
    }
}

fn push_unique(vec: &mut Vec<String>, v: &Option<String>) {
    if let Some(s) = v {
        if !s.is_empty() && !vec.iter().any(|x| x == s) {
            vec.push(s.clone());
        }
    }
}

fn build_entity(ds: &Dataset, id: EntityId, cluster: &[RecordId]) -> PedigreeEntity {
    let mut e = PedigreeEntity {
        id,
        records: cluster.to_vec(),
        first_names: Vec::new(),
        surnames: Vec::new(),
        addresses: Vec::new(),
        occupations: Vec::new(),
        geos: Vec::new(),
        gender: Gender::Unknown,
        birth_year: None,
        death_year: None,
        has_birth_record: false,
        has_death_record: false,
        event_years: Vec::new(),
    };
    let mut est_birth: Option<i32> = None;
    for &rid in cluster {
        let r = ds.record(rid);
        push_unique(&mut e.first_names, &r.first_name);
        push_unique(&mut e.surnames, &r.surname);
        push_unique(&mut e.addresses, &r.address);
        push_unique(&mut e.addresses, &ds.certificate(r.certificate).parish);
        push_unique(&mut e.occupations, &r.occupation);
        if let Some(g) = r.geo {
            if !e.geos.iter().any(|x| x.lat == g.lat && x.lon == g.lon) {
                e.geos.push(g);
            }
        }
        if e.gender == Gender::Unknown {
            e.gender = r.gender;
        }
        e.event_years.push(r.event_year);
        match r.role {
            Role::BirthBaby => {
                e.birth_year = Some(r.event_year);
                e.has_birth_record = true;
            }
            Role::DeathDeceased => {
                e.death_year = Some(r.event_year);
                e.has_death_record = true;
            }
            _ => {}
        }
        if est_birth.is_none() {
            est_birth = r.estimated_birth_year();
        }
    }
    if e.birth_year.is_none() {
        e.birth_year = est_birth;
    }
    e.event_years.sort_unstable();
    e.event_years.dedup();
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SnapsConfig;
    use crate::pipeline::resolve;
    use snaps_model::CertificateKind;

    /// Family: birth of flora (1880) linked to her death (1885).
    fn family() -> Dataset {
        let mut ds = Dataset::new("t");
        let b = ds.push_certificate(CertificateKind::Birth, 1880);
        for (role, f) in [
            (Role::BirthBaby, "flora"),
            (Role::BirthMother, "effie"),
            (Role::BirthFather, "torquil"),
        ] {
            let g = role.implied_gender().unwrap_or(Gender::Female);
            let r = ds.push_record(b, role, g);
            ds.record_mut(r).first_name = Some(f.into());
            ds.record_mut(r).surname = Some("macrae".into());
            ds.record_mut(r).address = Some("portree".into());
        }
        let d = ds.push_certificate(CertificateKind::Death, 1885);
        for (role, f, age) in [
            (Role::DeathDeceased, "flora", Some(5u16)),
            (Role::DeathMother, "effie", None),
            (Role::DeathFather, "torquil", None),
        ] {
            let g = role.implied_gender().unwrap_or(Gender::Female);
            let r = ds.push_record(d, role, g);
            ds.record_mut(r).first_name = Some(f.into());
            ds.record_mut(r).surname = Some("macrae".into());
            ds.record_mut(r).age = age;
            ds.record_mut(r).address = Some("portree".into());
        }
        ds
    }

    #[test]
    fn entities_carry_aggregate_values() {
        let ds = family();
        let res = resolve(&ds, &SnapsConfig::default());
        let g = PedigreeGraph::build(&ds, &res);
        let flora = g.record_entity[0];
        let e = g.entity(flora);
        assert_eq!(e.records.len(), 2, "birth and death records linked");
        assert_eq!(e.birth_year, Some(1880));
        assert_eq!(e.death_year, Some(1885));
        assert_eq!(e.display_name(), "flora macrae");
    }

    #[test]
    fn relationships_lifted_to_entities() {
        let ds = family();
        let res = resolve(&ds, &SnapsConfig::default());
        let g = PedigreeGraph::build(&ds, &res);
        let flora = g.record_entity[0];
        let effie = g.record_entity[1];
        // effie --MotherOf--> flora (asserted by both certificates,
        // deduplicated to one edge).
        let mothers_children = g.related(effie, Relationship::MotherOf);
        assert_eq!(mothers_children, vec![flora]);
        let count = g
            .edges
            .iter()
            .filter(|&&(a, b, r)| a == effie && b == flora && r == Relationship::MotherOf)
            .count();
        assert_eq!(count, 1, "edge deduplicated across certificates");
    }

    #[test]
    fn record_entity_mapping_total_with_singletons() {
        let ds = family();
        let res = resolve(&ds, &SnapsConfig::default());
        let g = PedigreeGraph::build(&ds, &res);
        assert!(g.record_entity.iter().all(|&e| e != NO_ENTITY));
    }

    #[test]
    fn algorithm1_mode_excludes_singletons() {
        let mut ds = family();
        // An unlinked stranger.
        let c = ds.push_certificate(CertificateKind::Death, 1899);
        let r = ds.push_record(c, Role::DeathDeceased, Gender::Male);
        ds.record_mut(r).first_name = Some("zachary".into());
        ds.record_mut(r).surname = Some("ztranger".into());
        let res = resolve(&ds, &SnapsConfig::default());
        let strict = PedigreeGraph::build_with(&ds, &res, false);
        assert_eq!(strict.record_entity[r.index()], NO_ENTITY);
        let lax = PedigreeGraph::build(&ds, &res);
        assert_ne!(lax.record_entity[r.index()], NO_ENTITY);
        assert!(lax.len() > strict.len());
    }

    #[test]
    fn out_edges_index_every_edge_by_source() {
        let ds = family();
        let res = resolve(&ds, &SnapsConfig::default());
        let g = PedigreeGraph::build(&ds, &res);
        let mut seen = Vec::new();
        for e in &g.entities {
            let out = g.out_edges(e.id);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert_eq!(out.len(), g.neighbours(e.id).len());
            for &i in out {
                assert_eq!(g.edges[i].0, e.id);
                seen.push(i);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..g.edges.len()).collect::<Vec<_>>());
        assert!(g.out_edges(EntityId(u32::MAX)).is_empty());
    }

    #[test]
    fn no_self_edges() {
        let ds = family();
        let res = resolve(&ds, &SnapsConfig::default());
        let g = PedigreeGraph::build(&ds, &res);
        assert!(g.edges.iter().all(|&(a, b, _)| a != b));
    }

    #[test]
    fn empty_resolution_empty_graph() {
        let ds = Dataset::new("e");
        let res = resolve(&ds, &SnapsConfig::default());
        let g = PedigreeGraph::build(&ds, &res);
        assert!(g.is_empty());
        assert!(g.edges.is_empty());
    }
}
