//! g-hop pedigree extraction from the pedigree graph.

use snaps_core::PedigreeGraph;
use snaps_model::{EntityId, Relationship};
use snaps_obs::Obs;

/// One entity of an extracted pedigree with its generation relative to the
/// root (positive = older generations, negative = younger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PedigreeMember {
    /// The entity.
    pub entity: EntityId,
    /// Generation offset: `+1` parents, `+2` grandparents, `-1` children…
    pub generation: i32,
    /// Hop distance from the root.
    pub hops: usize,
}

/// An extracted family pedigree: the induced neighbourhood of the root.
#[derive(Debug, Clone)]
pub struct Pedigree {
    /// The selected entity.
    pub root: EntityId,
    /// Members (root included, at generation 0 / hop 0), sorted by
    /// generation descending (oldest first) then entity id.
    pub members: Vec<PedigreeMember>,
    /// Relationship edges between members (induced subgraph).
    pub edges: Vec<(EntityId, EntityId, Relationship)>,
}

impl Pedigree {
    /// Member lookup.
    #[must_use]
    pub(crate) fn member(&self, e: EntityId) -> Option<&PedigreeMember> {
        self.members.iter().find(|m| m.entity == e)
    }

    /// Whether the pedigree contains an entity.
    #[must_use]
    pub fn contains(&self, e: EntityId) -> bool {
        self.member(e).is_some()
    }

    /// The children of `e` within the pedigree.
    #[must_use]
    pub fn children_of(&self, e: EntityId) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .edges
            .iter()
            .filter(|&&(from, _, rel)| {
                from == e && matches!(rel, Relationship::MotherOf | Relationship::FatherOf)
            })
            .map(|&(_, to, _)| to)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The parents of `e` within the pedigree.
    #[must_use]
    pub fn parents_of(&self, e: EntityId) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .edges
            .iter()
            .filter(|&&(from, to, rel)| {
                to == e
                    && from != e
                    && matches!(rel, Relationship::MotherOf | Relationship::FatherOf)
            })
            .map(|&(from, _, _)| from)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The spouses of `e` within the pedigree.
    #[must_use]
    pub fn spouses_of(&self, e: EntityId) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = self
            .edges
            .iter()
            .filter(|&&(from, _, rel)| from == e && rel == Relationship::SpouseOf)
            .map(|&(_, to, _)| to)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// How an edge shifts the generation counter, seen from the edge's source.
fn generation_shift(rel: Relationship) -> i32 {
    match rel {
        // e --MotherOf--> x: x is e's child, one generation younger.
        Relationship::MotherOf | Relationship::FatherOf => -1,
        // e --ChildOf--> x: x is e's parent, one generation older.
        Relationship::ChildOf => 1,
        Relationship::SpouseOf => 0,
    }
}

/// Extract the pedigree of `root`: breadth-first over relationship edges up
/// to `generations` hops (paper §8, `g = 2` default).
#[must_use]
pub fn extract(graph: &PedigreeGraph, root: EntityId, generations: usize) -> Pedigree {
    extract_with(graph, root, generations, &Obs::disabled())
}

/// [`extract`] with instrumentation: the traversal is timed under a
/// `pedigree_extract` span and the extracted sizes go to the
/// `pedigree.members` / `pedigree.edges` counters.
///
/// The induced edges come from the members' own out-edge lists, so the
/// cost follows the pedigree's size rather than the graph's; sorting their
/// positions keeps them in [`PedigreeGraph::edges`] order.
#[must_use]
pub fn extract_with(
    graph: &PedigreeGraph,
    root: EntityId,
    generations: usize,
    obs: &Obs,
) -> Pedigree {
    let span = obs.span("pedigree_extract");
    // Members in breadth-first order, and their ids kept sorted for the
    // membership tests.
    let mut members = Vec::with_capacity(1 + graph.neighbours(root).len());
    members.push(PedigreeMember { entity: root, generation: 0, hops: 0 });
    let mut seen = Vec::with_capacity(members.capacity());
    seen.push(root);
    let mut next = 0;
    while let Some(&from) = members.get(next) {
        next += 1;
        if from.hops == generations {
            continue;
        }
        for &(to, rel) in graph.neighbours(from.entity) {
            if let Err(at) = seen.binary_search(&to) {
                seen.insert(at, to);
                members.push(PedigreeMember {
                    entity: to,
                    generation: from.generation + generation_shift(rel),
                    hops: from.hops + 1,
                });
            }
        }
    }
    members.sort_unstable_by(|a, b| {
        b.generation.cmp(&a.generation).then_with(|| a.entity.cmp(&b.entity))
    });

    let mut induced: Vec<usize> = Vec::with_capacity(members.len());
    for &e in &seen {
        for &i in graph.out_edges(e) {
            if graph.edges.get(i).is_some_and(|&(_, to, _)| seen.binary_search(&to).is_ok()) {
                induced.push(i);
            }
        }
    }
    induced.sort_unstable();
    let edges: Vec<(EntityId, EntityId, Relationship)> =
        induced.iter().filter_map(|&i| graph.edges.get(i).copied()).collect();

    obs.counter("pedigree.members").add(members.len() as u64);
    obs.counter("pedigree.edges").add(edges.len() as u64);
    span.finish();
    Pedigree { root, members, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaps_core::{resolve, SnapsConfig};
    use snaps_model::{CertificateKind, Dataset, Gender, Role};

    /// Three generations: grandparents → mother (effie) + father → flora.
    fn three_generation_graph() -> (PedigreeGraph, EntityId) {
        let mut ds = Dataset::new("t");
        // Effie's own birth certificate (grandparents appear).
        let b0 = ds.push_certificate(CertificateKind::Birth, 1855);
        for (role, f, s) in [
            (Role::BirthBaby, "effie", "beaton"),
            (Role::BirthMother, "morag", "beaton"),
            (Role::BirthFather, "somerled", "beaton"),
        ] {
            let g = role.implied_gender().unwrap_or(Gender::Female);
            let r = ds.push_record(b0, role, g);
            ds.record_mut(r).first_name = Some(f.into());
            ds.record_mut(r).surname = Some(s.into());
            ds.record_mut(r).address = Some("borvemore".into());
        }
        // Flora's birth certificate: effie is now the mother (married name
        // macrae); linked to her own birth via the resolver is *not*
        // required for this test — the relationships suffice.
        let b1 = ds.push_certificate(CertificateKind::Birth, 1880);
        for (role, f, s) in [
            (Role::BirthBaby, "flora", "macrae"),
            (Role::BirthMother, "effie", "beaton"),
            (Role::BirthFather, "torquil", "macrae"),
        ] {
            let g = role.implied_gender().unwrap_or(Gender::Female);
            let r = ds.push_record(b1, role, g);
            ds.record_mut(r).first_name = Some(f.into());
            ds.record_mut(r).surname = Some(s.into());
            ds.record_mut(r).address = Some("borvemore".into());
        }
        // Tiny fixture: Eq. 2's log-ratio normalisation is distorted at
        // N=6 records, so the merge threshold is scaled accordingly and
        // the unsupported-merge margin (which would stack on top) is
        // disabled.
        let cfg = SnapsConfig { t_merge: 0.65, singleton_margin: 0.0, ..SnapsConfig::default() };
        let res = resolve(&ds, &cfg);
        let graph = PedigreeGraph::build(&ds, &res);
        let flora = graph.record_entity[3]; // first record of b1
        (graph, flora)
    }

    #[test]
    fn one_hop_reaches_parents_only() {
        let (graph, flora) = three_generation_graph();
        let p = extract(&graph, flora, 1);
        // flora + mother + father.
        assert_eq!(p.members.len(), 3, "{:?}", p.members);
        let parents = p.parents_of(flora);
        assert_eq!(parents.len(), 2);
        for m in &p.members {
            assert!(m.hops <= 1);
        }
    }

    #[test]
    fn two_hops_reach_grandparents() {
        let (graph, flora) = three_generation_graph();
        let p = extract(&graph, flora, 2);
        // Whether grandparents appear depends on effie's two records being
        // resolved into one entity; they share first name + surname +
        // address, so the resolver links them.
        let generations: Vec<i32> = p.members.iter().map(|m| m.generation).collect();
        assert!(generations.contains(&2), "grandparents at +2: {generations:?}");
        assert!(generations.contains(&0));
        // Oldest generation sorts first.
        for w in p.members.windows(2) {
            assert!(w[0].generation >= w[1].generation);
        }
    }

    #[test]
    fn root_is_generation_zero() {
        let (graph, flora) = three_generation_graph();
        let p = extract(&graph, flora, 2);
        assert_eq!(p.member(flora).unwrap().generation, 0);
        assert_eq!(p.member(flora).unwrap().hops, 0);
        assert_eq!(p.root, flora);
    }

    #[test]
    fn spouses_same_generation() {
        let (graph, flora) = three_generation_graph();
        let p = extract(&graph, flora, 2);
        let parents = p.parents_of(flora);
        let gens: Vec<i32> = parents.iter().map(|&e| p.member(e).unwrap().generation).collect();
        assert_eq!(gens, vec![1, 1]);
        let spouses = p.spouses_of(parents[0]);
        assert!(spouses.contains(&parents[1]));
    }

    #[test]
    fn zero_generations_is_just_root() {
        let (graph, flora) = three_generation_graph();
        let p = extract(&graph, flora, 0);
        assert_eq!(p.members.len(), 1);
        assert!(p.contains(flora));
    }

    #[test]
    fn children_of_inverse_of_parents_of() {
        let (graph, flora) = three_generation_graph();
        let p = extract(&graph, flora, 2);
        for &parent in &p.parents_of(flora) {
            assert!(p.children_of(parent).contains(&flora));
        }
    }

    #[test]
    fn extract_with_records_span_and_sizes() {
        let (graph, flora) = three_generation_graph();
        let obs = Obs::new(&snaps_obs::ObsConfig::full());
        let p = extract_with(&graph, flora, 2, &obs);
        let report = obs.report().unwrap();
        let span = report.span("pedigree_extract").expect("span recorded");
        assert_eq!(span.count, 1);
        assert_eq!(report.counter("pedigree.members"), Some(p.members.len() as u64));
        assert_eq!(report.counter("pedigree.edges"), Some(p.edges.len() as u64));
        // The uninstrumented wrapper returns identical results.
        let plain = extract(&graph, flora, 2);
        assert_eq!(plain.members, p.members);
        assert_eq!(plain.edges, p.edges);
    }

    #[test]
    fn edges_are_induced() {
        let (graph, flora) = three_generation_graph();
        let p = extract(&graph, flora, 1);
        for &(a, b, _) in &p.edges {
            assert!(p.contains(a) && p.contains(b));
        }
    }
}

/// `extract` against the definition it replaced, kept as the oracle: a
/// breadth-first search over `neighbours`, and the induced edges found by
/// filtering every graph edge.
#[cfg(test)]
mod oracle_tests {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;
    use snaps_core::PedigreeEntity;
    use snaps_model::Gender;
    use snaps_rng::{check_cases, Rng};

    fn oracle(graph: &PedigreeGraph, root: EntityId, generations: usize) -> Pedigree {
        let mut seen: BTreeMap<EntityId, (i32, usize)> = BTreeMap::new();
        seen.insert(root, (0, 0));
        let mut queue = VecDeque::from([root]);
        while let Some(e) = queue.pop_front() {
            let (gen, hops) = seen[&e];
            if hops == generations {
                continue;
            }
            for &(to, rel) in graph.neighbours(e) {
                seen.entry(to).or_insert_with(|| {
                    queue.push_back(to);
                    (gen + generation_shift(rel), hops + 1)
                });
            }
        }
        let mut members: Vec<PedigreeMember> = seen
            .iter()
            .map(|(&entity, &(generation, hops))| PedigreeMember { entity, generation, hops })
            .collect();
        members
            .sort_by(|a, b| b.generation.cmp(&a.generation).then_with(|| a.entity.cmp(&b.entity)));
        let edges = graph
            .edges
            .iter()
            .copied()
            .filter(|&(a, b, _)| seen.contains_key(&a) && seen.contains_key(&b))
            .collect();
        Pedigree { root, members, edges }
    }

    fn entity(i: usize) -> PedigreeEntity {
        PedigreeEntity {
            id: EntityId::from_index(i),
            records: Vec::new(),
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
        }
    }

    /// 1-40 entities and up to three edges each in random order, with
    /// every relationship kind, repeated edges and the odd self-loop.
    fn random_graph(rng: &mut Rng) -> PedigreeGraph {
        let n = rng.gen_range(1..40usize);
        let rels = [
            Relationship::MotherOf,
            Relationship::FatherOf,
            Relationship::SpouseOf,
            Relationship::ChildOf,
        ];
        let edges = (0..rng.gen_range(0..3 * n))
            .map(|_| {
                let a = EntityId::from_index(rng.gen_range(0..n));
                let b = EntityId::from_index(rng.gen_range(0..n));
                (a, b, rels[rng.gen_range(0..rels.len())])
            })
            .collect();
        PedigreeGraph::from_parts((0..n).map(entity).collect(), edges, Vec::new())
    }

    #[test]
    fn members_and_edges_match_the_oracle() {
        check_cases(128, |rng| {
            let graph = random_graph(rng);
            for root in 0..graph.len() {
                let root = EntityId::from_index(root);
                for g in 0..=3 {
                    let (got, want) = (extract(&graph, root, g), oracle(&graph, root, g));
                    assert_eq!(got.members, want.members, "root {root:?}, g = {g}");
                    assert_eq!(got.edges, want.edges, "root {root:?}, g = {g}");
                }
            }
        });
    }
}
