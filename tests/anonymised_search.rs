//! The public-demo pathway (paper §9): anonymise a dataset, rebuild the
//! search service on it, and verify searchability and the privacy
//! invariants.

#![expect(
    clippy::disallowed_types,
    reason = "a count per cause; every count is checked, in any order"
)]

use std::collections::HashMap;

use snaps::anonymise::{anonymise, AnonymiserConfig};
use snaps::core::{resolve, PedigreeGraph, SnapsConfig};
use snaps::datagen::{generate, DatasetProfile};
use snaps::model::Role;
use snaps::query::{QueryRecord, SearchEngine, SearchKind};

#[test]
fn anonymised_dataset_supports_the_same_service() {
    let data = generate(&DatasetProfile::ios().scaled(0.1), 42);
    let (anon, _) = anonymise(&data.dataset, &AnonymiserConfig::default());
    anon.validate().unwrap();

    // Resolve + index the anonymised data.
    let res = resolve(&anon, &SnapsConfig::default());
    let graph = PedigreeGraph::build(&anon, &res);
    let target = graph
        .entities
        .iter()
        .find(|e| e.has_birth_record && e.records.len() >= 2)
        .expect("linked entity exists");
    let (first, surname) = (target.first_names[0].clone(), target.surnames[0].clone());
    let id = target.id;

    let engine = SearchEngine::build(graph);
    let results = engine.query(&QueryRecord::new(&first, &surname, SearchKind::Birth), 10);
    assert!(
        results.iter().any(|m| m.entity == id),
        "anonymised entities are findable under their anonymised names"
    );
}

#[test]
fn no_sensitive_name_survives_in_bulk() {
    let data = generate(&DatasetProfile::ios().scaled(0.1), 42);
    let ds = &data.dataset;
    let (anon, _) = anonymise(ds, &AnonymiserConfig::default());

    // Count record-level survivals of the original full names.
    let originals: std::collections::BTreeSet<(String, String)> = ds
        .records
        .iter()
        .filter_map(|r| Some((r.first_name.clone()?, r.surname.clone()?)))
        .collect();
    let surviving = anon
        .records
        .iter()
        .filter_map(|r| Some((r.first_name.clone()?, r.surname.clone()?)))
        .filter(|pair| originals.contains(pair))
        .count();
    let total = anon.records.iter().filter(|r| r.first_name.is_some()).count();
    assert!(
        (surviving as f64) < 0.02 * total as f64,
        "{surviving}/{total} full names survived anonymisation"
    );
}

#[test]
fn temporal_distances_survive_anonymisation() {
    // The paper shifts all years by one secret offset to "maintain the
    // temporal distances between vital events" — linkage on the anonymised
    // data depends on it.
    let data = generate(&DatasetProfile::ios().scaled(0.08), 42);
    let ds = &data.dataset;
    let (anon, _) = anonymise(ds, &AnonymiserConfig::default());
    for (a, b) in ds.records.iter().zip(&anon.records).take(500) {
        for (c, d) in ds.records.iter().zip(&anon.records).take(500) {
            // Gap between any two events is invariant.
            assert_eq!(b.event_year - d.event_year, a.event_year - c.event_year);
        }
    }
}

#[test]
fn cause_of_death_k_anonymity_holds_after_full_pipeline() {
    let cfg = AnonymiserConfig::default();
    let data = generate(&DatasetProfile::ios().scaled(0.15), 42);
    let (anon, report) = anonymise(&data.dataset, &cfg);
    assert!(report.rare_causes > 0, "the generator produces rare causes");

    let mut counts: HashMap<&str, usize> = HashMap::new();
    for r in anon.records_with_role(Role::DeathDeceased) {
        if let Some(c) = &r.cause_of_death {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    for (cause, n) in counts {
        assert!(n >= cfg.k || cause == "not known", "cause '{cause}' occurs {n} < k = {}", cfg.k);
    }
}
