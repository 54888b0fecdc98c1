//! The bundled anonymised sample dataset (`data/sample_anonymised.tsv`) —
//! the repository's equivalent of the anonymised data set the paper
//! publishes alongside the SNAPS demo — loads, validates, and supports the
//! full service.

#![expect(
    clippy::disallowed_types,
    reason = "a count per cause; every count is checked, in any order"
)]

use snaps::core::{resolve, PedigreeGraph, SnapsConfig};
use snaps::model::{Dataset, Role};
use snaps::query::{QueryRecord, SearchEngine, SearchKind};

fn load() -> Dataset {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/sample_anonymised.tsv"))
            .expect("bundled sample dataset exists");
    Dataset::from_text(&text).expect("sample dataset parses")
}

#[test]
fn sample_loads_and_validates() {
    let ds = load();
    ds.validate().unwrap();
    assert!(ds.len() > 1000, "sample is non-trivial: {} records", ds.len());
    assert!(ds.certificates.len() > 300);
    // It is anonymised: every cause of death is k-frequent or "not known".
    let mut counts = std::collections::HashMap::new();
    for r in ds.records_with_role(Role::DeathDeceased) {
        if let Some(c) = &r.cause_of_death {
            *counts.entry(c.clone()).or_insert(0usize) += 1;
        }
    }
    for (cause, n) in counts {
        assert!(n >= 10 || cause == "not known", "'{cause}' x{n}");
    }
}

#[test]
fn sample_supports_resolution_and_search() {
    let ds = load();
    let res = resolve(&ds, &SnapsConfig::default());
    assert!(res.links.len() > 100, "sample resolves into linked entities");
    let graph = PedigreeGraph::build(&ds, &res);
    let target = graph
        .entities
        .iter()
        .find(|e| e.has_birth_record && e.records.len() >= 2)
        .expect("multi-record entity in sample");
    let (first, surname, id) =
        (target.first_names[0].clone(), target.surnames[0].clone(), target.id);
    let engine = SearchEngine::build(graph);
    let hits = engine.query(&QueryRecord::new(&first, &surname, SearchKind::Birth), 10);
    assert!(hits.iter().any(|m| m.entity == id));
}
