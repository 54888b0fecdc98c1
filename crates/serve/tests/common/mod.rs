//! The fixture engine and query battery shared by the snapshot tests.

use snaps_core::{resolve, PedigreeGraph, SnapsConfig};
use snaps_datagen::{generate, DatasetProfile};
use snaps_model::Gender;
use snaps_query::{QueryRecord, SearchEngine, SearchKind};

/// A resolved IOS x0.02, seed 42 engine.
pub fn build_engine() -> SearchEngine {
    let data = generate(&DatasetProfile::ios().scaled(0.02), 42);
    let res = resolve(&data.dataset, &SnapsConfig::default());
    SearchEngine::build(PedigreeGraph::build(&data.dataset, &res))
}

/// A spread of query shapes: mandatory-only, every optional field, both
/// search kinds, and names unseen at build time (exercising the
/// memoisation path on both engines).
pub fn query_battery(engine: &SearchEngine) -> Vec<QueryRecord> {
    let mut queries = vec![
        QueryRecord::new("mary", "macdonald", SearchKind::Birth),
        QueryRecord::new("john", "macleod", SearchKind::Death),
        QueryRecord::new("catherine", "nicolson", SearchKind::Birth)
            .with_gender(Gender::Female)
            .with_years(1860, 1890),
        QueryRecord::new("donald", "beaton", SearchKind::Birth).with_location("portree"),
        // Misspelled / unseen values go through lookup_or_compute.
        QueryRecord::new("marry", "mcdonnald", SearchKind::Birth),
        QueryRecord::new("jon", "macloud", SearchKind::Death).with_years(1850, 1900),
    ];
    // Plus a couple of names guaranteed present in this generated dataset
    // (skipped when they normalise to nothing, as names decoded from
    // damaged bytes may).
    for e in engine.graph().entities.iter().take(2) {
        if let (Some(f), Some(s)) = (e.first_names.first(), e.surnames.first()) {
            queries.extend(QueryRecord::try_new(f, s, SearchKind::Birth).ok());
        }
    }
    queries
}
