//! Regenerates **Table 7**: minimum, average, median, and maximum time for
//! querying and for extracting family pedigrees.
//!
//! A batch of realistic queries (entity names, a third of them typo'd, half
//! with optional refinements) runs against the online search engine built
//! from a resolved IOS-profile dataset; each query's top hit then has its
//! two-generation pedigree extracted. The batch runs five times, each pass
//! cold on a freshly built engine, and each row reports the pass with the
//! median mean.
//!
//! ```text
//! cargo run -p snaps-bench --release --bin table7 [-- --scale 1.0 --seed 42]
//! ```

use snaps_bench::{format_table, write_report, ExperimentArgs};
use snaps_core::{resolve_with_obs, PedigreeGraph, SnapsConfig};
use snaps_datagen::{generate, DatasetProfile};
use snaps_eval::timing::{generate_query_batch, time_queries, TIMING_PASSES};
use snaps_obs::{Obs, ObsConfig};
use snaps_pedigree::{extract_with, DEFAULT_GENERATIONS};
use snaps_query::SearchEngine;

/// Queries timed per run.
const BATCH: usize = 200;

fn main() {
    let args = ExperimentArgs::parse();
    let cfg = SnapsConfig::default();
    println!(
        "Table 7: Min/avg/median/max seconds for querying and pedigree extraction\n\
         (scale={}, seed={}, batch={BATCH}, median-mean pass of {TIMING_PASSES})\n",
        args.scale, args.seed
    );

    // With --report the whole end-to-end path (resolve, index build, query
    // batch) runs instrumented; the query latency histogram then lands in
    // the report alongside the table's exact sample statistics.
    let obs = if args.report.is_some() { Obs::new(&ObsConfig::full()) } else { Obs::disabled() };

    let data = generate(&DatasetProfile::ios().scaled(args.scale), args.seed);
    eprintln!("[table7] resolving {} records…", data.dataset.len());
    let res = resolve_with_obs(&data.dataset, &cfg, &obs);
    let graph = PedigreeGraph::build(&data.dataset, &res);
    eprintln!("[table7] building indices over {} entities…", graph.len());
    let engine = SearchEngine::build_obs(graph, &obs);

    let queries = generate_query_batch(engine.graph(), BATCH, args.seed);
    let (q, p) = time_queries(|| SearchEngine::build(engine.graph().clone()), &queries, 10);

    if obs.is_enabled() {
        // One instrumented extraction so pedigree span/counters appear too.
        if let Some(top) = engine.query(&queries[0], 1).first() {
            let _ = extract_with(engine.graph(), top.entity, DEFAULT_GENERATIONS, &obs);
        }
    }

    // Microsecond resolution: extraction no longer shows at 0.1 ms.
    let fmt = |v: f64| format!("{v:.6}");
    let pedigree_row = match p {
        Some(p) => {
            vec!["Pedigree extraction".into(), fmt(p.min), fmt(p.avg), fmt(p.median), fmt(p.max)]
        }
        // No query returned a hit, so there is nothing to extract.
        None => vec![
            "Pedigree extraction".into(),
            "n/a".into(),
            "n/a".into(),
            "n/a".into(),
            "n/a".into(),
        ],
    };
    println!(
        "{}",
        format_table(
            &["Task", "Minimum", "Average", "Median", "Maximum"],
            &[
                vec!["Querying".into(), fmt(q.min), fmt(q.avg), fmt(q.median), fmt(q.max)],
                pedigree_row,
            ]
        )
    );

    if let Some(report) = obs.report() {
        write_report(report.with_meta("dataset", "ios").with_meta("batch", BATCH), &args, "table7");
    }
}
