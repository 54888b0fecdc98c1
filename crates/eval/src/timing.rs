//! The Table 5 and Table 7 experiments: offline runtimes and online
//! latencies.

use std::time::{Duration, Instant};

use snaps_rng::Rng;

use snaps_baselines::supervised::{paper_classifiers, supervised_link, TrainingRegime};
use snaps_baselines::{attr_sim_link, dep_graph_link, rel_cluster_link};
use snaps_core::{resolve, PedigreeGraph, SnapsConfig};
use snaps_datagen::GeneratedData;
use snaps_model::{Gender, RecordId};
use snaps_pedigree::{extract, DEFAULT_GENERATIONS};
use snaps_query::{QueryRecord, SearchEngine, SearchKind};

/// One Table 5 row: a system's offline runtime (plus graph sizes for SNAPS).
#[derive(Debug, Clone)]
pub struct OfflineTiming {
    /// System name.
    pub system: String,
    /// Wall-clock seconds of the offline run.
    pub seconds: f64,
    /// `|N_A|` when the system builds a dependency graph.
    pub n_atomic: Option<usize>,
    /// `|N_R|` when the system builds a dependency graph.
    pub n_relational: Option<usize>,
}

/// Time the offline component of SNAPS and every baseline (Table 5).
///
/// The supervised entry averages the four classifiers over both training
/// regimes, exactly as the paper reports its Magellan runtimes.
#[must_use]
pub fn time_offline(data: &GeneratedData, cfg: &SnapsConfig) -> Vec<OfflineTiming> {
    let ds = &data.dataset;
    let mut rows = Vec::new();

    let t = Instant::now();
    let res = resolve(ds, cfg);
    rows.push(OfflineTiming {
        system: "SNAPS".into(),
        seconds: t.elapsed().as_secs_f64(),
        n_atomic: Some(res.stats.n_atomic),
        n_relational: Some(res.stats.n_relational),
    });

    let t = Instant::now();
    let _ = attr_sim_link(ds, cfg);
    rows.push(OfflineTiming {
        system: "Attr-Sim".into(),
        seconds: t.elapsed().as_secs_f64(),
        n_atomic: None,
        n_relational: None,
    });

    let t = Instant::now();
    let _ = dep_graph_link(ds, cfg);
    rows.push(OfflineTiming {
        system: "Dep-Graph".into(),
        seconds: t.elapsed().as_secs_f64(),
        n_atomic: None,
        n_relational: None,
    });

    let t = Instant::now();
    let _ = rel_cluster_link(ds, cfg);
    rows.push(OfflineTiming {
        system: "Rel-Cluster".into(),
        seconds: t.elapsed().as_secs_f64(),
        n_atomic: None,
        n_relational: None,
    });

    // Supervised: average runtime over 4 classifiers × 2 regimes.
    let truth = &data.truth;
    let is_match = |a: RecordId, b: RecordId| truth.is_match(a, b);
    let mut times = Vec::new();
    for regime in [
        TrainingRegime::PerRolePair(
            snaps_model::RoleCategory::BirthParent,
            snaps_model::RoleCategory::BirthParent,
        ),
        TrainingRegime::AllPairs,
    ] {
        for classifier in paper_classifiers() {
            let t = Instant::now();
            let _ = supervised_link(ds, cfg, classifier, regime, &is_match);
            times.push(t.elapsed().as_secs_f64());
        }
    }
    rows.push(OfflineTiming {
        system: "Supervised".into(),
        seconds: times.iter().sum::<f64>() / times.len() as f64,
        n_atomic: None,
        n_relational: None,
    });

    rows
}

/// min / average / median / max of a latency sample (Table 7's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Fastest observation (seconds).
    pub min: f64,
    /// Mean (seconds).
    pub avg: f64,
    /// Median (seconds).
    pub median: f64,
    /// Slowest observation (seconds).
    pub max: f64,
}

impl LatencyStats {
    /// Summarise an instrumentation histogram (`None` when it holds no
    /// samples). The median is the histogram's p50 estimate — exact to
    /// within the bucket quantisation (≤ 12.5%) — while min, mean, and max
    /// are exact.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn from_histogram(h: &snaps_obs::Histogram) -> Option<Self> {
        Some(Self {
            min: h.min()?.as_secs_f64(),
            avg: h.mean()?.as_secs_f64(),
            median: h.percentile(0.5)?.as_secs_f64(),
            max: h.max()?.as_secs_f64(),
        })
    }
}

/// Summarise a set of durations; `None` on an empty sample.
#[must_use]
pub(crate) fn latency_stats(samples: &[Duration]) -> Option<LatencyStats> {
    if samples.is_empty() {
        return None;
    }
    let mut secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    secs.sort_by(f64::total_cmp);
    let n = secs.len();
    let median = if n % 2 == 1 { secs[n / 2] } else { (secs[n / 2 - 1] + secs[n / 2]) / 2.0 };
    Some(LatencyStats {
        min: secs[0],
        avg: secs.iter().sum::<f64>() / n as f64,
        median,
        max: secs[n - 1],
    })
}

/// Generate a realistic query batch from a pedigree graph: entity names,
/// some with typos, some with gender/year/location refinements — the mix a
/// genealogy team would type.
#[must_use]
pub fn generate_query_batch(graph: &PedigreeGraph, n: usize, seed: u64) -> Vec<QueryRecord> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(n);
    let candidates: Vec<&snaps_core::PedigreeEntity> = graph
        .entities
        .iter()
        .filter(|e| {
            (e.has_birth_record || e.has_death_record)
                && !e.first_names.is_empty()
                && !e.surnames.is_empty()
        })
        .collect();
    if candidates.is_empty() {
        return queries;
    }
    while queries.len() < n {
        let e = candidates[rng.gen_range(0..candidates.len())];
        let kind = if e.has_birth_record && (!e.has_death_record || rng.gen_bool(0.5)) {
            SearchKind::Birth
        } else {
            SearchKind::Death
        };
        let mut first = e.first_names[0].clone();
        let mut sur = e.surnames[0].clone();
        // A third of queries carry a typo (user uncertainty, §7).
        if rng.gen_bool(0.33) {
            first = snaps_datagen::corrupt::typo(&first, &mut rng);
        }
        if rng.gen_bool(0.2) {
            sur = snaps_datagen::corrupt::typo(&sur, &mut rng);
        }
        if first.is_empty() || sur.is_empty() {
            continue;
        }
        let mut q = QueryRecord::new(&first, &sur, kind);
        if rng.gen_bool(0.5) && e.gender != Gender::Unknown {
            q = q.with_gender(e.gender);
        }
        if rng.gen_bool(0.5) {
            let year = match kind {
                SearchKind::Birth => e.birth_year,
                SearchKind::Death => e.death_year,
            };
            if let Some(y) = year {
                q = q.with_years(y - 5, y + 5);
            }
        }
        if rng.gen_bool(0.3) {
            if let Some(a) = e.addresses.first() {
                if !a.is_empty() {
                    q = q.with_location(a);
                }
            }
        }
        queries.push(q);
    }
    queries
}

/// Passes over the query batch behind each Table 7 row.
pub const TIMING_PASSES: usize = 5;

/// Run the Table 7 experiment: time every query, then time extracting the
/// pedigree of each query's top-ranked hit.
///
/// The batch runs [`TIMING_PASSES`] times, each pass cold on an engine
/// from `fresh_engine` (empty similarity cache, nothing warmed). Each row
/// reports the pass whose mean is the median of the passes' means, so one
/// noisy pass cannot move the table.
///
/// Returns `(querying, pedigree extraction)` latency statistics. The
/// extraction statistics are `None` when no query returned a hit.
///
/// # Panics
/// Panics on an empty query batch.
#[must_use]
pub fn time_queries(
    mut fresh_engine: impl FnMut() -> SearchEngine,
    queries: &[QueryRecord],
    top_m: usize,
) -> (LatencyStats, Option<LatencyStats>) {
    assert!(!queries.is_empty(), "query batch must be non-empty");
    let mut query_passes = Vec::with_capacity(TIMING_PASSES);
    let mut pedigree_passes = Vec::with_capacity(TIMING_PASSES);
    for _ in 0..TIMING_PASSES {
        let (q, p) = time_pass(&fresh_engine(), queries, top_m);
        query_passes.push(q);
        pedigree_passes.extend(p);
    }
    let q_stats = median_pass(query_passes).expect("query batch is non-empty");
    (q_stats, median_pass(pedigree_passes))
}

/// One cold pass of [`time_queries`].
fn time_pass(
    engine: &SearchEngine,
    queries: &[QueryRecord],
    top_m: usize,
) -> (LatencyStats, Option<LatencyStats>) {
    let mut query_times = Vec::with_capacity(queries.len());
    let mut pedigree_times = Vec::new();

    for q in queries {
        let t = Instant::now();
        let results = engine.query(q, top_m);
        query_times.push(t.elapsed());

        if let Some(top) = results.first() {
            let t = Instant::now();
            let p = extract(engine.graph(), top.entity, DEFAULT_GENERATIONS);
            pedigree_times.push(t.elapsed());
            std::hint::black_box(p.members.len());
        }
    }
    let q_stats = latency_stats(&query_times).expect("query batch is non-empty");
    (q_stats, latency_stats(&pedigree_times))
}

/// The pass whose mean is the median of the passes' means (the upper
/// middle one for an even count); `None` when there are no passes.
fn median_pass(mut passes: Vec<LatencyStats>) -> Option<LatencyStats> {
    passes.sort_by(|a, b| a.avg.total_cmp(&b.avg));
    passes.get(passes.len() / 2).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaps_datagen::{generate, DatasetProfile};

    #[test]
    fn latency_stats_basics() {
        let samples = [
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
            Duration::from_millis(100),
        ];
        let s = latency_stats(&samples).unwrap();
        assert!((s.min - 0.010).abs() < 1e-9);
        assert!((s.max - 0.100).abs() < 1e-9);
        assert!((s.median - 0.025).abs() < 1e-9);
        assert!((s.avg - 0.040).abs() < 1e-9);
    }

    #[test]
    fn median_pass_picks_the_middle_mean() {
        let pass = |avg: f64| LatencyStats { min: 0.0, avg, median: avg, max: 2.0 * avg };
        let passes = [5.0, 1.0, 4.0, 2.0, 3.0].map(pass).to_vec();
        assert_eq!(median_pass(passes), Some(pass(3.0)));
        assert_eq!(median_pass(Vec::new()), None);
    }

    #[test]
    fn empty_latency_is_none() {
        assert_eq!(latency_stats(&[]), None);
    }

    #[test]
    fn from_histogram_matches_exact_stats() {
        let h = snaps_obs::Histogram::new();
        assert_eq!(LatencyStats::from_histogram(&h), None);
        let samples = [
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
            Duration::from_millis(100),
        ];
        for d in samples {
            h.record(d);
        }
        let s = LatencyStats::from_histogram(&h).unwrap();
        let exact = latency_stats(&samples).unwrap();
        assert!((s.min - exact.min).abs() < 1e-9);
        assert!((s.max - exact.max).abs() < 1e-9);
        // Mean and median are bucket-quantised (≤ 12.5% relative error).
        assert!((s.avg - exact.avg).abs() / exact.avg < 0.13, "{s:?}");
        assert!(s.min <= s.median && s.median <= s.max);
    }

    #[test]
    fn offline_timing_covers_all_systems() {
        let data = generate(&DatasetProfile::ios().scaled(0.05), 42);
        let rows = time_offline(&data, &SnapsConfig::default());
        let names: Vec<&str> = rows.iter().map(|r| r.system.as_str()).collect();
        assert_eq!(names, vec!["SNAPS", "Attr-Sim", "Dep-Graph", "Rel-Cluster", "Supervised"]);
        assert!(rows.iter().all(|r| r.seconds > 0.0));
        assert!(rows[0].n_relational.unwrap() > 0);
        // Attr-Sim must be the fastest unsupervised system (Table 5 shape).
        assert!(rows[1].seconds <= rows[0].seconds);
    }

    #[test]
    fn query_batch_and_timing() {
        let data = generate(&DatasetProfile::ios().scaled(0.06), 42);
        let res = resolve(&data.dataset, &SnapsConfig::default());
        let graph = PedigreeGraph::build(&data.dataset, &res);
        let queries = generate_query_batch(&graph, 20, 7);
        assert_eq!(queries.len(), 20);
        let mut builds = 0;
        let fresh = || {
            builds += 1;
            SearchEngine::build(graph.clone())
        };
        let (q_stats, p_stats) = time_queries(fresh, &queries, 10);
        assert_eq!(builds, TIMING_PASSES, "every pass starts from a fresh engine");
        assert!(q_stats.min <= q_stats.median && q_stats.median <= q_stats.max);
        assert!(q_stats.avg > 0.0);
        // At this scale the batch always finds hits, so extraction stats
        // are present.
        let p_stats = p_stats.expect("queries produced hits");
        assert!(p_stats.max >= p_stats.min);
    }

    mod properties {
        use super::*;
        use snaps_rng::check_cases;

        /// Between `1` and `max_len - 1` durations below `max_ns`.
        fn samples(rng: &mut Rng, max_ns: u64, max_len: usize) -> Vec<u64> {
            let len = rng.gen_range(1..max_len);
            (0..len).map(|_| rng.gen_range(0..max_ns)).collect()
        }

        #[test]
        fn stats_ordering_holds() {
            check_cases(256, |rng| {
                let ns = samples(rng, 5_000_000, 64);
                let durations: Vec<Duration> =
                    ns.iter().map(|&n| Duration::from_nanos(n)).collect();
                let s = latency_stats(&durations).unwrap();
                assert!(s.min <= s.median && s.median <= s.max, "{ns:?}");
                assert!(s.min <= s.avg + 1e-15 && s.avg <= s.max + 1e-15, "{ns:?}");
            });
        }

        #[test]
        fn median_matches_definition() {
            check_cases(256, |rng| {
                let ns = samples(rng, 1_000_000, 33);
                let durations: Vec<Duration> =
                    ns.iter().map(|&n| Duration::from_nanos(n)).collect();
                let s = latency_stats(&durations).unwrap();
                let mut sorted = ns.clone();
                sorted.sort_unstable();
                let n = sorted.len();
                // Odd length: the middle element. Even length: the mean of
                // the two middle elements.
                let expect = if n % 2 == 1 {
                    Duration::from_nanos(sorted[n / 2]).as_secs_f64()
                } else {
                    (Duration::from_nanos(sorted[n / 2 - 1]).as_secs_f64()
                        + Duration::from_nanos(sorted[n / 2]).as_secs_f64())
                        / 2.0
                };
                assert!((s.median - expect).abs() < 1e-12, "{ns:?}");
            });
        }
    }

    #[test]
    fn query_batch_deterministic() {
        let data = generate(&DatasetProfile::ios().scaled(0.05), 42);
        let res = resolve(&data.dataset, &SnapsConfig::default());
        let graph = PedigreeGraph::build(&data.dataset, &res);
        let a = generate_query_batch(&graph, 10, 3);
        let b = generate_query_batch(&graph, 10, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.first_name, y.first_name);
            assert_eq!(x.surname, y.surname);
        }
    }
}
