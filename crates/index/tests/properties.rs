//! Property tests: the similarity-aware index against a brute-force oracle,
//! each checked on 64 seeded random cases.

use snaps_index::SimilarityIndex;
use snaps_rng::{check_cases, Rng};
use snaps_strsim::jaro_winkler;
use snaps_strsim::qgram::share_bigram;

const CASES: u64 = 64;

/// A word of 2-8 letters from `a..=e`, so that values collide often.
fn word(rng: &mut Rng) -> String {
    let len = rng.gen_range(2..=8);
    (0..len).map(|_| char::from(rng.gen_range(b'a'..=b'e'))).collect()
}

/// 1-24 words.
fn words(rng: &mut Rng) -> Vec<String> {
    let len = rng.gen_range(1..25);
    (0..len).map(|_| word(rng)).collect()
}

/// Every stored match agrees with a direct Jaro-Winkler computation and
/// clears the threshold; every bigram-sharing value clearing the
/// threshold is stored (completeness against the oracle).
#[test]
fn index_matches_brute_force() {
    check_cases(CASES, |rng| {
        let values = words(rng);
        let s_t = rng.gen_range(0.4..0.9);
        let index = SimilarityIndex::build(values.iter().map(String::as_str), s_t);
        let mut distinct: Vec<&String> = values.iter().collect();
        distinct.sort();
        distinct.dedup();

        for v in &distinct {
            let stored = index.lookup(v).expect("indexed value has matches entry");
            // Soundness.
            for &(id, sim) in stored {
                let other = &*index.indexed_values()[id as usize];
                assert!((jaro_winkler(v, other) - sim).abs() < 1e-12, "{v} {other}");
                assert!(sim >= s_t, "{v} {other} {sim} < {s_t}");
                assert!(share_bigram(v, other), "{v} {other}");
            }
            // Completeness.
            for other in &distinct {
                if *other == *v {
                    continue;
                }
                let sim = jaro_winkler(v, other);
                if sim >= s_t && share_bigram(v, other) {
                    assert!(
                        stored
                            .iter()
                            .any(|&(o, _)| *index.indexed_values()[o as usize] == ***other),
                        "missing match {other} for {v} (sim {sim})"
                    );
                }
            }
        }
    });
}

/// Unseen query values get exactly the matches a rebuild-with-the-value
/// would give them (minus the value itself).
#[test]
fn online_extension_is_consistent() {
    check_cases(CASES, |rng| {
        let values = words(rng);
        let query = word(rng);
        let s_t = 0.5;
        let index = SimilarityIndex::build(values.iter().map(String::as_str), s_t);
        let online = index.lookup_or_compute(&query);
        for &(id, sim) in online.iter() {
            let other =
                index.indexed_values().get(id as usize).expect("matches only indexed values");
            assert!((jaro_winkler(&query, other) - sim).abs() < 1e-12, "{query} {other}");
            assert!(sim >= s_t, "{query} {other}");
        }
        // Descending order.
        for w in online.windows(2) {
            assert!(w[0].1 >= w[1].1, "{query}: {online:?}");
        }
    });
}
