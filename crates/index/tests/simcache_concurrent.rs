//! Concurrent integration test for the sharded [`SimCache`]: eight threads
//! hammer an overlapping keyspace, then the `index.sim_cache.*` counter
//! triple must reconcile exactly with the traffic that was issued.

#![expect(clippy::disallowed_methods, reason = "the test runs writers on several threads")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use snaps_index::SimCache;
use snaps_obs::{Obs, ObsConfig};

const THREADS: u64 = 8;
const ITERS: u64 = 2000;
const KEYSPACE: u64 = 256;

#[test]
fn concurrent_counters_reconcile() {
    let obs = Obs::new(&ObsConfig::full());
    let mut cache = SimCache::new(64);
    cache.instrument(&obs);
    let cache = Arc::new(cache);
    let inserts = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let inserts = Arc::clone(&inserts);
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    // Per-thread stride: the keyspaces overlap but the
                    // threads do not walk it in the same order.
                    let k = format!("q{}", (t * 31 + i) % KEYSPACE);
                    if cache.get(&k).is_none() {
                        cache.insert(&k, Arc::new(Vec::new()));
                        inserts.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }

    let report = obs.report().expect("obs enabled");
    let hits = report.counter("index.sim_cache.hits").unwrap_or(0);
    let misses = report.counter("index.sim_cache.misses").unwrap_or(0);
    let evictions = report.counter("index.sim_cache.evictions").unwrap_or(0);

    // Every get bumps exactly one of hits/misses — no get is double-counted
    // or lost, whatever the interleaving.
    assert_eq!(hits + misses, THREADS * ITERS, "hits {hits} + misses {misses}");
    // Both sides of the traffic actually happened: the first touch of each
    // key misses, and the overlapping keyspace guarantees re-reads.
    assert!(misses >= KEYSPACE, "each of {KEYSPACE} keys misses at least once, got {misses}");
    assert!(hits > 0, "overlapping keyspace produces hits");
    // A bounded cache fed a larger keyspace must evict.
    assert!(evictions > 0, "keyspace {KEYSPACE} > capacity {} forces evictions", cache.capacity());
    // Conservation: every resident or evicted entry came from one insert
    // call (duplicate inserts overwrite idempotently, never grow a shard).
    let resident = cache.len() as u64;
    assert!(resident <= cache.capacity() as u64, "len {resident} within capacity");
    assert!(
        resident + evictions <= inserts.load(Ordering::Relaxed),
        "resident {resident} + evicted {evictions} exceed {} inserts",
        inserts.load(Ordering::Relaxed)
    );
}
