//! Sharded, bounded memoisation cache for unseen query values.
//!
//! The §7 online extension caches the approximate matches of query values
//! that were never indexed ("we … add them to S to speed-up future queries
//! of the same value"). Unbounded, that cache grows by one entry per novel
//! query string — an open-ended memory leak under real traffic. This cache
//! bounds it: entries hash to one of a fixed number of shards, each shard
//! holds at most `capacity / shards` entries, and a full shard evicts its
//! oldest entry (FIFO) before inserting. Sharding keeps lock contention low
//! when many threads query one shared [`SimilarityIndex`].

// The cache is a bounded memo whose iteration order is never observed:
// lookups are by key, eviction order comes from the explicit FIFO queue, and
// cached results are identical to recomputation. O(1) hashed access matters
// on this hot path, so HashMap is deliberate.
use std::collections::hash_map::DefaultHasher;
#[expect(clippy::disallowed_types, reason = "order never observed; see above")]
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use snaps_obs::{Counter, Obs};

use crate::simindex::Matches;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

/// Default total entry capacity across all shards.
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// One shard: its entries plus the insertion order used for FIFO eviction.
/// Both hold the same key allocation.
///
/// A panic while a shard is locked can at worst leave `map` and `order`
/// out of step, which costs a missed or early eviction, never a wrong
/// result; so a poisoned shard is recovered and used as is.
#[derive(Debug, Default)]
struct Shard {
    #[expect(clippy::disallowed_types, reason = "keyed access only, order never observed")]
    map: HashMap<Arc<str>, Arc<Matches>>,
    order: VecDeque<Arc<str>>,
}

/// The sharded bounded cache. Cheap to share behind `&self`; all mutation
/// happens under per-shard locks.
pub struct SimCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl std::fmt::Debug for SimCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCache")
            .field("capacity", &(self.per_shard_capacity * SHARDS))
            .field("len", &self.len())
            .finish()
    }
}

impl SimCache {
    /// Cache holding at most `capacity` entries in total. A zero capacity is
    /// clamped to one entry per shard — a cache that can hold nothing would
    /// turn every repeated query into a recomputation.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS),
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// Install the `index.sim_cache.{hits,misses,evictions}` counter triple
    /// on `obs`. Handles share state, so several indexes instrumented on the
    /// same `obs` aggregate into one triple.
    pub fn instrument(&mut self, obs: &Obs) {
        self.hits = obs.counter("index.sim_cache.hits");
        self.misses = obs.counter("index.sim_cache.misses");
        self.evictions = obs.counter("index.sim_cache.evictions");
    }

    /// Total cached entries across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        // One short-lived lock per shard; no shard lock is ever held across
        // a call into another crate.
        let mut total = 0;
        for s in &self.shards {
            total += s.lock().unwrap_or_else(PoisonError::into_inner).map.len();
        }
        total
    }

    /// Whether no entry is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARDS
    }

    /// The shard `key` hashes to. `None` is unreachable (the modulus keeps
    /// the index under `SHARDS`) but callers degrade gracefully anyway.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "only the hash's low bits pick the shard; truncation keeps them"
    )]
    fn shard(&self, key: &str) -> Option<&Mutex<Shard>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shards.get((h.finish() as usize) % SHARDS)
    }

    /// Cached matches for `key`, bumping the hit/miss counters.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<Matches>> {
        let found = self
            .shard(key)
            .and_then(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.get(key).cloned());
        if found.is_some() {
            self.hits.incr();
        } else {
            self.misses.incr();
        }
        found
    }

    /// Insert `matches` under `key`, evicting the shard's oldest entry when
    /// it is full. A racing duplicate insert (two threads computing the same
    /// novel value) overwrites idempotently and does not grow the shard.
    pub fn insert(&self, key: &str, matches: Arc<Matches>) {
        let Some(mutex) = self.shard(key) else { return };
        let mut evicted = 0u64;
        {
            let mut shard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = shard.map.get_mut(key) {
                *slot = matches;
                return;
            }
            while shard.map.len() >= self.per_shard_capacity {
                let Some(oldest) = shard.order.pop_front() else { break };
                shard.map.remove(&oldest);
                evicted += 1;
            }
            let key: Arc<str> = Arc::from(key);
            shard.map.insert(Arc::clone(&key), matches);
            shard.order.push_back(key);
        }
        // Counter bumps call into snaps-obs; they happen after the shard
        // guard is dropped so no lock is held across a cross-crate call.
        if evicted > 0 {
            self.evictions.add(evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaps_obs::ObsConfig;

    fn arc(v: &[(u32, f64)]) -> Arc<Matches> {
        Arc::new(v.to_vec())
    }

    #[test]
    fn get_after_insert_hits() {
        let c = SimCache::new(64);
        assert!(c.get("a").is_none());
        c.insert("a", arc(&[(7, 0.9)]));
        let m = c.get("a").expect("cached");
        assert_eq!(m[0].0, 7);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_bounds_every_shard() {
        let c = SimCache::new(SHARDS); // one entry per shard
        for i in 0..1000 {
            c.insert(&format!("key{i}"), arc(&[]));
        }
        assert!(c.len() <= SHARDS, "len {} exceeds capacity", c.len());
    }

    #[test]
    fn eviction_is_fifo_per_shard() {
        let c = SimCache::new(1); // per-shard capacity 1
                                  // Find two keys in the same shard.
        let keys: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();
        let (a, b) = {
            let first = &keys[0];
            let shard0 = c.shard(first).expect("shard") as *const _;
            let other = keys[1..]
                .iter()
                .find(|k| std::ptr::eq(c.shard(k).expect("shard"), shard0))
                .expect("two keys share a shard");
            (first.clone(), other.clone())
        };
        c.insert(&a, arc(&[]));
        c.insert(&b, arc(&[]));
        assert!(c.get(&a).is_none(), "oldest entry evicted");
        assert!(c.get(&b).is_some(), "newest entry kept");
    }

    #[test]
    fn counters_record_hits_misses_evictions() {
        let obs = Obs::new(&ObsConfig::full());
        let mut c = SimCache::new(1);
        c.instrument(&obs);
        let _ = c.get("x"); // miss
        c.insert("x", arc(&[]));
        let _ = c.get("x"); // hit
        for i in 0..100 {
            c.insert(&format!("y{i}"), arc(&[])); // forces evictions somewhere
        }
        let report = obs.report().expect("enabled");
        assert_eq!(report.counter("index.sim_cache.misses"), Some(1));
        assert_eq!(report.counter("index.sim_cache.hits"), Some(1));
        assert!(report.counter("index.sim_cache.evictions").unwrap_or(0) > 0);
    }

    #[test]
    fn duplicate_insert_overwrites_without_growth() {
        let c = SimCache::new(64);
        c.insert("a", arc(&[(1, 0.1)]));
        c.insert("a", arc(&[(2, 0.2)]));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a").unwrap()[0].0, 2);
    }

    #[test]
    fn zero_capacity_clamps_to_minimum() {
        let c = SimCache::new(0);
        assert!(c.capacity() >= 1);
        c.insert("a", arc(&[]));
        assert!(c.get("a").is_some(), "a clamped cache still caches");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test runs writers on several threads")]
    fn concurrent_use_is_safe() {
        let c = std::sync::Arc::new(SimCache::new(128));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let k = format!("k{}", (t * 13 + i) % 200);
                        if c.get(&k).is_none() {
                            c.insert(&k, Arc::new(Vec::new()));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= c.capacity());
    }
}
