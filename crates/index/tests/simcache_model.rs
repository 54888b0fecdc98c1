//! Exhaustive-interleaving model check for `SimCache`'s
//! counters-outside-the-guard protocol.
//!
//! `loom` is not available offline, so this is a hand-rolled state-space
//! enumeration. `SimCache` deliberately bumps its hit/miss/eviction
//! counters *after* the shard guard is dropped (no lock held across the
//! cross-crate call into `snaps-obs`), which means counter state lags
//! cache state mid-flight. The property worth proving is quiescent
//! reconciliation: once every in-flight operation has completed both its
//! steps, the counters account for the traffic exactly, in every
//! interleaving.
//!
//! Each operation is modelled as two atomic steps, matching the real
//! code's granularity:
//!
//! - `get`:    (1) guard-held map probe, (2) hit-or-miss counter bump;
//! - `insert`: (1) guard-held FIFO evict + insert, (2) eviction-counter
//!   bump (a no-op step when nothing was evicted).
//!
//! The model collapses sharding to a single shard — counters are global
//! and shards are independent, so one shard exhibits every ordering the
//! counters can observe — and ignores cached values, which cannot affect
//! eviction or counting.

use std::collections::{BTreeSet, VecDeque};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Get(&'static str),
    Insert(&'static str),
}

/// The deferred step-2 counter bump an operation still owes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pending {
    Hit,
    Miss,
    Evicted(u64),
}

/// Single-shard model of the cache plus its counter triple.
#[derive(Clone)]
struct Model {
    entries: VecDeque<&'static str>, // front = oldest (FIFO eviction order)
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    fresh_inserts: u64,
}

impl Model {
    fn new(cap: usize) -> Self {
        Self { entries: VecDeque::new(), cap, hits: 0, misses: 0, evictions: 0, fresh_inserts: 0 }
    }

    /// Step 1 of an operation: the guard-held cache mutation/probe.
    fn step1(&mut self, op: Op) -> Pending {
        match op {
            Op::Get(k) => {
                if self.entries.contains(&k) {
                    Pending::Hit
                } else {
                    Pending::Miss
                }
            }
            Op::Insert(k) => {
                if self.entries.contains(&k) {
                    return Pending::Evicted(0); // idempotent overwrite
                }
                let mut evicted = 0u64;
                while self.entries.len() >= self.cap {
                    if self.entries.pop_front().is_none() {
                        break;
                    }
                    evicted += 1;
                }
                self.entries.push_back(k);
                self.fresh_inserts += 1;
                Pending::Evicted(evicted)
            }
        }
    }

    /// Step 2: the counter bump issued after the guard is dropped.
    fn step2(&mut self, pending: Pending) {
        match pending {
            Pending::Hit => self.hits += 1,
            Pending::Miss => self.misses += 1,
            Pending::Evicted(n) => self.evictions += n,
        }
    }
}

type ThreadState = (usize, Option<Pending>); // next op index, owed step 2

struct Exploration {
    schedules: u64,
    /// Distinct final (hits, misses, evictions, live) tuples.
    outcomes: BTreeSet<(u64, u64, u64, usize)>,
    total_gets: u64,
}

fn explore(model: &Model, programs: &[Vec<Op>], threads: &[ThreadState], out: &mut Exploration) {
    let mut moved = false;
    for t in 0..threads.len() {
        let (ip, pending) = threads[t];
        let mut m = model.clone();
        let mut ts = threads.to_vec();
        match pending {
            Some(p) => {
                m.step2(p);
                ts[t] = (ip, None);
            }
            None => match programs[t].get(ip) {
                Some(&op) => {
                    let p = m.step1(op);
                    ts[t] = (ip + 1, Some(p));
                }
                None => continue,
            },
        }
        moved = true;
        // The cache itself must stay bounded after *every* step, not just
        // at quiescence: eviction happens under the same guard as insert.
        assert!(m.entries.len() <= m.cap, "shard overflow mid-flight");
        explore(&m, programs, &ts, out);
    }
    if !moved {
        out.schedules += 1;
        // Quiescent reconciliation: every get was counted exactly once,
        // and the eviction counter equals entries created minus entries
        // still live.
        assert_eq!(model.hits + model.misses, out.total_gets, "a get went uncounted");
        let live = u64::try_from(model.entries.len()).unwrap_or(u64::MAX);
        assert_eq!(model.evictions, model.fresh_inserts - live, "eviction counter out of balance");
        out.outcomes.insert((model.hits, model.misses, model.evictions, model.entries.len()));
    }
}

fn run(cap: usize, programs: &[Vec<Op>]) -> Exploration {
    let total_gets = programs.iter().flatten().filter(|op| matches!(op, Op::Get(_))).count() as u64;
    let mut out = Exploration { schedules: 0, outcomes: BTreeSet::new(), total_gets };
    let threads = vec![(0usize, None); programs.len()];
    explore(&Model::new(cap), programs, &threads, &mut out);
    out
}

#[test]
fn counters_reconcile_at_quiescence_in_every_interleaving() {
    // Two threads contending on a capacity-1 shard: T1 probes, caches and
    // re-probes "a" while T2 caches and probes "b", so the inserts evict
    // each other depending on the schedule. 10 steps, 10!/(6!·4!) = 210
    // schedules; the reconciliation asserts run inside `explore` at every
    // quiescent leaf.
    let programs = vec![
        vec![Op::Get("a"), Op::Insert("a"), Op::Get("a")],
        vec![Op::Insert("b"), Op::Get("b")],
    ];
    let out = run(1, &programs);
    assert_eq!(out.schedules, 210, "full schedule space covered");
    // The schedule genuinely matters — several distinct counter outcomes
    // are reachable — yet each one reconciled.
    assert!(out.outcomes.len() > 1, "outcomes: {:?}", out.outcomes);
    // The fully sequential T1-then-T2 schedule is among them: miss a,
    // cache a, hit a, then b evicts a and is hit once.
    assert!(out.outcomes.contains(&(2, 1, 1, 1)), "outcomes: {:?}", out.outcomes);
}

#[test]
fn racing_duplicate_inserts_never_overcount_evictions() {
    // Both threads compute the same novel value and insert it (the racing
    // duplicate path): the second insert must overwrite idempotently, so
    // no schedule may report an eviction or grow the shard.
    let programs = vec![vec![Op::Get("a"), Op::Insert("a")], vec![Op::Get("a"), Op::Insert("a")]];
    let out = run(2, &programs);
    assert_eq!(out.schedules, 70, "8!/(4!·4!) schedules covered");
    for &(hits, misses, evictions, live) in &out.outcomes {
        assert_eq!(hits + misses, 2);
        assert_eq!(evictions, 0, "duplicate insert counted as eviction");
        assert_eq!(live, 1, "duplicate insert grew the shard");
    }
}

#[test]
fn model_matches_the_real_cache_at_quiescence() {
    // Anchor the model to the implementation through the public API: a
    // single-threaded burst of distinct keys must reconcile the same way
    // the model's invariant demands — misses equal gets, and the eviction
    // counter equals inserts minus live entries.
    use snaps_index::SimCache;
    use snaps_obs::{Obs, ObsConfig};
    use std::sync::Arc;

    let obs = Obs::new(&ObsConfig::full());
    let mut cache = SimCache::new(1); // minimum per-shard capacity
    cache.instrument(&obs);
    let mut inserts = 0u64;
    for i in 0..100 {
        let k = format!("novel{i}");
        if cache.get(&k).is_none() {
            cache.insert(&k, Arc::new(Vec::new()));
            inserts += 1;
        }
    }
    let report = obs.report().expect("obs enabled");
    assert_eq!(report.counter("index.sim_cache.misses"), Some(100), "all distinct keys miss");
    assert_eq!(report.counter("index.sim_cache.hits"), Some(0));
    let live = u64::try_from(cache.len()).unwrap_or(u64::MAX);
    assert_eq!(
        report.counter("index.sim_cache.evictions"),
        Some(inserts - live),
        "evictions reconcile with inserts minus live entries"
    );
}
