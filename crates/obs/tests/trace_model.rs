//! Exhaustive-interleaving model check for `TraceRing`'s sharded
//! min-seq eviction.
//!
//! `loom` is not available offline, so this is a hand-rolled state-space
//! enumeration: `push` is modelled as two atomic steps — (A) take a
//! sequence number from the global counter, (B) lock the shard and
//! insert, evicting per policy — and every interleaving of the threads'
//! steps is explored by depth-first search over which thread moves next.
//! Two steps is the faithful granularity: the real `fetch_add` and the
//! mutex-guarded shard mutation are each atomic, and the race window is
//! exactly the gap between them.
//!
//! Two policies are checked:
//!
//! - **drop-stale** (the shipped policy): a full shard evicts its
//!   smallest sequence number, unless the incoming record is older than
//!   all of them, in which case the incoming record is dropped. The model
//!   proves the ring's documented invariant — the retained set is exactly
//!   the newest `capacity` sequence numbers — over *every* interleaving.
//! - **naive-evict** (the policy this replaced): always evict the shard
//!   minimum. The model finds the stale-writer counterexample — a thread
//!   that stalls between step A and step B re-inserts an old record over
//!   a newer one — proving the drop rule is load-bearing, not defensive.

use std::collections::BTreeSet;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    DropStale,
    NaiveEvict,
}

/// The two-step model of the ring: only sequence numbers are tracked,
/// because eviction depends on nothing else.
#[derive(Clone)]
struct Model {
    next: u64,
    shards: Vec<Vec<u64>>,
    per_shard: usize,
    policy: Policy,
}

impl Model {
    fn new(shards: usize, per_shard: usize, policy: Policy) -> Self {
        Self { next: 0, shards: vec![Vec::new(); shards], per_shard, policy }
    }

    /// Step A: `next_seq.fetch_add(1)`.
    fn acquire(&mut self) -> u64 {
        let s = self.next;
        self.next += 1;
        s
    }

    /// Step B: the mutex-guarded shard mutation in `TraceRing::push`.
    fn insert(&mut self, seq: u64) {
        let idx = usize::try_from(seq).unwrap_or(usize::MAX) % self.shards.len();
        let Some(shard) = self.shards.get_mut(idx) else { return };
        if shard.len() >= self.per_shard {
            if let Some(pos) = (0..shard.len()).min_by_key(|&i| shard[i]) {
                if self.policy == Policy::DropStale && seq < shard[pos] {
                    return;
                }
                shard.swap_remove(pos);
            }
        }
        shard.push(seq);
    }

    fn retained(&self) -> BTreeSet<u64> {
        self.shards.iter().flatten().copied().collect()
    }

    fn capacity(&self) -> usize {
        self.shards.len() * self.per_shard
    }
}

/// One thread's progress: pushes left to start, plus a sequence number
/// acquired in step A and not yet inserted in step B.
type ThreadState = (usize, Option<u64>);

/// Outcome of exploring every schedule to completion.
struct Exploration {
    schedules: u64,
    /// Final retained sets that violated the newest-`capacity` invariant,
    /// deduplicated.
    violations: BTreeSet<Vec<u64>>,
}

fn explore(model: &Model, threads: &[ThreadState], out: &mut Exploration) {
    let mut moved = false;
    for t in 0..threads.len() {
        let (remaining, pending) = threads[t];
        let mut m = model.clone();
        let mut ts = threads.to_vec();
        match pending {
            Some(seq) => {
                m.insert(seq);
                ts[t] = (remaining, None);
            }
            None if remaining > 0 => {
                let seq = m.acquire();
                ts[t] = (remaining - 1, Some(seq));
            }
            None => continue,
        }
        moved = true;
        explore(&m, &ts, out);
    }
    if !moved {
        // Quiescent: every thread finished both steps of every push.
        out.schedules += 1;
        let total = model.next;
        let cap = u64::try_from(model.capacity()).unwrap_or(u64::MAX);
        let expected: BTreeSet<u64> = (total.saturating_sub(cap)..total).collect();
        let retained = model.retained();
        if retained != expected {
            out.violations.insert(retained.into_iter().collect());
        }
    }
}

fn run(
    shards: usize,
    per_shard: usize,
    threads: usize,
    pushes: usize,
    policy: Policy,
) -> Exploration {
    let model = Model::new(shards, per_shard, policy);
    let start = vec![(pushes, None); threads];
    let mut out = Exploration { schedules: 0, violations: BTreeSet::new() };
    explore(&model, &start, &mut out);
    out
}

#[test]
fn drop_stale_retains_exactly_the_newest_capacity_in_every_interleaving() {
    // 3 writers × 2 pushes into a 2-shard, capacity-4 ring: 12 steps,
    // 12!/(4!·4!·4!) = 34 650 schedules, all enumerated.
    let out = run(2, 2, 3, 2, Policy::DropStale);
    assert_eq!(out.schedules, 34_650, "full schedule space covered");
    assert!(out.violations.is_empty(), "violating retained sets: {:?}", out.violations);
}

#[test]
fn drop_stale_survives_deep_overtaking_with_tiny_shards() {
    // 2 writers × 4 pushes, per-shard capacity 1: one stalled step B can
    // be overtaken by up to 7 later sequence numbers.
    let out = run(2, 1, 2, 4, Policy::DropStale);
    assert_eq!(out.schedules, 12_870, "16!/(8!·8!) schedules covered");
    assert!(out.violations.is_empty(), "violating retained sets: {:?}", out.violations);
}

#[test]
fn naive_min_evict_loses_a_newer_record_to_a_stale_writer() {
    // Same spaces under the replaced policy: the DFS must find the
    // stale-writer interleaving where an old sequence number survives a
    // newer one — the reason `push` drops stale records instead.
    let out = run(2, 1, 2, 4, Policy::NaiveEvict);
    assert!(!out.violations.is_empty(), "model failed to find the stale-writer counterexample");
    let stale_survivor = out.violations.iter().flatten().any(|&seq| seq < 6);
    assert!(stale_survivor, "violations retain a stale seq: {:?}", out.violations);
}

#[test]
fn model_matches_the_real_ring_on_sequential_schedules() {
    // On the single-thread schedule the model and the real structure must
    // agree exactly — anchors the model to the implementation.
    use snaps_obs::{TraceRecord, TraceRing};
    let ring = TraceRing::new(4); // rounds up to 8 slots, 1 per shard
    let mut model = Model::new(8, 1, Policy::DropStale);
    for _ in 0..20 {
        ring.push(TraceRecord::new("search"));
        let seq = model.acquire();
        model.insert(seq);
    }
    let real: BTreeSet<u64> = ring.recent(usize::MAX).iter().map(|r| r.seq).collect();
    assert_eq!(real, model.retained());
    assert_eq!(ring.len(), model.retained().len());
}
