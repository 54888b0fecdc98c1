//! Request-scoped tracing: a fixed-capacity, mutex-sharded ring of
//! structured per-request records.
//!
//! The serve path records one [`TraceRecord`] per handled request into a
//! [`TraceRing`]; `/debug/traces` and `/debug/slow` read them back. The
//! ring is bounded (old records are evicted, never reallocated past
//! capacity) and sharded so concurrent writers rarely contend on the same
//! mutex. Writers are assigned to shards round-robin by a global sequence
//! counter, which doubles as a total order over records: the retained set
//! is always exactly the `capacity` most recent sequence numbers, whatever
//! the thread interleaving, because a full shard evicts its smallest
//! sequence number — or drops the incoming record when *it* is the
//! smallest (a writer that stalled between taking its sequence number and
//! locking the shard).
//!
//! Nothing in this module can panic: no indexing, no unwrap, and poisoned
//! shard locks are re-entered (a half-written shard is still a valid list
//! of complete records — `push` only appends or removes whole records).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards in a [`TraceRing`].
const SHARDS: usize = 8;

/// Default ring capacity used by the serve layer.
pub const DEFAULT_TRACE_CAPACITY: usize = 512;

/// One traced request, as recorded by a serve handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global sequence number, assigned by [`TraceRing::push`]; later
    /// requests have strictly larger values.
    pub seq: u64,
    /// Normalised route label (`search`, `pedigree`, `healthz`, …).
    pub route: &'static str,
    /// HTTP status code of the response.
    pub status: u16,
    /// Handler latency in microseconds, clamped to ≥ 1 so a
    /// sub-microsecond handler still registers as traced.
    pub latency_us: u64,
    /// Time the connection waited in the accept queue, microseconds.
    pub queue_wait_us: u64,
    /// Similarity-cache hits attributed to this request (counter delta
    /// around the handler; approximate under concurrency).
    pub cache_hits: u64,
    /// Similarity-cache misses attributed to this request (same caveat).
    pub cache_misses: u64,
    /// Candidates scored while answering (counter delta, same caveat).
    pub candidates: u64,
    /// Results returned in the response body.
    pub results: u64,
    /// Truncated query-parameter digest (`k=v&k=v…`, ≤ 64 bytes).
    pub params: String,
}

impl TraceRecord {
    /// A zeroed record for `route`; callers fill in the fields they know.
    /// `seq` is overwritten by [`TraceRing::push`].
    #[must_use]
    pub fn new(route: &'static str) -> Self {
        Self {
            seq: 0,
            route,
            status: 0,
            latency_us: 1,
            queue_wait_us: 0,
            cache_hits: 0,
            cache_misses: 0,
            candidates: 0,
            results: 0,
            params: String::new(),
        }
    }
}

/// Fixed-capacity, mutex-sharded ring buffer of [`TraceRecord`]s.
///
/// `push` is O(shard size) worst case (eviction scans for the minimum
/// sequence number) with `capacity / 8` records per shard; readers lock
/// one shard at a time — never two locks at once, so the ring introduces
/// no lock-order edges.
#[derive(Debug)]
pub struct TraceRing {
    shards: Vec<Mutex<Vec<TraceRecord>>>,
    per_shard: usize,
    next_seq: AtomicU64,
}

impl TraceRing {
    /// Ring holding at most `capacity` records (rounded up to a multiple
    /// of the shard count; zero is bumped to the shard count).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::with_capacity(per_shard))).collect(),
            per_shard,
            next_seq: AtomicU64::new(0),
        }
    }

    /// Total capacity (a multiple of the shard count).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// Records ever pushed (including evicted ones).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut n = 0;
        for shard in &self.shards {
            let guard = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            n += guard.len();
        }
        n
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one request; assigns and returns its sequence number.
    ///
    /// The shard is chosen by sequence number (round-robin), so each shard
    /// holds every `SHARDS`-th record and eviction of the shard-local
    /// minimum keeps exactly the globally most recent `capacity` records.
    ///
    /// A writer can stall between taking its sequence number and locking
    /// the shard; by the time it inserts, the shard may be full of strictly
    /// newer records. Evicting the shard minimum then would throw away a
    /// newer record to retain a stale one, so a full shard *drops* a record
    /// older than its minimum instead — the record is counted in
    /// [`pushed`](Self::pushed) but was already outside the newest-
    /// `capacity` window the ring retains. The exhaustive-interleaving
    /// model test (`tests/trace_model.rs`) checks both halves of this
    /// policy.
    pub fn push(&self, mut record: TraceRecord) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let shard_idx = usize::try_from(seq).unwrap_or(usize::MAX) % SHARDS;
        if let Some(shard) = self.shards.get(shard_idx) {
            let mut guard = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if guard.len() >= self.per_shard {
                // Evict the oldest record of this shard. Writers can lock
                // the shard out of sequence order, so scan for the minimum
                // rather than assuming FIFO order.
                if let Some((oldest, min_seq)) =
                    guard.iter().enumerate().min_by_key(|(_, r)| r.seq).map(|(i, r)| (i, r.seq))
                {
                    if seq < min_seq {
                        return seq; // stale record: everything here is newer
                    }
                    guard.swap_remove(oldest);
                }
            }
            guard.push(record);
        }
        seq
    }

    /// The most recent `n` records, newest first (by sequence number).
    ///
    /// Shards are snapshotted one at a time (no two locks held at once);
    /// the merged view is consistent per shard and totally ordered by
    /// `seq` overall.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let mut all = self.collect_all();
        all.sort_unstable_by_key(|r| std::cmp::Reverse(r.seq));
        all.truncate(n);
        all
    }

    /// Retained records whose handler latency is at least `threshold_us`,
    /// slowest first (ties broken newest first).
    #[must_use]
    pub fn slow(&self, threshold_us: u64) -> Vec<TraceRecord> {
        let mut hits: Vec<TraceRecord> =
            self.collect_all().into_iter().filter(|r| r.latency_us >= threshold_us).collect();
        hits.sort_unstable_by(|a, b| b.latency_us.cmp(&a.latency_us).then(b.seq.cmp(&a.seq)));
        hits
    }

    fn collect_all(&self) -> Vec<TraceRecord> {
        let mut all = Vec::with_capacity(self.capacity());
        for shard in &self.shards {
            let guard = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            all.extend(guard.iter().cloned());
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::thread;

    fn record(route: &'static str, latency_us: u64) -> TraceRecord {
        TraceRecord { latency_us, ..TraceRecord::new(route) }
    }

    #[test]
    fn capacity_rounds_up_to_shard_multiple() {
        assert_eq!(TraceRing::new(0).capacity(), SHARDS);
        assert_eq!(TraceRing::new(1).capacity(), SHARDS);
        assert_eq!(TraceRing::new(64).capacity(), 64);
        assert_eq!(TraceRing::new(65).capacity(), 72);
    }

    #[test]
    fn recent_returns_newest_first() {
        let ring = TraceRing::new(16);
        for i in 0..10u64 {
            ring.push(record("search", i + 1));
        }
        let recent = ring.recent(4);
        let seqs: Vec<u64> = recent.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [9, 8, 7, 6]);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.len(), 10);
        assert!(!ring.is_empty());
    }

    #[test]
    fn wraparound_keeps_exactly_the_most_recent_capacity() {
        let ring = TraceRing::new(16);
        for i in 0..100u64 {
            ring.push(record("search", i));
        }
        assert_eq!(ring.pushed(), 100);
        assert_eq!(ring.len(), 16);
        let seqs: BTreeSet<u64> = ring.recent(usize::MAX).iter().map(|r| r.seq).collect();
        let expected: BTreeSet<u64> = (84..100).collect();
        assert_eq!(seqs, expected, "retained set is exactly the newest capacity seqs");
    }

    #[test]
    fn slow_filters_and_sorts_by_latency() {
        let ring = TraceRing::new(16);
        for latency in [5u64, 500, 50, 5000] {
            ring.push(record("search", latency));
        }
        let slow = ring.slow(50);
        let lat: Vec<u64> = slow.iter().map(|r| r.latency_us).collect();
        assert_eq!(lat, [5000, 500, 50]);
        assert!(ring.slow(1_000_000).is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test runs writers on several threads")]
    fn concurrent_writers_reconcile_exactly() {
        // 8 writers × 500 records into a 64-slot ring: every push must be
        // counted, the retained set must be exactly the 64 newest sequence
        // numbers, and no record may be duplicated or lost in between.
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 500;
        const CAPACITY: usize = 64;

        let ring = Arc::new(TraceRing::new(CAPACITY));
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        ring.push(record("search", (w as u64) * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer thread");
        }

        let total = WRITERS as u64 * PER_WRITER;
        assert_eq!(ring.pushed(), total, "every push counted");
        assert_eq!(ring.len(), CAPACITY, "ring full after wraparound");

        let retained = ring.recent(usize::MAX);
        assert_eq!(retained.len(), CAPACITY);
        let seqs: BTreeSet<u64> = retained.iter().map(|r| r.seq).collect();
        assert_eq!(seqs.len(), CAPACITY, "no duplicate sequence numbers");
        let expected: BTreeSet<u64> = (total - CAPACITY as u64..total).collect();
        assert_eq!(seqs, expected, "exactly the newest {CAPACITY} records survive");

        // Newest-first ordering holds over the merged view.
        let ordered: Vec<u64> = retained.iter().map(|r| r.seq).collect();
        assert!(ordered.windows(2).all(|w| w[0] > w[1]), "recent() is strictly newest-first");
    }
}
