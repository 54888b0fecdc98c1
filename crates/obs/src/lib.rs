//! Zero-dependency instrumentation for the SNAPS pipeline.
//!
//! This crate provides the observability layer used across the workspace:
//!
//! - **Hierarchical span timers** — RAII guards over monotonic clocks
//!   ([`std::time::Instant`]). Spans form a tree keyed by `/`-separated
//!   paths (`resolve/merge/pass_1`); repeated spans with the same path
//!   accumulate count and total duration.
//! - **Atomic counters and gauges** — cheap handles backed by
//!   [`std::sync::atomic`] integers, safe to bump from hot loops.
//! - **Latency histograms** — fixed sub-octave bucket layout with
//!   p50/p95/p99 readout (see [`Histogram`]).
//! - **[`RunReport`]** — a snapshot of the whole tree serialised to JSON by
//!   a built-in writer (no serde; the crate has zero dependencies).
//!
//! The entry point is [`Obs`]: a cheaply clonable handle that is either
//! *enabled* (shared recording state) or *disabled* (all operations
//! no-ops). Construct one from an [`ObsConfig`]:
//!
//! ```
//! use snaps_obs::{Obs, ObsConfig, Verbosity};
//!
//! let obs = Obs::new(&ObsConfig { enabled: true, verbosity: Verbosity::Full });
//! let span = obs.span("resolve");
//! let child = span.child("blocking");
//! obs.counter("comparisons").add(42);
//! child.finish();
//! span.finish();
//! let report = obs.report().expect("enabled");
//! assert!(report.to_json().contains("\"blocking\""));
//! ```
//!
//! When `enabled` is `false`, [`Obs::span`] still measures elapsed time
//! (its [`SpanGuard::finish`] returns a real [`Duration`], which the
//! pipeline uses for its own stats) but records nothing, and counter /
//! gauge / histogram handles are inert — the only cost left on the hot
//! path is a branch on an `Option` that is always `None`.

#![expect(
    clippy::disallowed_types,
    reason = "span timers and latency histograms measure wall-clock time"
)]

mod histogram;
mod json;
mod prom;
mod report;
mod trace;

pub use histogram::{Histogram, HistogramHandle, HistogramReport};
pub use report::{RunReport, SpanReport};
pub use trace::{TraceRecord, TraceRing, DEFAULT_TRACE_CAPACITY};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How much the instrumentation layer records.
///
/// Levels are cumulative: each level records everything the previous one
/// does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Span timings only.
    Spans,
    /// Spans plus counters and gauges.
    Counters,
    /// Everything, including latency histograms.
    Full,
}

/// Instrumentation switch carried on pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch; when `false` every instrumentation call is a no-op.
    pub enabled: bool,
    /// Recording level when enabled.
    pub verbosity: Verbosity,
}

impl Default for ObsConfig {
    /// Disabled; the pipeline pays no instrumentation cost by default.
    fn default() -> Self {
        Self { enabled: false, verbosity: Verbosity::Full }
    }
}

impl ObsConfig {
    /// Config with instrumentation fully on.
    #[must_use]
    pub fn full() -> Self {
        Self { enabled: true, verbosity: Verbosity::Full }
    }
}

/// Aggregated state for one span path.
#[derive(Debug, Default)]
pub(crate) struct SpanNode {
    pub(crate) count: u64,
    pub(crate) total: Duration,
    /// Children in first-recorded order, so reports read in phase order.
    pub(crate) children: Vec<(String, SpanNode)>,
}

impl SpanNode {
    fn child_mut(&mut self, name: &str) -> Option<&mut SpanNode> {
        // Linear scan: span trees are small (tens of nodes) and this
        // preserves insertion order for the report. Ensure-then-find keeps
        // the function total (the find always succeeds after the push).
        if self.children.iter().all(|(n, _)| n != name) {
            self.children.push((name.to_owned(), SpanNode::default()));
        }
        self.children.iter_mut().find(|(n, _)| n == name).map(|(_, node)| node)
    }

    fn record(&mut self, path: &str, elapsed: Duration) {
        let mut node = self;
        for seg in path.split('/') {
            match node.child_mut(seg) {
                Some(n) => node = n,
                None => return,
            }
        }
        node.count += 1;
        node.total += elapsed;
    }
}

/// Shared recording state behind an enabled [`Obs`].
#[derive(Debug)]
struct ObsInner {
    verbosity: Verbosity,
    spans: Mutex<SpanNode>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Handle to the instrumentation layer.
///
/// Cloning is cheap (an [`Arc`] clone when enabled, a copy of `None` when
/// disabled); clones share the same recording state.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// Build a handle from configuration; disabled configs produce the
    /// no-op handle.
    #[must_use]
    pub fn new(cfg: &ObsConfig) -> Self {
        if !cfg.enabled {
            return Self::disabled();
        }
        Self {
            inner: Some(Arc::new(ObsInner {
                verbosity: cfg.verbosity,
                spans: Mutex::new(SpanNode::default()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The no-op handle: every operation does nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this handle records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a root-level span. The guard records into the span tree when
    /// finished (or dropped); nested spans come from [`SpanGuard::child`].
    ///
    /// Even when disabled the guard measures real elapsed time, so callers
    /// can use [`SpanGuard::finish`] as their single timing source.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard {
            obs: self.clone(),
            path: if self.inner.is_some() { name.to_owned() } else { String::new() },
            start: Instant::now(),
            finished: false,
        }
    }

    /// Counter handle for `name`, creating it on first use. Inert unless
    /// verbosity is at least [`Verbosity::Counters`].
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.named_atomic(name, Verbosity::Counters, |i| &i.counters))
    }

    /// Gauge handle for `name`, creating it on first use. Inert unless
    /// verbosity is at least [`Verbosity::Counters`].
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.named_atomic(name, Verbosity::Counters, |i| &i.gauges))
    }

    /// Histogram handle for `name`, creating it on first use. Inert unless
    /// verbosity is [`Verbosity::Full`].
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle::new(self.named_atomic(name, Verbosity::Full, |i| &i.histograms))
    }

    fn named_atomic<T: Default>(
        &self,
        name: &str,
        min_verbosity: Verbosity,
        map: impl Fn(&ObsInner) -> &Mutex<BTreeMap<String, Arc<T>>>,
    ) -> Option<Arc<T>> {
        let inner = self.inner.as_ref()?;
        if inner.verbosity < min_verbosity {
            return None;
        }
        // Registry maps only ever gain entries; a panic mid-insert cannot
        // leave them inconsistent, so a poisoned lock is safe to re-enter.
        let mut guard = map(inner).lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Some(Arc::clone(guard.entry(name.to_owned()).or_default()))
    }

    fn record_span(&self, path: &str, elapsed: Duration) {
        if let Some(inner) = &self.inner {
            // A partially-recorded span tree is still a valid tree; re-enter
            // a poisoned lock rather than take the whole service down.
            inner
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .record(path, elapsed);
        }
    }

    /// Snapshot everything recorded so far; `None` when disabled.
    #[must_use]
    pub fn report(&self) -> Option<RunReport> {
        // Snapshots tolerate a poisoned lock: the registries are append-only
        // and the span tree is valid at every step, so re-entering yields a
        // consistent (if slightly stale) report.
        let inner = self.inner.as_ref()?;
        let spans = {
            let tree = inner.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            tree.children.iter().map(|(n, c)| report::span_report(n, c)).collect()
        };
        let counters = {
            let map = inner.counters.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            map.iter().map(|(n, v)| (n.clone(), v.load(Ordering::Relaxed))).collect()
        };
        let gauges = {
            let map = inner.gauges.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            map.iter().map(|(n, v)| (n.clone(), v.load(Ordering::Relaxed))).collect()
        };
        let histograms = {
            let map = inner.histograms.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            map.iter().map(|(n, h)| (n.clone(), h.snapshot())).collect()
        };
        Some(RunReport { meta: Vec::new(), spans, counters, gauges, histograms })
    }
}

/// RAII timer for one span. Created by [`Obs::span`] / [`SpanGuard::child`];
/// records its elapsed time into the span tree on [`finish`](Self::finish)
/// or drop.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    path: String,
    start: Instant,
    finished: bool,
}

impl SpanGuard {
    /// Start a nested span under this one.
    #[must_use]
    pub fn child(&self, name: &str) -> SpanGuard {
        SpanGuard {
            obs: self.obs.clone(),
            path: if self.obs.inner.is_some() {
                format!("{}/{}", self.path, name)
            } else {
                String::new()
            },
            start: Instant::now(),
            finished: false,
        }
    }

    /// Stop the timer, record the span, and return the measured duration.
    ///
    /// The returned duration is real even on a disabled handle, so callers
    /// can keep a single timing source for their own statistics.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.finished = true;
        self.obs.record_span(&self.path, elapsed);
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.finished {
            let elapsed = self.start.elapsed();
            self.obs.record_span(&self.path, elapsed);
        }
    }
}

/// Monotonically increasing counter handle; inert when instrumentation is
/// off.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when inert).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Signed gauge handle (a value that can go up and down); inert when
/// instrumentation is off.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Overwrite the gauge value.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when inert).
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn full() -> Obs {
        Obs::new(&ObsConfig::full())
    }

    #[test]
    fn disabled_handle_is_inert_but_times() {
        let obs = Obs::new(&ObsConfig::default());
        assert!(!obs.is_enabled());
        let span = obs.span("root");
        let d = span.finish();
        assert!(d >= Duration::ZERO);
        obs.counter("c").add(5);
        assert_eq!(obs.counter("c").get(), 0);
        obs.histogram("h").record(Duration::from_millis(1));
        assert!(obs.report().is_none());
    }

    #[test]
    fn span_tree_accumulates_by_path() {
        let obs = full();
        let root = obs.span("resolve");
        for _ in 0..3 {
            root.child("merge").finish();
        }
        root.child("refine").finish();
        root.finish();

        let report = obs.report().unwrap();
        assert_eq!(report.spans.len(), 1);
        let resolve = &report.spans[0];
        assert_eq!(resolve.name, "resolve");
        assert_eq!(resolve.count, 1);
        let names: Vec<&str> = resolve.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["merge", "refine"], "children keep first-recorded order");
        assert_eq!(resolve.children[0].count, 3);
        assert_eq!(resolve.children[1].count, 1);
    }

    #[test]
    fn dropped_span_still_records() {
        let obs = full();
        {
            let _span = obs.span("dropped");
        }
        let report = obs.report().unwrap();
        assert_eq!(report.spans[0].name, "dropped");
        assert_eq!(report.spans[0].count, 1);
    }

    #[test]
    fn counters_and_gauges_share_state_across_handles() {
        let obs = full();
        let a = obs.counter("hits");
        let b = obs.counter("hits");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);

        let g = obs.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(obs.gauge("depth").get(), 7);

        let report = obs.report().unwrap();
        assert_eq!(report.counters, vec![("hits".to_owned(), 3)]);
        assert_eq!(report.gauges, vec![("depth".to_owned(), 7)]);
    }

    #[test]
    fn verbosity_gates_recording() {
        let obs = Obs::new(&ObsConfig { enabled: true, verbosity: Verbosity::Spans });
        obs.counter("c").incr();
        obs.histogram("h").record(Duration::from_micros(5));
        obs.span("s").finish();
        let report = obs.report().unwrap();
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
        assert_eq!(report.spans.len(), 1);

        let obs = Obs::new(&ObsConfig { enabled: true, verbosity: Verbosity::Counters });
        obs.counter("c").incr();
        obs.histogram("h").record(Duration::from_micros(5));
        let report = obs.report().unwrap();
        assert_eq!(report.counters.len(), 1);
        assert!(report.histograms.is_empty());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bumps one counter from several threads"
    )]
    fn counters_are_thread_safe() {
        let obs = full();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = obs.counter("shared");
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(obs.counter("shared").get(), 4000);
    }

    #[test]
    fn clone_shares_recording_state() {
        let obs = full();
        let clone = obs.clone();
        clone.counter("c").add(9);
        assert_eq!(obs.counter("c").get(), 9);
    }
}
