//! Pass 4b: shard-safety for the declared parallel-stage roots.
//!
//! [`SHARD_ROOTS`] declares the functions the planned parallel pipeline
//! will run per-shard: blocking candidate generation, pairwise comparison,
//! dependency-graph construction, and the merge reduction. For everything
//! reachable from a root (over the same filtered call edges the dataflow
//! passes trust — [`crate::taint::filtered_edges`]) the pass rejects the
//! mutation patterns that stop being safe the moment two shards run the
//! code concurrently:
//!
//! - **writes to shared `static` state** — a mutating call whose receiver
//!   chain is rooted at an interior-mutability `static`
//!   ([`crate::items::StaticItem`]);
//! - **non-commutative accumulation through a lock guard** — `push`,
//!   `insert`, `+=`, … whose receiver passes through a `lock()`/`read()`/
//!   `write()` segment (directly or via the guard's `let` binding): the
//!   final state depends on shard arrival order;
//! - **non-commutative atomics** — `store`/`swap`/`compare_exchange` on a
//!   shared atomic (`self`-rooted, static-rooted, or guard-rooted);
//!   commutative RMWs (`fetch_add`/`fetch_sub`/`fetch_min`/`fetch_max`)
//!   are interleaving-invariant and deliberately exempt;
//! - **lock keys outside the pass-3 lock-order graph** — a lock acquired
//!   in a shard closure but on no declared entry path has never been
//!   checked for ordering cycles, so parallelising around it is unproven.
//!
//! Everything else is exclusive by construction: in safe Rust a `&mut`
//! receiver cannot be shared between shards, so per-shard accumulators
//! (`Vec::push` on a local, `+=` on an owned float) never fire.

use crate::callgraph::CallGraph;
use crate::items::MutWriteSite;
use crate::reach::{self, ENTRY_POINTS};
use crate::rules::Finding;
use crate::taint::{bfs_over, filtered_edges};
use std::collections::{BTreeMap, BTreeSet};

/// One declared parallel-stage root function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardRoot {
    /// Pipeline stage name used in diagnostics and the report.
    pub stage: &'static str,
    /// Short crate name the root lives in.
    pub krate: &'static str,
    /// Enclosing `impl` type, when the root is a method.
    pub impl_type: Option<&'static str>,
    /// Root function name.
    pub function: &'static str,
}

/// The declared shard roots (kept in sync with DESIGN.md §10.5): the four
/// stages ROADMAP item 1 wants to fan out across shards.
pub(crate) const SHARD_ROOTS: &[ShardRoot] = &[
    ShardRoot {
        stage: "blocking",
        krate: "blocking",
        impl_type: None,
        function: "candidate_pairs",
    },
    ShardRoot { stage: "comparison", krate: "core", impl_type: None, function: "node_similarity" },
    ShardRoot {
        stage: "dependency-graph",
        krate: "core",
        impl_type: Some("DependencyGraph"),
        function: "build",
    },
    ShardRoot {
        stage: "merge-reduction",
        krate: "core",
        impl_type: None,
        function: "confirm_intra_entity_links",
    },
];

/// Per-root statistics for the report's `shard_roots` section.
#[derive(Debug, Clone)]
pub struct ShardRootStat {
    /// Declared stage name.
    pub stage: &'static str,
    /// Display name of the matched root function (declared `crate::fn`
    /// path when nothing matched).
    pub root: String,
    /// Number of function nodes matching the declaration.
    pub matched: usize,
    /// Size of the root's reachable closure over filtered call edges.
    pub reachable: usize,
    /// Shard-safety violation sites inside the closure.
    pub violations: usize,
}

/// Outcome of the pass: findings, per-entry violation counts, per-root
/// statistics.
#[derive(Debug, Default)]
pub(crate) struct ShardOutcome {
    /// shard-safety findings.
    pub findings: Vec<Finding>,
    /// Per-entry count of violation sites inside the entry's reachable
    /// set, in entry-table order.
    pub per_entry: Vec<usize>,
    /// Per-root statistics, in [`SHARD_ROOTS`] table order.
    pub roots: Vec<ShardRootStat>,
}

/// Atomic operations whose final state depends on execution order.
/// `fetch_add`-family RMWs commute and are exempt by design.
const NONCOMMUTATIVE_ATOMICS: &[&str] =
    &["compare_exchange", "compare_exchange_weak", "store", "swap"];

/// Receiver-chain segments that mark the write as going through a shared
/// lock guard.
const GUARD_SEGMENTS: &[&str] = &["lock()", "read()", "write()"];

/// Why this write is shard-unsafe, or `None` when the receiver is
/// exclusive (local or `&mut`-rooted) and the op is not a shared atomic.
fn shared_write_reason(
    w: &MutWriteSite,
    shared_statics: &BTreeMap<String, String>,
) -> Option<String> {
    let root = w.receiver.first().map(String::as_str);
    let static_decl = root.and_then(|r| shared_statics.get(r));
    let guard_rooted = w.receiver.iter().any(|s| GUARD_SEGMENTS.contains(&s.as_str()))
        || w.via.as_deref().is_some_and(|v| GUARD_SEGMENTS.contains(&v));
    if NONCOMMUTATIVE_ATOMICS.contains(&w.op.as_str()) {
        if static_decl.is_some() || guard_rooted || root == Some("self") {
            return Some(format!("non-commutative atomic `{}`", w.op));
        }
        return None;
    }
    if let Some(decl) = static_decl {
        return Some(format!(
            "`{}` into shared static `{}` (declared at {decl})",
            w.op,
            root.unwrap_or_default()
        ));
    }
    if guard_rooted {
        return Some(format!("non-commutative `{}` through a shared lock guard", w.op));
    }
    None
}

/// Run the shard-safety pass. `shared_statics` maps every
/// interior-mutability `static` in the workspace to its declaration site
/// (`file:line`); `known_lock_keys` is the union of lock keys the pass-3
/// lock-order graph covers.
#[must_use]
pub(crate) fn check(
    graph: &CallGraph,
    shared_statics: &BTreeMap<String, String>,
    known_lock_keys: &BTreeSet<String>,
) -> ShardOutcome {
    let adj = filtered_edges(graph);
    let mut matched: Vec<Vec<usize>> = Vec::new();
    let mut parents: Vec<BTreeMap<usize, usize>> = Vec::new();
    for root in SHARD_ROOTS {
        let roots: Vec<usize> = graph
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.krate == root.krate
                    && f.name == root.function
                    && f.impl_type.as_deref() == root.impl_type
            })
            .map(|(i, _)| i)
            .collect();
        parents.push(bfs_over(&adj, &roots));
        matched.push(roots);
    }

    // Node → first (table-order) root covering it, for chain attribution;
    // every violation site is reported and counted exactly once.
    let mut covered: BTreeMap<usize, usize> = BTreeMap::new();
    for (ri, parent) in parents.iter().enumerate() {
        for &n in parent.keys() {
            covered.entry(n).or_insert(ri);
        }
    }

    let mut site_count: BTreeMap<usize, usize> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    for (&n, &ri) in &covered {
        let f = &graph.fns[n];
        let root = &SHARD_ROOTS[ri];
        let chain = reach::chain_to(graph, &parents[ri], n).join(" → ");
        let mut count = 0usize;
        for w in &f.mut_writes {
            let Some(why) = shared_write_reason(w, shared_statics) else { continue };
            count += 1;
            findings.push(Finding {
                rule: "shard-safety",
                file: f.file.clone(),
                line: w.line,
                message: format!(
                    "shard-unsafe write in {name}, reachable from the {stage} stage root: \
                     {why} at {file}:{line}; parallel shards would race on it ({chain})",
                    name = graph.display(n),
                    stage = root.stage,
                    file = f.file,
                    line = w.line,
                ),
                waived: false,
            });
        }
        for l in &f.locks {
            if known_lock_keys.contains(&l.key) {
                continue;
            }
            count += 1;
            findings.push(Finding {
                rule: "shard-safety",
                file: f.file.clone(),
                line: l.line,
                message: format!(
                    "lock key {key} acquired in {name} ({file}:{line}), reachable from the \
                     {stage} stage root ({chain}), is not in the pass-3 lock-order graph: \
                     hang the stage's locks off a declared entry point before parallelising",
                    key = l.key,
                    name = graph.display(n),
                    file = f.file,
                    line = l.line,
                    stage = root.stage,
                ),
                waived: false,
            });
        }
        if count > 0 {
            site_count.insert(n, count);
        }
    }

    let mut out = ShardOutcome::default();
    for (ri, root) in SHARD_ROOTS.iter().enumerate() {
        let display = matched[ri]
            .first()
            .map_or_else(|| format!("{}::{}", root.krate, root.function), |&n| graph.display(n));
        out.roots.push(ShardRootStat {
            stage: root.stage,
            root: display,
            matched: matched[ri].len(),
            reachable: parents[ri].len(),
            violations: parents[ri].keys().filter_map(|n| site_count.get(n)).sum(),
        });
    }
    for spec in ENTRY_POINTS {
        let roots = reach::roots_of(graph, spec);
        let parent = reach::bfs(graph, &roots);
        out.per_entry.push(parent.keys().filter_map(|n| site_count.get(n)).sum());
    }

    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out.findings = findings;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{extract, FileItems};
    use crate::scanner;

    fn ws(files: Vec<(&str, &str, &str)>) -> (CallGraph, BTreeMap<String, String>) {
        let map: BTreeMap<String, FileItems> = files
            .into_iter()
            .map(|(krate, path, src)| {
                let scan = scanner::scan(src);
                let toks = scanner::strip_test_regions(scan.tokens);
                (path.to_string(), extract(krate, path, &toks))
            })
            .collect();
        let statics = map
            .iter()
            .flat_map(|(path, f)| f.statics.iter().map(move |s| (s, path)))
            .filter(|(s, _)| s.interior_mut)
            .map(|(s, path)| (s.name.clone(), format!("{path}:{}", s.line)))
            .collect();
        (CallGraph::build(&map), statics)
    }

    fn keys(v: &[&str]) -> BTreeSet<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn stat<'a>(out: &'a ShardOutcome, stage: &str) -> &'a ShardRootStat {
        out.roots.iter().find(|r| r.stage == stage).expect("declared stage")
    }

    #[test]
    fn shared_static_push_fires_on_the_blocking_root() {
        let (g, statics) = ws(vec![(
            "blocking",
            "crates/blocking/src/pairs.rs",
            "use std::sync::Mutex;\n\
             static FOUND: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
             pub fn candidate_pairs() { FOUND.lock().push(1); }\n",
        )]);
        assert_eq!(
            statics.get("FOUND").map(String::as_str),
            Some("crates/blocking/src/pairs.rs:2"),
            "declaration site recorded"
        );
        let out = check(&g, &statics, &keys(&["blocking.FOUND"]));
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        let f = &out.findings[0];
        assert_eq!(f.rule, "shard-safety");
        assert!(
            f.message
                .contains("shared static `FOUND` (declared at crates/blocking/src/pairs.rs:2)"),
            "{}",
            f.message
        );
        assert!(f.message.contains("blocking stage root"), "{}", f.message);
        assert!(f.message.contains("blocking::pairs::candidate_pairs"), "{}", f.message);
        let s = stat(&out, "blocking");
        assert_eq!((s.matched, s.violations), (1, 1));
    }

    #[test]
    fn local_accumulator_is_clean() {
        let (g, statics) = ws(vec![(
            "blocking",
            "crates/blocking/src/pairs.rs",
            "pub fn candidate_pairs() { let mut v: Vec<u32> = Vec::new(); \
             v.push(1); v.truncate(0); }\n",
        )]);
        let out = check(&g, &statics, &BTreeSet::new());
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(stat(&out, "blocking").violations, 0);
    }

    #[test]
    fn guard_bound_push_and_compound_assign_fire() {
        let (g, statics) = ws(vec![(
            "core",
            "crates/core/src/merge.rs",
            "pub struct Acc { sink: std::sync::Mutex<Vec<f32>>, total: std::sync::Mutex<f32> }\n\
             pub fn node_similarity(a: &Acc) { let mut g = a.sink.lock(); g.push(1.0); }\n\
             pub fn confirm_intra_entity_links(a: &Acc) { \
             let mut t = a.total.lock(); *t += 1.0; }\n",
        )]);
        let out = check(&g, &statics, &keys(&["core.sink", "core.total"]));
        assert_eq!(out.findings.len(), 2, "{:?}", out.findings);
        assert!(out.findings.iter().all(|f| f.message.contains("shared lock guard")));
        assert!(
            out.findings.iter().any(|f| f.message.contains("`+=`")),
            "compound assignment reported: {:?}",
            out.findings
        );
        assert_eq!(stat(&out, "comparison").violations, 1);
        assert_eq!(stat(&out, "merge-reduction").violations, 1);
    }

    #[test]
    fn self_rooted_atomic_store_fires_but_fetch_add_is_exempt() {
        let src = "pub struct Flags { ready: std::sync::atomic::AtomicBool }\n\
             impl Flags { pub fn poke(&self) { self.ready.store(true, Relaxed); } }\n\
             pub struct Tally { n: std::sync::atomic::AtomicU64 }\n\
             impl Tally { pub fn bump(&self) { self.n.fetch_add(1, Relaxed); } }\n\
             pub fn node_similarity(f: &Flags, t: &Tally) { f.poke(); t.bump(); }\n";
        let (g, statics) = ws(vec![("core", "crates/core/src/similarity.rs", src)]);
        let out = check(&g, &statics, &BTreeSet::new());
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("non-commutative atomic `store`"));
    }

    #[test]
    fn lock_key_outside_the_lockorder_graph_fires_until_declared() {
        let src = "pub struct S { m: std::sync::Mutex<u32> }\n\
             pub fn candidate_pairs(s: &S) { let g = s.m.lock(); drop(g); }\n";
        let (g, statics) = ws(vec![("blocking", "crates/blocking/src/pairs.rs", src)]);
        let out = check(&g, &statics, &BTreeSet::new());
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("not in the pass-3 lock-order graph"));
        let out = check(&g, &statics, &keys(&["blocking.m"]));
        assert!(out.findings.is_empty(), "declared key is clean: {:?}", out.findings);
    }

    #[test]
    fn per_entry_counts_cover_the_pipeline_main() {
        let (g, statics) = ws(vec![
            (
                "bench",
                "crates/bench/src/main.rs",
                "use snaps_blocking::candidate_pairs;\nfn main() { candidate_pairs(); }\n",
            ),
            (
                "blocking",
                "crates/blocking/src/pairs.rs",
                "use std::sync::Mutex;\n\
                 static FOUND: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
                 pub fn candidate_pairs() { FOUND.lock().push(1); }\n",
            ),
        ]);
        let out = check(&g, &statics, &keys(&["blocking.FOUND"]));
        assert_eq!(out.per_entry.len(), ENTRY_POINTS.len());
        let mains = ENTRY_POINTS.iter().position(|e| e.label == "pipeline mains").expect("entry");
        assert_eq!(out.per_entry[mains], 1);
        assert_eq!(out.per_entry.iter().sum::<usize>(), 1);
    }

    #[test]
    fn unmatched_roots_report_zero_matched_without_findings() {
        let (g, statics) =
            ws(vec![("query", "crates/query/src/lib.rs", "pub fn run_query() {}\n")]);
        let out = check(&g, &statics, &BTreeSet::new());
        assert!(out.findings.is_empty());
        for s in &out.roots {
            assert_eq!((s.matched, s.reachable, s.violations), (0, 0, 0), "{}", s.stage);
        }
        assert_eq!(stat(&out, "blocking").root, "blocking::candidate_pairs");
    }
}
