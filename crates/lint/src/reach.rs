//! Pass 2 graph rules: transitive reachability from declared entry points.
//!
//! The entry-point table below mirrors the service surface of the paper's
//! online half (§Online Query): the serve handlers, the health probe, the
//! snapshot load path, plus the offline `main`s for coverage statistics.
//! Two rule families run here on top of the call graph and item model:
//!
//! - **lock-discipline**: a `.lock()` guard held across a call into
//!   another workspace crate, within the serve-path reachable set.
//!   Method-name fallback calls whose name collides with std
//!   collection/iterator APIs are exempt (path-qualified calls are always
//!   checked) — see [`LOCK_EXEMPT_METHODS`].
//! - **dead-pub**: an unrestricted-`pub` item with zero identifier
//!   references in any *other* workspace file.

use crate::callgraph::CallGraph;
use crate::items::{CallTarget, FileItems};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One declared entry point of the workspace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntrySpec {
    /// Human-readable label used in diagnostics and the report.
    pub label: &'static str,
    /// Short crate name the entry function lives in.
    pub krate: &'static str,
    /// Module the function is expected in (`None` = any module). When no
    /// function matches the module, matching falls back to the whole crate
    /// so relocated handlers stay covered.
    pub module: Option<&'static str>,
    /// Entry function name.
    pub function: &'static str,
    /// The entry serves live traffic: lock-discipline findings are raised
    /// from it.
    pub serve_path: bool,
}

/// The declared entry points (kept in sync with DESIGN.md §10).
pub(crate) const ENTRY_POINTS: &[EntrySpec] = &[
    EntrySpec {
        label: "GET /search",
        krate: "serve",
        module: Some("server"),
        function: "search",
        serve_path: true,
    },
    EntrySpec {
        label: "GET /pedigree",
        krate: "serve",
        module: Some("server"),
        function: "pedigree",
        serve_path: true,
    },
    EntrySpec {
        label: "GET /metrics",
        krate: "serve",
        module: Some("server"),
        function: "metrics",
        serve_path: true,
    },
    EntrySpec {
        label: "GET /healthz",
        krate: "serve",
        module: Some("server"),
        function: "healthz",
        serve_path: true,
    },
    EntrySpec {
        label: "GET /debug/traces",
        krate: "serve",
        module: Some("server"),
        function: "debug_traces",
        serve_path: true,
    },
    EntrySpec {
        label: "GET /debug/slow",
        krate: "serve",
        module: Some("server"),
        function: "debug_slow",
        serve_path: true,
    },
    EntrySpec {
        label: "GET /metrics?format=prom",
        krate: "serve",
        module: Some("server"),
        function: "metrics_prom",
        serve_path: true,
    },
    EntrySpec {
        label: "snapshot load",
        krate: "serve",
        module: Some("snapshot"),
        function: "load",
        serve_path: true,
    },
    EntrySpec {
        label: "snaps-serve main",
        krate: "serve",
        module: None,
        function: "main",
        serve_path: false,
    },
    EntrySpec {
        label: "pipeline mains",
        krate: "bench",
        module: None,
        function: "main",
        serve_path: false,
    },
];

/// Method names exempt from the lock-discipline method fallback: they
/// collide with std collection/iterator/sync APIs, so a guard method call
/// like `map.get(..)` would otherwise false-positive against every
/// workspace `impl fn` of the same name. Path-qualified calls are always
/// checked; workspace-distinctive names (`incr`, `record`, `lookup`, …)
/// stay in force.
pub(crate) const LOCK_EXEMPT_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "len",
    "is_empty",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "clone",
    "contains",
    "contains_key",
    "entry",
    "or_default",
    "keys",
    "values",
    "last",
    "first",
];

/// Reachability statistics for one entry point (reported per run).
#[derive(Debug, Clone)]
pub struct EntryStats {
    /// Entry label.
    pub label: String,
    /// Whether this entry is on the request-serving path (lock-discipline
    /// applies only when true; mains run once and only carry statistics).
    pub serve_path: bool,
    /// Number of root functions matching the spec.
    pub roots: usize,
    /// Size of the transitively reachable function set.
    pub reachable: usize,
    /// Distinct lock keys acquired anywhere in the reachable set (pass 3).
    pub lock_nodes: usize,
    /// "Acquired B while holding A" edges in this entry's lock-order
    /// graph (pass 3).
    pub lock_edges: usize,
    /// Cycles (including self-loops) in this entry's lock-order graph
    /// (pass 3; zero means deadlock-free under the model).
    pub lock_cycles: usize,
    /// Determinism-taint flows — (tainted function, serialisation sink)
    /// pairs — in the reachable set (pass 4).
    pub taint_flows: usize,
    /// Shard-safety violation sites in the reachable set (pass 4).
    pub shard_violations: usize,
}

/// Outcome of the graph-rule pass.
#[derive(Debug, Default)]
pub(crate) struct ReachOutcome {
    /// Lock-discipline findings.
    pub findings: Vec<Finding>,
    /// Per-entry-point statistics, in table order.
    pub entry_stats: Vec<EntryStats>,
}

/// Root node ids matching an entry spec.
pub(crate) fn roots_of(graph: &CallGraph, spec: &EntrySpec) -> Vec<usize> {
    let by_module: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.krate == spec.krate
                && f.name == spec.function
                && f.impl_type.is_none()
                && spec.module.is_none_or(|m| f.module == m)
        })
        .map(|(i, _)| i)
        .collect();
    if !by_module.is_empty() || spec.module.is_none() {
        return by_module;
    }
    // Fall back to any module in the crate so a relocated handler is still
    // rooted (the workspace self-test pins the expected locations).
    graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.krate == spec.krate && f.name == spec.function && f.impl_type.is_none())
        .map(|(i, _)| i)
        .collect()
}

/// Multi-root BFS; returns `node → parent` (roots map to themselves),
/// visiting in sorted order so chains are deterministic.
pub(crate) fn bfs(graph: &CallGraph, roots: &[usize]) -> BTreeMap<usize, usize> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if parent.insert(r, r).is_none() {
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &m in graph.edges.get(n).map_or(&[][..], Vec::as_slice) {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(m) {
                e.insert(n);
                queue.push_back(m);
            }
        }
    }
    parent
}

/// The call chain from an entry root down to `node`, as display names.
pub(crate) fn chain_to(
    graph: &CallGraph,
    parent: &BTreeMap<usize, usize>,
    node: usize,
) -> Vec<String> {
    let mut rev = vec![node];
    let mut cur = node;
    while let Some(&p) = parent.get(&cur) {
        if p == cur {
            break;
        }
        rev.push(p);
        cur = p;
    }
    rev.reverse();
    rev.into_iter().map(|n| graph.display(n)).collect()
}

/// Root every declared entry point and run lock-discipline over the
/// serve-path reachable set.
#[must_use]
pub(crate) fn check(graph: &CallGraph) -> ReachOutcome {
    let mut out = ReachOutcome::default();
    let mut serve_reachable: BTreeSet<usize> = BTreeSet::new();

    for spec in ENTRY_POINTS {
        let roots = roots_of(graph, spec);
        let parent = bfs(graph, &roots);
        if spec.serve_path {
            serve_reachable.extend(parent.keys().copied());
        }
        out.entry_stats.push(EntryStats {
            label: spec.label.to_string(),
            serve_path: spec.serve_path,
            roots: roots.len(),
            reachable: parent.len(),
            lock_nodes: 0, // filled by pass 3 (lockorder)
            lock_edges: 0,
            lock_cycles: 0,
            taint_flows: 0,      // filled by pass 4 (taint)
            shard_violations: 0, // filled by pass 4 (shardsafe)
        });
    }

    out.findings.extend(check_lock_discipline(graph, &serve_reachable));
    out
}

/// Lock-discipline over the serve-path reachable set: no guard held across
/// a call into another workspace crate.
fn check_lock_discipline(graph: &CallGraph, serve_reachable: &BTreeSet<usize>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &node in serve_reachable {
        let f = &graph.fns[node];
        for lock in &f.locks {
            for call in &f.calls {
                if call.tok <= lock.region.0 || call.tok >= lock.region.1 {
                    continue;
                }
                if let CallTarget::Method(name) = &call.target {
                    if LOCK_EXEMPT_METHODS.contains(&name.as_str()) {
                        continue;
                    }
                }
                let res = graph.resolve(node, call);
                let cross: BTreeSet<&str> = res
                    .targets
                    .iter()
                    .filter_map(|&t| graph.fns.get(t))
                    .filter(|callee| callee.krate != f.krate)
                    .map(|callee| callee.krate.as_str())
                    .collect();
                if let Some(k) = cross.into_iter().next() {
                    findings.push(Finding {
                        rule: "lock-discipline",
                        file: f.file.clone(),
                        line: call.line,
                        message: format!(
                            "call into crate '{k}' while the lock taken on line {} is held \
                             (in {}); release the guard first",
                            lock.line,
                            graph.display(node)
                        ),
                        waived: false,
                    });
                }
            }
        }
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

/// Dead-pub rule: an unrestricted-`pub` item whose name never appears in
/// any other workspace file (tests and examples count as references, so
/// externally exercised API stays alive).
///
/// Exemption: a pub *type* named in the declaration surface of another pub
/// item — a `pub fn` signature or a `pub struct`/`enum`/`type` body — is
/// never flagged. Callers of the exposing item use the type without ever
/// writing its name (`let rows = run_ablation(..)`), yet rustc's
/// `private_interfaces` lint pins it to `pub`. Such a type lives and dies
/// with its exposer: if the exposer itself is dead, *it* is flagged, and
/// once it is removed the type loses its exemption on the next run.
#[must_use]
pub fn check_dead_pub(
    files: &BTreeMap<String, FileItems>,
    idents_by_file: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for items in files.values() {
        for item in &items.pub_items {
            let referenced = idents_by_file
                .iter()
                .any(|(file, idents)| file != &item.file && idents.contains(&item.name))
                || (matches!(item.kind, "struct" | "enum" | "trait" | "type")
                    && files.values().any(|f| f.sig_idents.contains(&item.name)));
            if !referenced {
                findings.push(Finding {
                    rule: "dead-pub",
                    file: item.file.clone(),
                    line: item.line,
                    message: format!(
                        "pub {} `{}` has no references outside {}; delete it or narrow \
                         the visibility",
                        item.kind, item.name, item.file
                    ),
                    waived: false,
                });
            }
        }
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::scanner;

    fn file(krate: &str, path: &str, src: &str) -> (String, FileItems) {
        let scan = scanner::scan(src);
        let toks = scanner::strip_test_regions(scan.tokens);
        (path.to_string(), extract(krate, path, &toks))
    }

    fn graph(files: Vec<(String, FileItems)>) -> CallGraph {
        CallGraph::build(&files.into_iter().collect())
    }

    #[test]
    fn entry_stats_cover_every_declared_entry() {
        let g = graph(vec![file("serve", "crates/serve/src/server.rs", "pub fn search() {}\n")]);
        let out = check(&g);
        assert_eq!(out.entry_stats.len(), ENTRY_POINTS.len());
        let search = &out.entry_stats[0];
        assert_eq!(search.label, "GET /search");
        assert_eq!(search.roots, 1);
        assert_eq!(search.reachable, 1);
    }

    #[test]
    fn lock_across_crate_call_flagged_and_released_guard_ok() {
        let src_bad = "use snaps_obs::bump;\n\
             pub fn search(&self) { let g = self.m.lock(); g.push(1); bump(); }\n";
        let src_ok = "use snaps_obs::bump;\n\
             pub fn search(&self) { { let g = self.m.lock(); g.push(1); } bump(); }\n";
        for (src, expect) in [(src_bad, true), (src_ok, false)] {
            let g = graph(vec![
                file("serve", "crates/serve/src/server.rs", src),
                file("obs", "crates/obs/src/lib.rs", "pub fn bump() {}\n"),
            ]);
            let out = check(&g);
            let fired = out.findings.iter().any(|f| f.rule == "lock-discipline");
            assert_eq!(fired, expect, "{src}: {:?}", out.findings);
        }
    }

    #[test]
    fn lock_exempt_method_names_do_not_fire() {
        // `.get(` under a lock method-matches PedigreeGraph::get but is an
        // std collection name — exempted from the fallback.
        let g = graph(vec![
            file(
                "serve",
                "crates/serve/src/server.rs",
                "pub fn search(&self) { let g = self.m.lock(); g.get(1); }\n",
            ),
            file(
                "core",
                "crates/core/src/pedigree.rs",
                "pub struct PedigreeGraph;\nimpl PedigreeGraph { pub fn get(&self) {} }\n",
            ),
        ]);
        let out = check(&g);
        assert!(out.findings.iter().all(|f| f.rule != "lock-discipline"), "{:?}", out.findings);
    }

    #[test]
    fn dead_pub_flagged_and_referenced_item_kept() {
        let files: BTreeMap<String, FileItems> = [
            file(
                "index",
                "crates/index/src/lib.rs",
                "pub fn used_elsewhere() {}\npub fn never_used() {}\n",
            ),
            file("serve", "crates/serve/src/lib.rs", "fn f() { used_elsewhere(); }\n"),
        ]
        .into_iter()
        .collect();
        let mut idents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        idents.insert(
            "crates/index/src/lib.rs".into(),
            ["used_elsewhere", "never_used"].iter().map(|s| s.to_string()).collect(),
        );
        idents.insert(
            "crates/serve/src/lib.rs".into(),
            ["used_elsewhere"].iter().map(|s| s.to_string()).collect(),
        );
        let findings = check_dead_pub(&files, &idents);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("never_used"));
    }

    #[test]
    fn signature_exposed_type_exempt_from_dead_pub_but_orphan_type_flagged() {
        // `Row` is never named by eval's callers — they write
        // `let rows = run(..)` — but rustc pins it to `pub` because the
        // externally used `run` returns it. `Orphan` has no exposer.
        let src = "pub struct Row { pub n: usize }\n\
                   pub struct Orphan { pub n: usize }\n\
                   pub struct Nested { pub rows: Vec<Row> }\n\
                   pub fn run() -> Vec<Row> { Vec::new() }\n\
                   pub fn wrap() -> Nested { Nested { rows: run() } }\n";
        let files: BTreeMap<String, FileItems> = [
            file("eval", "crates/eval/src/lib.rs", src),
            file("bench", "crates/bench/src/lib.rs", "fn f() { run(); wrap(); }\n"),
        ]
        .into_iter()
        .collect();
        let mut idents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        idents.insert(
            "crates/eval/src/lib.rs".into(),
            ["Row", "Orphan", "Nested", "run", "wrap"].iter().map(|s| s.to_string()).collect(),
        );
        idents.insert(
            "crates/bench/src/lib.rs".into(),
            ["run", "wrap"].iter().map(|s| s.to_string()).collect(),
        );
        let findings = check_dead_pub(&files, &idents);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Orphan"), "{findings:?}");
    }
}
