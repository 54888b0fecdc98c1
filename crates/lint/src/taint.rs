//! Pass 4a: determinism-taint dataflow.
//!
//! Seeds taint at the nondeterminism-source expressions recorded by the
//! item model ([`crate::items::TaintSite`]): unordered `HashMap`/`HashSet`
//! iteration, `Instant`/`SystemTime` reads, `thread::current()` identity,
//! seed-free RNG construction, and pointer-address observation. A function
//! is **tainted** when it contains a source or transitively calls a
//! tainted function — callers inherit their callees' nondeterminism
//! because the callee's return value or side effects may depend on it.
//!
//! A **flow** is an entry-reachable tainted function with a call edge into
//! a sink function (one defined in the snapshot writer, the wire codec, or
//! a JSON/report serialiser file — [`SINK_FILES`]), or a tainted function
//! defined in a sink file itself. The diagnostic prints the full
//! entry→function chain plus the taint path down to the seeding source,
//! mirroring the panic-reachability rule.
//!
//! Sources seed only in the result-affecting crates
//! ([`RESULT_AFFECTING`]): timing in `serve`/`obs`/`bench` is operational
//! (latency histograms, trace spans, stage timers) and never feeds
//! resolution output, and the token-level `hash-iter`/`wall-clock`/
//! `entropy` rules already ban these sources inside the perimeter — this
//! pass catches the interprocedural escapes those per-line rules cannot
//! see, and pins where a waived source actually ends up.

use crate::callgraph::CallGraph;
use crate::items::CallTarget;
use crate::reach::{self, ENTRY_POINTS, LOCK_EXEMPT_METHODS};
use crate::rules::{Finding, RESULT_AFFECTING};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Files whose functions are serialisation sinks: bytes they produce land
/// in the snapshot, the wire image, or a JSON report, so nondeterministic
/// input becomes nondeterministic output.
pub(crate) const SINK_FILES: &[&str] = &[
    "crates/obs/src/json.rs",
    "crates/obs/src/report.rs",
    "crates/serve/src/json.rs",
    "crates/serve/src/snapshot.rs",
    "crates/serve/src/wire.rs",
];

/// Outcome of the pass: findings plus per-entry flow counts.
#[derive(Debug, Default)]
pub(crate) struct TaintOutcome {
    /// determinism-taint findings, anchored at the seeding source site.
    pub findings: Vec<Finding>,
    /// Per-entry count of (tainted function, sink) pairs, in entry-table
    /// order.
    pub per_entry: Vec<usize>,
}

/// Call adjacency restricted to edges the dataflow passes trust: method
/// -fallback calls with std-collection names are guard/collection
/// operations (`map.insert(..)`), not workspace calls — the same exemption
/// the lock passes apply ([`LOCK_EXEMPT_METHODS`]).
pub(crate) fn filtered_edges(graph: &CallGraph) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); graph.fns.len()];
    for (n, slot) in adj.iter_mut().enumerate() {
        let mut out: Vec<usize> = Vec::new();
        for call in &graph.fns[n].calls {
            if let CallTarget::Method(name) = &call.target {
                if LOCK_EXEMPT_METHODS.contains(&name.as_str()) {
                    continue;
                }
            }
            out.extend(graph.resolve(n, call).targets);
        }
        out.sort_unstable();
        out.dedup();
        *slot = out;
    }
    adj
}

/// Multi-root BFS over an explicit adjacency (same contract as
/// [`reach::bfs`]: returns `node → parent`, roots map to themselves,
/// deterministic visit order).
pub(crate) fn bfs_over(adj: &[Vec<usize>], roots: &[usize]) -> BTreeMap<usize, usize> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in roots {
        if parent.insert(r, r).is_none() {
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        for &m in adj.get(n).map_or(&[][..], Vec::as_slice) {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(m) {
                e.insert(n);
                queue.push_back(m);
            }
        }
    }
    parent
}

/// Follow `toward_source` from `n` down to the seeding source function.
/// Returns the source node and the full path `n → … → source`.
fn walk_to_source(toward_source: &BTreeMap<usize, usize>, n: usize) -> (usize, Vec<usize>) {
    let mut path = vec![n];
    let mut cur = n;
    while let Some(&next) = toward_source.get(&cur) {
        if next == cur {
            break;
        }
        path.push(next);
        cur = next;
    }
    (cur, path)
}

/// Run the determinism-taint pass over every declared entry point.
#[must_use]
pub(crate) fn check(graph: &CallGraph) -> TaintOutcome {
    let adj = filtered_edges(graph);

    // Source functions: a recorded nondeterminism site inside the
    // result-affecting perimeter.
    let sources: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.taints.is_empty() && RESULT_AFFECTING.contains(&f.krate.as_str()))
        .map(|(i, _)| i)
        .collect();

    // Reverse BFS from the sources: every transitive caller is tainted;
    // the parent map doubles as the next hop on each node's path to a
    // source.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); graph.fns.len()];
    for (n, outs) in adj.iter().enumerate() {
        for &m in outs {
            rev[m].push(n);
        }
    }
    let toward_source = bfs_over(&rev, &sources);

    let sinks: BTreeSet<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| SINK_FILES.contains(&f.file.as_str()))
        .map(|(i, _)| i)
        .collect();

    let mut out = TaintOutcome::default();
    // Dedup across entries by (source file, source line, sink); the first
    // (table-order) entry wins, so the diagnostic names the most
    // user-facing route.
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();

    for spec in ENTRY_POINTS {
        let roots = reach::roots_of(graph, spec);
        let parent = reach::bfs(graph, &roots);
        let mut flows = 0usize;
        for &n in parent.keys() {
            if !toward_source.contains_key(&n) {
                continue; // untainted
            }
            // Sinks this tainted function feeds: itself when defined in a
            // sink file, otherwise its direct callees there.
            let fed: Vec<usize> = if sinks.contains(&n) {
                vec![n]
            } else {
                adj[n].iter().copied().filter(|t| sinks.contains(t)).collect()
            };
            if fed.is_empty() {
                continue;
            }
            let (src, taint_path) = walk_to_source(&toward_source, n);
            let sf = &graph.fns[src];
            let (what, sline) =
                sf.taints.first().map_or(("nondeterminism source", sf.line), |t| (t.what, t.line));
            for &sink in &fed {
                flows += 1;
                let key = (sf.file.clone(), sline, graph.display(sink));
                if seen.contains(&key) {
                    continue;
                }
                let mut entry_chain = reach::chain_to(graph, &parent, n);
                if sink != n {
                    entry_chain.push(graph.display(sink));
                }
                let taint_chain =
                    taint_path.iter().map(|&m| graph.display(m)).collect::<Vec<_>>().join(" → ");
                findings.push(Finding {
                    rule: "determinism-taint",
                    file: sf.file.clone(),
                    line: sline,
                    message: format!(
                        "{what} taints serialized sink {sink_name} from {label}: {chain}; \
                         nondeterminism flows in via {taint_chain} ({file}:{sline})",
                        sink_name = graph.display(sink),
                        label = spec.label,
                        chain = entry_chain.join(" → "),
                        file = sf.file,
                    ),
                    waived: false,
                });
                seen.insert(key);
            }
        }
        out.per_entry.push(flows);
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

    fn file(krate: &str, path: &str, src: &str) -> (String, FileItems) {
        let scan = scanner::scan(src);
        let toks = scanner::strip_test_regions(scan.tokens);
        (path.to_string(), extract(krate, path, &toks))
    }

    fn graph(files: Vec<(String, FileItems)>) -> CallGraph {
        CallGraph::build(&files.into_iter().collect())
    }

    fn entry_index(label: &str) -> usize {
        ENTRY_POINTS.iter().position(|e| e.label == label).expect("known entry")
    }

    #[test]
    fn hash_iteration_flow_into_snapshot_reported_with_both_chains() {
        let g = graph(vec![
            file(
                "bench",
                "crates/bench/src/main.rs",
                "use snaps_core::resolve;\nuse snaps_serve::save;\n\
                 fn main() { resolve(); save(); }\n",
            ),
            file(
                "core",
                "crates/core/src/lib.rs",
                "use std::collections::HashMap;\n\
                 pub fn resolve() { let m: HashMap<u32, u32> = HashMap::new(); \
                 for k in m { drop(k); } }\n",
            ),
            file("serve", "crates/serve/src/snapshot.rs", "pub fn save() {}\n"),
        ]);
        let out = check(&g);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        let f = &out.findings[0];
        assert_eq!(f.rule, "determinism-taint");
        assert_eq!(f.file, "crates/core/src/lib.rs");
        assert!(f.message.contains("`HashMap`/`HashSet` iteration"), "{}", f.message);
        assert!(f.message.contains("pipeline mains"), "{}", f.message);
        assert!(f.message.contains("serve::snapshot::save"), "{}", f.message);
        assert!(f.message.contains("bench::main → core::resolve"), "taint path: {}", f.message);
        assert_eq!(out.per_entry.len(), ENTRY_POINTS.len());
        assert_eq!(out.per_entry[entry_index("pipeline mains")], 1);
        assert_eq!(out.per_entry.iter().sum::<usize>(), 1, "no other entry sees the flow");
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let g = graph(vec![
            file(
                "bench",
                "crates/bench/src/main.rs",
                "use snaps_core::resolve;\nuse snaps_serve::save;\n\
                 fn main() { resolve(); save(); }\n",
            ),
            file(
                "core",
                "crates/core/src/lib.rs",
                "use std::collections::BTreeMap;\n\
                 pub fn resolve() { let m: BTreeMap<u32, u32> = BTreeMap::new(); \
                 for k in m { drop(k); } }\n",
            ),
            file("serve", "crates/serve/src/snapshot.rs", "pub fn save() {}\n"),
        ]);
        let out = check(&g);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.per_entry.iter().sum::<usize>(), 0);
    }

    #[test]
    fn sources_outside_the_result_affecting_perimeter_do_not_seed() {
        // Operational timing in serve (latency measurement around a
        // snapshot write) is not a determinism hazard.
        let g = graph(vec![
            file(
                "serve",
                "crates/serve/src/server.rs",
                "use crate::snapshot::save;\n\
                 pub fn search() { let t = std::time::Instant::now(); save(); drop(t); }\n",
            ),
            file("serve", "crates/serve/src/snapshot.rs", "pub fn save() {}\n"),
        ]);
        let out = check(&g);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn tainted_function_defined_in_a_sink_file_is_itself_a_flow() {
        let g = graph(vec![
            file(
                "serve",
                "crates/serve/src/snapshot.rs",
                "use snaps_core::resolve;\npub fn load() { resolve(); }\n",
            ),
            file(
                "core",
                "crates/core/src/lib.rs",
                "use std::collections::HashSet;\n\
                 pub fn resolve() { let s: HashSet<u32> = HashSet::new(); \
                 for k in s { drop(k); } }\n",
            ),
        ]);
        let out = check(&g);
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(out.findings[0].message.contains("snapshot load"), "{}", out.findings[0].message);
        assert_eq!(out.per_entry[entry_index("snapshot load")], 1);
    }
}
