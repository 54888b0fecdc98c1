//! Workspace walker: finds every `.rs` file, classifies each one, and runs
//! the full rule set to produce a [`Report`].
//!
//! Traversal is fully deterministic: directory entries are sorted before
//! descent and all paths are reported repo-relative with `/` separators, so
//! report bytes are stable across platforms and runs.

use crate::callgraph::CallGraph;
use crate::items::{self, FileItems};
use crate::lockorder;
use crate::reach;
use crate::report::{CallGraphStats, Report};
use crate::rules::{self, FileClass, Finding, ALLOW_BUDGET};
use crate::scanner::{self, Annotation, Tok};
use crate::shardsafe;
use crate::taint;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names the walker never descends into: lint fixtures contain
/// violations on purpose, and build output is not source.
const SKIP_DIRS: &[&str] = &["fixtures", "target"];

/// Walk `dir` recursively, collecting `.rs` files in sorted order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                collect_rs(&path, out)?;
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file under the workspace source roots, sorted, repo-relative.
pub(crate) fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut roots: Vec<PathBuf> = Vec::new();
    for top in ["src", "tests", "examples", "benches"] {
        let p = root.join(top);
        if p.is_dir() {
            roots.push(p);
        }
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        crates.sort();
        for c in crates {
            for sub in ["src", "tests", "examples", "benches"] {
                let p = c.join(sub);
                if p.is_dir() {
                    roots.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    for r in &roots {
        collect_rs(r, &mut files)?;
    }
    let mut rel: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

/// Classify a repo-relative `.rs` path: its crate, and whether it is test
/// code (kept out of the call graph).
#[must_use]
pub(crate) fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, crate_rel): (&str, String) = if parts.first() == Some(&"crates") {
        (parts.get(1).copied().unwrap_or(""), parts.get(2..).unwrap_or(&[]).join("/"))
    } else {
        // Top-level src/tests/examples belong to the `snaps` facade package.
        ("snaps", rel.to_string())
    };
    let top = crate_rel.split('/').next().unwrap_or("");
    let test_code = matches!(top, "tests" | "benches" | "examples");
    FileClass { crate_name: crate_name.to_string(), test_code }
}

/// Run the full lint over the workspace at `root`.
///
/// Pass 1 scans every file for waivers and (for non-test files) extracts
/// the item model; pass 2 builds the call graph and runs lock-discipline
/// and dead-pub; pass 3 runs lock-order and blocking-under-lock over the
/// same graph; pass 4 runs the parallel-readiness rules (determinism-taint,
/// shard-safety) over it. Waivers are then applied to the merged per-file
/// findings and each one is checked for staleness.
pub fn run(root: &Path) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let mut allows: Vec<(String, scanner::Annotation)> = Vec::new();
    // Pass-1 state, keyed by repo-relative path.
    let mut findings_by_file: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let mut annotations_by_file: BTreeMap<String, Vec<Annotation>> = BTreeMap::new();
    let mut items_by_file: BTreeMap<String, FileItems> = BTreeMap::new();
    let mut idents_by_file: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

    for rel in &files {
        let class = classify(rel);
        let src = fs::read_to_string(root.join(rel))?;
        let scanner::Scan { tokens, annotations } = scanner::scan(&src);
        // Raw identifier set (test regions included) for dead-pub
        // reference counting: a pub item exercised only by tests is alive.
        idents_by_file.insert(
            rel.clone(),
            tokens
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Ident(id) => Some(id.clone()),
                    Tok::Punct(_) => None,
                })
                .collect(),
        );
        if !class.test_code {
            let tokens = scanner::strip_test_regions(tokens);
            items_by_file.insert(rel.clone(), items::extract(&class.crate_name, rel, &tokens));
        }
        annotations_by_file.insert(rel.clone(), annotations);
    }

    // Pass 2: call graph + graph rules, merged into the per-file buckets so
    // line-waivers apply uniformly.
    let graph = CallGraph::build(&items_by_file);
    let outcome = reach::check(&graph);
    // Pass 3: lock-order / blocking-under-lock over the same graph; its
    // per-entry stats land in the entry table.
    let locks = lockorder::check(&graph);
    // Pass 4: determinism-taint dataflow and shard-safety over the same
    // graph, consuming the lock keys pass 3 proved order-checked.
    let taints = taint::check(&graph);
    let mut shared_statics: BTreeMap<String, String> = BTreeMap::new();
    for (path, items) in &items_by_file {
        for s in items.statics.iter().filter(|s| s.interior_mut) {
            // First declaration (path order) wins for the diagnostic site.
            shared_statics.entry(s.name.clone()).or_insert_with(|| format!("{path}:{}", s.line));
        }
    }
    let shards = shardsafe::check(&graph, &shared_statics, &locks.known_keys);
    let mut entry_points = outcome.entry_stats;
    for (i, e) in entry_points.iter_mut().enumerate() {
        if let Some(ls) = locks.per_entry.get(i) {
            e.lock_nodes = ls.nodes;
            e.lock_edges = ls.edges;
            e.lock_cycles = ls.cycles;
        }
        if let Some(&tf) = taints.per_entry.get(i) {
            e.taint_flows = tf;
        }
        if let Some(&sv) = shards.per_entry.get(i) {
            e.shard_violations = sv;
        }
    }
    let callgraph = CallGraphStats {
        nodes: graph.fns.len(),
        edges: graph.edge_count(),
        entry_points,
        shard_roots: shards.roots.clone(),
    };
    let mut graph_findings = outcome.findings;
    graph_findings.extend(locks.findings);
    graph_findings.extend(taints.findings);
    graph_findings.extend(shards.findings);
    graph_findings.extend(reach::check_dead_pub(&items_by_file, &idents_by_file));
    for f in graph_findings {
        findings_by_file.entry(f.file.clone()).or_default().push(f);
    }

    // Waivers: apply per file, then flag every stale one.
    let mut findings: Vec<Finding> = Vec::new();
    for (rel, annotations) in annotations_by_file {
        let mut file_findings = findings_by_file.remove(&rel).unwrap_or_default();
        rules::apply_annotations(&rel, &annotations, &mut file_findings);
        for ann in &annotations {
            if ann.error.is_some() {
                continue;
            }
            for rule in &ann.rules {
                if !rules::is_known_rule(rule) || !rules::is_waivable(rule) {
                    continue; // already an `annotation` finding
                }
                let waives_something = file_findings
                    .iter()
                    .any(|f| f.waived && f.line == ann.applies_to && f.rule == rule.as_str());
                if !waives_something {
                    file_findings.push(Finding {
                        rule: "waiver-staleness",
                        file: rel.clone(),
                        line: ann.line,
                        message: format!(
                            "waiver for '{rule}' no longer matches a finding on line {}; \
                             remove it",
                            ann.applies_to
                        ),
                        waived: false,
                    });
                }
            }
        }
        findings.extend(file_findings);
        for a in annotations {
            if a.error.is_none() {
                allows.push((rel.clone(), a));
            }
        }
    }

    // Workspace-wide allow budget.
    if allows.len() > ALLOW_BUDGET {
        findings.push(Finding {
            rule: "allow-budget",
            file: "(workspace)".to_string(),
            line: 0,
            message: format!(
                "{} allow-annotations exceed the budget of {ALLOW_BUDGET}",
                allows.len()
            ),
            waived: false,
        });
    }

    let mut report = Report {
        root: root.to_string_lossy().into_owned(),
        files_scanned: files.len(),
        findings,
        allows,
        callgraph,
    };
    report.normalise();
    Ok(report)
}

/// Find the workspace root: walk up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(body) = fs::read_to_string(&manifest) {
            if body.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_test_code() {
        let c = classify("crates/core/tests/pipeline.rs");
        assert!(c.test_code);
        let c = classify("tests/end_to_end.rs");
        assert_eq!(c.crate_name, "snaps");
        assert!(c.test_code);
        let c = classify("examples/quickstart.rs");
        assert!(c.test_code);
    }

    #[test]
    fn classify_facade_src() {
        let c = classify("src/lib.rs");
        assert_eq!(c.crate_name, "snaps");
        assert!(!c.test_code);
    }
}
