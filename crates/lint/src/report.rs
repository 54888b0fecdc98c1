//! Machine-readable JSON report, following the `snaps-obs` RunReport
//! conventions: hand-rolled serialisation, stable key order, no timestamps
//! or hostnames, so two runs over the same tree emit byte-identical reports.

use crate::reach::EntryStats;
use crate::rules::{Finding, RuleInfo, ALLOW_BUDGET, RULES};
use crate::scanner::Annotation;
use crate::shardsafe::ShardRootStat;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Call-graph statistics for the report's `callgraph` section.
#[derive(Debug, Default)]
pub struct CallGraphStats {
    /// Number of function nodes in the workspace call graph.
    pub nodes: usize,
    /// Number of resolved call edges.
    pub edges: usize,
    /// Per-entry-point reachability, in entry-table order.
    pub entry_points: Vec<EntryStats>,
    /// Per-shard-root statistics from the pass-4 shard-safety rule, in
    /// declaration order.
    pub shard_roots: Vec<ShardRootStat>,
}

/// Aggregated outcome of a lint run, ready to print or serialise.
#[derive(Debug)]
pub struct Report {
    /// Workspace root the run scanned (repo-relative paths hang off it).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, waived or not, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every allow-annotation seen, as (file, annotation), sorted by
    /// (file, line).
    pub allows: Vec<(String, Annotation)>,
    /// Call-graph statistics from the pass-2 analyzer.
    pub callgraph: CallGraphStats,
}

impl Report {
    /// Unwaived findings — the ones that fail the build.
    #[must_use]
    pub fn active_findings(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.waived).collect()
    }

    /// Number of waived findings.
    #[must_use]
    pub(crate) fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived).count()
    }

    /// A run is clean when nothing unwaived fired and the allow budget holds.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.active_findings().is_empty()
    }

    /// Lock-order cycle findings, *including waived ones*: a waived
    /// deadlock is still a deadlock, so the CI gate on this number cannot
    /// be bypassed with an annotation.
    #[must_use]
    pub fn lock_cycles(&self) -> usize {
        self.findings.iter().filter(|f| f.rule == "lock-order").count()
    }

    /// Determinism-taint findings, *including waived ones* — the CI gate
    /// on this number cannot be bypassed with an annotation.
    #[must_use]
    pub fn taint_flows(&self) -> usize {
        self.findings.iter().filter(|f| f.rule == "determinism-taint").count()
    }

    /// Shard-safety findings, *including waived ones* — same
    /// annotation-proof CI gate as `lock_cycles`.
    #[must_use]
    pub fn shard_violations(&self) -> usize {
        self.findings.iter().filter(|f| f.rule == "shard-safety").count()
    }

    /// Sort findings and allows into the canonical report order.
    pub fn normalise(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        self.allows.sort_by(|a, b| (a.0.as_str(), a.1.line).cmp(&(b.0.as_str(), b.1.line)));
    }

    /// Render the JSON report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut per_rule: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for r in RULES {
            per_rule.insert(r.name, (0, 0));
        }
        for f in &self.findings {
            let slot = per_rule.entry(f.rule).or_insert((0, 0));
            if f.waived {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }

        let mut s = String::new();
        s.push_str("{\n  \"meta\": {\n");
        let _ = writeln!(s, "    \"tool\": \"snaps-lint\",");
        let _ = writeln!(s, "    \"schema_version\": 7,");
        let _ = writeln!(s, "    \"root\": {},", json_str(&self.root));
        let _ = writeln!(s, "    \"files_scanned\": {}", self.files_scanned);
        s.push_str("  },\n  \"callgraph\": {\n");
        let _ = writeln!(s, "    \"nodes\": {},", self.callgraph.nodes);
        let _ = writeln!(s, "    \"edges\": {},", self.callgraph.edges);
        s.push_str("    \"entry_points\": [\n");
        let n = self.callgraph.entry_points.len();
        for (i, e) in self.callgraph.entry_points.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{\"label\": {}, \"serve_path\": {}, \"roots\": {}, \"reachable\": {}, \
                 \"lock_nodes\": {}, \"lock_edges\": {}, \"lock_cycles\": {}, \
                 \"taint_flows\": {}, \"shard_violations\": {}}}{comma}",
                json_str(&e.label),
                e.serve_path,
                e.roots,
                e.reachable,
                e.lock_nodes,
                e.lock_edges,
                e.lock_cycles,
                e.taint_flows,
                e.shard_violations
            );
        }
        s.push_str("    ],\n    \"shard_roots\": [\n");
        let n = self.callgraph.shard_roots.len();
        for (i, r) in self.callgraph.shard_roots.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{\"stage\": {}, \"root\": {}, \"matched\": {}, \"reachable\": {}, \
                 \"violations\": {}}}{comma}",
                json_str(r.stage),
                json_str(&r.root),
                r.matched,
                r.reachable,
                r.violations
            );
        }
        s.push_str("    ]\n  },\n  \"rules\": {\n");
        let n = per_rule.len();
        for (i, (name, (active, waived))) in per_rule.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                s,
                "    {}: {{\"findings\": {active}, \"waived\": {waived}}}{comma}",
                json_str(name)
            );
        }
        s.push_str("  },\n  \"findings\": [\n");
        let n = self.findings.len();
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"waived\": {}, \"message\": {}}}{comma}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                f.waived,
                json_str(&f.message)
            );
        }
        s.push_str("  ],\n  \"allows\": [\n");
        let n = self.allows.len();
        for (i, (file, a)) in self.allows.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let rules = a.rules.iter().map(|r| json_str(r)).collect::<Vec<_>>().join(", ");
            let _ = writeln!(
                s,
                "    {{\"file\": {}, \"line\": {}, \"rules\": [{rules}], \"reason\": {}}}{comma}",
                json_str(file),
                a.line,
                json_str(&a.reason)
            );
        }
        s.push_str("  ],\n  \"summary\": {\n");
        let _ = writeln!(s, "    \"findings\": {},", self.active_findings().len());
        let _ = writeln!(s, "    \"waived\": {},", self.waived_count());
        let _ = writeln!(s, "    \"allows\": {},", self.allows.len());
        let _ = writeln!(s, "    \"allow_budget\": {ALLOW_BUDGET},");
        let _ = writeln!(s, "    \"lock_cycles\": {},", self.lock_cycles());
        let _ = writeln!(s, "    \"taint_flows\": {},", self.taint_flows());
        let _ = writeln!(s, "    \"shard_violations\": {},", self.shard_violations());
        let _ = writeln!(s, "    \"clean\": {}", self.clean());
        s.push_str("  }\n}\n");
        s
    }

    /// Render the human-readable console output (diagnostics + summary).
    #[must_use]
    pub fn to_console(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            if f.waived {
                continue;
            }
            let _ = writeln!(s, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            s,
            "snaps-lint: {} files; callgraph {} nodes / {} edges; \
             {} findings, {} waived, {}/{} allows{}",
            self.files_scanned,
            self.callgraph.nodes,
            self.callgraph.edges,
            self.active_findings().len(),
            self.waived_count(),
            self.allows.len(),
            ALLOW_BUDGET,
            if self.clean() { "; clean" } else { "" },
        );
        for e in &self.callgraph.entry_points {
            let _ = writeln!(
                s,
                "  entry {}: {} roots, {} reachable; locks: {} keys, {} order edges, {} \
                 cycles; {} taint flows, {} shard violations",
                e.label,
                e.roots,
                e.reachable,
                e.lock_nodes,
                e.lock_edges,
                e.lock_cycles,
                e.taint_flows,
                e.shard_violations
            );
        }
        for r in &self.callgraph.shard_roots {
            let _ = writeln!(
                s,
                "  shard root {} ({}): {} matched, {} reachable, {} violations",
                r.root, r.stage, r.matched, r.reachable, r.violations
            );
        }
        s
    }
}

/// List every rule with its rationale (for `--list-rules`).
#[must_use]
pub fn rule_listing() -> String {
    let mut s = String::new();
    let width = RULES.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for RuleInfo { name, description } in RULES {
        let _ = writeln!(
            s,
            "{name:width$}  {}",
            description.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
    s
}

/// Escape a string into a JSON string literal (with quotes).
#[must_use]
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            root: ".".to_string(),
            files_scanned: 2,
            findings: vec![
                Finding {
                    rule: "lock-order",
                    file: "b.rs".into(),
                    line: 3,
                    message: "cycle".into(),
                    waived: false,
                },
                Finding {
                    rule: "lock-discipline",
                    file: "a.rs".into(),
                    line: 9,
                    message: "guard held".into(),
                    waived: true,
                },
            ],
            allows: vec![(
                "a.rs".into(),
                Annotation {
                    line: 9,
                    applies_to: 9,
                    rules: vec!["lock-discipline".into()],
                    reason: "test \"quoted\"".into(),
                    error: None,
                },
            )],
            callgraph: CallGraphStats {
                nodes: 4,
                edges: 3,
                entry_points: vec![EntryStats {
                    label: "GET /search".into(),
                    serve_path: true,
                    roots: 1,
                    reachable: 3,
                    lock_nodes: 1,
                    lock_edges: 0,
                    lock_cycles: 0,
                    taint_flows: 0,
                    shard_violations: 0,
                }],
                shard_roots: vec![ShardRootStat {
                    stage: "blocking",
                    root: "blocking::pairs::candidate_pairs".into(),
                    matched: 1,
                    reachable: 5,
                    violations: 0,
                }],
            },
        }
    }

    #[test]
    fn json_is_valid_shape_and_escaped() {
        let mut r = sample();
        r.normalise();
        let json = r.to_json();
        assert!(json.contains("\"tool\": \"snaps-lint\""));
        assert!(json.contains("\"schema_version\": 7"));
        assert!(json.contains("\"taint_flows\": 0, \"shard_violations\": 0"));
        assert!(json.contains("\"label\": \"GET /search\", \"serve_path\": true"));
        assert!(json.contains("\"stage\": \"blocking\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("test \\\"quoted\\\""));
        // Normalised order puts a.rs before b.rs.
        let a = json.find("\"file\": \"a.rs\"").expect("a.rs present");
        let b = json.find("\"file\": \"b.rs\"").expect("b.rs present");
        assert!(a < b);
        // Braces balance — cheap structural sanity outside a real parser.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn waived_findings_do_not_fail_the_run() {
        let mut r = sample();
        r.findings.remove(0);
        assert!(r.clean());
        assert_eq!(r.waived_count(), 1);
    }

    #[test]
    fn console_output_skips_waived() {
        let r = sample();
        let text = r.to_console();
        assert!(text.contains("b.rs:3: [lock-order]"));
        assert!(!text.contains("a.rs:9"));
    }

    #[test]
    fn json_str_escapes_control_chars() {
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_str("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn rule_listing_names_every_rule() {
        let listing = rule_listing();
        for r in RULES {
            assert!(listing.contains(r.name));
        }
    }
}
