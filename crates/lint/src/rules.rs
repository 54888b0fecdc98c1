//! The rule catalogue and the waiver engine.
//!
//! Every rule has a stable kebab-case name — the name users write in
//! `// snaps-lint: allow(<rule>) -- <reason>` waivers and the name the JSON
//! report keys findings by. The rules themselves run over the call graph
//! ([`crate::reach`], [`crate::lockorder`], [`crate::taint`],
//! [`crate::shardsafe`]); this module validates and applies the waivers.

use crate::scanner::{Annotation, Scan};

/// Where a file lives, which decides whether it joins the call graph.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Short crate name (`core`, `serve`, …; `snaps` for the facade).
    pub crate_name: String,
    /// Integration tests, benches, examples: scanned for waivers only.
    pub test_code: bool,
}

/// One rule violation (possibly waived by an annotation).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name.
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable diagnostic.
    pub message: String,
    /// Whether an inline allow-annotation waives it.
    pub waived: bool,
}

/// A rule's name and rationale, for `--list-rules` and the report.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case rule name.
    pub name: &'static str,
    /// One-line rationale.
    pub description: &'static str,
}

/// The full rule catalogue.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "annotation",
        description: "allow-annotations must name known rules and carry a `-- <reason>`; \
                      malformed waivers are findings themselves (never waivable)",
    },
    RuleInfo {
        name: "allow-budget",
        description: "the workspace-wide count of allow-annotations must stay within budget; \
                      waivers are exceptions, not a lifestyle (never waivable)",
    },
    RuleInfo {
        name: "dead-pub",
        description: "pub items with zero references in any other workspace file are dead \
                      API surface: delete them or narrow the visibility (paper-named API \
                      may be kept via a documented waiver; types named in a pub signature \
                      are exempt — they are pinned to pub by rustc's private_interfaces \
                      lint and live or die with their exposer)",
    },
    RuleInfo {
        name: "lock-discipline",
        description: "no .lock() guard held across a call into another workspace crate on \
                      the serve path: cross-crate work under a lock serialises the worker \
                      pool and risks deadlock",
    },
    RuleInfo {
        name: "waiver-staleness",
        description: "a waiver whose rule no longer fires on its line is dead weight that \
                      hides future violations; remove it (never waivable)",
    },
    RuleInfo {
        name: "lock-order",
        description: "the lock-order graph (keys = owning type+field, edges = acquired B \
                      while holding A, walked from the declared entry points) must be \
                      acyclic: a cycle — including re-acquiring a held key — is a \
                      potential deadlock, reported with the full entry→site chain for \
                      every edge in the cycle",
    },
    RuleInfo {
        name: "blocking-under-lock",
        description: "no queue wait (recv/join/Condvar::wait), sleep, or synchronous I/O \
                      while a lock guard is live on a serve entry path: a blocked holder \
                      convoys every thread contending on the lock (Condvar::wait is exempt \
                      for the guard it consumes)",
    },
    RuleInfo {
        name: "determinism-taint",
        description: "no nondeterminism source (HashMap/HashSet iteration, Instant/SystemTime, \
                      thread identity, seed-free RNG, pointer addresses) in a result-affecting \
                      crate may flow along the call graph into the snapshot writer, the wire \
                      codec, or a JSON serialiser; the diagnostic prints the entry chain and \
                      the taint path down to the seeding source",
    },
    RuleInfo {
        name: "shard-safety",
        description: "functions reachable from a declared parallel-stage root (blocking, \
                      comparison, dependency-graph, merge-reduction) must not write shared \
                      state: no mutation of interior-mutability statics, no non-commutative \
                      accumulation through a lock guard, no store/swap/compare_exchange on \
                      shared atomics (fetch_add-family RMWs commute and are exempt), and no \
                      lock key outside the pass-3 lock-order graph",
    },
];

/// Maximum allow-annotations tolerated workspace-wide. The waiver-staleness
/// rule guarantees the set can only shrink; the workspace carries 3 real
/// waivers today (documented paper-named API kept alive under `dead-pub`).
pub const ALLOW_BUDGET: usize = 16;

/// Crates whose output feeds ER results or snapshot bytes.
pub const RESULT_AFFECTING: &[&str] =
    &["core", "query", "pedigree", "index", "graph", "model", "strsim", "blocking"];

/// Is `name` a known rule name (for validating annotations)?
#[must_use]
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// Rules that can never be waived.
#[must_use]
pub fn is_waivable(name: &str) -> bool {
    !matches!(name, "annotation" | "allow-budget" | "waiver-staleness")
}

/// Validate annotations and apply them to `findings`: a finding whose line
/// is covered by an annotation naming its rule becomes `waived`. Malformed
/// or unknown-rule annotations are findings of the `annotation` rule.
pub fn apply_annotations(file: &str, annotations: &[Annotation], findings: &mut Vec<Finding>) {
    for ann in annotations {
        if let Some(err) = &ann.error {
            findings.push(Finding {
                rule: "annotation",
                file: file.to_string(),
                line: ann.line,
                message: format!("malformed allow-annotation: {err}"),
                waived: false,
            });
            continue;
        }
        for rule in &ann.rules {
            if !is_known_rule(rule) {
                findings.push(Finding {
                    rule: "annotation",
                    file: file.to_string(),
                    line: ann.line,
                    message: format!("allow-annotation names unknown rule '{rule}'"),
                    waived: false,
                });
            } else if !is_waivable(rule) {
                findings.push(Finding {
                    rule: "annotation",
                    file: file.to_string(),
                    line: ann.line,
                    message: format!("rule '{rule}' cannot be waived"),
                    waived: false,
                });
            }
        }
    }
    for f in findings.iter_mut() {
        if f.waived || !is_waivable(f.rule) {
            continue;
        }
        f.waived = annotations.iter().any(|a| {
            a.error.is_none() && a.applies_to == f.line && a.rules.iter().any(|r| r == f.rule)
        });
    }
}

/// Scan one file's source text and apply its waivers to `findings` (the
/// graph-rule findings raised in this file); returns the annotations.
pub fn check_source(file: &str, src: &str, findings: &mut Vec<Finding>) -> Vec<Annotation> {
    let Scan { annotations, .. } = crate::scanner::scan(src);
    apply_annotations(file, &annotations, findings);
    annotations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, line: usize) -> Finding {
        Finding { rule, file: "x.rs".into(), line, message: String::new(), waived: false }
    }

    fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().filter(|f| !f.waived).map(|f| f.rule).collect()
    }

    #[test]
    fn waiver_on_same_line_works() {
        let src = "pub fn probe() {} // snaps-lint: allow(dead-pub) -- probe only\n";
        let mut f = vec![finding("dead-pub", 1)];
        let anns = check_source("x.rs", src, &mut f);
        assert!(f.iter().all(|x| x.waived), "{f:?}");
        assert_eq!(anns.len(), 1);
        // A waiver names its rule: another rule on the same line still fires.
        let mut f = vec![finding("lock-discipline", 1)];
        check_source("x.rs", src, &mut f);
        assert_eq!(rules_fired(&f), vec!["lock-discipline"]);
    }

    #[test]
    fn waiver_with_unknown_rule_rejected() {
        let src = "// snaps-lint: allow(no-such-rule) -- whatever\nlet x = 1;\n";
        let mut f = Vec::new();
        check_source("x.rs", src, &mut f);
        assert_eq!(rules_fired(&f), vec!["annotation"]);
    }

    #[test]
    fn unwaivable_rules_stay() {
        let src = "// snaps-lint: allow(allow-budget) -- nice try\nlet x = 1;\n";
        let mut f = Vec::new();
        check_source("x.rs", src, &mut f);
        assert_eq!(rules_fired(&f), vec!["annotation"]);
    }
}
