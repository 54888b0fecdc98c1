//! Fixture battery for snaps-lint: every rule must fire on its violation
//! fixture workspace, waivers must be honoured or rejected, and — the
//! self-test — the real workspace must be lint-clean within the allow
//! budget.

use std::path::Path;

use snaps_lint::rules::{check_source, Finding};
use snaps_lint::{workspace, Report, ALLOW_BUDGET};

macro_rules! fixture {
    ($name:literal) => {
        include_str!(concat!("fixtures/", $name))
    };
}

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().filter(|f| !f.waived).map(|f| f.rule).collect()
}

fn dead_pub_at(line: usize) -> Finding {
    Finding {
        rule: "dead-pub",
        file: "f.rs".into(),
        line,
        message: "no references".into(),
        waived: false,
    }
}

#[test]
fn valid_waivers_silence_all_findings() {
    // The fixture's two pub items sit on lines 3 and 6: one waived by a
    // same-line annotation, one by the standalone annotation above it.
    let mut f = vec![dead_pub_at(3), dead_pub_at(6)];
    let anns = check_source("f.rs", fixture!("waiver_ok.rs"), &mut f);
    assert_eq!(f.len(), 2, "the violations are still recorded");
    assert!(f.iter().all(|x| x.waived), "every finding is waived: {f:?}");
    assert_eq!(anns.len(), 2);
    assert!(anns.iter().all(|a| a.error.is_none()), "{anns:?}");
}

#[test]
fn bad_waivers_are_findings_themselves() {
    let mut f = Vec::new();
    check_source("f.rs", fixture!("waiver_bad.rs"), &mut f);
    let fired = rules_fired(&f);
    assert_eq!(fired, vec!["annotation"; 3], "unknown rule, missing reason, unwaivable: {f:?}");
}

/// Root of a mini-workspace fixture tree. These trees are never compiled —
/// the walker reads them as source text, and real workspace runs skip any
/// directory named `fixtures`.
fn fixture_ws(name: &str) -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name);
    workspace::run(&root).unwrap_or_else(|e| panic!("walk fixture workspace {name}: {e}"))
}

fn active_by_rule<'a>(report: &'a Report, rule: &str) -> Vec<&'a Finding> {
    report.active_findings().into_iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn ws_method_fallback_fixture_resolves_by_name_with_same_crate_preference() {
    let report = fixture_ws("ws_method_fallback");
    let locks = active_by_rule(&report, "lock-discipline");
    // Under the guard, `reg.observe(..)` falls back to the only workspace
    // `observe` (obs: a cross-crate call); `g.tally(..)` binds to the
    // caller-crate `Gauge::tally`, so the `model::Ledger::tally` decoy must
    // not make it cross-crate too.
    assert_eq!(locks.len(), 1, "{locks:?}");
    assert_eq!(locks[0].file, "crates/serve/src/server.rs");
    assert!(locks[0].message.contains("crate 'obs'"), "{}", locks[0].message);
}

#[test]
fn ws_dead_pub_fixture_flags_only_the_orphan() {
    let report = fixture_ws("ws_dead_pub");
    let dead = active_by_rule(&report, "dead-pub");
    assert!(dead.iter().any(|f| f.message.contains("`orphan_helper`")), "{dead:?}");
    assert!(dead.iter().all(|f| !f.message.contains("`used_helper`")), "{dead:?}");
}

#[test]
fn ws_lock_across_fixture_flags_held_guard_only() {
    let report = fixture_ws("ws_lock_across");
    let locks = active_by_rule(&report, "lock-discipline");
    // `search` holds the guard across `bump()`; `metrics` releases it in an
    // inner block first, so exactly one call site fires.
    assert_eq!(locks.len(), 1, "{locks:?}");
    assert_eq!(locks[0].file, "crates/serve/src/server.rs");
    assert!(locks[0].message.contains("crate 'obs'"), "{}", locks[0].message);
}

#[test]
fn ws_lock_cycle_fixture_reports_both_chains() {
    let report = fixture_ws("ws_lock_cycle");
    let cycles = active_by_rule(&report, "lock-order");
    assert_eq!(cycles.len(), 1, "{cycles:?}");
    let msg = &cycles[0].message;
    assert!(
        msg.contains(
            "potential deadlock from GET /search: lock-order cycle Gate.m → Store.m → Gate.m"
        ),
        "ring named: {msg}"
    );
    assert!(
        msg.contains(
            "serve::server::search → serve::server::Gate::reload → index::store_touch → \
             index::Store::bump acquires Store.m at crates/index/src/lib.rs"
        ),
        "first edge chain: {msg}"
    );
    assert!(
        msg.contains(
            "serve::server::search → index::store_write → index::Store::commit → \
             serve::server::Gate::refresh acquires Gate.m at crates/serve/src/server.rs"
        ),
        "second edge chain: {msg}"
    );
    assert!(msg.contains("while holding Store.m"), "{msg}");
    assert_eq!(report.lock_cycles(), 1);
    let search = &report.callgraph.entry_points[0];
    assert_eq!(search.label, "GET /search");
    assert_eq!((search.lock_nodes, search.lock_edges, search.lock_cycles), (2, 2, 1));
}

#[test]
fn ws_blocking_recv_fixture_flags_the_transitive_wait() {
    let report = fixture_ws("ws_blocking_recv");
    let blocking = active_by_rule(&report, "blocking-under-lock");
    assert_eq!(blocking.len(), 1, "{blocking:?}");
    let f = blocking[0];
    assert_eq!(f.file, "crates/serve/src/server.rs");
    assert!(
        f.message.contains(
            "blocking call .recv() while holding serve.m, reachable from GET /search: \
             serve::server::search → serve::server::Q::drain"
        ),
        "{}",
        f.message
    );
    // the guard itself is legal: no lock-order cycle, no discipline finding
    assert!(active_by_rule(&report, "lock-order").is_empty());
    let search = &report.callgraph.entry_points[0];
    assert_eq!((search.lock_nodes, search.lock_edges, search.lock_cycles), (1, 0, 0));
}

#[test]
fn ws_stale_waiver_fixture_flags_the_waiver() {
    let report = fixture_ws("ws_stale_waiver");
    let stale = active_by_rule(&report, "waiver-staleness");
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].message.contains("lock-discipline"), "{}", stale[0].message);
}

#[test]
fn ws_taint_hash_flow_fixture_prints_entry_and_taint_chains() {
    let report = fixture_ws("ws_taint_hash_flow");
    let taints = active_by_rule(&report, "determinism-taint");
    assert_eq!(taints.len(), 1, "{taints:?}");
    let f = taints[0];
    assert_eq!(f.file, "crates/core/src/lib.rs", "anchored at the seeding source");
    assert!(f.message.contains("`HashMap`/`HashSet` iteration"), "{}", f.message);
    assert!(f.message.contains("pipeline mains"), "{}", f.message);
    assert!(f.message.contains("serve::snapshot::save"), "{}", f.message);
    assert!(
        f.message.contains("bench::main → core::resolve"),
        "taint path down to the source: {}",
        f.message
    );
    let mains = report
        .callgraph
        .entry_points
        .iter()
        .find(|e| e.label == "pipeline mains")
        .expect("pipeline mains entry");
    assert_eq!(mains.taint_flows, 1, "flow counted on the entry that reaches it");
}

#[test]
fn ws_taint_btree_clean_fixture_is_silent() {
    let report = fixture_ws("ws_taint_btree_clean");
    assert!(
        active_by_rule(&report, "determinism-taint").is_empty(),
        "ordered iteration must not taint: {report:?}"
    );
    for e in &report.callgraph.entry_points {
        assert_eq!(e.taint_flows, 0, "entry '{}' sees a phantom flow", e.label);
    }
}

#[test]
fn ws_shard_shared_push_fixture_rejects_the_static_accumulator() {
    let report = fixture_ws("ws_shard_shared_push");
    let shards = active_by_rule(&report, "shard-safety");
    assert_eq!(shards.len(), 1, "{shards:?}");
    let f = shards[0];
    assert_eq!(f.file, "crates/blocking/src/pairs.rs");
    assert!(f.message.contains("shared static `FOUND`"), "{}", f.message);
    assert!(f.message.contains("blocking stage root"), "{}", f.message);
    assert!(
        !f.message.contains("lock-order graph"),
        "the key is on an entry path, so only the write fires: {}",
        f.message
    );
    let blocking = report
        .callgraph
        .shard_roots
        .iter()
        .find(|r| r.stage == "blocking")
        .expect("blocking shard root");
    assert_eq!((blocking.matched, blocking.violations), (1, 1), "{blocking:?}");
    let mains = report
        .callgraph
        .entry_points
        .iter()
        .find(|e| e.label == "pipeline mains")
        .expect("pipeline mains entry");
    assert_eq!(mains.shard_violations, 1, "the main reaches the racy write");
}

#[test]
fn ws_shard_clean_fixture_accepts_the_local_accumulator() {
    let report = fixture_ws("ws_shard_clean");
    assert!(
        active_by_rule(&report, "shard-safety").is_empty(),
        "per-call locals are shard-safe: {report:?}"
    );
    let blocking = report
        .callgraph
        .shard_roots
        .iter()
        .find(|r| r.stage == "blocking")
        .expect("blocking shard root");
    assert_eq!((blocking.matched, blocking.violations), (1, 0), "{blocking:?}");
    for e in &report.callgraph.entry_points {
        assert_eq!(e.shard_violations, 0, "entry '{}' sees a phantom violation", e.label);
    }
}

fn real_workspace_root() -> std::path::PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file(), "workspace root not found at {}", root.display());
    root
}

/// Acceptance: every declared entry point roots at least one function with
/// a non-empty reachable set, and the report is byte-identical across runs.
#[test]
fn workspace_entry_points_are_rooted_and_report_is_deterministic() {
    let root = real_workspace_root();
    let first = workspace::run(&root).expect("walk workspace");
    let second = workspace::run(&root).expect("walk workspace again");
    assert_eq!(first.to_json(), second.to_json(), "report must be deterministic");
    let entries = &first.callgraph.entry_points;
    assert!(entries.len() >= 4, "entry table: {entries:?}");
    for e in entries {
        assert!(e.roots >= 1, "entry '{}' has no root function", e.label);
        assert!(e.reachable >= 1, "entry '{}' reaches nothing", e.label);
    }
}

/// Pass 3 acceptance: the serve entry points are deadlock-free, the lock
/// statistics are live, and the rule families are enumerated in the report
/// even at zero findings.
#[test]
fn workspace_serve_entries_are_deadlock_free_and_new_rules_enumerated() {
    let root = real_workspace_root();
    let report = workspace::run(&root).expect("walk workspace");
    assert_eq!(report.lock_cycles(), 0, "lock-order cycles (waived or not) on the workspace");
    let entries = &report.callgraph.entry_points;
    for e in entries {
        assert_eq!(e.lock_cycles, 0, "entry '{}' has a lock-order cycle", e.label);
    }
    // The pass actually sees the workspace's locks — the serve handlers
    // reach the index shard locks.
    assert!(entries.iter().any(|e| e.lock_nodes > 0), "no entry reaches a lock: {entries:?}");
    let json = report.to_json();
    for rule in ["lock-order", "blocking-under-lock"] {
        assert!(json.contains(&format!("\"{rule}\"")), "rule {rule} enumerated in the report");
    }
}

/// Pass 4 acceptance: every declared parallel-stage root resolves to a
/// real function, the blocking and comparison stages carry zero shard
/// violations, no taint flow reaches a serialisation sink, and the pass-4
/// section of the report is byte-deterministic across a double run.
#[test]
fn workspace_shard_roots_resolve_clean_and_pass4_section_is_deterministic() {
    let root = real_workspace_root();
    let first = workspace::run(&root).expect("walk workspace");
    let second = workspace::run(&root).expect("walk workspace again");

    let roots = &first.callgraph.shard_roots;
    assert!(roots.len() >= 4, "declared stage table: {roots:?}");
    for r in roots {
        assert!(r.matched >= 1, "stage '{}' root {} matches no function", r.stage, r.root);
        assert!(r.reachable >= 1, "stage '{}' reaches nothing", r.stage);
        assert_eq!(r.violations, 0, "stage '{}' is not shard-safe: {r:?}", r.stage);
    }
    for e in &first.callgraph.entry_points {
        assert_eq!(e.taint_flows, 0, "entry '{}' leaks nondeterminism to a sink", e.label);
        assert_eq!(e.shard_violations, 0, "entry '{}' reaches a shard hazard", e.label);
    }

    // Byte-determinism of the pass-4 report section: the shard-root block
    // plus every line carrying the per-entry pass-4 counters.
    let pass4_section = |json: &str| -> String {
        let start = json.find("\"shard_roots\"").expect("shard_roots section");
        let end = json[start..].find(']').map(|i| start + i).expect("section close");
        let block = &json[start..=end];
        let counters: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"taint_flows\"") || l.contains("\"shard_violations\""))
            .collect();
        format!("{block}\n{}", counters.join("\n"))
    };
    let (a, b) = (first.to_json(), second.to_json());
    assert_eq!(pass4_section(&a), pass4_section(&b), "pass-4 section must be byte-stable");
    assert!(a.contains("\"schema_version\": 7"), "schema version of the current report");
    for rule in ["determinism-taint", "shard-safety"] {
        assert!(a.contains(&format!("\"{rule}\"")), "rule {rule} enumerated in the report");
    }
}

/// Pass 6 acceptance on the real workspace: every serve-path entry's
/// budget has zero unbounded-per-request allocation sites and zero
/// owned-clone snapshot accessors (mains and loaders run once, so their
/// budgets are recorded but not gated), the serve entries actually see
/// allocation sites (the pass is live, not vacuous), and the pass-6
/// columns are byte-deterministic across a double run.
/// Satellite guard: every crate root in the workspace carries
/// `#![forbid(unsafe_code)]`, enforced by the forbid-unsafe token rule —
/// zero findings here means dropping the attribute anywhere breaks CI.
/// Pass 5 fixture: a symmetric codec extracts its section in both
/// directions and raises none of the wire rules.
/// Pass 5 fixture: an encoder/decoder mismatch is reported as a
/// field-level diff carrying both call chains, and the raw-`u32` loop
/// bound is a separate totality finding.
/// Pass 5 fixture: a layout change at an unchanged FORMAT_VERSION against
/// the committed golden is a hard drift finding that shows the first
/// differing schema line and names both remedies.
/// The self-test: the workspace this lint ships in must pass its own rules.
#[test]
fn workspace_is_lint_clean() {
    let root = real_workspace_root();
    let report = workspace::run(&root).expect("walk workspace");
    assert!(report.files_scanned > 100, "walker saw the whole tree: {}", report.files_scanned);
    let active = report.active_findings();
    assert!(active.is_empty(), "workspace must be lint-clean, found: {active:#?}");
    assert!(
        report.allows.len() <= ALLOW_BUDGET,
        "{} allows exceed the budget of {ALLOW_BUDGET}",
        report.allows.len()
    );
}
