//! `snaps-lint`: the workspace call-graph checker.
//!
//! A std-only static-analysis tool for the invariants that rustc and
//! clippy cannot express because they span crates: lock discipline on the
//! serve path, lock-order cycles, blocking under a lock, determinism taint
//! into the serialisers, shard safety of the parallel-stage roots, and
//! dead public API. Per-crate rules (determinism types, panic freedom,
//! containment, `unsafe`) live in the workspace lint configuration and
//! `clippy.toml` instead.
//!
//! Matching runs over a real token scan ([`scanner`]) so rule keywords in
//! comments or string literals never fire, and `#[cfg(test)]` regions are
//! stripped first. Violations are waived only by an inline
//! `// snaps-lint: allow(<rule>) -- <reason>` annotation; the total
//! annotation count is budgeted workspace-wide and a waiver that no longer
//! matches a finding is itself a finding.
//!
//! Pass 1 extracts a per-file item model ([`items`]) and builds a
//! cross-crate call graph ([`callgraph`]) rooted at the declared entry
//! points; pass 2 runs lock-discipline and dead-pub ([`reach`]); pass 3
//! runs lock-order and blocking-under-lock ([`lockorder`]); pass 4 runs
//! an interprocedural determinism-taint dataflow from nondeterminism
//! sources into serialisation sinks ([`taint`]) and a shard-safety rule
//! over the declared parallel-stage roots ([`shardsafe`]).

pub mod callgraph;
pub mod items;
pub mod lockorder;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod shardsafe;
pub mod taint;
pub mod workspace;

pub use report::Report;
pub use rules::{FileClass, Finding, ALLOW_BUDGET, RULES};
