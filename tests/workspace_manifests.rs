//! Workspace shape, read straight from the manifests: the crate layering
//! DAG, workspace lint inheritance in every package, and no build scripts.

use std::fs;
use std::path::{Path, PathBuf};

/// The allowed dependency DAG, one package per line: its short name, then
/// the `snaps-*` crates its `[dependencies]` may name. Dev-dependencies are
/// not constrained.
const ALLOWED_DEPS: &str = "
    rng:
    obs:
    lint:
    strsim:
    graph:
    ml: rng
    model: strsim
    datagen: model strsim rng
    blocking: model strsim
    anonymise: model strsim rng
    core: obs model strsim blocking graph
    index: obs model strsim core
    pedigree: obs model core
    query: obs model strsim core index
    baselines: model strsim blocking core graph ml
    eval: obs model strsim datagen blocking core index query pedigree baselines ml rng
    serve: obs model strsim core index query pedigree datagen
    bench: obs model strsim datagen blocking anonymise core index query pedigree baselines eval graph ml serve
    snaps: obs model strsim datagen blocking anonymise core index query pedigree baselines eval graph ml serve bench
";

/// The crates `package` may depend on; panics on an unlisted package.
fn allowed(package: &str) -> Vec<&'static str> {
    ALLOWED_DEPS
        .lines()
        .find_map(|l| l.trim().strip_prefix(package)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("package '{package}' is missing from ALLOWED_DEPS"))
        .split_whitespace()
        .collect()
}

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `(short name, manifest text)` of the root package and every crate.
fn manifests() -> Vec<(String, String)> {
    let mut out = vec![("snaps".to_string(), read(&Path::new(ROOT).join("Cargo.toml")))];
    let mut dirs: Vec<PathBuf> = fs::read_dir(Path::new(ROOT).join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    dirs.sort();
    for dir in dirs {
        let name = dir.file_name().and_then(|n| n.to_str()).expect("utf-8 name").to_string();
        out.push((name, read(&dir.join("Cargo.toml"))));
    }
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The lines of the `[section]` table, trimmed.
fn section<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    let mut lines = toml.lines().map(str::trim).skip_while(|l| *l != header);
    lines.next();
    lines.take_while(|l| !l.starts_with('[')).filter(|l| !l.is_empty()).collect()
}

#[test]
fn runtime_dependencies_follow_the_layering_dag() {
    for (name, toml) in manifests() {
        let allowed = allowed(&name);
        for line in section(&toml, "[dependencies]") {
            let Some(rest) = line.strip_prefix("snaps-") else { continue };
            let dep: String =
                rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            assert!(
                allowed.contains(&dep.as_str()),
                "crate '{name}' must not depend on 'snaps-{dep}' (allowed: {allowed:?})"
            );
        }
    }
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    for (name, toml) in manifests() {
        assert_eq!(
            section(&toml, "[lints]"),
            ["workspace = true"],
            "package '{name}' must set `[lints] workspace = true`"
        );
    }
}

#[test]
fn no_build_scripts() {
    let mut stack = vec![PathBuf::from(ROOT)];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                stack.push(path);
            } else {
                assert_ne!(name, "build.rs", "build scripts are not allowed: {}", path.display());
            }
        }
    }
}
