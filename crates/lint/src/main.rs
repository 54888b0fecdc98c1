//! CLI entry point for `snaps-lint`.
//!
//! ```text
//! snaps-lint [--root DIR] [--report PATH] [--list-rules] [--quiet]
//! ```
//!
//! Exit codes: 0 = clean, 1 = unwaived findings, 2 = usage or I/O error.

use snaps_lint::{report, workspace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    report: Option<PathBuf>,
    list_rules: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: None, report: None, list_rules: false, quiet: false };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root requires a directory argument")?;
                args.root = Some(PathBuf::from(v));
            }
            "--report" => {
                let v = it.next().ok_or("--report requires a file argument")?;
                args.report = Some(PathBuf::from(v));
            }
            "--list-rules" => args.list_rules = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: snaps-lint [--root DIR] [--report PATH] [--list-rules] [--quiet]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        print!("{}", report::rule_listing());
        return ExitCode::SUCCESS;
    }

    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("snaps-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match workspace::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "snaps-lint: no workspace Cargo.toml found above {} (use --root)",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let result = match workspace::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("snaps-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &args.report {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("snaps-lint: cannot create {}: {e}", parent.display());
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("snaps-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if !args.quiet {
        print!("{}", result.to_console());
    }
    if result.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
