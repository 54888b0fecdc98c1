//! Shared helpers for the experiment binaries.
//!
//! Each `src/bin/table*.rs` / `src/bin/fig2.rs` binary regenerates one table
//! or figure of the paper's evaluation (§10); this library holds the common
//! argument parsing and table formatting, plus the timing loop behind the
//! `benches/` mains.

#![expect(
    clippy::disallowed_types,
    reason = "the timing loop behind the benches measures wall-clock time"
)]

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Population scale factor applied to the dataset profiles
    /// (`--scale 0.5`); 1.0 reproduces the full profile.
    pub scale: f64,
    /// RNG seed (`--seed 42`).
    pub seed: u64,
    /// Where to write a machine-readable instrumentation report
    /// (`--report results/table5.report.json`); `None` disables
    /// instrumentation entirely.
    pub report: Option<String>,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        Self { scale: 1.0, seed: 42, report: None }
    }
}

impl ExperimentArgs {
    /// Parse `--scale`, `--seed`, and `--report` from `std::env::args`,
    /// exiting with a usage message (status 2) on malformed input.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!(
                "error: {msg}
usage: <binary> [--scale F] [--seed N] [--report PATH.json]"
            );
            std::process::exit(2);
        })
    }

    /// Parse from an explicit argument iterator (testable core of
    /// [`ExperimentArgs::parse`]).
    ///
    /// # Errors
    /// Returns a description of the first malformed argument.
    pub(crate) fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while let Some(arg) = args.get(i) {
            match arg.as_str() {
                "--scale" => {
                    i += 1;
                    out.scale = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--scale requires a positive number")?;
                }
                "--seed" => {
                    i += 1;
                    out.seed = args
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed requires an integer")?;
                }
                "--report" => {
                    i += 1;
                    let path = args.get(i).ok_or("--report requires a file path")?;
                    if path.starts_with("--") || path.is_empty() {
                        return Err("--report requires a file path".into());
                    }
                    out.report = Some(path.clone());
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        if !out.scale.is_finite() || out.scale <= 0.0 {
            return Err("--scale must be a positive finite number".into());
        }
        Ok(out)
    }
}

/// Write an instrumentation report to the path from `--report`, stamping
/// the shared experiment metadata first. Exits with status 1 on I/O errors
/// so a scripted run fails loudly instead of silently dropping the report.
pub fn write_report(report: snaps_obs::RunReport, args: &ExperimentArgs, table: &str) {
    let Some(path) = &args.report else { return };
    let report = report
        .with_meta("table", table)
        .with_meta("scale", args.scale)
        .with_meta("seed", args.seed);
    if let Err(e) = report.write_to(path) {
        eprintln!("error: cannot write run report to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[{table}] wrote run report to {path}");
}

/// Render an aligned text table: `header` then `rows`, columns padded to the
/// widest cell.
#[must_use]
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<w$}"));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Time `samples` runs of `iters` calls to `f` (after one untimed warm-up
/// run), record each run's per-call wall time in a histogram, and print
/// its median and quartiles under `name`.
pub fn time_calls<T>(
    name: &str,
    samples: u32,
    iters: u32,
    mut f: impl FnMut() -> T,
) -> snaps_obs::Histogram {
    let mut run = || {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        start.elapsed() / iters.max(1)
    };
    run();
    let hist = snaps_obs::Histogram::new();
    for _ in 0..samples {
        hist.record(run());
    }
    let q = |p| hist.percentile(p).unwrap_or_default();
    println!(
        "{name:<28} median {:>12?}  quartiles [{:?}, {:?}]  ({samples} samples x {iters} calls)",
        q(0.5),
        q(0.25),
        q(0.75)
    );
    hist
}

/// Format a `(P, R, F*)` percentage triple.
#[must_use]
pub fn prf(q: &snaps_eval::Quality) -> (String, String, String) {
    let (p, r, f) = q.percentages();
    (format!("{p:.2}"), format!("{r:.2}"), format!("{f:.2}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_from_accepts_valid_args() {
        let a = ExperimentArgs::parse_from(["--scale", "0.5", "--seed", "7"].map(String::from))
            .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.report, None);
        let d = ExperimentArgs::parse_from([]).unwrap();
        assert_eq!(d.scale, 1.0);
        let r =
            ExperimentArgs::parse_from(["--report", "results/t5.json"].map(String::from)).unwrap();
        assert_eq!(r.report.as_deref(), Some("results/t5.json"));
    }

    #[test]
    fn parse_from_rejects_bad_args() {
        assert!(ExperimentArgs::parse_from(["--bogus".into()]).is_err());
        assert!(ExperimentArgs::parse_from(["--scale".into()]).is_err());
        assert!(ExperimentArgs::parse_from(["--scale", "-1"].map(String::from)).is_err());
        // NaN sails past a plain `<= 0.0` check and infinity saturates the
        // founder count downstream; both must be rejected here.
        assert!(ExperimentArgs::parse_from(["--scale", "nan"].map(String::from)).is_err());
        assert!(ExperimentArgs::parse_from(["--scale", "inf"].map(String::from)).is_err());
        assert!(ExperimentArgs::parse_from(["--seed", "x"].map(String::from)).is_err());
        assert!(ExperimentArgs::parse_from(["--report".into()]).is_err());
        assert!(ExperimentArgs::parse_from(["--report", "--seed"].map(String::from)).is_err());
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer-name".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn time_calls_records_every_sample() {
        let mut calls = 0;
        let hist = time_calls("noop", 5, 3, || calls += 1);
        assert_eq!(hist.count(), 5);
        assert_eq!(calls, 18, "one warm-up run plus five timed runs of three calls");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = format_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
