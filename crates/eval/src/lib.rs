//! Evaluation: linkage-quality metrics and the experiment drivers behind
//! every table of the paper's §10.
//!
//! * [`metrics`] — precision, recall, and the F*-measure (Hand, Christen &
//!   Kirielle 2021) the paper uses instead of F1;
//! * [`quality`] — Table 4: SNAPS vs the four baselines per dataset and
//!   role pair, with the supervised baseline averaged over four classifiers
//!   and two training regimes;
//! * [`ablation`] — Table 3: one key technique removed at a time;
//! * [`timing`] — Table 5 (offline runtimes) and Table 7 (query and
//!   pedigree-extraction latencies);
//! * [`scaling`] — Table 6: dependency-graph size and phase times over
//!   growing registration windows;
//! * [`characterise`] — Table 1, Table 2, and Figure 2 dataset statistics.

#![expect(
    clippy::disallowed_types,
    reason = "Tables 5 and 7 report wall-clock runtimes and latencies"
)]

pub mod ablation;
pub mod characterise;
pub mod metrics;
pub mod quality;
pub mod scaling;
pub mod timing;

pub use metrics::Quality;
