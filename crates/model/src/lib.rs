//! Data model for Scottish-style vital records (birth, death, and marriage
//! certificates) and the person records extracted from them.
//!
//! This crate is the substrate every other SNAPS crate builds on. It defines:
//!
//! * strongly-typed identifiers ([`ids`]),
//! * certificate [`Role`]s and their metadata (paper §3: `Bb`, `Bm`, `Bf`,
//!   `Dd`, `Dm`, `Df`, `Ds`, …),
//! * [`PersonRecord`] — one occurrence of an individual on one certificate,
//!   carrying the quasi-identifier (QID) attributes ER compares,
//! * [`Certificate`] and [`Dataset`] containers,
//! * intra-certificate [`Relationship`]s (*motherOf*, *fatherOf*, *spouseOf*,
//!   *childOf*) that seed the dependency graph's relational edges,
//! * dataset characterisation statistics ([`stats`]) reproducing the paper's
//!   Table 1 and Figure 2.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod certificate;
pub mod dataset;
pub mod ids;
pub mod person;
pub mod relationship;
pub mod role;
pub mod stats;

pub use certificate::{Certificate, CertificateKind};
pub use dataset::{Dataset, ParseError, ParseErrorKind};
pub use ids::{CertificateId, EntityId, RecordId};
pub use person::{Gender, PersonRecord};
pub use relationship::Relationship;
pub use role::{Role, RoleCategory};
