//! Graph data anonymisation (paper §9).
//!
//! The public SNAPS demo cannot expose real Scottish vital records, so the
//! paper anonymises while *preserving the structure and characteristics* of
//! the data — string similarities across names survive, temporal distances
//! survive, and rare (potentially identifying) causes of death disappear:
//!
//! * [`cluster`] — cluster-based name mapping: sensitive first names and
//!   surnames are clustered by similarity, each cluster is mapped to the
//!   best-matching cluster of a public name corpus, and members are replaced
//!   rank-for-rank (so similar sensitive names stay similar after mapping);
//! * date shifting — every year moves by one global (secret) offset;
//! * [`causes`] — k-anonymous causes of death: causes occurring fewer than
//!   `k` times are replaced by the most similar frequent cause, stratified
//!   by gender and age band so no man dies of ovarian cancer and no infant
//!   of old age.

#![expect(
    clippy::disallowed_types,
    reason = "HashMap holds keyed counts and name mappings; every iteration is sorted or order-free"
)]

pub mod anonymiser;
pub mod causes;
pub mod cluster;
pub mod corpus;

pub use anonymiser::{anonymise, AnonymiserConfig, Report};
