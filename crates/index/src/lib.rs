//! Query-time index structures (paper §6).
//!
//! Two structures make online queries fast:
//!
//! * the [`KeywordIndex`] maps QID values (first names, surnames, locations)
//!   to the pedigree-graph entities carrying them;
//! * the [`SimilarityIndex`] pre-computes, for every indexed string value,
//!   all other values sharing at least one bigram whose Jaro-Winkler
//!   similarity reaches `s_t = 0.5` — so approximate matching at query time
//!   is a lookup, not a scan. Unseen query values are compared once against
//!   the bigram-sharing candidates and cached for future queries, exactly as
//!   §7 describes.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod keyword;
pub mod simcache;
pub mod simindex;

pub use keyword::{KeywordIndex, Postings};
pub use simcache::SimCache;
pub use simindex::SimilarityIndex;

/// The paper's similarity-index threshold `s_t`.
pub const DEFAULT_S_T: f64 = 0.5;
