//! Online query processing and ranking (paper §7).
//!
//! A query carries a mandatory first name and surname, the certificate kind
//! to search (birth or death), and optional gender, year range, and
//! location. Processing builds an *accumulator* of candidate entities from
//! exact and approximate name matches (via the keyword and similarity-aware
//! indices), refines their scores with the optional attributes, and returns
//! the top-`m` entities with scores normalised to percentages — "100%
//! indicating an entity … matches exactly on all QID values provided".

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod process;
pub mod query;

pub use process::{RankedMatch, SearchEngine};
pub use query::{QueryRecord, QueryWeights, SearchKind};
