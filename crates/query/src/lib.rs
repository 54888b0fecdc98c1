//! Online query processing and ranking (paper §7).
//!
//! A query carries a mandatory first name and surname, the certificate kind
//! to search (birth or death), and optional gender, year range, and
//! location. Processing builds an *accumulator* of candidate entities from
//! exact and approximate name matches (via the keyword and similarity-aware
//! indices), refines their scores with the optional attributes, and returns
//! the top-`m` entities with scores normalised to percentages — "100%
//! indicating an entity … matches exactly on all QID values provided".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod process;
pub mod query;

pub use process::{RankedMatch, SearchEngine};
pub use query::{QueryRecord, QueryWeights, SearchKind};
