//! Blocking: reducing the quadratic comparison space to candidate pairs.
//!
//! The paper blocks with locality-sensitive hashing: "a locality sensitive
//! hashing based blocking technique … that maps similar QID value pairs to
//! the same hash value to group likely matches" (§4.1, §10). This crate
//! implements that scheme from scratch:
//!
//! * [`minhash`] — MinHash signatures over name-bigram sets and banded LSH
//!   bucketing,
//! * [`soundex`] — the classic phonetic code, offered as a cheaper
//!   deterministic blocking alternative and used in tests as a recall oracle,
//! * [`pairs`] — candidate-pair generation with the role/gender
//!   compatibility pre-filter the paper applies before adding relational
//!   nodes ("we first filter record pairs of impossible role types, such as
//!   pairs with different genders").

pub mod minhash;
pub mod pairs;
pub mod soundex;

pub use minhash::{LshBlocker, LshConfig};
pub use pairs::{candidate_pairs, compatible_records, plausible_role_pair};
