//! String, numeric, and geographic similarity functions for entity resolution.
//!
//! This crate implements, from scratch, every comparison function the SNAPS
//! paper (EDBT 2022) relies on:
//!
//! * [`jaro()`] and [`jaro_winkler()`] — the standard approximate name comparators
//!   used for first names and surnames (paper §4.1, §6, §10),
//! * [`levenshtein()`] edit distance and its normalised similarity
//!   [`levenshtein_similarity`] (paper §4.1),
//! * q-gram utilities ([`qgram`]) including bigram extraction and the
//!   [`qgram::jaccard`] coefficient used for occupations, addresses and
//!   causes of death (paper §9, §10),
//! * [`numeric::max_abs_diff_similarity`] for year comparisons (paper §10),
//! * [`geo`] — haversine distance and distance-based address similarity used
//!   for the geocoded Isle-of-Skye addresses (paper §10).
//!
//! All similarity functions return values in `[0, 1]`, where `1.0` means the
//! inputs are identical and `0.0` means they are maximally different. Inputs
//! are compared as Unicode scalar values; callers that want case-insensitive
//! behaviour should normalise first with [`normalize::normalize_name`].

pub mod geo;
pub mod jaro;
pub mod levenshtein;
pub mod normalize;
pub mod numeric;
pub mod qgram;
pub mod variants;

pub use jaro::{jaro, jaro_winkler};
pub use levenshtein::{levenshtein, levenshtein_similarity};

/// A similarity score in `[0, 1]`.
///
/// Plain `f64` newtype-free alias: scores flow through hot loops and arithmetic
/// constantly, so we keep them as primitive floats and document the invariant
/// instead of wrapping.
pub type Similarity = f64;

/// Clamp a raw score into the valid similarity range `[0, 1]`.
///
/// Useful when combining scores arithmetically where floating-point error can
/// push a value marginally outside the range.
#[inline]
#[must_use]
#[cfg(test)]
pub(crate) fn clamp01(s: f64) -> Similarity {
    s.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp01_bounds() {
        assert_eq!(clamp01(-0.5), 0.0);
        assert_eq!(clamp01(1.5), 1.0);
        assert_eq!(clamp01(0.3), 0.3);
    }
}
