//! Family pedigree extraction and visualisation (paper §8).
//!
//! When a user selects a search result, the pedigree of that entity is
//! extracted from the pedigree graph — all entities up to `g` hops away
//! (`g = 2` by default: parents/children at one hop, grandparents and
//! grandchildren at two) — and rendered as a textual listing, an ASCII
//! family tree (the paper's Figs. 7/8 hierarchical layout), or Graphviz DOT.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]

pub mod extract;
pub mod render;

pub use extract::{extract, extract_with, Pedigree, PedigreeMember};
pub use render::{render_dot, render_text, render_tree};

/// The paper's default number of generations (`g = 2`).
pub const DEFAULT_GENERATIONS: usize = 2;
