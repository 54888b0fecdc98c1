//! The SNAPS contribution: unsupervised graph-based entity resolution for
//! vital records, and the pedigree graph built from its output.
//!
//! The offline pipeline (paper §4–§5) is:
//!
//! 1. **Dependency-graph generation** ([`depgraph`]) — LSH blocking produces
//!    candidate record pairs; pairs become *relational nodes*, their
//!    sufficiently similar QID value pairs become *atomic nodes*, and nodes
//!    between the same pair of certificates form a *group* connected by the
//!    certificates' relationship structure (paper Fig. 3).
//! 2. **Bootstrapping** ([`merge::bootstrap`]) — groups whose average atomic
//!    similarity reaches `t_b = 0.95` are merged outright.
//! 3. **Iterative merging** ([`merge::merge_pass`]) — a priority queue of
//!    groups (larger first, then more similar) is processed with the four key
//!    techniques:
//!    * **PROP-A** — global propagation of QID values: records are compared
//!      against *all* values of their current entity, so a woman's maiden and
//!      married surnames both count (§4.2.1);
//!    * **PROP-C** — global propagation of constraints: temporal and link
//!      constraints are enforced between whole entities, not just records
//!      (§4.2.2, [`constraints`]);
//!    * **AMB** — ambiguity-aware similarity: Eq. (1)–(3) combine attribute
//!      similarity with an IDF-style disambiguation score (§4.2.3,
//!      [`similarity`]);
//!    * **REL** — adaptive leveraging of relationship structure: a group that
//!      misses the merge threshold sheds its weakest node (the sibling node
//!      of a partial match group) and is reconsidered (§4.2.4).
//! 4. **Refinement** ([`refine`], **REF**) — after each phase, under-dense
//!    clusters lose their weakest record and oversized clusters are split at
//!    bridges (§4.2.5).
//! 5. **Pedigree-graph generation** ([`pedigree`]) — Algorithm 1 lifts record
//!    relationships to resolved entities.
//!
//! Every technique can be disabled individually through
//! [`config::Ablation`], which is how the paper's Table 3 is reproduced.

pub mod attrs;
pub mod config;
pub mod constraints;
pub mod depgraph;
pub mod entity;
pub mod merge;
pub mod pedigree;
pub mod pipeline;
pub mod refine;
pub mod similarity;

pub use config::{Ablation, SnapsConfig};
pub use pedigree::{PedigreeEntity, PedigreeGraph};
pub use pipeline::{resolve, resolve_with_obs, PassDetail, Resolution, ResolutionStats};
