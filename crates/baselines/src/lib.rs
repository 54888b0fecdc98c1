//! Baseline entity-resolution systems (paper §10, "Baselines").
//!
//! Four comparators, mirroring the paper's evaluation:
//!
//! * [`attr_sim`] — **Attr-Sim**: traditional pairwise threshold linkage,
//!   no relationships, no constraints;
//! * [`dep_graph`] — **Dep-Graph**: Dong-et-al.-style propagation of values
//!   and constraints, but no disambiguation, no adaptive group merging, no
//!   refinement;
//! * [`rel_cluster`] — **Rel-Cluster**: Bhattacharya-Getoor-style iterative
//!   relational clustering with ambiguity, but no value/constraint
//!   propagation across decisions, no partial-match handling, no refinement;
//! * [`supervised`] — the Magellan substitute: four from-scratch classifiers
//!   (`snaps-ml`) over record-pair comparison vectors, trained per role pair
//!   or on all pairs, results averaged.

#![expect(
    clippy::disallowed_types,
    reason = "Rel-Cluster's per-round neighbour-set map is read by key only"
)]

pub mod attr_sim;
pub mod dep_graph;
pub mod features;
pub mod rel_cluster;
pub mod result;
pub mod supervised;

pub use attr_sim::attr_sim_link;
pub use dep_graph::dep_graph_link;
pub use rel_cluster::rel_cluster_link;
pub use result::LinkResult;
pub use supervised::SupervisedLinker;
