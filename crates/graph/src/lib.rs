//! Graph utilities for the SNAPS entity-resolution pipeline.
//!
//! Three independent tools live here:
//!
//! * [`UnionFind`] — disjoint sets used to maintain record clusters as
//!   relational nodes merge (paper §4.2),
//! * [`UndirectedGraph`] — a small adjacency-list graph with the measures
//!   the cluster-refinement step needs: [`UndirectedGraph::bridges`]
//!   (Tarjan low-link) and [`UndirectedGraph::density`] (paper §4.2.5,
//!   following Randall et al.'s graph-measure error identification),
//! * [`components`] — connected components over an arbitrary edge list.

pub mod components;
pub mod undirected;
pub mod union_find;

pub use components::connected_components;
pub use undirected::UndirectedGraph;
pub use union_find::UnionFind;
