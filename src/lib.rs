//! Facade crate re-exporting all SNAPS sub-crates.
pub use snaps_anonymise as anonymise;
pub use snaps_baselines as baselines;
pub use snaps_blocking as blocking;
pub use snaps_core as core;
pub use snaps_datagen as datagen;
pub use snaps_eval as eval;
pub use snaps_graph as graph;
pub use snaps_index as index;
pub use snaps_ml as ml;
pub use snaps_model as model;
pub use snaps_obs as obs;
pub use snaps_pedigree as pedigree;
pub use snaps_query as query;
pub use snaps_serve as serve;
pub use snaps_strsim as strsim;
