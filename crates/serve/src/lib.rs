//! Snapshot persistence and a multi-threaded online query service.
//!
//! The SNAPS paper splits entity resolution into an expensive offline phase
//! and a sub-second online phase (§6). This crate operationalises that
//! split: [`snapshot`] persists the offline phase's output — resolved
//! pedigree graph plus indexes — into one versioned, checksummed file, and
//! [`server`] serves queries over a restored engine from a pool of worker
//! threads, sharing one [`snaps_query::SearchEngine`] behind an `Arc`.
//!
//! - [`snapshot`] — binary format, save/load, typed [`snapshot::SnapshotError`]
//! - [`server`] — TCP accept loop, bounded queue, backpressure, shutdown
//! - [`http`] — minimal HTTP/1.1 request parsing and response building
//!
//! The `snaps-serve` binary wires these together: `build-snapshot`
//! generates a dataset, resolves it and writes the snapshot; `serve` loads
//! a snapshot and listens for queries.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the server owns the sockets, the worker threads and request timing"
)]

pub mod http;
pub mod json;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use server::{Server, ServerConfig};
pub use snapshot::{SnapshotError, SnapshotStamp};
