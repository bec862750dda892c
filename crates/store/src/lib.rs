//! Content-addressed artifact store with exact result caching.
//!
//! The determinism invariant (same circuit + config ⇒ byte-identical
//! canonical artifact, proven across serial/parallel/resumed/served/
//! fleet runs) turns duplicate submissions into free work. This crate
//! is the piece that captures it:
//!
//! * [`Store`] — objects keyed by the 128-bit [`Digest`] of their
//!   canonical text under `objects/`, named handles under `refs/`,
//!   mark-and-sweep [`Store::gc`]. Every write and read goes through the
//!   `gdf_core::io` facade, so the chaos suite's torn-write/stale-temp
//!   faults exercise the store for free; destructive decisions (sweeps,
//!   quarantines) re-check raw bytes first so an injected *read* fault
//!   can never delete a live object.
//! * [`CacheKey`] — the exact result cache key,
//!   `(circuit digest, RunConfig digest)`. A hit is not a heuristic: the
//!   stored bytes are the bytes a fresh run would produce.
//!   [`lookup_run`] and [`publish_run`] read and write full runs under
//!   it by one rule.

pub mod cache;
pub mod store;

pub use cache::{lookup_run, publish_run, CacheKey};
pub use gdf_core::digest::Digest;
pub use store::{GcReport, Store, StoreError, StoreStats};
