//! Exact result-cache keys.
//!
//! A cache entry is addressed by `(circuit digest, RunConfig digest)` —
//! the two inputs that fully determine a run's canonical artifact. The
//! determinism suite (serial ≡ parallel ≡ resumed ≡ served ≡ fleet)
//! is what upgrades this from "probably the same" to *exact*: the bytes
//! behind a hit are the bytes a fresh run would produce, so serving them
//! is indistinguishable from recomputing. Shard entries additionally pin
//! the `[lo, hi)` fault range, since a shard artifact's content depends
//! on it.
//!
//! [`lookup_run`] and [`publish_run`] hold the one rule for full runs,
//! which `gdf serve` and `gdf campaign --cache` share: an entry counts
//! only as the complete run of the same circuit source under the same
//! configuration.

use crate::store::{Store, StoreError};
use gdf_core::artifact::{CircuitSource, RunArtifact};
use gdf_core::digest::{config_digest, Digest};
use gdf_core::engine::RunConfig;

/// The two-digest cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// Digest of the circuit source's canonical encoding.
    pub circuit: Digest,
    /// Digest of the run configuration's canonical encoding.
    pub config: Digest,
}

impl CacheKey {
    /// The key for a full run of `source` under `config`.
    pub fn new(source: &CircuitSource, config: &RunConfig) -> Self {
        CacheKey {
            circuit: source.digest(),
            config: config_digest(config),
        }
    }

    /// Store ref name for the full-run artifact.
    pub fn run_name(&self) -> String {
        format!("run-{}-{}", self.circuit, self.config)
    }

    /// Store ref name for the `[lo, hi)` shard artifact.
    pub fn shard_name(&self, lo: usize, hi: usize) -> String {
        format!("shard-{}-{}-{lo}-{hi}", self.circuit, self.config)
    }
}

/// Whether `artifact` is the complete run of `source` under `config`.
fn is_full_run(artifact: &RunArtifact, source: &CircuitSource, config: &RunConfig) -> bool {
    !artifact.partial && artifact.config() == *config && artifact.circuit == *source
}

/// The cached complete run of `source` under `config`: its stored text
/// and the decoded artifact. A miss, an unreadable or undecodable entry,
/// and an entry that is not that exact run all answer `None`, so the
/// caller runs the job instead.
pub fn lookup_run(
    store: &Store,
    source: &CircuitSource,
    config: &RunConfig,
) -> Option<(String, RunArtifact)> {
    let text = store
        .get_named(&CacheKey::new(source, config).run_name())
        .ok()??;
    let artifact = RunArtifact::decode(&text).ok()?;
    is_full_run(&artifact, source, config).then_some((text, artifact))
}

/// Publishes `artifact`'s canonical bytes under the `(source, config)`
/// key, if it is the complete run of `source` under `config`; anything
/// else is skipped, since [`lookup_run`] would never serve it.
pub fn publish_run(
    store: &Store,
    source: &CircuitSource,
    config: &RunConfig,
    artifact: &RunArtifact,
) -> Result<(), StoreError> {
    if is_full_run(artifact, source, config) {
        let name = CacheKey::new(source, config).run_name();
        store.publish(&name, &artifact.canonical_encode())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::validate_name;
    use gdf_core::engine::Backend;
    use gdf_netlist::suite;

    #[test]
    fn key_separates_circuit_and_config() {
        let s27 = CircuitSource::suite(&suite::s27(), "s27");
        let s42 = CircuitSource::suite(&suite::by_name("s42").unwrap(), "s42");
        let base = RunConfig::new(Backend::NonScan);
        let a = CacheKey::new(&s27, &base);
        assert_eq!(a, CacheKey::new(&s27, &base), "stable across calls");
        assert_ne!(a, CacheKey::new(&s42, &base));
        assert_ne!(a, CacheKey::new(&s27, &base.with_seed(7)));
    }

    #[test]
    fn generated_names_pass_store_validation() {
        let source = CircuitSource::suite(&suite::s27(), "s27");
        let key = CacheKey::new(&source, &RunConfig::new(Backend::NonScan));
        validate_name(&key.run_name()).unwrap();
        validate_name(&key.shard_name(0, 17)).unwrap();
        assert_ne!(key.shard_name(0, 8), key.shard_name(8, 17));
    }
}
