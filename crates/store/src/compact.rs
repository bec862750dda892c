//! Bloom-gated campaign-wide static compaction.
//!
//! [`gdf_core::compact_sequences`] compacts one run; a campaign has many
//! circuits, and the interesting question at campaign scale is the same
//! one at sequence scale: *does this sequence still contribute a fault
//! nothing kept so far covers?* This module runs the reverse-order
//! greedy pass over **all** circuits of a campaign, with one shared
//! seeded double-hashing [`Bloom`] over detected-fault signatures
//! (`circuit name ⊕ fault description`) gating the exact checks:
//!
//! * bloom says **definitely unseen** for any fault the sequence detects
//!   → the sequence provably contributes; keep it without touching the
//!   exact sets (the fast path — sound because the bloom is a superset
//!   of everything ever marked covered);
//! * bloom says **possibly seen** for all of them → consult the exact
//!   per-circuit covered set and keep only on a real contribution.
//!
//! Decisions are therefore *identical* to running
//! [`gdf_core::compact_sequences`] per circuit — the bloom changes the
//! cost, never the answer — so the emitted global [`CampaignSet`]
//! re-grades to coverage equal to (hence ≥) the per-circuit compacted
//! sets, which the integration tests assert through
//! [`gdf_core::session::grade_patterns`].

use crate::bloom::Bloom;
use crate::store::StoreError;
use gdf_core::driver::{DelayAtpg, DelayAtpgConfig, FaultClassification, FsimScratch};
use gdf_core::engine::Backend;
use gdf_core::json::Json;
use gdf_core::{PatternSet, RunArtifact};
use gdf_netlist::{Circuit, Fault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// The global compacted pattern document: one compacted [`PatternSet`]
/// per campaign circuit, plus the compaction accounting.
#[derive(Debug, Clone)]
pub struct CampaignSet {
    /// Bloom seed the compaction ran with (reproducibility record).
    pub seed: u64,
    /// Total vectors across all circuits before compaction.
    pub patterns_before: u32,
    /// Total vectors across all circuits after compaction.
    pub patterns_after: u32,
    /// One compacted set per circuit, in campaign order.
    pub sets: Vec<PatternSet>,
}

impl CampaignSet {
    /// Pattern-count reduction, `0.0..1.0`.
    pub fn reduction(&self) -> f64 {
        if self.patterns_before == 0 {
            0.0
        } else {
            1.0 - self.patterns_after as f64 / self.patterns_before as f64
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn encode(&self) -> String {
        Json::Obj(vec![
            ("format".into(), Json::Str("gdf-campaign-patterns".into())),
            ("version".into(), Json::Num(1.0)),
            ("seed".into(), Json::Str(format!("{:#x}", self.seed))),
            (
                "patterns_before".into(),
                Json::Num(self.patterns_before as f64),
            ),
            (
                "patterns_after".into(),
                Json::Num(self.patterns_after as f64),
            ),
            (
                "sets".into(),
                Json::Arr(
                    self.sets
                        .iter()
                        .map(|s| Json::parse(&s.encode()).expect("pattern sets encode as JSON"))
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    /// Parses the document produced by [`CampaignSet::encode`].
    pub fn decode(text: &str) -> Result<Self, StoreError> {
        let corrupt = |what: &str| StoreError::Unsupported(format!("campaign set: {what}"));
        let j = Json::parse(text).map_err(|e| corrupt(&format!("bad JSON: {e}")))?;
        if j.get("format").and_then(Json::as_str) != Some("gdf-campaign-patterns") {
            return Err(corrupt("not a gdf-campaign-patterns document"));
        }
        let seed_text = j
            .get("seed")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("missing seed"))?;
        let digits = seed_text.strip_prefix("0x").unwrap_or(seed_text);
        let seed = u64::from_str_radix(digits, 16).map_err(|_| corrupt("bad seed"))?;
        let num = |key: &str| -> Result<u32, StoreError> {
            j.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u32)
                .ok_or_else(|| corrupt(&format!("missing {key}")))
        };
        let mut sets = Vec::new();
        for set in j
            .get("sets")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("missing sets"))?
        {
            sets.push(
                PatternSet::decode(&set.pretty())
                    .map_err(|e| corrupt(&format!("embedded set: {e}")))?,
            );
        }
        Ok(CampaignSet {
            seed,
            patterns_before: num("patterns_before")?,
            patterns_after: num("patterns_after")?,
            sets,
        })
    }

    /// Writes the document atomically through the artifact I/O facade.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        gdf_core::io::write_atomic(path, &self.encode())
            .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and decodes a campaign-set file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let text = gdf_core::io::read_to_string(path)
            .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&text)
    }
}

/// Result of [`compact_campaign`]: the compacted document plus the
/// bloom's work accounting.
#[derive(Debug, Clone)]
pub struct CampaignCompaction {
    /// The compacted pattern document.
    pub set: CampaignSet,
    /// Sequences kept via the bloom's sound "definitely unseen" fast
    /// path (no exact-set consultation needed).
    pub bloom_fast_keeps: u64,
    /// Sequences that needed the exact per-circuit covered set.
    pub exact_checks: u64,
    /// Distinct fault signatures inserted into the bloom.
    pub signatures: u64,
}

/// Compacts all runs of a campaign into one global pattern document.
///
/// Each entry pairs a resolved circuit with its **complete** non-scan
/// run artifact; anything else is an [`StoreError::Unsupported`] named
/// error. `bloom_seed` seeds the filter (the answer is seed-independent;
/// only which path derived it varies).
pub fn compact_campaign(
    runs: &[(Circuit, RunArtifact)],
    bloom_seed: u64,
) -> Result<CampaignCompaction, StoreError> {
    // Size the filter for every decided fault in the campaign.
    let universe: usize = runs.iter().map(|(_, a)| a.total()).sum();
    let mut bloom = Bloom::for_items(universe.max(1), bloom_seed);
    let mut result = CampaignCompaction {
        set: CampaignSet {
            seed: bloom_seed,
            patterns_before: 0,
            patterns_after: 0,
            sets: Vec::new(),
        },
        bloom_fast_keeps: 0,
        exact_checks: 0,
        signatures: 0,
    };

    for (circuit, artifact) in runs {
        let name = &artifact.circuit.name;
        if artifact.partial {
            return Err(StoreError::Unsupported(format!(
                "cannot compact `{name}`: artifact is a partial checkpoint"
            )));
        }
        let config = artifact.config();
        if config.backend != Backend::NonScan {
            return Err(StoreError::Unsupported(format!(
                "cannot compact `{name}`: compaction needs a non-scan run, got `{}`",
                config.backend
            )));
        }
        let run = artifact
            .to_run(circuit)
            .map_err(|e| StoreError::Unsupported(format!("`{name}`: {e}")))?;
        let atpg = DelayAtpg::with_config(
            circuit,
            DelayAtpgConfig::new()
                .with_model(config.model)
                .with_sensitization(config.sensitization)
                .with_universe(config.universe)
                .with_xfill_seed(config.seed)
                .with_limits(config.limits),
        );

        let tested: Vec<Fault> = run
            .records
            .iter()
            .filter(|r| r.classification == FaultClassification::Tested)
            .map(|r| r.fault)
            .collect();
        // Stable per-fault signature, disambiguated across circuits: two
        // circuits naming a net `G17` must not share bloom entries by
        // accident of spelling.
        let signature = |f: Fault| format!("{name}\u{1f}{}", f.describe(circuit));

        let mut scratch = FsimScratch::default();
        let detection: Vec<Vec<usize>> = run
            .sequences
            .iter()
            .enumerate()
            .map(|(i, seq)| {
                let relied: &[gdf_netlist::NodeId] = run.relied_ppos.get(i).map_or(&[], |r| r);
                let mut rng = StdRng::seed_from_u64(atpg.config().xfill_seed);
                atpg.fault_simulate_sequence(seq, relied, &tested, &mut rng, &mut scratch)
                    .expect("non-scan runs carry at-speed sequences")
            })
            .collect();

        // Reverse-order greedy with the bloom as the sound fast path.
        let mut covered = vec![false; tested.len()];
        let mut kept_rev: Vec<usize> = Vec::new();
        for idx in (0..run.sequences.len()).rev() {
            let hits = &detection[idx];
            if hits.is_empty() {
                continue;
            }
            let definitely_new = hits
                .iter()
                .any(|&f| !bloom.contains(signature(tested[f]).as_bytes()));
            let contributes = if definitely_new {
                result.bloom_fast_keeps += 1;
                true
            } else {
                result.exact_checks += 1;
                hits.iter().any(|&f| !covered[f])
            };
            if contributes {
                kept_rev.push(idx);
                for &f in hits {
                    if !covered[f] {
                        covered[f] = true;
                        bloom.insert(signature(tested[f]).as_bytes());
                        result.signatures += 1;
                    }
                }
            }
        }
        kept_rev.reverse();

        let full = PatternSet::from_run(
            circuit,
            &run,
            &config.backend.to_string(),
            config.seed,
            Some(artifact.circuit.clone()),
        );
        result.set.patterns_before += full.total_vectors() as u32;
        let compacted = PatternSet {
            circuit: full.circuit.clone(),
            backend: full.backend.clone(),
            seed: full.seed,
            patterns: kept_rev.iter().map(|&i| full.patterns[i].clone()).collect(),
        };
        result.set.patterns_after += compacted.total_vectors() as u32;
        result.set.sets.push(compacted);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_core::engine::{Atpg, RunConfig};
    use gdf_core::{compact_sequences, CircuitSource};
    use gdf_netlist::suite;

    fn run_with(circuit: &Circuit, config: RunConfig) -> gdf_core::AtpgRun {
        Atpg::builder(circuit)
            .backend(config.backend)
            .model(config.model)
            .sensitization(config.sensitization)
            .universe(config.universe)
            .limits(config.limits)
            .seed(config.seed)
            .build()
            .run()
    }

    fn non_scan_artifact(circuit: &Circuit, suite_name: &str) -> RunArtifact {
        let config = RunConfig::new(Backend::NonScan);
        let run = run_with(circuit, config);
        RunArtifact::from_run(
            circuit,
            &run,
            config,
            Some(CircuitSource::suite(circuit, suite_name)),
        )
    }

    #[test]
    fn campaign_compaction_matches_per_circuit_greedy() {
        let circuits = ["s27", "s42"];
        let runs: Vec<(Circuit, RunArtifact)> = circuits
            .iter()
            .map(|n| {
                let c = suite::by_name(n).expect("suite circuit");
                let a = non_scan_artifact(&c, n);
                (c, a)
            })
            .collect();
        let result = compact_campaign(&runs, 0xb1004).unwrap();
        assert_eq!(result.set.sets.len(), circuits.len());
        assert!(result.set.patterns_after <= result.set.patterns_before);
        assert!(result.bloom_fast_keeps + result.exact_checks > 0);

        // The bloom changes cost, never the answer: kept sets must equal
        // per-circuit reverse-greedy compaction exactly.
        for ((circuit, artifact), set) in runs.iter().zip(&result.set.sets) {
            let config = artifact.config();
            let atpg = DelayAtpg::with_config(
                circuit,
                DelayAtpgConfig::new()
                    .with_model(config.model)
                    .with_sensitization(config.sensitization)
                    .with_universe(config.universe)
                    .with_xfill_seed(config.seed)
                    .with_limits(config.limits),
            );
            let run = artifact.to_run(circuit).unwrap();
            let solo = compact_sequences(&atpg, &run);
            let solo_sequences: Vec<_> = solo
                .kept
                .iter()
                .map(|&i| run.sequences[i].clone())
                .collect();
            let ours: Vec<_> = set.patterns.iter().map(|p| p.sequence.clone()).collect();
            assert_eq!(ours, solo_sequences, "{}", artifact.circuit.name);
        }
    }

    #[test]
    fn campaign_set_document_round_trips() {
        let c = suite::s27();
        let runs = vec![(c.clone(), non_scan_artifact(&c, "s27"))];
        let result = compact_campaign(&runs, 1).unwrap();
        let text = result.set.encode();
        let back = CampaignSet::decode(&text).unwrap();
        assert_eq!(back.sets.len(), 1);
        assert_eq!(back.patterns_after, result.set.patterns_after);
        assert_eq!(
            back.sets[0].patterns.len(),
            result.set.sets[0].patterns.len()
        );
        assert_eq!(back.seed, 1);
    }

    #[test]
    fn partial_and_foreign_artifacts_are_named_errors() {
        let c = suite::s27();
        let mut artifact = non_scan_artifact(&c, "s27");
        artifact.partial = true;
        let err = compact_campaign(&[(c.clone(), artifact)], 0).unwrap_err();
        assert!(matches!(err, StoreError::Unsupported(_)), "{err}");

        let stuck_config = RunConfig::new(Backend::StuckAt);
        let run = run_with(&c, stuck_config);
        let stuck = RunArtifact::from_run(&c, &run, stuck_config, None);
        let err = compact_campaign(&[(c.clone(), stuck)], 0).unwrap_err();
        assert!(matches!(err, StoreError::Unsupported(_)), "{err}");
    }
}
