//! Static test-set compaction.
//!
//! The paper's `#pat` column counts every applied vector, and sequential
//! delay tests are long (initialization + pair + propagation), so test-set
//! size matters on the tester. This module implements classic *reverse-
//! order greedy* static compaction: re-fault-simulate the sequences from
//! last to first against the tested-fault set and keep a sequence only if
//! it detects at least one fault no retained sequence covers. Later
//! sequences tend to cover earlier ones because fault dropping already
//! removed their targets from the later runs' fault lists — the same
//! observation behind reverse-order compaction for stuck-at tests.
//!
//! Compaction preserves coverage by construction (asserted here and in the
//! integration tests): the kept set detects every fault the full set
//! detected, under the same §5 fault-simulation semantics.
//!
//! [`compact_campaign`] runs the same greedy over each saved run of a
//! campaign and assembles one [`CampaignSet`] document (`gdf compact`).

use crate::artifact::{write_atomic, ArtifactError, PatternSet, RunArtifact};
use crate::driver::{AtpgRun, DelayAtpg, FaultClassification, FsimScratch};
use crate::engine::Backend;
use crate::json::Json;
use crate::pattern::TestSequence;
use gdf_netlist::{Circuit, Fault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// The result of compacting a run's test set.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// Indexes (into the run's sequence list) of the retained sequences,
    /// in application order.
    pub kept: Vec<usize>,
    /// Total vectors before compaction.
    pub patterns_before: u32,
    /// Total vectors after compaction.
    pub patterns_after: u32,
    /// Number of tested faults the retained set provably covers.
    pub covered: usize,
}

impl CompactionResult {
    /// Pattern-count reduction, `0.0..1.0`.
    pub fn reduction(&self) -> f64 {
        reduction(self.patterns_before, self.patterns_after)
    }
}

fn reduction(before: u32, after: u32) -> f64 {
    if before == 0 {
        0.0
    } else {
        1.0 - after as f64 / before as f64
    }
}

/// Greedy reverse-order compaction of `run`'s sequences.
///
/// `atpg` must be the driver that produced `run` (same circuit and
/// configuration), so the fault simulation semantics match.
///
/// # Panics
///
/// Panics if `run` was produced by a different backend than the non-scan
/// delay driver (a stuck-at run's records carry [`Fault::Stuck`]
/// faults and its sequences have no launch/capture pair to fault-simulate).
///
/// # Example
///
/// ```
/// use gdf_core::compact::compact_sequences;
/// use gdf_core::DelayAtpg;
/// use gdf_netlist::suite;
///
/// let c = suite::s27();
/// let atpg = DelayAtpg::new(&c);
/// let run = atpg.run();
/// let compact = compact_sequences(&atpg, &run);
/// assert!(compact.patterns_after <= compact.patterns_before);
/// ```
pub fn compact_sequences(atpg: &DelayAtpg<'_>, run: &AtpgRun) -> CompactionResult {
    let tested: Vec<Fault> = run
        .records
        .iter()
        .filter(|r| r.classification == FaultClassification::Tested)
        .map(|r| r.fault)
        .collect();
    let patterns_before: u32 = run.sequences.iter().map(|s| s.len() as u32).sum();

    // Per-sequence detection sets over the tested faults, with each
    // sequence's own relied-PPO list (retained in `AtpgRun::relied_ppos`
    // since 0.3) so the §5 invalidation check matches the generating run
    // and `session::grade_patterns` exactly. Coverage is judged under the
    // same rule for "before" and "after".
    let mut scratch = FsimScratch::default();
    let mut detect = |(i, seq): (usize, &TestSequence)| -> Vec<bool> {
        let relied: &[gdf_netlist::NodeId] = run.relied_ppos.get(i).map_or(&[], |r| r);
        let mut rng = StdRng::seed_from_u64(atpg.config().xfill_seed);
        let hits = atpg
            .fault_simulate_sequence(seq, relied, &tested, &mut rng, &mut scratch)
            .expect("compaction input is a non-scan run with at-speed sequences");
        let mut set = vec![false; tested.len()];
        for h in hits {
            set[h] = true;
        }
        set
    };
    let detect = &mut detect;
    let detection: Vec<Vec<bool>> = run.sequences.iter().enumerate().map(detect).collect();
    let baseline: Vec<bool> = (0..tested.len())
        .map(|i| detection.iter().any(|d| d[i]))
        .collect();

    let mut covered = vec![false; tested.len()];
    let mut kept_rev: Vec<usize> = Vec::new();
    for idx in (0..run.sequences.len()).rev() {
        let contributes = detection[idx].iter().zip(&covered).any(|(&d, &c)| d && !c);
        if contributes {
            kept_rev.push(idx);
            for (c, &d) in covered.iter_mut().zip(&detection[idx]) {
                *c |= d;
            }
        }
    }
    kept_rev.reverse();

    // Coverage preservation under the uniform rule.
    debug_assert_eq!(
        covered.iter().filter(|&&c| c).count(),
        baseline.iter().filter(|&&c| c).count(),
        "compaction must not lose simulated coverage"
    );

    let patterns_after = kept_rev
        .iter()
        .map(|&i| run.sequences[i].len() as u32)
        .sum();
    CompactionResult {
        kept: kept_rev,
        patterns_before,
        patterns_after,
        covered: covered.iter().filter(|&&c| c).count(),
    }
}

/// The compacted pattern document of a campaign: one compacted
/// [`PatternSet`] per circuit, plus the vector totals.
#[derive(Debug, Clone)]
pub struct CampaignSet {
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
        reduction(self.patterns_before, self.patterns_after)
    }

    /// Serializes to pretty-printed JSON.
    pub fn encode(&self) -> String {
        let sets = self
            .sets
            .iter()
            .map(|s| Json::parse(&s.encode()).expect("pattern sets encode as JSON"));
        Json::Obj(vec![
            ("format".into(), Json::Str("gdf-campaign-patterns".into())),
            ("version".into(), Json::Num(2.0)),
            (
                "patterns_before".into(),
                Json::Num(self.patterns_before as f64),
            ),
            (
                "patterns_after".into(),
                Json::Num(self.patterns_after as f64),
            ),
            ("sets".into(), Json::Arr(sets.collect())),
        ])
        .pretty()
    }

    /// Writes the document atomically through the artifact I/O facade.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        write_atomic(path.as_ref(), &self.encode())
    }
}

/// Compacts every run of a campaign: [`compact_sequences`] per circuit,
/// each kept set exported as a [`PatternSet`] in campaign order.
///
/// Each entry pairs a resolved circuit with its complete non-scan run
/// artifact. A partial checkpoint, or a run of another backend, is an
/// [`ArtifactError::Mismatch`] that names the circuit.
pub fn compact_campaign(runs: &[(Circuit, RunArtifact)]) -> Result<CampaignSet, ArtifactError> {
    let mut campaign = CampaignSet {
        patterns_before: 0,
        patterns_after: 0,
        sets: Vec::new(),
    };
    for (circuit, artifact) in runs {
        let name = &artifact.circuit.name;
        if artifact.partial {
            return Err(ArtifactError::Mismatch(format!(
                "cannot compact `{name}`: artifact is a partial checkpoint"
            )));
        }
        let config = artifact.config();
        if config.backend != Backend::NonScan {
            return Err(ArtifactError::Mismatch(format!(
                "cannot compact `{name}`: compaction needs a non-scan run, got `{}`",
                config.backend
            )));
        }
        let run = artifact.to_run(circuit)?;
        let atpg = DelayAtpg::with_config(circuit, config.delay_config());
        let kept = compact_sequences(&atpg, &run).kept;
        let mut set = PatternSet::from_run(
            circuit,
            &run,
            &config.backend.to_string(),
            config.seed,
            Some(artifact.circuit.clone()),
        );
        campaign.patterns_before += set.total_vectors() as u32;
        set.patterns = kept.iter().map(|&i| set.patterns[i].clone()).collect();
        campaign.patterns_after += set.total_vectors() as u32;
        campaign.sets.push(set);
    }
    Ok(campaign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::suite;

    #[test]
    fn compaction_preserves_simulated_coverage_on_s27() {
        let c = suite::s27();
        let atpg = DelayAtpg::new(&c);
        let run = atpg.run();
        let compact = compact_sequences(&atpg, &run);
        assert!(compact.patterns_after <= compact.patterns_before);
        assert!(!compact.kept.is_empty());
        // Re-check coverage of the kept set explicitly.
        let tested: Vec<_> = run
            .records
            .iter()
            .filter(|r| r.classification == FaultClassification::Tested)
            .map(|r| r.fault)
            .collect();
        let mut covered = vec![false; tested.len()];
        let mut scratch = FsimScratch::default();
        for &k in &compact.kept {
            let mut rng = StdRng::seed_from_u64(atpg.config().xfill_seed);
            let hits = atpg
                .fault_simulate_sequence(
                    &run.sequences[k],
                    &run.relied_ppos[k],
                    &tested,
                    &mut rng,
                    &mut scratch,
                )
                .expect("at-speed sequence");
            for h in hits {
                covered[h] = true;
            }
        }
        assert_eq!(covered.iter().filter(|&&c| c).count(), compact.covered);
    }

    #[test]
    fn kept_indexes_are_ordered_and_unique() {
        let c = suite::table3_circuit("s298").expect("suite circuit");
        let atpg = DelayAtpg::new(&c);
        let run = atpg.run();
        let compact = compact_sequences(&atpg, &run);
        assert!(compact.kept.windows(2).all(|w| w[0] < w[1]));
        assert!(compact.kept.len() <= run.sequences.len());
        assert!(compact.reduction() >= 0.0);
    }

    #[test]
    fn partial_and_foreign_artifacts_are_named_errors() {
        use crate::engine::{Atpg, RunConfig};
        let c = suite::s27();
        let config = RunConfig::new(Backend::NonScan);
        let run = Atpg::builder(&c).build().run();
        let mut artifact = RunArtifact::from_run(&c, &run, config, None);
        artifact.partial = true;
        let err = compact_campaign(&[(c.clone(), artifact)]).unwrap_err();
        assert!(
            matches!(&err, ArtifactError::Mismatch(m) if m.contains("partial")),
            "{err}"
        );

        let stuck_config = RunConfig::new(Backend::StuckAt);
        let run = Atpg::builder(&c).backend(Backend::StuckAt).build().run();
        let stuck = RunArtifact::from_run(&c, &run, stuck_config, None);
        let err = compact_campaign(&[(c.clone(), stuck)]).unwrap_err();
        assert!(
            matches!(&err, ArtifactError::Mismatch(m) if m.contains("stuck-at")),
            "{err}"
        );
    }
}
