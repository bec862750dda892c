//! Shard artifacts — the unit of *distributed* speculation.
//!
//! The engine's fault-parallel orchestration rests on one fact: per-fault
//! generation is a **pure function of the fault**, while everything
//! stateful (classification order, fault-simulation credit, the X-fill
//! credit-RNG stream) runs on the merge thread in fault-list order. The
//! in-process form fans generation out to wave threads; this module is
//! the same contract stretched across machines:
//!
//! * a [`ShardArtifact`] records the pure generation outcomes for one
//!   contiguous fault-universe range `[lo, hi)` of one configuration —
//!   computed anywhere ([`ShardArtifact::run`] is what a `gdf serve`
//!   shard job executes), serialized like every other artifact
//!   (schema-versioned JSON, byte-stable encoding);
//! * [`merge_artifact`] recombines shards: it assembles a speculation
//!   table indexed by universe position and replays the deterministic
//!   merge through [`AtpgBuilder::speculation`] — credit passes and the
//!   RNG stream run *here*, exactly as a single-node run would execute
//!   them, so the merged [`RunArtifact`] is **byte-identical in
//!   canonical encoding to a single-node run** of the same config/seed.
//!
//! The credit-RNG contract per shard, explicitly: **shards never touch
//! the RNG**. A shard job consumes zero credit-RNG draws and performs no
//! fault dropping — it only targets faults. The single RNG stream is
//! consumed by whoever merges (coordinator or local run), in fault-list
//! order, which is what makes `fleet(N) ≡ fleet(1) ≡ local` hold bit for
//! bit. Outcomes for faults the merge's credit pass drops are simply
//! never consumed — bounded wasted speculation, the same trade the
//! in-process wave workers make.
//!
//! [`AtpgBuilder::speculation`]: crate::engine::AtpgBuilder::speculation

use crate::artifact::{
    decode_config, decode_outcome, encode_config, encode_outcome, schema, str_field, u32_field,
    usize_field, write_atomic, ArtifactError, CircuitSource, RunArtifact,
};
use crate::engine::{Atpg, AtpgError, FaultOutcome, RunConfig};
use crate::json::{Json, ParseLimits};
use gdf_netlist::{Circuit, Fault};
use std::path::Path;

/// Current shard-artifact schema version.
pub const SHARD_VERSION: u32 = 1;

/// Oldest schema version [`ShardArtifact::decode`] still reads.
pub const SHARD_VERSION_MIN: u32 = 1;

/// The pure generation outcomes for one fault-universe range `[lo, hi)`
/// under one configuration — a resumable, serializable work unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArtifact {
    config: RunConfig,
    circuit: CircuitSource,
    lo: usize,
    hi: usize,
    /// Size of the *full* universe the range indexes into, recorded so a
    /// merge can reject shards cut from a different enumeration.
    total: usize,
    /// Outcome per range position (`outcomes[k]` is universe index
    /// `lo + k`); `None` while not yet computed. Filled strictly
    /// front-to-back, so a partial shard resumes at its first hole.
    outcomes: Vec<Option<FaultOutcome>>,
}

impl ShardArtifact {
    /// An empty shard for universe indexes `[lo, hi)` of `config`'s
    /// fault universe over `circuit`.
    ///
    /// # Errors
    ///
    /// Rejects a range that does not fit the enumerated universe.
    pub fn new(
        circuit: &Circuit,
        source: Option<CircuitSource>,
        config: RunConfig,
        lo: usize,
        hi: usize,
    ) -> Result<Self, ArtifactError> {
        let total = config
            .model
            .model()
            .enumerate(circuit, &config.universe)
            .len();
        if lo > hi || hi > total {
            return Err(ArtifactError::Mismatch(format!(
                "shard range [{lo}‥{hi}) does not fit a universe of {total} faults"
            )));
        }
        Ok(ShardArtifact {
            config,
            circuit: source.unwrap_or_else(|| CircuitSource::of(circuit)),
            lo,
            hi,
            total,
            outcomes: vec![None; hi - lo],
        })
    }

    /// The configuration the outcomes were generated under.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// How the circuit is referenced (for re-resolution elsewhere).
    pub fn source(&self) -> &CircuitSource {
        &self.circuit
    }

    /// The `[lo, hi)` universe range this shard covers.
    pub fn range(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Size of the full universe the range was cut from.
    pub fn universe_len(&self) -> usize {
        self.total
    }

    /// Number of faults in the range.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Outcomes computed so far (outcomes fill front-to-back).
    pub fn decided(&self) -> usize {
        self.outcomes.iter().take_while(|o| o.is_some()).count()
    }

    /// Whether every fault in the range has an outcome.
    pub fn is_complete(&self) -> bool {
        self.decided() == self.len()
    }

    /// Targets every remaining fault of the range, front to back: the
    /// shard-job work loop. Generation is pure per fault and consumes
    /// **no** credit-RNG draws, so two executions of the same range — on
    /// any machine, after any number of interruptions — produce the same
    /// outcomes.
    ///
    /// `on_step` runs after every computed outcome with the shard's
    /// current state (checkpoint hook); returning `false` stops the loop
    /// early, leaving a resumable partial shard. Returns whether the
    /// shard ran to completion.
    pub fn run(
        &mut self,
        circuit: &Circuit,
        mut on_step: impl FnMut(&ShardArtifact) -> bool,
    ) -> Result<bool, AtpgError> {
        let config = self.config;
        config.validate()?;
        let mut engine = Atpg::builder(circuit)
            .backend(config.backend)
            .model(config.model)
            .sensitization(config.sensitization)
            .universe(config.universe)
            .limits(config.limits)
            .seed(config.seed)
            .try_build()?;
        let faults: Vec<Fault> = engine.faults()[self.lo..self.hi].to_vec();
        for (k, &fault) in faults.iter().enumerate().skip(self.decided()) {
            let outcome = engine.target(fault)?;
            self.outcomes[k] = Some(outcome);
            if !on_step(self) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Encodes the shard as a schema-versioned JSON document. Node
    /// references (observed POs, relied PPOs) are recorded by signal
    /// name against `circuit`, like every other artifact.
    pub fn encode(&self, circuit: &Circuit) -> String {
        let mut fields = vec![
            ("schema".into(), Json::Str("gdf-shard".into())),
            ("version".into(), Json::Num(SHARD_VERSION as f64)),
            ("circuit".into(), self.circuit.encode()),
        ];
        fields.extend(encode_config(&self.config));
        fields.push(("lo".into(), Json::Num(self.lo as f64)));
        fields.push(("hi".into(), Json::Num(self.hi as f64)));
        fields.push(("universe_len".into(), Json::Num(self.total as f64)));
        fields.push((
            "outcomes".into(),
            Json::Arr(
                self.outcomes
                    .iter()
                    .map(|o| match o {
                        None => Json::Null,
                        Some(outcome) => encode_outcome(outcome, circuit),
                    })
                    .collect(),
            ),
        ));
        let mut text = Json::Obj(fields).to_string();
        text.push('\n');
        text
    }

    /// Decodes a document written by [`ShardArtifact::encode`],
    /// resolving signal names against `circuit`.
    pub fn decode(text: &str, circuit: &Circuit) -> Result<Self, ArtifactError> {
        let j =
            Json::parse_with_limits(text, ParseLimits::network()).map_err(ArtifactError::Json)?;
        if str_field(&j, "schema")? != "gdf-shard" {
            return Err(schema("not a gdf-shard document"));
        }
        let version = u32_field(&j, "version")?;
        if !(SHARD_VERSION_MIN..=SHARD_VERSION).contains(&version) {
            return Err(schema(format!(
                "unsupported shard version {version} (supported: \
                 {SHARD_VERSION_MIN}..={SHARD_VERSION})"
            )));
        }
        let source = CircuitSource::decode(
            j.get("circuit")
                .ok_or_else(|| schema("missing `circuit`"))?,
        )?;
        if source.name != circuit.name() {
            return Err(ArtifactError::Mismatch(format!(
                "shard is for circuit `{}`, resolver handed `{}`",
                source.name,
                circuit.name()
            )));
        }
        let config = decode_config(&j)?;
        let lo = usize_field(&j, "lo")?;
        let hi = usize_field(&j, "hi")?;
        let total = usize_field(&j, "universe_len")?;
        if lo > hi || hi > total {
            return Err(schema(format!(
                "invalid shard range [{lo}‥{hi}) of {total}"
            )));
        }
        let raw = j
            .get("outcomes")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing `outcomes`"))?;
        if raw.len() != hi - lo {
            return Err(schema(format!(
                "shard has {} outcomes for a range of {}",
                raw.len(),
                hi - lo
            )));
        }
        let outcomes = raw
            .iter()
            .map(|o| {
                if o.is_null() {
                    Ok(None)
                } else {
                    decode_outcome(o, circuit).map(Some)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardArtifact {
            config,
            circuit: source,
            lo,
            hi,
            total,
            outcomes,
        })
    }

    /// Atomically writes the encoded shard to `path`.
    pub fn save(&self, path: impl AsRef<Path>, circuit: &Circuit) -> Result<(), ArtifactError> {
        write_atomic(path.as_ref(), &self.encode(circuit))
    }

    /// Reads and decodes a shard from `path`.
    pub fn load(path: impl AsRef<Path>, circuit: &Circuit) -> Result<Self, ArtifactError> {
        let text = crate::io::read_to_string(path.as_ref())
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::decode(&text, circuit)
    }
}

/// Assembles shards into one speculation table indexed by universe
/// position, validating that every shard was cut from the same
/// enumeration (`config`, circuit name, universe size). Overlapping
/// shards are fine — generation is pure, so duplicates agree; positions
/// no shard covers stay `None` and fall back to local generation in the
/// merge.
pub fn assemble_table(
    circuit: &Circuit,
    config: &RunConfig,
    shards: &[&ShardArtifact],
) -> Result<Vec<Option<FaultOutcome>>, ArtifactError> {
    let total = config
        .model
        .model()
        .enumerate(circuit, &config.universe)
        .len();
    let mut table: Vec<Option<FaultOutcome>> = vec![None; total];
    for shard in shards {
        if shard.config != *config {
            return Err(ArtifactError::Mismatch(
                "shard was generated under a different configuration".into(),
            ));
        }
        if shard.circuit.name != circuit.name() {
            return Err(ArtifactError::Mismatch(format!(
                "shard is for circuit `{}`, merge runs `{}`",
                shard.circuit.name,
                circuit.name()
            )));
        }
        if shard.total != total {
            return Err(ArtifactError::Mismatch(format!(
                "shard was cut from a universe of {} faults, merge enumerates {total}",
                shard.total
            )));
        }
        for (k, outcome) in shard.outcomes.iter().enumerate() {
            if let Some(o) = outcome {
                table[shard.lo + k] = Some(o.clone());
            }
        }
    }
    Ok(table)
}

/// The shard-aware merge: recombines `shards` into a complete
/// [`RunArtifact`] whose canonical encoding is **byte-identical to a
/// single-node run** of the same `config`/seed over `circuit`.
///
/// Record order is restored by universe index (the speculation table is
/// index-aligned with the fault list), and the credit passes + the
/// credit-RNG stream execute here, serially, exactly as an undistributed
/// run executes them. Universe positions no shard covers are generated
/// locally, so a merge over an incomplete shard set is slower, never
/// wrong.
pub fn merge_artifact(
    circuit: &Circuit,
    source: Option<CircuitSource>,
    config: RunConfig,
    shards: &[&ShardArtifact],
) -> Result<RunArtifact, ArtifactError> {
    let table = assemble_table(circuit, &config, shards)?;
    let mut engine = Atpg::builder(circuit)
        .backend(config.backend)
        .model(config.model)
        .sensitization(config.sensitization)
        .universe(config.universe)
        .limits(config.limits)
        .seed(config.seed)
        .speculation(table)
        .try_build()
        .map_err(|e| ArtifactError::Mismatch(e.to_string()))?;
    let run = engine.run();
    Ok(RunArtifact::from_run(circuit, &run, config, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;
    use gdf_netlist::suite;

    fn config() -> RunConfig {
        RunConfig::new(Backend::NonScan).with_seed(0x51AD)
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_a_single_node_run() {
        let c = suite::s27();
        let config = config();
        let single = {
            let mut engine = Atpg::builder(&c)
                .backend(config.backend)
                .seed(config.seed)
                .build();
            let run = engine.run();
            RunArtifact::from_run(&c, &run, config, None).canonical_encode()
        };
        for n in [1, 2, 3, 5] {
            let total = config.model.model().enumerate(&c, &config.universe).len();
            let mut shards = Vec::new();
            let chunk = total.div_ceil(n);
            let mut lo = 0;
            while lo < total {
                let hi = (lo + chunk).min(total);
                let mut shard = ShardArtifact::new(&c, None, config, lo, hi).unwrap();
                assert!(shard.run(&c, |_| true).unwrap());
                assert!(shard.is_complete());
                shards.push(shard);
                lo = hi;
            }
            let refs: Vec<&ShardArtifact> = shards.iter().collect();
            let merged = merge_artifact(&c, None, config, &refs).unwrap();
            assert_eq!(
                merged.canonical_encode(),
                single,
                "merge of {n} shards reproduces the single-node bytes"
            );
        }
    }

    #[test]
    fn shard_encoding_round_trips_and_resumes() {
        let c = suite::s27();
        let config = config();
        let mut shard = ShardArtifact::new(&c, None, config, 2, 9).unwrap();
        // Stop after three outcomes: a partial, resumable shard.
        let mut steps = 0;
        let complete = shard
            .run(&c, |_| {
                steps += 1;
                steps < 3
            })
            .unwrap();
        assert!(!complete);
        assert_eq!(shard.decided(), 3);

        let text = shard.encode(&c);
        let mut restored = ShardArtifact::decode(&text, &c).unwrap();
        assert_eq!(restored, shard);

        // Resume from the decoded state; the completed shard equals one
        // computed in a single pass.
        assert!(restored.run(&c, |_| true).unwrap());
        let mut fresh = ShardArtifact::new(&c, None, config, 2, 9).unwrap();
        assert!(fresh.run(&c, |_| true).unwrap());
        assert_eq!(restored.encode(&c), fresh.encode(&c));
    }

    #[test]
    fn merge_fills_missing_ranges_locally() {
        let c = suite::s27();
        let config = config();
        // Only cover the middle third; the merge must still match.
        let total = config.model.model().enumerate(&c, &config.universe).len();
        let (lo, hi) = (total / 3, 2 * total / 3);
        let mut shard = ShardArtifact::new(&c, None, config, lo, hi).unwrap();
        assert!(shard.run(&c, |_| true).unwrap());
        let merged = merge_artifact(&c, None, config, &[&shard]).unwrap();

        let mut engine = Atpg::builder(&c)
            .backend(config.backend)
            .seed(config.seed)
            .build();
        let run = engine.run();
        let single = RunArtifact::from_run(&c, &run, config, None);
        assert_eq!(merged.canonical_encode(), single.canonical_encode());
    }

    #[test]
    fn assemble_rejects_foreign_shards() {
        let c = suite::s27();
        let config = config();
        let shard = ShardArtifact::new(&c, None, config.with_seed(7), 0, 4).unwrap();
        let err = assemble_table(&c, &config, &[&shard]).unwrap_err();
        assert!(matches!(err, ArtifactError::Mismatch(_)));
    }
}
